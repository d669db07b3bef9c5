"""Trace statistics: popularity skew and pooling factors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .access import Trace


@dataclass(frozen=True)
class TraceSummary:
    """Headline statistics reported alongside every dataset."""

    num_accesses: int
    num_unique: int
    num_tables: int
    top20_share: float
    mean_pooling: float
    max_pooling: int


def access_frequencies(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """Return (unique_keys, counts) sorted by descending count."""
    keys, counts = np.unique(trace.keys(), return_counts=True)
    order = np.argsort(-counts)
    return keys[order], counts[order]


def top_fraction_share(trace: Trace, fraction: float = 0.2) -> float:
    """Share of accesses taken by the most popular ``fraction`` of keys.

    The paper observes ~20% of vectors take ~80% of accesses.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    _, counts = access_frequencies(trace)
    if counts.size == 0:
        return 0.0
    k = max(1, int(np.ceil(counts.size * fraction)))
    return float(counts[:k].sum() / counts.sum())


def summarize(trace: Trace) -> TraceSummary:
    pooling = trace.pooling_factors() if trace.query_offsets is not None else np.array([0])
    return TraceSummary(
        num_accesses=len(trace),
        num_unique=trace.num_unique,
        num_tables=trace.num_tables,
        top20_share=top_fraction_share(trace, 0.2),
        mean_pooling=float(pooling.mean()) if pooling.size else 0.0,
        max_pooling=int(pooling.max()) if pooling.size else 0,
    )

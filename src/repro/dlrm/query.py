"""Turn an access trace into DLRM inference queries/batches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

from ..traces.access import Trace


@dataclass
class InferenceQuery:
    """One DLRM query: dense features + per-table row indices."""

    dense: np.ndarray
    sparse: Dict[int, np.ndarray]


def queries_from_trace(trace: Trace, num_dense: int = 8,
                       seed: int = 0) -> List[InferenceQuery]:
    """Reconstruct queries using the trace's query boundaries."""
    if trace.query_offsets is None:
        raise ValueError("trace lacks query boundaries")
    rng = np.random.default_rng(seed)
    queries: List[InferenceQuery] = []
    offsets = trace.query_offsets
    for q in range(len(offsets) - 1):
        lo, hi = int(offsets[q]), int(offsets[q + 1])
        sparse: Dict[int, List[int]] = {}
        for i in range(lo, hi):
            sparse.setdefault(int(trace.table_ids[i]), []).append(
                int(trace.row_ids[i])
            )
        queries.append(InferenceQuery(
            dense=rng.normal(size=num_dense),
            sparse={t: np.asarray(r, dtype=np.int64)
                    for t, r in sparse.items()},
        ))
    return queries


def batched(queries: List[InferenceQuery], batch_size: int
            ) -> Iterator[List[InferenceQuery]]:
    """Yield consecutive batches (last one may be short)."""
    for lo in range(0, len(queries), batch_size):
        yield queries[lo:lo + batch_size]

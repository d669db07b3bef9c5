"""Aggregate metrics used by the benchmark harness."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def geomean(values: Sequence[float], floor: float = 1e-9) -> float:
    """Geometric mean with a floor guarding zero entries (the paper
    reports geomeans of hit rates across datasets/buffer sizes)."""
    arr = np.maximum(np.asarray(list(values), dtype=np.float64), floor)
    if arr.size == 0:
        return 0.0
    return float(np.exp(np.mean(np.log(arr))))


def speedup(baseline: float, improved: float) -> float:
    """baseline/improved; > 1 means faster."""
    if improved <= 0:
        raise ValueError("improved time must be positive")
    return baseline / improved


def reduction(baseline: float, improved: float) -> float:
    """Fractional reduction (paper's 'reduces X by 31%')."""
    if baseline <= 0:
        return 0.0
    return (baseline - improved) / baseline

"""OPTgen: per-access optimal caching decisions and training labels.

OPTgen (Jain & Lin, "Back to the Future", ISCA'16) decides, for each
access, whether Belady's OPT *would have cached* the referenced line.
It maintains an *occupancy vector* over time: a reuse interval
``(prev_use, now)`` can be cached iff occupancy is below capacity at
every time slot in the interval; if so the line hits and the interval's
occupancy increments.

RecMG uses OPTgen offline to label its training data (paper §VI-A):

* **caching trace** — per-access binary "should this vector stay in the
  buffer" (we label an access cache-friendly when its *next* reuse would
  hit under OPT — the Hawkeye training signal);
* **prefetch trace** — the subsequence of accesses that still miss under
  OPT, which the prefetch model learns to predict.

Two implementations (bit-identical; property tests enforce it):

* :func:`run_optgen` — reuse intervals are precomputed in bulk
  (:func:`repro.traces.reuse.prev_occurrence_indices`, an
  ``np.argsort``-based last-seen pass), the occupancy vector is a flat
  numpy array, each feasibility check is one C-level slice max / slice
  increment, and the ``cache_friendly`` back-propagation is a
  vectorized gather.  A slice is O(interval) memory-bandwidth work per
  access; timed over whole passes it beat an iterative segment tree
  even at mean reuse intervals of 13k-33k, the longest any caller
  labels.

* :func:`run_optgen_reference` — the original per-access loop over a
  recursive segment tree (:class:`_RecursiveMaxSegmentTree`), kept as
  the audit reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..traces.access import Trace
from ..traces.reuse import next_occurrence_indices, prev_occurrence_indices
from .base import CacheStats


class _RecursiveMaxSegmentTree:
    """Recursive lazy segment tree: range add, range max — the occupancy
    structure of :func:`run_optgen_reference`, the audit oracle for
    :func:`run_optgen` (O(log n) per op, but paying a Python call stack
    per level)."""

    def __init__(self, size: int) -> None:
        self.n = max(1, size)
        self._max = np.zeros(4 * self.n, dtype=np.int64)
        self._lazy = np.zeros(4 * self.n, dtype=np.int64)

    def _push(self, node: int) -> None:
        lazy = self._lazy[node]
        if lazy:
            for child in (2 * node, 2 * node + 1):
                self._max[child] += lazy
                self._lazy[child] += lazy
            self._lazy[node] = 0

    def add(self, lo: int, hi: int, value: int) -> None:
        """Add ``value`` over [lo, hi] inclusive (no-op when empty)."""
        if lo > hi:
            return
        self._add(1, 0, self.n - 1, lo, hi, value)

    def _add(self, node: int, nlo: int, nhi: int, lo: int, hi: int, value: int) -> None:
        if hi < nlo or nhi < lo:
            return
        if lo <= nlo and nhi <= hi:
            self._max[node] += value
            self._lazy[node] += value
            return
        self._push(node)
        mid = (nlo + nhi) // 2
        self._add(2 * node, nlo, mid, lo, hi, value)
        self._add(2 * node + 1, mid + 1, nhi, lo, hi, value)
        self._max[node] = max(self._max[2 * node], self._max[2 * node + 1])

    def range_max(self, lo: int, hi: int) -> int:
        """Max over [lo, hi] inclusive; 0 for the empty interval."""
        if lo > hi:
            return 0
        return self._range_max(1, 0, self.n - 1, lo, hi)

    def _range_max(self, node: int, nlo: int, nhi: int, lo: int, hi: int) -> int:
        if hi < nlo or nhi < lo:
            return np.iinfo(np.int64).min
        if lo <= nlo and nhi <= hi:
            return int(self._max[node])
        self._push(node)
        mid = (nlo + nhi) // 2
        return max(
            self._range_max(2 * node, nlo, mid, lo, hi),
            self._range_max(2 * node + 1, mid + 1, nhi, lo, hi),
        )


@dataclass
class OptgenResult:
    """Output of an OPTgen pass over one trace."""

    #: Per-access: would this access hit under OPT?
    opt_hits: np.ndarray
    #: Per-access: cache-friendly label ("1" = keep in buffer) — true
    #: when the next reuse of this vector is an OPT hit.
    cache_friendly: np.ndarray
    stats: CacheStats

    @property
    def hit_rate(self) -> float:
        return self.stats.hit_rate


def run_optgen(trace: Trace, capacity: int) -> OptgenResult:
    """Run OPTgen over ``trace`` with a fully associative budget.

    The paper sets the OPTgen budget to 80% of the physical GPU buffer,
    reserving headroom for prefetched vectors; callers apply that scaling.
    Bit-identical to :func:`run_optgen_reference`.
    """
    if capacity < 1:
        raise ValueError("capacity must be >= 1")

    keys = trace.keys()
    n = len(keys)
    prev = prev_occurrence_indices(keys)
    occupancy = np.zeros(n, dtype=np.int32)
    opt_list = [False] * n
    hits = 0
    for i, p in enumerate(prev.tolist()):
        if p >= 0:
            # Interval [p, i) must have spare occupancy everywhere; an
            # empty slice (degenerate self-reuse) maxes to the initial 0
            # and increments nothing, i.e. it trivially hits.
            window = occupancy[p:i]
            if window.max(initial=0) < capacity:
                window += 1
                opt_list[i] = True
                hits += 1
    opt_hits = np.asarray(opt_list, dtype=bool)
    stats = CacheStats(hits=hits, misses=n - hits)

    # cache_friendly[i]: does the *next* access to the same key hit?
    nxt = next_occurrence_indices(keys, prev=prev)
    cache_friendly = np.zeros(n, dtype=bool)
    has_next = nxt >= 0
    cache_friendly[has_next] = opt_hits[nxt[has_next]]
    return OptgenResult(opt_hits=opt_hits, cache_friendly=cache_friendly,
                        stats=stats)


def run_optgen_reference(trace: Trace, capacity: int) -> OptgenResult:
    """Per-access audit implementation of :func:`run_optgen`."""
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    keys = trace.keys()
    n = len(keys)
    tree = _RecursiveMaxSegmentTree(n)
    opt_hits = np.zeros(n, dtype=bool)
    last_pos: Dict[int, int] = {}
    stats = CacheStats()

    for i in range(n):
        key = int(keys[i])
        prev = last_pos.get(key)
        if prev is None:
            stats.record(False)
        elif prev >= i:
            # Degenerate self-reuse: the interval is empty, so it is
            # trivially feasible and occupies nothing.
            opt_hits[i] = True
            stats.record(True)
        else:
            # Interval [prev, i) must have spare occupancy everywhere.
            if tree.range_max(prev, i - 1) < capacity:
                opt_hits[i] = True
                tree.add(prev, i - 1, 1)
                stats.record(True)
            else:
                stats.record(False)
        last_pos[key] = i

    # cache_friendly[i]: does the *next* access to the same key hit?
    cache_friendly = np.zeros(n, dtype=bool)
    next_hit: Dict[int, bool] = {}
    for i in range(n - 1, -1, -1):
        key = int(keys[i])
        cache_friendly[i] = next_hit.get(key, False)
        next_hit[key] = bool(opt_hits[i])
    return OptgenResult(opt_hits=opt_hits, cache_friendly=cache_friendly,
                        stats=stats)


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
  ``np.argsort``-based last-seen pass), the ``cache_friendly``
  back-propagation is a vectorized gather, and the per-access
  feasibility pass is picked by a cost model over the precomputed
  interval lengths:

  - short mean intervals → the slice pass: the occupancy vector is a
    flat numpy array and each feasibility check is one C-level slice
    max / slice increment (O(interval) memory-bandwidth work, which on
    real traces beats any pointer structure in Python);
  - long mean intervals → the tree pass: a flat *iterative* lazy
    segment tree (:class:`_MaxSegmentTree`, no recursion, fused
    query+update), keeping the pass O(n log n) in the adversarial case.

* :func:`run_optgen_reference` — the original per-access loop over a
  recursive segment tree (:class:`_RecursiveMaxSegmentTree`), kept as
  the audit reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from ..traces.access import Trace
from ..traces.reuse import next_occurrence_indices, prev_occurrence_indices
from .base import CacheStats


class _MaxSegmentTree:
    """Flat iterative lazy segment tree: range add, range max.

    Layout: ``t[n:2n]`` are the leaves, ``t[1:n]`` the internal nodes,
    ``d[x]`` the pending add of internal node ``x`` (not yet applied to
    its children, already applied to ``t[x]``).  All operations walk the
    two border paths with plain integer arithmetic — no recursion, no
    stack — which is what makes per-access use affordable in Python.

    Empty ranges (``lo > hi``) are explicitly legal: ``range_max``
    returns 0 (an empty interval has no occupied slot) and ``add`` is a
    no-op.  This guards the degenerate ``prev == now`` self-reuse case.
    """

    def __init__(self, size: int) -> None:
        self.n = max(1, size)
        self.h = self.n.bit_length()
        self.t: List[int] = [0] * (2 * self.n)
        self.d: List[int] = [0] * self.n

    def _push_to(self, leaf: int) -> None:
        """Apply pending adds on the path from the root down to ``leaf``."""
        t, d, n = self.t, self.d, self.n
        for s in range(self.h, 0, -1):
            x = leaf >> s
            if x >= 1 and d[x]:
                v = d[x]
                c = 2 * x
                t[c] += v
                if c < n:
                    d[c] += v
                c += 1
                t[c] += v
                if c < n:
                    d[c] += v
                d[x] = 0

    def _rebuild_from(self, leaf: int) -> None:
        """Recompute maxima on the path from ``leaf``'s parent to the root."""
        t, d = self.t, self.d
        x = leaf >> 1
        while x:
            left, right = t[2 * x], t[2 * x + 1]
            t[x] = (left if left >= right else right) + d[x]
            x >>= 1

    def add(self, lo: int, hi: int, value: int) -> None:
        """Add ``value`` over [lo, hi] inclusive (no-op when empty)."""
        if lo > hi:
            return
        t, d, n = self.t, self.d, self.n
        lf, r = lo + n, hi + n + 1
        ll, rr = lf, r - 1
        while lf < r:
            if lf & 1:
                t[lf] += value
                if lf < n:
                    d[lf] += value
                lf += 1
            if r & 1:
                r -= 1
                t[r] += value
                if r < n:
                    d[r] += value
            lf >>= 1
            r >>= 1
        self._rebuild_from(ll)
        self._rebuild_from(rr)

    def range_max(self, lo: int, hi: int) -> int:
        """Max over [lo, hi] inclusive; 0 for the empty interval."""
        if lo > hi:
            return 0
        t, n = self.t, self.n
        lf, r = lo + n, hi + n + 1
        self._push_to(lf)
        self._push_to(r - 1)
        result = -(1 << 62)
        while lf < r:
            if lf & 1:
                if t[lf] > result:
                    result = t[lf]
                lf += 1
            if r & 1:
                r -= 1
                if t[r] > result:
                    result = t[r]
            lf >>= 1
            r >>= 1
        return result

    def query_below_then_add(self, lo: int, hi: int, cap: int) -> bool:
        """Fused OPTgen step: if ``max([lo, hi]) < cap``, add +1 over the
        range and return True (hit); else leave the tree untouched.

        One border push serves both the query and the update, halving
        the traversal work of the hot loop.  An empty interval (the
        ``prev == now`` self-reuse guard) is trivially feasible and has
        nothing to occupy, so it returns True without touching the tree.
        """
        if lo > hi:
            return True
        t, d, n = self.t, self.d, self.n
        lf, r = lo + n, hi + n + 1
        self._push_to(lf)
        self._push_to(r - 1)
        best = -(1 << 62)
        ll, rr = lf, r
        while ll < rr:
            if ll & 1:
                if t[ll] > best:
                    best = t[ll]
                ll += 1
            if rr & 1:
                rr -= 1
                if t[rr] > best:
                    best = t[rr]
            ll >>= 1
            rr >>= 1
        if best >= cap:
            return False
        ll, rr = lf, r
        while ll < rr:
            if ll & 1:
                t[ll] += 1
                if ll < n:
                    d[ll] += 1
                ll += 1
            if rr & 1:
                rr -= 1
                t[rr] += 1
                if rr < n:
                    d[rr] += 1
            ll >>= 1
            rr >>= 1
        self._rebuild_from(lf)
        self._rebuild_from(r - 1)
        return True


class _RecursiveMaxSegmentTree:
    """Recursive lazy segment tree — the audit reference for
    :class:`_MaxSegmentTree` (same API, O(log n) per op, but paying a
    Python call stack per level)."""

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


#: Mean reuse-interval length above which :func:`run_optgen` switches
#: from the numpy occupancy-slice pass to the iterative segment tree (the
#: slice pass does O(interval) memory-bandwidth work per access, the
#: tree ~O(log n) interpreted steps; the break-even sits in the
#: thousands of elements on current hardware).
_SLICE_ENGINE_MAX_MEAN_INTERVAL = 8192


def _optgen_pass_slices(prev_list: List[int], n: int, capacity: int,
                        opt_list: List[bool]) -> int:
    """Feasibility pass over a flat numpy occupancy vector."""
    occupancy = np.zeros(n, dtype=np.int32)
    hits = 0
    for i, p in enumerate(prev_list):
        if p >= 0:
            # Interval [p, i) must have spare occupancy everywhere; an
            # empty slice (degenerate self-reuse) maxes to the initial 0
            # and increments nothing, i.e. it trivially hits.
            window = occupancy[p:i]
            if window.max(initial=0) < capacity:
                window += 1
                opt_list[i] = True
                hits += 1
    return hits


def _optgen_pass_tree(prev_list: List[int], n: int, capacity: int,
                      opt_list: List[bool]) -> int:
    """Feasibility pass over the flat iterative segment tree."""
    decide = _MaxSegmentTree(n).query_below_then_add
    hits = 0
    for i, p in enumerate(prev_list):
        # The empty interval (p >= i, degenerate self-reuse) is handled
        # inside the fused query.
        if p >= 0 and decide(p, i - 1, capacity):
            opt_list[i] = True
            hits += 1
    return hits


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
    opt_list = [False] * n
    hits = 0
    if n:
        warm = prev >= 0
        total_len = int((np.nonzero(warm)[0] - prev[warm]).sum())
        mean_len = total_len / max(1, int(warm.sum()))
        run_pass = (_optgen_pass_slices
                    if mean_len <= _SLICE_ENGINE_MAX_MEAN_INTERVAL
                    else _optgen_pass_tree)
        hits = run_pass(prev.tolist(), n, capacity, opt_list)
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


def prefetch_trace_from(result: OptgenResult, trace: Trace) -> np.ndarray:
    """Indices (into ``trace``) of accesses that miss under OPT.

    Per the paper: "The prefetch trace, derived from the caching trace,
    consists of embedding vectors leading to cache misses".
    """
    return np.nonzero(~result.opt_hits)[0]

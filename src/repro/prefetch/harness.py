"""Buffer + prefetcher co-simulation and access breakdowns (Fig. 14).

The paper breaks GPU-buffer accesses into three classes: hits produced
by the caching policy, hits produced by the prefetcher (first demand
touch of a prefetched line), and on-demand fetches from CPU memory.
This harness runs a fully associative LRU buffer with an optional
prefetcher feeding insertions and produces that breakdown for baseline
configurations (Domino/Bingo/TransFetch/LRU+PF); the RecMG breakdown
comes from :mod:`repro.core.manager`.

**Prefetch accounting semantics** (unified across the repo): a prefetch
counts as *issued* only when it actually fills the buffer — suggestions
for keys already resident are dropped without touching any counter.
:class:`LRUBufferWithPrefetch` here,
:class:`repro.cache.set_assoc.SetAssociativeCache`, and
:class:`repro.core.manager.RecMGManager` all follow this rule, so
``prefetch_accuracy = useful / issued`` has the same denominator in the
Fig. 14 and Table IV comparisons.

The no-prefetcher configuration is served by a closed-form vectorized
path: fully associative LRU is a stack algorithm, so an access hits iff
its reuse distance (number of distinct keys since the previous touch)
is below capacity — :func:`repro.traces.reuse.reuse_distances_from_keys`
computes all distances in O(log n) numpy passes, replacing the
per-access simulation loop.  The loop (``engine="reference"``) is kept
as the audit path and for prefetcher co-simulation, which is stateful
per access.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..traces.access import Trace
from ..traces.reuse import reuse_distances_from_keys
from .base import Prefetcher


@dataclass
class AccessBreakdown:
    """Per-class access counts over a simulation run."""

    cache_hits: int = 0
    prefetch_hits: int = 0
    on_demand: int = 0

    @property
    def total(self) -> int:
        return self.cache_hits + self.prefetch_hits + self.on_demand

    @property
    def hit_rate(self) -> float:
        return (self.cache_hits + self.prefetch_hits) / self.total if self.total else 0.0

    def fractions(self) -> Dict[str, float]:
        total = max(1, self.total)
        return {
            "cache_hit": self.cache_hits / total,
            "prefetch_hit": self.prefetch_hits / total,
            "on_demand": self.on_demand / total,
        }


class LRUBufferWithPrefetch:
    """Fully associative LRU buffer accepting prefetch insertions.

    A line inserted by the prefetcher is tagged; its first demand hit is
    counted as a *prefetch hit* (and the tag clears).  Demand misses
    fetch on demand.  ``metadata_fraction`` reserves part of the buffer
    capacity for prefetcher metadata (the paper notes Domino "consumes
    excessive GPU buffer capacity for metadata recording").  The
    entries are one OrderedDict, key -> prefetched?, in recency order.
    A priority-buffer backend under the same scalar access loop is
    ``repro.dlrm.inference.BufferClassifier``.
    """

    def __init__(self, capacity: int, prefetcher: Optional[Prefetcher] = None,
                 max_prefetches_per_access: int = 4,
                 metadata_fraction: float = 0.0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        effective = max(1, int(capacity * (1.0 - metadata_fraction)))
        self.capacity = effective
        self.prefetcher = prefetcher
        self.max_prefetches_per_access = max_prefetches_per_access
        self._entries: "OrderedDict[int, bool]" = OrderedDict()
        self.breakdown = AccessBreakdown()
        self.prefetches_issued = 0
        self.prefetches_useful = 0

    def __contains__(self, key: int) -> bool:
        return key in self._entries

    def _insert(self, key: int, prefetched: bool) -> None:
        if key in self._entries:
            self._entries.move_to_end(key)
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[key] = prefetched

    def access(self, key: int, pc: int = 0) -> str:
        """Process one demand access; returns its class name."""
        if key in self._entries:
            was_prefetched = self._entries[key]
            self._entries[key] = False
            self._entries.move_to_end(key)
            hit = True
        else:
            was_prefetched = False
            self._insert(key, prefetched=False)
            hit = False

        if hit:
            if was_prefetched:
                self.breakdown.prefetch_hits += 1
                self.prefetches_useful += 1
                kind = "prefetch_hit"
            else:
                self.breakdown.cache_hits += 1
                kind = "cache_hit"
        else:
            self.breakdown.on_demand += 1
            kind = "on_demand"

        if self.prefetcher is not None:
            suggestions = self.prefetcher.observe(key, pc=pc, hit=hit)
            for suggestion in suggestions[: self.max_prefetches_per_access]:
                if suggestion not in self:
                    self.prefetches_issued += 1
                    self._insert(suggestion, prefetched=True)
        return kind


def run_breakdown(trace: Trace, capacity: int,
                  prefetcher: Optional[Prefetcher] = None,
                  metadata_fraction: float = 0.0,
                  use_dense_keys: bool = True,
                  engine: str = "fast") -> AccessBreakdown:
    """Simulate ``trace`` through an LRU buffer (+ optional prefetcher).

    ``use_dense_keys`` remaps packed keys into a dense index space so
    delta/offset prefetchers see meaningful arithmetic (this mirrors the
    paper "treating each embedding-vector index as a memory address").

    Without a prefetcher the default ``engine="fast"`` computes the
    breakdown in closed form from vectorized reuse distances (see module
    docstring) — bit-identical to the simulation loop, which
    ``engine="reference"`` forces.
    """
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown breakdown engine: {engine!r}")
    if use_dense_keys:
        from ..traces.access import remap_to_dense

        keys, _ = remap_to_dense(trace)
    else:
        keys = trace.keys()
    if prefetcher is None and engine == "fast":
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        effective = max(1, int(capacity * (1.0 - metadata_fraction)))
        distances = reuse_distances_from_keys(keys)
        hits = int(((distances >= 0) & (distances < effective)).sum())
        return AccessBreakdown(cache_hits=hits, prefetch_hits=0,
                               on_demand=len(keys) - hits)
    tables = trace.table_ids
    buffer = LRUBufferWithPrefetch(capacity, prefetcher=prefetcher,
                                   metadata_fraction=metadata_fraction)
    for i in range(len(keys)):
        buffer.access(int(keys[i]), pc=int(tables[i]))
    return buffer.breakdown


def run_breakdown_sweep(trace: Trace, capacities,
                        metadata_fraction: float = 0.0,
                        use_dense_keys: bool = True) -> List[AccessBreakdown]:
    """No-prefetcher LRU breakdowns for many capacities at once.

    This is where the closed-form path pays off hardest: the reuse
    distances are computed once per trace and each capacity then costs a
    single binary search over the sorted warm distances, whereas a
    per-access simulation must re-run the full trace per capacity.
    Results are identical to ``run_breakdown(trace, c)`` for each ``c``.
    """
    if use_dense_keys:
        from ..traces.access import remap_to_dense

        keys, _ = remap_to_dense(trace)
    else:
        keys = trace.keys()
    distances = reuse_distances_from_keys(keys)
    sorted_warm = np.sort(distances[distances >= 0])
    breakdowns = []
    for capacity in capacities:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        effective = max(1, int(capacity * (1.0 - metadata_fraction)))
        hits = int(np.searchsorted(sorted_warm, effective, side="left"))
        breakdowns.append(AccessBreakdown(cache_hits=hits, prefetch_hits=0,
                                          on_demand=len(keys) - hits))
    return breakdowns

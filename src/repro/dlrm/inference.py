"""End-to-end DLRM inference engine with buffer management + timing.

Produces the paper's Fig. 16 breakdown per batch: embedding copy to GPU,
GPU computation, GPU buffer management (dominated by on-demand fetches),
and "others" (sync overheads).  The buffer manager is pluggable: a plain
LRU cache, RecMG with the caching model only, or full RecMG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Protocol

import numpy as np

from ..cache.buffer import make_buffer
from ..traces.access import Trace
from .model import DLRM
from .tiered import TieredMemoryConfig


@dataclass
class BatchTiming:
    """Per-batch time breakdown (ms), matching Fig. 16's stacking."""

    embedding_copy_ms: float = 0.0
    gpu_compute_ms: float = 0.0
    buffer_management_ms: float = 0.0
    others_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return (self.embedding_copy_ms + self.gpu_compute_ms
                + self.buffer_management_ms + self.others_ms)


@dataclass
class InferenceReport:
    """Aggregated run: per-batch timings + access statistics."""

    batches: List[BatchTiming] = field(default_factory=list)
    hits: int = 0
    misses: int = 0

    @property
    def total_accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.total_accesses if self.total_accesses else 0.0

    @property
    def mean_batch_ms(self) -> float:
        if not self.batches:
            return 0.0
        return float(np.mean([b.total_ms for b in self.batches]))

    def mean_breakdown(self) -> BatchTiming:
        if not self.batches:
            return BatchTiming()
        return BatchTiming(
            embedding_copy_ms=float(np.mean([b.embedding_copy_ms for b in self.batches])),
            gpu_compute_ms=float(np.mean([b.gpu_compute_ms for b in self.batches])),
            buffer_management_ms=float(np.mean([b.buffer_management_ms for b in self.batches])),
            others_ms=float(np.mean([b.others_ms for b in self.batches])),
        )


class AccessClassifier(Protocol):
    """Anything that can classify an access stream into hits/misses.

    Classifiers may additionally expose ``access_batch(keys, pcs) ->
    bool[:]`` — :class:`InferenceEngine` then classifies each serving
    batch with one call (``id -> slot`` gathers on the clock-backed
    classifiers) instead of a per-access loop.
    """

    def access(self, key: int, pc: int = 0) -> bool: ...


class InferenceEngine:
    """Simulated DLRM serving loop over a trace of embedding accesses.

    ``classifier`` decides hit/miss per access (an LRU cache, a RecMG
    manager adapter, ...); the latency model converts the counts into
    the Fig. 16 breakdown.  ``accesses_per_batch`` stands in for the
    paper's batch of 512 queries (over 600K vectors per batch at
    production scale).
    """

    def __init__(self, dlrm: Optional[DLRM] = None,
                 memory: Optional[TieredMemoryConfig] = None,
                 accesses_per_batch: int = 2048) -> None:
        self.dlrm = dlrm or DLRM()
        self.memory = memory or TieredMemoryConfig()
        self.accesses_per_batch = accesses_per_batch

    def run(self, trace: Trace, classifier: AccessClassifier,
            batch_queries: int = 512) -> InferenceReport:
        keys = trace.keys()
        tables = trace.table_ids
        report = InferenceReport()
        dim = self.dlrm.config.embedding_dim
        flops_per_batch = self.dlrm.flops_per_query * batch_queries
        access_batch = getattr(classifier, "access_batch", None)

        for lo in range(0, len(keys), self.accesses_per_batch):
            hi = min(lo + self.accesses_per_batch, len(keys))
            if access_batch is not None:
                hits = access_batch(keys[lo:hi], tables[lo:hi])
                batch_hits = int(np.count_nonzero(hits))
                batch_misses = (hi - lo) - batch_hits
            else:
                batch_hits = 0
                batch_misses = 0
                for i in range(lo, hi):
                    if classifier.access(int(keys[i]), pc=int(tables[i])):
                        batch_hits += 1
                    else:
                        batch_misses += 1
            report.hits += batch_hits
            report.misses += batch_misses
            timing = BatchTiming(
                embedding_copy_ms=self.memory.copy_time_ms(hi - lo, dim),
                gpu_compute_ms=self.memory.compute_time_ms(flops_per_batch),
                buffer_management_ms=(
                    self.memory.on_demand_time_ms(batch_misses)
                    + self.memory.hit_time_ms(batch_hits)
                ),
                others_ms=self.memory.batch_overhead_ms,
            )
            report.batches.append(timing)
        return report


class BufferClassifier:
    """Model-free :class:`AccessClassifier` over a priority-buffer
    backend selected by ``buffer_impl`` (see :mod:`repro.cache.buffer`).

    Serves every access against the raw aged-priority buffer — insert
    and re-reference at ``priority``, evict on demand — giving the
    inference engine a buffer-managed baseline between plain
    :class:`~repro.cache.lru.LRUCache` and a fully trained RecMG
    manager.  With ``buffer_impl="clock"`` this is the cheapest serving
    configuration: array-backed slots with second-chance eviction;
    pass ``key_space`` (dense key universe) and membership runs off the
    backend's ``id -> slot`` vector — without it (raw packed keys) every
    key takes the spillover dict, with identical decisions.

    :meth:`access_batch` serves a whole engine batch with one
    ``serve_segment`` call, total on every buffer: bit-identical to
    the scalar loop on the exact ``"reference"`` and ``"fast"``
    backends — decisions, victims and buffer state included — and the
    manager's clock policy on ``"clock"``.  Sharded and model-guided
    serving go through :class:`repro.core.manager.RecMGManager`.
    """

    def __init__(self, capacity: int, buffer_impl: str = "clock",
                 priority: int = 4,
                 key_space: Optional[int] = None) -> None:
        self.buffer = make_buffer(buffer_impl, capacity,
                                  key_space=key_space)
        self.priority = priority

    def access(self, key: int, pc: int = 0) -> bool:
        key = int(key)
        buffer = self.buffer
        if key in buffer:
            buffer.set_priority(key, self.priority)
            return True
        if buffer.is_full:
            buffer.evict_one()
        buffer.insert(key, self.priority)
        return False

    def access_batch(self, keys: np.ndarray,
                     pcs: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-access hit booleans for a whole batch (see class doc)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        _, misses, _ = self.buffer.serve_segment(keys, self.priority)
        hits = np.ones(keys.size, dtype=bool)
        hits[misses] = False
        return hits


class ManagerClassifier:
    """Adapts a :class:`repro.core.manager.RecMGManager` run into the
    per-access classifier interface by replaying its recorded decisions.

    The manager operates on chunk boundaries (models fire per chunk), so
    it is run once up front and the resulting per-access hit stream is
    replayed to the engine.
    """

    def __init__(self, manager, trace: Trace) -> None:
        from ..core.manager import RecMGManager  # local import, no cycle

        if not isinstance(manager, RecMGManager):
            raise TypeError("ManagerClassifier wraps a RecMGManager")
        self._decisions = self._record(manager, trace)
        self._cursor = 0

    @staticmethod
    def _record(manager, trace: Trace) -> np.ndarray:
        manager.run(trace, record_decisions=True)
        return manager.last_decisions

    def access(self, key: int, pc: int = 0) -> bool:
        hit = bool(self._decisions[self._cursor])
        self._cursor += 1
        return hit

    def access_batch(self, keys: np.ndarray,
                     pcs: Optional[np.ndarray] = None) -> np.ndarray:
        """Replay a whole batch of recorded decisions in one slice."""
        lo = self._cursor
        hi = lo + len(keys)
        if hi > len(self._decisions):
            # Same failure the scalar path hits one access later: the
            # engine is serving more accesses than the wrapped manager
            # run recorded — fail loudly, never under-count.
            raise IndexError(
                f"decision stream exhausted: engine requested access "
                f"{hi} of {len(self._decisions)} recorded")
        self._cursor = hi
        return self._decisions[lo:hi]

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

from ..cache.buffer import (
    iter_serve_segments,
    make_buffer,
    reclaim_batch_space,
)
from ..cache.sharding import backend_for_key
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
    batch with one call (residency-bitmap gathers on the clock-backed
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
    configuration: array-backed residency with second-chance eviction;
    pass ``key_space`` (dense key universe) and membership runs off the
    residency bitmap — without it (raw packed keys) every key takes the
    spillover path, with identical decisions.

    :meth:`access_batch` serves a whole engine batch at once.  On the
    approximate clock backend it uses the manager's batched-reclaim
    scheme (pre-evict the space the batch needs, then one bulk
    ``put_batch``); the exact ``"fast"`` backend serves through
    :meth:`~repro.cache.buffer.FastPriorityBuffer.serve_segment`, which
    is bit-identical to the scalar loop — decisions, victims and buffer
    state included; the ``"reference"`` backend replays the scalar
    loop.

    ``num_shards > 1`` (with ``key_space``, which the routers require)
    partitions the id universe across shards
    (:class:`~repro.cache.sharding.ShardedBuffer`):
    :meth:`access_batch` scatters the batch shard-wise with one
    vectorized route and classifies each shard's sub-batch through the
    matching scheme above; the scalar path evicts from the routed
    shard.

    ``priority_provider`` puts the caching model in the loop (same seam
    as the manager's ``priority_mode`` — see
    :mod:`repro.serving.priorities`): after each :meth:`access_batch`
    completes, the batch is sunk through the provider and any ``>= 0``
    bits land on resident keys via the shared bulk applier.  Requires
    driving the classifier with *dense* ids (the provider's feature
    space — the same universe ``key_space`` and the shard routers
    assume); the scalar :meth:`access` path never sinks, the provider
    operates at batch granularity only.
    """

    def __init__(self, capacity: int, buffer_impl: str = "clock",
                 priority: int = 4,
                 key_space: Optional[int] = None,
                 num_shards: int = 1,
                 shard_policy: str = "contiguous",
                 shard_weights=None,
                 priority_provider=None) -> None:
        self.buffer = make_buffer(buffer_impl, capacity,
                                  key_space=key_space,
                                  num_shards=num_shards,
                                  shard_policy=shard_policy,
                                  shard_weights=shard_weights)
        self.priority = priority
        self.priority_provider = priority_provider
        self._provider_active = (
            priority_provider is not None
            and getattr(priority_provider, "mode", "none") != "none")

    def access(self, key: int, pc: int = 0) -> bool:
        return self._serve_scalar(backend_for_key(self.buffer, int(key)),
                                  int(key))

    def _serve_scalar(self, buffer, key: int) -> bool:
        if key in buffer:
            buffer.set_priority(key, self.priority)
            return True
        if buffer.is_full:
            buffer.evict_one()
        buffer.insert(key, self.priority)
        return False

    def _access_loop(self, buffer, keys: np.ndarray) -> np.ndarray:
        return np.fromiter(
            (self._serve_scalar(buffer, int(key)) for key in keys),
            dtype=bool, count=len(keys))

    def access_batch(self, keys: np.ndarray,
                     pcs: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-access hit booleans for a whole batch (see class doc)."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return np.zeros(0, dtype=bool)
        hits = self._route_batch(keys)
        if self._provider_active:
            self._sink_provider(keys)
        return hits

    def _route_batch(self, keys: np.ndarray) -> np.ndarray:
        buffer = self.buffer
        segments = getattr(buffer, "iter_shard_segments", None)
        if segments is None:
            return self._classify_batch(buffer, keys)
        # Sharded: one vectorized scatter, per-shard classification,
        # one gather back into batch order.
        hits = np.empty(keys.size, dtype=bool)
        for _, shard, positions, sub in segments(keys):
            hits[positions] = self._classify_batch(shard, sub)
        return hits

    def _sink_provider(self, keys: np.ndarray) -> None:
        """Feed a completed batch to the provider and apply returned
        bits — the :meth:`RecMGManager._sink_provider` contract at the
        classifier's batch granularity."""
        from ..serving.priorities import apply_caching_bits

        provider = self.priority_provider
        provider.observe(keys)
        bits = provider.bits_for(keys)
        if bits is None:
            return
        valid = bits >= 0
        if not valid.any():
            return
        apply_caching_bits(self.buffer, keys[valid], bits[valid],
                           self.priority)

    def _classify_batch(self, buffer, keys: np.ndarray) -> np.ndarray:
        """Hit booleans for ``keys`` against one single-shard backend."""
        if not getattr(buffer, "approximate", False):
            if not hasattr(buffer, "serve_segment"):
                return self._access_loop(buffer, keys)
            # Exact bulk path: the shared serve-prefix driver yields
            # bulk prefixes plus the scalar stretches to replay.
            hits = np.ones(keys.size, dtype=bool)
            for chunk in iter_serve_segments(buffer, keys, self.priority):
                if chunk[0] == "scalar":
                    _, start, span = chunk
                    hits[start:start + span] = self._access_loop(
                        buffer, keys[start:start + span])
                else:
                    _, start, _, first_miss, _ = chunk
                    hits[start + first_miss] = False
            return hits
        resident = buffer.contains_batch(keys)
        if resident.all():
            buffer.put_batch(keys, self.priority)
            return np.ones(keys.size, dtype=bool)
        uniq, first_idx = np.unique(keys, return_index=True)
        if uniq.size > buffer.capacity:
            # Batch wider than the buffer: cannot pre-reclaim.
            return self._access_loop(buffer, keys)
        _, stale = reclaim_batch_space(
            buffer, uniq, int(np.count_nonzero(~resident[first_idx])))
        if stale:  # victims inside the batch re-miss
            resident = buffer.contains_batch(keys)
        hits = np.ones(keys.size, dtype=bool)
        hits[first_idx[~resident[first_idx]]] = False
        buffer.put_batch(keys, self.priority)
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

"""Online GPU-buffer management with the two RecMG models (paper §VI-B).

Implements the deployment loop around Algorithms 1 and 2: demand
accesses are served from the priority buffer; at each chunk boundary the
caching model assigns 1-bit priorities to the just-accessed trunk
(``priority = C[i] + eviction_speed``) and the prefetch model's outputs
are fetched into the buffer at ``priority = eviction_speed``.  Eviction
picks the minimum-priority entry and ages everyone (Algorithm 2).

Both models are optional, which yields the paper's ablation variants:
no models = aged-priority LRU-like buffer; caching model only = "CM";
prefetch model only on LRU = "LRU+PF" (see :class:`ModelPrefetcher`).

The buffer backend is selected by ``buffer_impl`` (constructor argument,
falling back to ``config.buffer_impl``; see :mod:`repro.cache.buffer`):

* ``"fast"`` (default) — exact semantics; with a fitted encoder the
  buffer runs in dense (``key_space``) mode and ``fast_serve`` uses the
  *batched exact engine* (:meth:`RecMGManager._serve_demand_batched_exact`):
  one residency gather classifies the segment, one vectorized victim
  selection pre-reclaims the space it needs, and one bulk scatter
  stores it — decision-for-decision and state-identical to the scalar
  audit loop (the buffer refuses any segment where bulk reclaim could
  diverge, and the engine splits or falls back).  Segments of at most
  ``_SCALAR_FALLBACK`` keys skip the bulk call, whose fixed cost they
  cannot amortise, for the scalar loop itself, which the dense
  buffer's victim queue makes amortised O(1) per eviction.  The 15-key
  model chunks of :meth:`run` do not reach the engine one by one at
  all: with no priority provider active, one
  :meth:`~repro.cache.buffer.FastPriorityBuffer.serve_chunks` pass runs
  serve -> caching bits -> prefetches for the whole block.  Every other
  run (``reference``, clock, sharded, dict mode, provider active,
  ``fast_serve=False``) keeps the per-chunk triple, which is that
  pass's oracle.  Dict mode keeps the lazy-heap bulk pre-pass,
  likewise bit-identical.
* ``"reference"`` — exact O(n) audit backend; always served through the
  scalar loop.
* ``"clock"`` — approximate array-backed CLOCK; ``fast_serve`` switches
  to the *batched-reclaim* engine: one
  :meth:`~repro.cache.buffer.ClockBuffer.serve_segment` pass per
  segment classifies it, reclaims the space its new keys need with
  protected eviction and stores it.  Hit/miss
  streams may differ from the exact backends (approximate victim
  order), but counters stay conserved and capacity is never exceeded.

``num_shards > 1`` (constructor argument or ``config.num_shards``,
with ``shard_policy`` picking the router) partitions the dense id
universe across independent shards
(:class:`repro.cache.sharding.ShardedBuffer`); ``fast_serve`` then
routes whole demand segments shard-wise
(:meth:`RecMGManager._serve_demand_sharded`): one vectorized scatter,
the matching per-shard ``serve_segment`` scheme (batched-reclaim on
clock shards, bulk-exact on fast shards), one gather back
into segment-order accounting.  Eviction-for-space is per shard — the
scalar paths route through
:func:`repro.cache.sharding.backend_for_key` so a miss evicts from the
shard that will hold the key.

Serving is one thread (scale-out is processes at the shard boundary —
see :mod:`repro.serving`).  :meth:`RecMGManager.serve_batch` is the
front door the admission queue/batcher stack
(:mod:`repro.serving.admission`) drives; per-batch wall latency and
queue depth land in :attr:`RecMGManager.serving_metrics`
(:class:`repro.serving.metrics.ServingMetrics`).

``rebalance_interval > 0`` (``config.rebalance_interval``) turns on
**online elastic rebalancing**: the manager accumulates a per-shard
traffic EWMA at the block gather (one route already scatters every
block shard-wise, so the counts are free), and every ``interval``
served accesses compares the traffic shares against the current
capacity split.  When the worst shard's imbalance exceeds
``rebalance_threshold`` it calls
:meth:`repro.cache.sharding.ShardedBuffer.rebalance` with the EWMA
weights — live key migration between the compressed shard universes,
eviction state carried (see :mod:`repro.cache.sharding`).  The call
always lands at a block boundary, between two serves (pinned by
``tests/test_rebalancing.py``).  Donor-shrink victims count as manager
evictions; migrated-key counts and the serving pause land in
:attr:`RecMGManager.serving_metrics`.

Serving is backend-agnostic through the **bulk residency/priority
protocol** (see :mod:`repro.cache.buffer`): every backend answers
``contains_batch(keys) -> bool[:]`` and accepts
``set_priority_batch``/``demote_batch``.  The manager fits the encoder's
dense-id universe as the buffer's ``key_space``, so the dense backends
classify a whole segment with one gather
(:class:`repro.cache.residency.ResidencyIndex`) instead of a per-key
dict loop — the chunk-boundary caching-bit writes
(:meth:`RecMGManager._apply_caching_bits`) ride on it.  The exact
backends answer the same calls off their entry dicts, so no call site
branches on the backend.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set, Tuple

import numpy as np

from ..cache.buffer import (
    SCALAR_FALLBACK,
    FastPriorityBuffer,
    iter_serve_segments,
    make_buffer,
)
from ..cache.sharding import ShardedBuffer, backend_for_key
from ..prefetch.base import Prefetcher
from ..prefetch.harness import AccessBreakdown
from ..serving.metrics import ServingMetrics
from ..serving.priorities import LiftGuard, apply_caching_bits, make_provider
from ..traces.access import Trace
from .caching_model import CachingModel
from .config import RecMGConfig
from .features import FeatureEncoder
from .prefetch_model import PrefetchModel


def _joined(chunks: List[np.ndarray], dtype) -> np.ndarray:
    """``chunks`` end to end; an empty ``dtype`` array when there are
    none."""
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=dtype)


@dataclass
class ManagerStats:
    """Counters accumulated by one deployment run."""

    breakdown: AccessBreakdown
    prefetches_issued: int
    prefetches_useful: int
    evictions: int

    @property
    def prefetch_accuracy(self) -> float:
        if self.prefetches_issued == 0:
            return 0.0
        return self.prefetches_useful / self.prefetches_issued

    @property
    def hit_rate(self) -> float:
        return self.breakdown.hit_rate


class RecMGManager:
    """Drives the priority GPU buffer with the caching/prefetch models."""

    #: Block size for bulk serving outside model chunks.
    _SERVE_BLOCK = 512
    #: The exact engine serves segments up to this length, and the
    #: stretches bulk serving rejects, through the scalar loop.  It is
    #: the measured crossover: model-free on the ``recmg-replay`` trace
    #: (2-core host) the scalar loop costs ~1.65 us/key and bulk
    #: ``serve_segment`` ~100 us + 0.5 us/key — 15 keys: 26 vs 107 us,
    #: 64: 103 vs 118, 96: 168 vs 134, 256: 411 vs 224.
    _SCALAR_FALLBACK = SCALAR_FALLBACK
    #: EWMA smoothing factor for the per-shard traffic shares the
    #: online rebalancer tracks (per gathered block/segment; higher =
    #: reacts faster to a drifting hot band, lower = steadier split).
    _REBALANCE_EWMA = 0.2

    def __init__(self, capacity: int, encoder: FeatureEncoder,
                 config: RecMGConfig,
                 caching_model: Optional[CachingModel] = None,
                 prefetch_model: Optional[PrefetchModel] = None,
                 buffer_impl: Optional[str] = None,
                 key_space="auto",
                 num_shards: Optional[int] = None,
                 shard_policy: Optional[str] = None,
                 shard_weights=None,
                 priority_mode: Optional[str] = None,
                 rebalance_interval: Optional[int] = None,
                 rebalance_threshold: Optional[float] = None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.encoder = encoder
        self.config = config
        self.caching_model = caching_model
        self.prefetch_model = prefetch_model
        self.buffer_impl = (buffer_impl if buffer_impl is not None
                            else getattr(config, "buffer_impl", "fast"))
        self.num_shards = (num_shards if num_shards is not None
                           else getattr(config, "num_shards", 1))
        self.shard_policy = (shard_policy if shard_policy is not None
                             else getattr(config, "shard_policy",
                                          "contiguous"))
        self.shard_weights = (shard_weights if shard_weights is not None
                              else getattr(config, "shard_weights", None))
        # A fitted encoder fixes the dense-id universe, which lets the
        # clock and fast backends run array-native membership (residency
        # bitmap); unseen keys map above the vocabulary and spill
        # safely.  ``key_space="auto"`` (the default) fits that
        # universe; ``None`` forces dict membership (the pre-dense
        # engines, kept measurable for the perf benches); an int pins
        # an explicit universe.  ``num_shards > 1`` partitions that
        # universe across independent shards (see
        # :mod:`repro.cache.sharding`) — it therefore requires a
        # resolvable key_space (``make_buffer`` rejects otherwise).
        if key_space == "auto":
            key_space = (encoder.vocab_size
                         if getattr(encoder, "fitted", False)
                         and encoder.vocab_size > 0 else None)
        self.buffer = make_buffer(self.buffer_impl, capacity,
                                  key_space=key_space,
                                  num_shards=self.num_shards,
                                  shard_policy=self.shard_policy,
                                  shard_weights=self.shard_weights)
        #: Per-batch latency / queue-depth / batch-size telemetry;
        #: :meth:`serve_batch` records into it.
        self.serving_metrics = ServingMetrics()
        # Model-in-the-loop serving (see :mod:`repro.serving.priorities`):
        # the provider maps served blocks to caching bits and the sink
        # (:meth:`_sink_provider`) applies them through the same bulk
        # priority writes the offline chunk pass uses.  "none" installs
        # the NullProvider and the sink is never invoked — bit-identical
        # to the provider-free engines (pinned by the goldens and the
        # cross-backend differentials).
        self.priority_mode = (priority_mode if priority_mode is not None
                              else getattr(config, "priority_mode", "none"))
        self.priority_provider = make_provider(
            self.priority_mode, caching_model, encoder, config,
            metrics=self.serving_metrics, capacity=capacity)
        self._provider_active = self.priority_provider.mode != "none"
        #: Optional lift guard (``config.priority_lift_guard`` > 0 with
        #: an active provider): online A/B of guided vs model-free
        #: phases; while measured lift is negative the sink withholds
        #: the provider's bits — guidance degrades to model-free, never
        #: below it.  See :class:`repro.serving.priorities.LiftGuard`.
        self.lift_guard: Optional[LiftGuard] = None
        if self._provider_active and getattr(config,
                                             "priority_lift_guard", 0):
            self.lift_guard = LiftGuard(
                phase_blocks=config.priority_lift_guard,
                margin=getattr(config, "priority_lift_margin", 0.0))
        # Online elastic rebalancing (module docstring): traffic EWMAs
        # accumulated at the gather, checked every ``interval`` served
        # accesses, migration via ShardedBuffer.rebalance at a block boundary.
        self.rebalance_interval = (
            rebalance_interval if rebalance_interval is not None
            else getattr(config, "rebalance_interval", 0))
        self.rebalance_threshold = (
            rebalance_threshold if rebalance_threshold is not None
            else getattr(config, "rebalance_threshold", 0.1))
        if self.rebalance_interval and not isinstance(self.buffer,
                                                      ShardedBuffer):
            raise ValueError(
                "rebalance_interval > 0 migrates keys between shards "
                "and therefore requires num_shards > 1 (a "
                f"ShardedBuffer); got num_shards={self.num_shards}")
        self._shard_traffic = np.zeros(
            getattr(self.buffer, "num_shards", 1), dtype=np.float64)
        self._accesses_since_rebalance = 0
        self._prefetched: Set[int] = set()
        self.breakdown = AccessBreakdown()
        self.prefetches_issued = 0
        self.prefetches_useful = 0
        self.evictions = 0
        #: Per-access hit decisions of the last ``run(...,
        #: record_decisions=True)``; None otherwise.
        self.last_decisions: Optional[np.ndarray] = None
        #: Hit-record chunks (one bool array per engine call) while a
        #: ``serve_batch`` / recording ``run`` is open; None otherwise.
        self._record_hits: Optional[List[np.ndarray]] = None

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End of the manager's lifecycle — a no-op: serving is one
        thread and the manager holds no thread or other resource to
        release.  Kept, with the context-manager form, so callers can
        scope a manager without knowing that."""

    def __enter__(self) -> "RecMGManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _evict_for_space(self, key: Optional[int] = None) -> Optional[int]:
        """Evict until there is room for one insert — of ``key``, when
        given: on a sharded buffer space must come from the shard that
        will hold the key (other shards' free slots are unreachable),
        so the loop targets ``key``'s routed shard."""
        buffer = (backend_for_key(self.buffer, key) if key is not None
                  else self.buffer)
        victim = None
        while buffer.is_full:
            victim = buffer.evict_one()
            self._prefetched.discard(victim)
            self.evictions += 1
        return victim

    def _demand_access(self, key: int) -> Optional[int]:
        """Serve one demand access; returns the evicted victim, if any."""
        speed = self.config.eviction_speed
        if key in self.buffer:
            if key in self._prefetched:
                self._prefetched.discard(key)
                self.breakdown.prefetch_hits += 1
                self.prefetches_useful += 1
            else:
                self.breakdown.cache_hits += 1
            # Recency refresh; the caching model overrides at chunk end.
            self.buffer.set_priority(key, speed)
            return None
        self.breakdown.on_demand += 1
        victim = self._evict_for_space(key)
        self.buffer.insert(key, speed)
        return victim

    def _apply_caching_bits(self, keys: np.ndarray, bits: np.ndarray) -> None:
        """Algorithm 1 lines 4-7 — the caching-bit write shared by the
        offline chunk pass and the provider sink.  The applier itself
        lives in :func:`repro.serving.priorities.apply_caching_bits`
        (resident keys only, last occurrence wins, friendly keys to
        ``eviction_speed + 1``, averse keys demoted; a scalar loop up
        to :attr:`_SCALAR_FALLBACK` keys, the bulk protocol beyond),
        where the equivalence of its two forms is documented."""
        apply_caching_bits(self.buffer, keys, bits,
                           self.config.eviction_speed)

    def _sink_provider(self, segment: np.ndarray,
                       guided: bool = True) -> None:
        """The provider sink: after a block is fully served, feed the
        stream to the priority provider (always — the retraining window
        must see control blocks too) and, unless ``guided=False`` (a
        lift-guard control block, which serves model-free), apply
        whatever caching bits it has for the block — Algorithm 1's
        priority write, driven from the live stream instead of the
        offline chunk pass.

        Tri-state bits: positions ``>= 0`` apply through
        :func:`apply_caching_bits`; ``-1`` ("no prediction") keeps its
        recency priority, so a provider without a prediction degrades
        to model-free behavior.

        On a sharded buffer the bits are split along
        ``iter_shard_segments``' route and applied per shard through
        its :class:`~repro.cache.sharding.CompressedShardView` — the
        same one-scatter route the engines serve through, instead of
        the three global scatters the whole-buffer bulk calls would
        cost (the split-identity argument lives on
        :func:`apply_caching_bits`).

        Called per block from :meth:`_serve_block` — never from inside
        an engine, so an engine's internal fallbacks (e.g. the exact
        engine's scalar stretches) cannot double-sink a block.
        """
        segment = np.asarray(segment, dtype=np.int64)
        if segment.size == 0:
            return
        provider = self.priority_provider
        provider.observe(segment)
        if not guided:
            return
        bits = provider.bits_for(segment)
        if bits is None:
            return
        valid = bits >= 0
        if not valid.all():
            if not valid.any():
                return
            segment = segment[valid]
            bits = bits[valid]
        buffer = self.buffer
        speed = self.config.eviction_speed
        if isinstance(buffer, ShardedBuffer):
            for _, shard, positions, sub in buffer.iter_shard_segments(
                    segment):
                apply_caching_bits(shard, sub, bits[positions], speed)
        else:
            apply_caching_bits(buffer, segment, bits, speed)

    def _serve_block(self, serve, segment: np.ndarray) -> None:
        """Serve one block through the engine ``serve`` — the serve
        site :meth:`serve_batch` and both loops of :meth:`run` share.
        With a priority provider active the lift guard (if any) picks
        the block's arm first and is credited the demand + prefetch
        hits the serve measured; the sink then gets the block."""
        if not self._provider_active:
            serve(segment)
            return
        guard = self.lift_guard
        guided = True if guard is None else guard.begin_block()
        breakdown = self.breakdown
        hits_before = breakdown.cache_hits + breakdown.prefetch_hits
        serve(segment)
        if guard is not None:
            guard.record_block(
                breakdown.cache_hits + breakdown.prefetch_hits
                - hits_before, len(segment))
        self._sink_provider(segment, guided)

    def _apply_prefetches(self, predicted: np.ndarray) -> None:
        """Algorithm 1 lines 9-15: fetch P[i] at priority eviction_speed.

        Keys already resident are filtered out *before* the
        ``max_prefetch_per_chunk`` budget is applied, so the budget
        counts actual fills — slicing the raw predictions first would
        let resident keys consume budget and issue fewer real prefetches
        than the configuration allows.
        """
        speed = self.config.eviction_speed
        budget = self.config.max_prefetch_per_chunk
        issued = 0
        for key in predicted:
            if issued >= budget:
                break
            key = int(key)
            if key in self.buffer:
                continue
            issued += 1
            self.prefetches_issued += 1
            self._evict_for_space(key)
            self.buffer.insert(key, speed)
            self._prefetched.add(key)

    # ------------------------------------------------------------------
    def _serve_demand_slow(self, segment: np.ndarray) -> None:
        """Per-access reference serving loop (audit path)."""
        keys = (segment.tolist() if isinstance(segment, np.ndarray)
                else list(segment))
        record = self._record_hits
        if record is None:
            for key in keys:
                self._demand_access(key)
        else:
            buffer = self.buffer  # __contains__ is live on every backend
            hits = []
            for key in keys:
                hits.append(key in buffer)
                self._demand_access(key)
            record.append(np.array(hits, dtype=bool))

    def _serve_demand_fast(self, segment: np.ndarray) -> None:
        """Bulk demand-serving pre-pass: resolve runs of guaranteed
        hits/misses in bulk, falling back to :meth:`_demand_access` only
        where an eviction decision is actually needed.

        One residency snapshot classifies the whole segment up front.
        Two regimes, both producing state and counters identical to the
        scalar loop:

        * the segment fits without any eviction (warm-up, or an all-hit
          segment once the buffer is full) → misses *and* hits resolve
          in bulk: one counter update plus a single
          :meth:`FastPriorityBuffer.put_batch` over the segment;
        * otherwise the snapshot-miss positions run through the scalar
          path (each needs a live eviction decision) while the hit runs
          between them are bulk-applied.  Hits never change membership,
          so a snapshot True can only go stale through an eviction; the
          victims seen so far are tracked and any run touching one falls
          back to the scalar loop.
        """
        keys = segment.tolist() if isinstance(segment, np.ndarray) else segment
        length = len(keys)
        if length == 0:
            return
        buffer = self.buffer
        capacity = self.capacity
        speed = self.config.eviction_speed
        breakdown = self.breakdown
        prefetched = self._prefetched
        # Segments are at most _SERVE_BLOCK (or one model chunk) long
        # and the classification is dict lookups, so plain comprehensions
        # beat array round-trips here; the bulk win is in the batched
        # accounting, the per-unique-key stores, and the inlined
        # miss/eviction path — not in numpy.
        entries = buffer._entries
        store = buffer._store
        evict_one = buffer.evict_one
        miss_idx = [i for i, key in enumerate(keys) if key not in entries]

        new_keys = {keys[m] for m in miss_idx}
        if len(entries) + len(new_keys) <= capacity:
            self._finish_eviction_free(keys, miss_idx, new_keys)
            return

        record = None if self._record_hits is None else []
        cache_hits = 0
        on_demand = 0
        victims: Set[int] = set()
        position = 0
        for miss in miss_idx + [length]:
            if miss > position:
                run = keys[position:miss]
                if victims and not victims.isdisjoint(run):
                    # An eviction invalidated part of this run's
                    # snapshot; replay it through the scalar path (whose
                    # own evictions must be tracked too).
                    for key in run:
                        if record is not None:
                            record.append(key in entries)
                        victim = self._demand_access(key)
                        if victim is not None:
                            victims.add(victim)
                else:
                    # Bulk hit-run: one store per unique key at its
                    # last-occurrence seqno via put_batch (every key is
                    # resident, so its capacity check always passes).
                    hit_count = miss - position
                    if prefetched:
                        pf_hits = prefetched.intersection(run)
                        if pf_hits:
                            prefetched.difference_update(pf_hits)
                            breakdown.prefetch_hits += len(pf_hits)
                            self.prefetches_useful += len(pf_hits)
                            hit_count -= len(pf_hits)
                    cache_hits += hit_count
                    if record is not None:
                        record.extend([True] * len(run))
                    buffer.put_batch(run, speed)
            if miss < length:
                # Inlined _demand_access for the snapshot-miss position
                # (it may have turned into a hit via an earlier insert).
                key = keys[miss]
                if record is not None:
                    record.append(key in entries)
                if key in entries:
                    if key in prefetched:
                        prefetched.discard(key)
                        breakdown.prefetch_hits += 1
                        self.prefetches_useful += 1
                    else:
                        cache_hits += 1
                    buffer.set_priority(key, speed)
                else:
                    on_demand += 1
                    if len(entries) >= capacity:
                        victim = evict_one()
                        prefetched.discard(victim)
                        self.evictions += 1
                        victims.add(victim)
                    store(key, speed, buffer._next_seq)
                    buffer._next_seq += 1
            position = miss + 1
        breakdown.cache_hits += cache_hits
        breakdown.on_demand += on_demand
        if record is not None:
            self._record_hits.append(np.array(record, dtype=bool))

    def _finish_eviction_free(self, keys: List[int], miss_idx: List[int],
                              new_keys: Set[int]) -> None:
        """Resolve a whole segment known to fit without any eviction.

        The first touch of each non-resident key is the segment's only
        miss for that key, everything else hits.  Prefetched keys are
        always resident (the tag is dropped on eviction), so each one
        present here scores exactly one prefetch hit.  ``miss_idx`` are
        the positions whose key is in ``new_keys`` (the non-resident
        set) under the current residency snapshot.
        """
        buffer = self.buffer
        speed = self.config.eviction_speed
        breakdown = self.breakdown
        prefetched = self._prefetched
        record = self._record_hits
        length = len(keys)
        if record is not None:
            segment_hits = np.ones(length, dtype=bool)
            seen: Set[int] = set()
            for m in miss_idx:
                key = keys[m]
                if key not in seen:
                    seen.add(key)
                    segment_hits[m] = False
            record.append(segment_hits)
        hit_count = length - len(new_keys)
        if prefetched:
            pf_hits = prefetched.intersection(keys)
            prefetched.difference_update(pf_hits)
            breakdown.prefetch_hits += len(pf_hits)
            self.prefetches_useful += len(pf_hits)
            hit_count -= len(pf_hits)
        breakdown.cache_hits += hit_count
        breakdown.on_demand += len(new_keys)
        buffer.put_batch(keys, speed)

    def _serve_demand_batched(self, segment: np.ndarray) -> None:
        """Batched-reclaim serving for approximate (clock) backends:
        the whole segment goes through :meth:`_serve_clock` — one
        :meth:`~repro.cache.buffer.ClockBuffer.serve_segment` pass that
        classifies it, reclaims the space its non-resident keys need
        with *protected* eviction and stores it — and the result folds
        into the counters once.  A segment with more distinct keys
        than the whole buffer has slots cannot be made eviction-free
        and takes the scalar path instead."""
        segment = np.asarray(segment, dtype=np.int64)
        # np.unique: the wider-than-capacity slow form — only a segment
        # longer than the capacity can hold that many distinct keys.
        if (segment.size > self.capacity
                and np.unique(segment).size > self.capacity):
            self._serve_demand_slow(segment)
            return
        first_miss_pos, pf_hits, evicted = self._serve_clock(self.buffer,
                                                             segment)
        self.evictions += evicted
        self._account_segment(segment, first_miss_pos, pf_hits)

    def _serve_clock(self, backend,
                     sub: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """The clock serve loop — the whole buffer's
        (:meth:`_serve_demand_batched`) and each clock shard's
        (:meth:`_serve_subsegment`, whose result contract this
        shares).  One ``serve_segment`` call serves everything unless
        ``sub`` holds more distinct keys than the backend has slots —
        routine on a shard, whose capacity is a fraction of the total —
        where it serves the longest prefix that fits and the loop
        continues with the remainder: no per-key scalar loop.  Victims
        are never segment keys (protected reclaim), so every tagged
        key of a served prefix was resident and hit."""
        speed = self.config.eviction_speed
        prefetched = self._prefetched
        misses: List[np.ndarray] = []
        pf_hits = 0
        evicted = 0
        start = 0
        total = int(sub.size)
        while start < total:
            # ``sub`` itself on the first pass: a slice is a new object
            # and would miss the shard view's compression memo.
            rest = sub[start:] if start else sub
            served, first_miss, victims = backend.serve_segment(rest, speed)
            evicted += int(victims.size)
            if prefetched:
                prefetched.difference_update(victims.tolist())
                pf_hits += self._consume_prefetch_tags(rest[:served])
            if first_miss.size:
                misses.append(start + first_miss)
            start += served
        return _joined(misses, np.int64), pf_hits, evicted

    def _serve_demand_batched_exact(self, segment: np.ndarray) -> None:
        """Batched *exact* serving for the dense ``"fast"`` backend —
        decision-for-decision and state-identical to the scalar loop.

        :meth:`~repro.cache.buffer.FastPriorityBuffer.serve_segment`
        resolves the segment with one residency gather, one victim
        selection over the priority-zero pool — iterated to a fixed
        point when victims re-miss later in the segment — and one bulk
        store, in one call unless a rare trim applies (the pool runs
        dry, a live entry ripens mid-call, a segment wider than the
        buffer).  Serving a segment equals serving its pieces in
        sequence, so the engine loops over the served prefixes; a
        zero-length serve (not even the first access is bulk-servable)
        advances through a short scalar slice instead — as does, from
        the start, a segment no longer than :attr:`_SCALAR_FALLBACK`
        (the bulk call's fixed cost exceeds its whole scalar loop).
        """
        segment = np.asarray(segment, dtype=np.int64)
        if segment.size <= self._SCALAR_FALLBACK:
            self._serve_demand_slow(segment)
            return
        prefetched = self._prefetched
        for chunk in iter_serve_segments(self.buffer, segment,
                                         self.config.eviction_speed,
                                         self._SCALAR_FALLBACK):
            if chunk[0] == "scalar":
                _, start, span = chunk
                self._serve_demand_slow(segment[start:start + span])
                continue
            _, start, served, first_miss_pos, victims = chunk
            self.evictions += int(victims.size)
            if prefetched:
                prefetched.difference_update(victims.tolist())
            self._account_segment(segment[start:start + served],
                                  first_miss_pos)

    def _serve_demand_sharded(self, segment: np.ndarray) -> None:
        """Shard-wise serving for :class:`ShardedBuffer` backends.

        One vectorized route scatters the whole demand segment to its
        shards; each shard then serves its sub-segment through the same
        per-backend scheme the single-shard engines use — the
        batched-reclaim path for approximate (clock) shards, the
        ``serve_segment`` bulk-exact path for dense ``"fast"`` shards,
        the scalar audit loop otherwise — and the per-shard miss
        positions gather back into one segment-order accounting pass.
        Shards hold disjoint key sets and never touch each other's
        slots, so serving the sub-segments in shard order is exactly
        serving N independent buffers: for exact shards the engine is
        decision-for-decision identical to the scalar audit loop over
        the sharded buffer (fuzz-checked in ``tests/test_sharding.py``).
        """
        segment = np.asarray(segment, dtype=np.int64)
        if segment.size == 0:
            return
        buffer = self.buffer
        miss_chunks: List[np.ndarray] = []
        pf_hits = 0
        evicted = 0
        counts = (np.zeros(buffer.num_shards, dtype=np.float64)
                  if self.rebalance_interval else None)
        for index, shard, positions, sub in buffer.iter_shard_segments(
                segment):
            sub_miss, sub_pf, sub_ev = self._serve_subsegment(shard, sub)
            pf_hits += sub_pf
            evicted += sub_ev
            if sub_miss.size:
                miss_chunks.append(positions[sub_miss])
            if counts is not None:
                counts[index] += positions.size
        if counts is not None:
            # Fold the block's per-shard access counts into the traffic
            # EWMA and advance the rebalance-cadence counter.
            traffic = self._shard_traffic
            traffic *= 1.0 - self._REBALANCE_EWMA
            traffic += self._REBALANCE_EWMA * counts
            self._accesses_since_rebalance += int(segment.size)
        self.evictions += evicted
        self._account_segment(segment, _joined(miss_chunks, np.int64),
                              pf_hits)

    def _maybe_rebalance(self) -> None:
        """The online rebalance driver — called at block boundaries by
        :meth:`run` and :meth:`serve_batch`.

        Every :attr:`rebalance_interval` served accesses, compare the
        traffic-EWMA shares against the current capacity split; when
        the worst shard's absolute imbalance exceeds
        :attr:`rebalance_threshold`, rebalance the buffer onto the
        traffic weights.  Donor-shrink victims count as manager
        evictions (their prefetch tags drop, same as any eviction);
        migrated keys and the migration pause land in
        :attr:`serving_metrics` via ``record_rebalance``.
        """
        interval = self.rebalance_interval
        if not interval or self._accesses_since_rebalance < interval:
            return
        self._accesses_since_rebalance = 0
        traffic = self._shard_traffic
        total = float(traffic.sum())
        if total <= 0.0:
            return
        shares = traffic / total
        caps = np.asarray(self.buffer.shard_capacities, dtype=np.float64)
        if float(np.abs(shares - caps / caps.sum()).max()) \
                <= self.rebalance_threshold:
            return
        begin = time.perf_counter()
        # Floor the weights: a shard whose EWMA decayed to ~0 still
        # needs a positive weight (split_capacity guarantees it one
        # slot either way).
        stats = self.buffer.rebalance(
            tuple(float(w) for w in np.maximum(shares, 1e-9)))
        if stats["changed"]:
            victims = stats["evicted"]
            self.evictions += len(victims)
            if self._prefetched:
                self._prefetched.difference_update(victims)
            self.serving_metrics.record_rebalance(
                stats["migrated_keys"], time.perf_counter() - begin)

    def serve_batch(self, keys: np.ndarray,
                    queue_depth: Optional[int] = None) -> np.ndarray:
        """Serve one coalesced demand segment — the front door the
        admission queue/batcher stack (:mod:`repro.serving.admission`)
        drives, and what an RPC handler would call per batch.

        Dispatches through the same engine selection as :meth:`run`,
        records the batch's wall latency, size and ``queue_depth`` (the
        admission queue's depth when the batch formed, if the caller
        tracks one) into :attr:`serving_metrics`, and returns the
        per-access hit booleans (``True`` = served from the buffer,
        demand or prefetched; ``False`` = on-demand fetch) in access
        order.
        """
        keys = np.asarray(keys, dtype=np.int64)
        serve = self._select_engine()
        outer = self._record_hits
        self._record_hits = []
        begin = time.perf_counter()
        try:
            # Provider sink inside the timed section on purpose:
            # inference is on the serving critical path and must show
            # in the latency percentiles.
            self._serve_block(serve, keys)
            hits = _joined(self._record_hits, bool)
        finally:
            self._record_hits = outer
        self.serving_metrics.record_batch(
            int(keys.size), time.perf_counter() - begin,
            queue_depth=queue_depth)
        # Rebalance after the batch's latency is recorded: the pause
        # is accounted separately (rebalance_pause_ms) so a migration
        # between batches does not distort the serving percentiles.
        self._maybe_rebalance()
        return hits

    def _consume_prefetch_tags(self, keys) -> int:
        """Consume the prefetch tags of the (resident) ``keys`` just
        served; returns how many scored a prefetch hit.  Called per
        served chunk — *before* any later chunk's eviction can drop a
        tag whose key already hit — so the sharded engine counts the
        same prefetch hits the per-chunk single-shard engines do."""
        prefetched = self._prefetched
        if not prefetched:
            return 0
        hits = prefetched.intersection(
            keys.tolist() if isinstance(keys, np.ndarray) else keys)
        if hits:
            prefetched.difference_update(hits)
        return len(hits)

    def _serve_subsegment(self, shard,
                          sub: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Serve ``sub`` (all keys route to ``shard``) on one backend
        shard; returns the positions (relative to ``sub``) of its
        demand misses, the number of prefetch hits it consumed, and
        the number of entries it evicted.  Mirrors the single-shard
        engines minus the shared-counter writes: the results are pure
        values that the gather (:meth:`_serve_demand_sharded`) folds
        once for the whole segment, in segment order.  Prefetch-tag
        bookkeeping does land on :attr:`_prefetched` as it happens (a
        tag is consumed in the chunk where its key is first served,
        dropped when its key is evicted — in that order, chunk by
        chunk)."""
        if getattr(shard, "approximate", False):
            return self._serve_clock(shard, sub)
        if (getattr(shard, "residency", None) is not None
                and hasattr(shard, "serve_segment")):
            prefetched = self._prefetched
            misses: List[np.ndarray] = []
            pf_hits = 0
            evicted = 0
            for chunk in iter_serve_segments(shard, sub,
                                             self.config.eviction_speed,
                                             self._SCALAR_FALLBACK):
                if chunk[0] == "scalar":
                    _, start, span = chunk
                    scalar_miss, scalar_pf, scalar_ev = self._scalar_subserve(
                        shard, sub[start:start + span])
                    pf_hits += scalar_pf
                    evicted += scalar_ev
                    if scalar_miss.size:
                        misses.append(start + scalar_miss)
                else:
                    _, start, served, first_miss, victims = chunk
                    evicted += int(victims.size)
                    if prefetched:
                        # Drop before consuming: a victim may be a key of
                        # the prefix, evicted before its first touch and
                        # re-missed there, and must score no prefetch hit.
                        prefetched.difference_update(victims.tolist())
                        pf_hits += self._consume_prefetch_tags(
                            sub[start:start + served])
                    if len(first_miss):
                        misses.append(start + first_miss)
            return _joined(misses, np.int64), pf_hits, evicted
        return self._scalar_subserve(shard, sub)

    def _scalar_subserve(self, shard,
                         sub: np.ndarray) -> Tuple[np.ndarray, int, int]:
        """Scalar serving loop against one shard backend; returns the
        relative miss positions, consumed prefetch-hit count and
        eviction count (the shared-counter updates are the gather's
        job — see :meth:`_serve_subsegment`; tag drops land on
        :attr:`_prefetched` as they happen)."""
        speed = self.config.eviction_speed
        prefetched = self._prefetched
        misses: List[int] = []
        pf_hits = 0
        evicted = 0
        for position, key in enumerate(sub.tolist()):
            if key in shard:
                if key in prefetched:
                    prefetched.discard(key)
                    pf_hits += 1
                shard.set_priority(key, speed)
                continue
            misses.append(position)
            if shard.is_full:
                victim = shard.evict_one()
                prefetched.discard(victim)
                evicted += 1
            shard.insert(key, speed)
        return np.asarray(misses, dtype=np.int64), pf_hits, evicted

    def _account_segment(self, segment: np.ndarray,
                         first_miss_pos: np.ndarray,
                         pf_hits: Optional[int] = None) -> None:
        """Counters and decision recording for a bulk-served segment
        (the batched engines' epilogue; the store is the caller's job).

        ``first_miss_pos`` holds the segment's miss positions, each a
        distinct key's first occurrence — a key not resident when the
        segment started, or one evicted before its first touch (a
        re-miss); later occurrences hit.  Prefetched keys are always
        resident (the tag is dropped on eviction), so the caller must
        drop the tags of the segment's victims *before* this consume:
        a re-missed key then scores no prefetch hit, and every other
        tagged key present in ``segment`` exactly one.  The clock and
        sharded engines consume tags chunk by chunk instead (a later
        chunk's eviction may drop a tag whose key already hit) and
        pass the consumed count as ``pf_hits``.
        """
        length = segment.size
        new_count = int(first_miss_pos.size)
        breakdown = self.breakdown
        record = self._record_hits
        if record is not None:
            segment_hits = np.ones(length, dtype=bool)
            segment_hits[first_miss_pos] = False
            record.append(segment_hits)
        if pf_hits is None:
            pf_hits = self._consume_prefetch_tags(segment)
        hit_count = length - new_count - pf_hits
        if pf_hits:
            breakdown.prefetch_hits += pf_hits
            self.prefetches_useful += pf_hits
        breakdown.cache_hits += hit_count
        breakdown.on_demand += new_count

    # ------------------------------------------------------------------
    def _select_engine(self, fast_serve: bool = True):
        """The bulk demand-serving engine for the configured backend —
        one dispatch shared by :meth:`run` and :meth:`serve_batch` (the
        engine semantics are documented on :meth:`run`)."""
        if not fast_serve:
            return self._serve_demand_slow
        if isinstance(self.buffer, ShardedBuffer):
            # Shard-wise engine: route whole segments, serve per shard
            # through the matching single-shard scheme (exact shards
            # stay decision-identical to the scalar audit loop).
            return self._serve_demand_sharded
        if getattr(self.buffer, "approximate", False):
            return self._serve_demand_batched
        if isinstance(self.buffer, FastPriorityBuffer):
            # Dense (key_space) mode serves through the bulk exact
            # engine; dict mode through the lazy-heap pre-pass.  Both
            # are decision-identical to the scalar audit loop.
            return (self._serve_demand_batched_exact
                    if self.buffer.residency is not None
                    else self._serve_demand_fast)
        # Exact audit backend ("reference").
        return self._serve_demand_slow

    def run(self, trace: Trace, inference_batch: int = 64,
            fast_serve: bool = True,
            record_decisions: bool = False) -> ManagerStats:
        """Serve ``trace`` end to end; returns the access breakdown.

        The trace is cut by :meth:`FeatureEncoder.encode_chunks` and
        inference is batched up front, ``inference_batch`` chunks per
        tape-free ``predict`` / ``predict_indices`` call — identical to
        per-chunk inference (the models are stateless across chunks)
        but an order of magnitude faster, mirroring the paper's batched
        CPU serving; a trace shorter than one chunk is served
        model-free.  ``fast_serve`` selects the bulk
        demand-serving engine for the backend: the batched exact engine
        (:meth:`_serve_demand_batched_exact`, dense mode) or the
        lazy-heap pre-pass (:meth:`_serve_demand_fast`, dict mode) for
        the exact ``"fast"`` buffer — both bit-identical to the
        per-access audit loop — or the batched-reclaim engine
        (:meth:`_serve_demand_batched`) for the approximate ``"clock"``
        buffer, whose victim order (and hence hit stream) legitimately
        differs from the scalar loop.  The ``"reference"`` backend
        always runs the audit loop.  Sharded buffers route shard-wise
        (:meth:`_serve_demand_sharded`).  Between model barriers the
        dense exact engine runs the chunk loop (serve, caching bits,
        prefetches) as one fused buffer pass; everywhere else that
        loop runs chunk by chunk, and is the pass's oracle.
        ``record_decisions`` additionally stores the per-access hit
        booleans in :attr:`last_decisions` (every engine records).
        """
        self.last_decisions = None
        self._record_hits = [] if record_decisions else None

        dense = self.encoder.dense_ids(trace)
        length = self.config.input_len
        n = len(dense)
        num_chunks = n // length

        # With a priority provider installed the caching model runs
        # through the provider seam (per served block) instead of the
        # offline chunk pass — computing bits_all too would
        # double-apply the bits.  The prefetch model keeps its offline
        # pass either way.
        use_provider = self._provider_active
        bits_all = None
        preds_all = None
        if num_chunks and ((self.caching_model is not None
                            and not use_provider)
                           or self.prefetch_model is not None):
            # The dense ids are in hand: cut them, not the trace again.
            chunks = self.encoder.encode_dense_chunks(
                dense[:num_chunks * length])
            if self.caching_model is not None and not use_provider:
                parts = [self.caching_model.predict(
                            chunks, sel=np.arange(lo, min(lo + inference_batch,
                                                          num_chunks)))
                         for lo in range(0, num_chunks, inference_batch)]
                bits_all = np.concatenate(parts, axis=0)
            if self.prefetch_model is not None:
                parts = [self.prefetch_model.predict_indices(
                            chunks, self.encoder,
                            sel=np.arange(lo, min(lo + inference_batch,
                                                  num_chunks)))
                         for lo in range(0, num_chunks, inference_batch)]
                preds_all = np.concatenate(parts, axis=0)

        serve = self._select_engine(fast_serve)
        if bits_all is None and preds_all is None:
            # No per-chunk model barrier (model-free, or the caching
            # model rides the provider seam at block granularity), so
            # chunk boundaries are irrelevant: serve the whole trace in
            # large blocks to amortize the bulk pass's per-segment
            # setup — sinking each block when a provider is active.
            tail = 0
        elif (serve == self._serve_demand_batched_exact and not use_provider
              and length <= self._SCALAR_FALLBACK):
            # The exact engine's scalar regime, fused: one buffer pass
            # runs the loop below for every chunk.
            tail = num_chunks * length
            missed, pf_hits, evicted, issued = self.buffer.serve_chunks(
                dense[:tail], length, bits_all, preds_all,
                self.config.eviction_speed,
                self.config.max_prefetch_per_chunk, self._prefetched)
            self.evictions += evicted
            self.prefetches_issued += issued
            self._account_segment(dense[:tail], missed, pf_hits)
        else:
            for chunk_idx in range(num_chunks):
                start = chunk_idx * length
                chunk = dense[start:start + length]
                self._serve_block(serve, chunk)
                if bits_all is not None:
                    self._apply_caching_bits(chunk, bits_all[chunk_idx])
                if preds_all is not None:
                    self._apply_prefetches(preds_all[chunk_idx])
                # Chunk boundaries are block boundaries too.
                self._maybe_rebalance()
            tail = num_chunks * length
        # Sharded serving splits every block N ways, so scale the block
        # to keep the per-shard sub-segments at single-shard size (the
        # scatter itself is one vectorized route).
        block = self._SERVE_BLOCK * getattr(self.buffer, "num_shards", 1)
        for start in range(tail, n, block):
            self._serve_block(serve, dense[start:start + block])
            self._maybe_rebalance()
        if record_decisions:
            self.last_decisions = _joined(self._record_hits, bool)
            self._record_hits = None
        return ManagerStats(
            breakdown=self.breakdown,
            prefetches_issued=self.prefetches_issued,
            prefetches_useful=self.prefetches_useful,
            evictions=self.evictions,
        )


class ModelPrefetcher(Prefetcher):
    """Adapts the RecMG prefetch model to the :class:`Prefetcher`
    interface over *dense* keys (for LRU+PF and PM+LRU baselines)."""

    name = "PM"

    def __init__(self, model: PrefetchModel, encoder: FeatureEncoder,
                 config: RecMGConfig) -> None:
        self.model = model
        self.encoder = encoder
        self.config = config
        self._tables: Deque[int] = deque(maxlen=config.input_len)
        self._dense: Deque[int] = deque(maxlen=config.input_len)
        self._step = 0

    def reset(self) -> None:
        self._tables.clear()
        self._dense.clear()
        self._step = 0

    def observe(self, key: int, pc: int = 0, hit: bool = True) -> List[int]:
        config = self.config
        num_tables = max(1, self.encoder.num_tables)
        self._tables.append(pc % num_tables)
        self._dense.append(key)
        self._step += 1
        if (len(self._dense) < config.input_len
                or self._step % config.input_len != 0):
            return []
        dense = np.asarray(self._dense, dtype=np.int64)
        tables = np.asarray(self._tables, dtype=np.int64)
        predicted = self.model.predict_single(
            tables,
            dense % config.hash_buckets,
            self.encoder.normalize(dense),
            self.encoder.freq_values(dense),
            self.encoder,
        )
        return [int(p) for p in predicted[: config.max_prefetch_per_chunk]]

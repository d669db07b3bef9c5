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

:class:`~repro.core.config.RecMGConfig` is the one place serving is
configured: the constructor takes the capacity, the encoder, the config,
the two models and the id universe, and reads every serving setting
from the config.  ``config.buffer_impl`` selects the buffer backend
(see :mod:`repro.cache.buffer`): ``"fast"`` (default, exact and
array-native), ``"reference"`` (the exact O(n) audit backend) or
``"clock"`` (approximate array-backed
CLOCK with protected reclaim: hit/miss streams may differ from the
exact backends, but counters stay conserved and capacity is never
exceeded).  The buffer serves a segment, the manager folds:
``serve_segment`` is total on every buffer, so ``fast_serve`` is one
engine, :meth:`RecMGManager._serve_demand_bulk` — one
``serve_segment`` call per segment and one
:meth:`~RecMGManager._fold`; on exact backends that is
decision-for-decision and state-identical to the scalar audit loop
(:meth:`~RecMGManager._serve_demand_slow`, what ``fast_serve=False``
runs).  The 15-key model chunks of :meth:`run` do not reach the engine
one by one when ``config`` names one ``"fast"`` shard and no priority
provider is installed: one
:meth:`~repro.cache.buffer.FastPriorityBuffer.serve_chunks` pass on
that shard's backend runs serve -> caching bits -> prefetches for the
whole block.  Every other run keeps the per-chunk triple, which is that
pass's oracle.

The buffer is always one :class:`repro.cache.sharding.ShardedBuffer`
over ``config.num_shards`` independent shards (``config.shard_policy``
picks the router), and no call site branches on its kind or its
backend.  With one shard it is the identity; with more, its
``serve_segment`` routes the segment shard-wise: one vectorized
scatter, one ``serve_segment`` call per shard's sub-segment, one
gather of the misses and victims.  Eviction-for-space is per shard —
the scalar paths evict from the key's routed shard, the one that will
hold it (``ShardedBuffer.evict_for``).

Serving is one thread (scale-out is processes at the shard boundary —
see :mod:`repro.serving`).  :meth:`RecMGManager.serve_batch` is the
front door the admission queue/batcher stack
(:mod:`repro.serving.admission`) drives; per-batch wall latency and
queue depth land in :attr:`RecMGManager.serving_metrics`
(:class:`repro.serving.metrics.ServingMetrics`).

``config.rebalance_interval > 0`` turns on
**online elastic rebalancing**: the manager accumulates a per-shard
traffic EWMA per served block (one ``np.bincount`` of the block's
route), and every ``interval``
served accesses compares the traffic shares against the current
capacity split.  When the worst shard's imbalance exceeds
``config.rebalance_threshold`` it calls
:meth:`repro.cache.sharding.ShardedBuffer.rebalance` with the EWMA
weights — live key migration between the compressed shard universes,
eviction state carried (see :mod:`repro.cache.sharding`).  The call
always lands at a block boundary, between two serves (pinned by
``tests/test_rebalancing.py``).  Donor-shrink victims count as manager
evictions; migrated-key counts and the serving pause land in
:attr:`RecMGManager.serving_metrics`.

The manager reaches the buffer through the paper's three writes
(fused into one ``serve_chunks`` pass where :meth:`run` says so):
``serve_segment`` for demand blocks, the scalar ``insert`` (after
eviction for space) for prefetches, and one caching-bit applier,
:meth:`RecMGManager._apply_caching_bits`, shared by the offline chunk
pass and the provider sink.  It splits the bits along
``ShardedBuffer.iter_shard_segments``' scatter and applies each shard's
share to that shard's backend, in the local ids the scatter compressed
once for the whole block; past its scalar crossover through the bulk
membership/priority protocol of :mod:`repro.cache.buffer`
(``contains_batch`` plus ``set_priority_batch``/``demote_batch``).  The
manager fits the encoder's dense-id universe as the buffer's
``key_space``, so the backends classify a whole segment with one gather
over the per-id membership record each keeps instead of a per-key dict
loop.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Set

import numpy as np

from ..cache.buffer import SCALAR_FALLBACK
from ..cache.sharding import ShardedBuffer
from ..prefetch.base import Prefetcher
from ..prefetch.harness import AccessBreakdown
from ..serving.metrics import ServingMetrics
from ..serving.priorities import SyncModelProvider, apply_caching_bits
from ..traces.access import Trace
from .caching_model import CachingModel
from .config import RecMGConfig
from .features import FeatureEncoder
from .prefetch_model import PrefetchModel

#: Chunks per tape-free model call in :meth:`RecMGManager.run`.  It
#: bounds the per-call blocks (the prefetch logits are ``chunks *
#: output_len`` rows by ``hash_buckets``); per chunk, 64 costs within
#: 10 % of 128 and 32 up to 30 % more, with identical outputs.
INFERENCE_BATCH = 64


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
    #: EWMA smoothing factor for the per-shard traffic shares the
    #: online rebalancer tracks (per served block/segment; higher =
    #: reacts faster to a drifting hot band, lower = steadier split).
    _REBALANCE_EWMA = 0.2

    def __init__(self, capacity: int, encoder: FeatureEncoder,
                 config: RecMGConfig,
                 caching_model: Optional[CachingModel] = None,
                 prefetch_model: Optional[PrefetchModel] = None,
                 key_space="auto") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.encoder = encoder
        self.config = config
        self.caching_model = caching_model
        self.prefetch_model = prefetch_model
        # A fitted encoder fixes the dense-id universe the clock and
        # fast backends index their per-id arrays by; unseen keys map
        # above the vocabulary and spill safely.  ``key_space="auto"``
        # (the default) fits that universe; an int pins an explicit
        # one; ``None`` (also "auto" on an unfitted encoder) gives the
        # backend the empty universe, where every id spills.  The
        # buffer is one ShardedBuffer over ``config.num_shards`` shards
        # (see :mod:`repro.cache.sharding`; one shard is the identity):
        # more than one partitions the universe, so it requires a
        # resolvable key_space (the constructor rejects otherwise).
        if key_space == "auto":
            key_space = (encoder.vocab_size
                         if getattr(encoder, "fitted", False)
                         and encoder.vocab_size > 0 else None)
        self.buffer = ShardedBuffer(config.buffer_impl, capacity,
                                    key_space=key_space,
                                    num_shards=config.num_shards,
                                    shard_policy=config.shard_policy,
                                    shard_weights=config.shard_weights)
        #: Per-batch latency / queue-depth / batch-size telemetry;
        #: :meth:`serve_batch` records into it.
        self.serving_metrics = ServingMetrics()
        # Model-in-the-loop serving (see :mod:`repro.serving.priorities`):
        # with ``priority_mode="sync"`` the provider maps every served
        # block to caching bits and the sink (:meth:`_sink_provider`)
        # applies them through the same priority writes the offline
        # chunk pass uses.  "none" installs no provider and the sink is
        # never invoked — bit-identical to the provider-free engines
        # (pinned by the goldens and the cross-backend differentials).
        self.priority_provider: Optional[SyncModelProvider] = (
            SyncModelProvider(caching_model, encoder,
                              metrics=self.serving_metrics)
            if config.priority_mode == "sync" else None)
        # Online elastic rebalancing (module docstring): traffic EWMAs
        # accumulated per served block, checked every
        # ``config.rebalance_interval`` served accesses, migration via
        # ShardedBuffer.rebalance at a block boundary.  RecMGConfig
        # refuses a rebalance interval without ``num_shards > 1``.
        self._shard_traffic = np.zeros(config.num_shards, dtype=np.float64)
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
    def _evict_for_space(self, key: int) -> None:
        """Evict until there is room to insert ``key`` in the shard that
        will hold it; each victim counts once and loses its prefetch
        tag."""
        victims = self.buffer.evict_for(key)
        self.evictions += len(victims)
        self._prefetched.difference_update(victims)

    def _demand_access(self, key: int) -> None:
        """Serve one demand access."""
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
            return
        self.breakdown.on_demand += 1
        self._evict_for_space(key)
        self.buffer.insert(key, speed)

    def _apply_caching_bits(self, keys: np.ndarray, bits: np.ndarray) -> None:
        """Algorithm 1 lines 4-7 — the one caching-bit write, shared by
        the offline chunk pass and the provider sink.  The applier
        itself lives in :func:`repro.serving.priorities.apply_caching_bits`
        (resident keys only, last occurrence wins, friendly keys to
        ``eviction_speed + 1``, averse keys demoted; a scalar loop up
        to :data:`~repro.cache.buffer.SCALAR_FALLBACK` keys, the bulk
        protocol beyond), where the equivalence of its two forms is
        documented.

        The bits are split along ``iter_shard_segments``' scatter —
        the same one route and one compression the engines serve
        through, the whole block on one shard — and applied per shard
        to its backend, in the shard's local ids (the split-identity
        argument lives on :func:`apply_caching_bits`).
        """
        speed = self.config.eviction_speed
        bits = np.asarray(bits)
        for _, backend, positions, local in self.buffer.iter_shard_segments(
                keys):
            apply_caching_bits(backend, local, bits[positions], speed)

    def _sink_provider(self, segment: np.ndarray) -> None:
        """The provider sink: after a block is fully served, apply
        the priority provider's caching bits for it —
        Algorithm 1's priority write, driven from the live stream
        instead of the offline chunk pass.

        Every position carries a bit (``1`` friendly, ``0`` averse:
        ``CachingModel.predict`` thresholds every logit), and all of
        them apply through :meth:`_apply_caching_bits`.

        Called per block from :meth:`_serve_block` — never from inside
        an engine.
        """
        segment = np.asarray(segment, dtype=np.int64)
        if segment.size == 0:
            return
        self._apply_caching_bits(segment,
                                 self.priority_provider.bits_for(segment))

    def _serve_block(self, serve, segment: np.ndarray) -> None:
        """Serve one block through the engine ``serve`` — the serve
        site :meth:`serve_batch` and both loops of :meth:`run` share —
        then sink it if a priority provider is installed."""
        serve(segment)
        if self.priority_provider is not None:
            self._sink_provider(segment)

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

    def _serve_demand_bulk(self, segment: np.ndarray) -> None:
        """The bulk engine: one ``serve_segment`` call — total on every
        buffer: exact on ``reference`` and ``fast``, protected reclaim
        on ``clock``, one call per routed sub-segment on more than one
        shard — and one :meth:`_fold`.  With the
        online rebalancer on, the segment's per-shard access counts
        also fold into the traffic EWMA."""
        segment = np.asarray(segment, dtype=np.int64)
        _, misses, victims = self.buffer.serve_segment(
            segment, self.config.eviction_speed)
        if self.config.rebalance_interval and segment.size:
            traffic = self._shard_traffic
            traffic *= 1.0 - self._REBALANCE_EWMA
            traffic += self._REBALANCE_EWMA * np.bincount(
                self.buffer.route_batch(segment), minlength=traffic.size)
            self._accesses_since_rebalance += int(segment.size)
        self._fold(segment, misses, victims)

    def _maybe_rebalance(self) -> None:
        """The online rebalance driver — called at block boundaries by
        :meth:`run` and :meth:`serve_batch`.

        Every ``config.rebalance_interval`` served accesses, compare
        the traffic-EWMA shares against the current capacity split;
        when the worst shard's absolute imbalance exceeds
        ``config.rebalance_threshold``, rebalance the buffer onto the
        traffic weights.  Donor-shrink victims count as manager
        evictions (their prefetch tags drop, same as any eviction);
        migrated keys and the migration pause land in
        :attr:`serving_metrics` via ``record_rebalance``.
        """
        interval = self.config.rebalance_interval
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
                <= self.config.rebalance_threshold:
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

    def _fold(self, segment: np.ndarray, misses: np.ndarray,
              victims: np.ndarray) -> None:
        """Fold one served segment — its miss positions and victims, as
        ``serve_segment`` returns them — into the counters: the bulk
        engine's epilogue.

        Prefetch hits follow one rule on every backend, however many
        passes a call took inside: a tagged key scores a prefetch hit
        exactly when its *first* occurrence in the segment hits — the
        scalar loop's verdict, since a tag is dropped on eviction.
        Tagged keys are resident when the serve starts, so only a
        tagged key among the victims can have missed there.  Then the
        tags of every segment key (consumed, or evicted) and every
        victim drop.
        """
        self.evictions += int(victims.size)
        pf_hits = 0
        prefetched = self._prefetched
        if prefetched:
            keys = segment.tolist()
            dropped = victims.tolist()
            tagged = prefetched.intersection(keys)
            pf_hits = len(tagged)
            evicted = tagged.intersection(dropped)
            if evicted:
                missed = set(misses.tolist())
                pf_hits -= sum(keys.index(key) in missed for key in evicted)
            prefetched.difference_update(tagged)
            prefetched.difference_update(dropped)
        self._account_segment(segment, misses, pf_hits)

    def _account_segment(self, segment: np.ndarray, misses: np.ndarray,
                         pf_hits: int) -> None:
        """Counters and decision recording for a served segment:
        ``misses`` are its on-demand positions, ``pf_hits`` of its
        other accesses are prefetch hits, the rest cache hits."""
        length = segment.size
        new_count = int(misses.size)
        breakdown = self.breakdown
        record = self._record_hits
        if record is not None:
            segment_hits = np.ones(length, dtype=bool)
            segment_hits[misses] = False
            record.append(segment_hits)
        hit_count = length - new_count - pf_hits
        if pf_hits:
            breakdown.prefetch_hits += pf_hits
            self.prefetches_useful += pf_hits
        breakdown.cache_hits += hit_count
        breakdown.on_demand += new_count

    # ------------------------------------------------------------------
    def _select_engine(self, fast_serve: bool = True):
        """The demand-serving engine — the bulk engine, or its scalar
        audit oracle for ``fast_serve=False`` — one dispatch shared by
        :meth:`run` and :meth:`serve_batch` (the engine semantics are
        documented on :meth:`run`)."""
        return (self._serve_demand_bulk if fast_serve
                else self._serve_demand_slow)

    def run(self, trace: Trace, fast_serve: bool = True,
            record_decisions: bool = False) -> ManagerStats:
        """Serve ``trace`` end to end; returns the access breakdown.

        The trace's dense ids are cut by
        :meth:`FeatureEncoder.encode_dense_chunks` and inference is
        batched up front, :data:`INFERENCE_BATCH` chunks per
        tape-free ``predict`` / ``predict_indices`` call — identical to
        per-chunk inference (the models are stateless across chunks)
        but an order of magnitude faster, mirroring the paper's batched
        CPU serving; a trace shorter than one chunk is served
        model-free.  ``fast_serve`` selects the bulk engine — one
        ``serve_segment`` call per segment and one fold
        (:meth:`_serve_demand_bulk`) — and
        ``fast_serve=False`` the per-access audit loop
        (:meth:`_serve_demand_slow`), its oracle: the exact backends
        are bit-identical to it, while the ``"clock"`` buffer's victim
        order (and hence hit stream) legitimately differs.  Between
        model barriers on one ``"fast"`` shard the chunk loop
        (serve, caching bits, prefetches) runs as one fused buffer
        pass; everywhere else it runs chunk by chunk, and is the
        pass's oracle.
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
        use_provider = self.priority_provider is not None
        bits_all = None
        preds_all = None
        if num_chunks and ((self.caching_model is not None
                            and not use_provider)
                           or self.prefetch_model is not None):
            # The dense ids are in hand: cut them, not the trace again.
            chunks = self.encoder.encode_dense_chunks(
                dense[:num_chunks * length])
            batches = [np.arange(lo, min(lo + INFERENCE_BATCH, num_chunks))
                       for lo in range(0, num_chunks, INFERENCE_BATCH)]
            if self.caching_model is not None and not use_provider:
                bits_all = np.concatenate(
                    [self.caching_model.predict(chunks, sel=sel)
                     for sel in batches], axis=0)
            if self.prefetch_model is not None:
                preds_all = np.concatenate(
                    [self.prefetch_model.predict_indices(
                        chunks, self.encoder, sel=sel)
                     for sel in batches], axis=0)

        serve = self._select_engine(fast_serve)
        if bits_all is None and preds_all is None:
            # No per-chunk model barrier (model-free, or the caching
            # model rides the provider seam at block granularity), so
            # chunk boundaries are irrelevant: serve the whole trace in
            # large blocks to amortize the bulk pass's per-segment
            # setup — sinking each block when a provider is installed.
            tail = 0
        elif (fast_serve and not use_provider
              and self.config.buffer_impl == "fast"
              and self.config.num_shards == 1
              and length <= SCALAR_FALLBACK):
            # The exact backend's scalar regime, fused: one pass of the
            # one shard's backend runs the loop below for every chunk.
            tail = num_chunks * length
            backend = self.buffer.shards[0].backend
            missed, pf_hits, evicted, issued = backend.serve_chunks(
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
        block = self._SERVE_BLOCK * self.config.num_shards
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
    interface over the encoder's *dense* ids (for the LRU+PF and PM+LRU
    baselines).  Every ``input_len``-th observed id, the window of the
    last ``input_len`` goes through ``encoder.encode_dense_chunks`` —
    the one input path, so the table channel comes from the dense id
    and ``pc`` is ignored — and the first ``max_prefetch_per_chunk``
    predicted ids come back."""

    name = "PM"

    def __init__(self, model: PrefetchModel, encoder: FeatureEncoder,
                 config: RecMGConfig) -> None:
        self.model = model
        self.encoder = encoder
        self.config = config
        self._dense: Deque[int] = deque(maxlen=config.input_len)
        self._step = 0

    def reset(self) -> None:
        self._dense.clear()
        self._step = 0

    def observe(self, key: int, pc: int = 0, hit: bool = True) -> List[int]:
        self._dense.append(key)
        self._step += 1
        if self._step % self.config.input_len:
            return []
        chunks = self.encoder.encode_dense_chunks(self._dense)
        predicted = self.model.predict_indices(chunks, self.encoder)[0]
        return predicted[:self.config.max_prefetch_per_chunk].tolist()

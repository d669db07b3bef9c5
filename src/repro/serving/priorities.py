"""Model-in-the-loop priority providers for the serving engines.

The paper's system is ML-*guided* caching, but the fast serving engines
(batched clock, dense exact, sharded) grew up model-free:
the :class:`~repro.core.caching_model.CachingModel` only ran in the
offline chunk pass of :meth:`RecMGManager.run`.  This module is the
seam that puts the model back in the loop without touching the engines
themselves: a **priority provider** maps a just-served key block to
per-access caching bits, and the manager sinks those bits through the
same priority writes (:func:`apply_caching_bits`) the offline pass
uses — Algorithm 1's ``priority[T[i]] = C[i] + eviction_speed``,
driven from the live stream.

On a sharded buffer the sink is **per shard**: the block's bits are
split along ``ShardedBuffer.iter_shard_segments``' route and applied
through each shard's ``CompressedShardView`` (see
:meth:`RecMGManager._sink_provider` and the split-identity argument on
:func:`apply_caching_bits`).

:class:`LiftGuard` is the safety valve on top of any provider: an
online A/B of guided vs model-free phases over trailing hit-rate
windows; while measured lift is negative the manager withholds the
provider's bits (the block serves as if every bit were ``-1``), so
model guidance can degrade to model-free but never below it.

Three implementations, selected by ``priority_mode``:

* :class:`NullProvider` (``"none"``) — no model anywhere near the
  serving path.  The manager's behavior is bit-identical to the
  provider-free code: the sink is never invoked.
* :class:`SyncModelProvider` (``"sync"``) — batched feature encoding +
  ``CachingModel.predict`` per served block, on the serving thread.
  Amortized like every other bulk op, but inference cost lands on the
  serving critical path: 1920-key blocks serve at ~250 k keys/s vs
  ~1.0 M model-free on the exact ``fast`` backend (~4x), ~390 k vs
  ~7.0 M on ``clock`` (~18x — inference-bound, so it did not move when
  ``ClockBuffer.serve_segment`` doubled the model-free side; 2-core
  AVX-512 host, one BLAS thread, numpy 2.4; on ``fast``, ~6x on
  float64 ``infer`` and ~11x on the taped forward as of PR 17);
  decisions are deterministic, which makes this the
  differential-testable mode.
* :class:`AsyncModelProvider` (``"async"``) — a background worker
  refreshes a dense per-key bit table; serving reads possibly-stale
  bits with one vectorized gather and never blocks on inference.
  Observed blocks queue on a bounded deque (drop-oldest — overload
  sheds refresh work, not serving throughput); **staleness** (blocks
  submitted but not yet refreshed) is bounded by the queue and
  reported through :meth:`PriorityProvider.staleness_blocks` into
  :class:`~repro.serving.metrics.ServingMetrics`.

Bits are *tri-state* ``int8``: ``1`` cache-friendly, ``0`` cache-
averse, ``-1`` no prediction (async table slot not yet refreshed, or a
spillover key outside the dense universe).  The sink applies only
``>= 0`` positions; everything else keeps its recency priority — so an
async provider that has not caught up degrades to model-free behavior,
never to garbage.

Both model providers accept an optional *retrainer*
(:class:`~repro.core.training.OnlineCachingTrainer`): the observed
stream feeds a sliding window which is periodically relabeled with the
vectorized OPTgen and fine-tuned on a **clone** of the model; the
tuned clone replaces ``self.model`` by plain reference assignment —
atomic under the GIL, and the only synchronization the swap needs
(in-flight predictions keep the old weights).  In async mode the
window is fed on the serving thread for **every** observed block
(cheap list work; the refresh interval thins inference, not the
training stream) while the expensive label/fine-tune/swap cycle runs
on the refresh worker, off the serving critical path.

Imports from :mod:`repro.core` are function-local on purpose:
:mod:`repro.core.manager` imports this module at its top level, so a
module-level import back into ``repro.core`` would cycle.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from ..cache.buffer import SCALAR_FALLBACK

#: Provider selection accepted by ``priority_mode=`` (RecMGConfig field
#: and RecMGManager constructor argument).
PRIORITY_MODES = ("none", "sync", "async")


def apply_caching_bits(buffer, keys: np.ndarray, bits: np.ndarray,
                       speed: int) -> None:
    """Algorithm 1 lines 4-7, with a widened differential.

    The paper sets ``priority[T[i]] = C[i] + eviction_speed`` inside
    TorchRec's set-associative buffer, where the one-step gap rides
    on top of per-set RRIP dynamics.  In a fully associative buffer
    every miss ages *all* entries, so a ±1 gap is erased within one
    eviction; we keep the same two-level scheme but spread it across
    the aging scale (friendly = ``speed + 1``, averse = demote), which
    is the Hawkeye-style insertion the paper's labels encode.

    Defined by the scalar sequence: when a key repeats in the block
    its *last* occurrence's bit wins (last write); the resident
    friendly keys get ``set_priority``, then the resident averse keys
    ``demote``, each class in positional order (exact-backend seqno
    order; friendly/averse seqnos live in disjoint positive/negative
    ranges, so cross-class interleaving never affects eviction order).
    Blocks of at most :data:`~repro.cache.buffer.SCALAR_FALLBACK` keys
    run exactly that loop (``run()``'s model chunks too, wherever they
    are served chunk by chunk; the dense exact engine writes the same
    state inside ``FastPriorityBuffer.serve_chunks``);
    longer ones its vectorized form, one ``contains_batch`` residency
    gather classifying the block and the classes landing via
    ``set_priority_batch`` / ``demote_batch``: the same state on every
    backend.  The crossover is measured (dense ``fast`` buffer): bulk
    ~37-55 us fixed + 0.13 us/key, scalar ~0.7 us/key — 15 keys 54 vs
    14 us, 64 keys 56 vs 50, 128 keys 74 vs 90.

    Tri-state safe: ``-1`` ("no prediction") positions are masked out
    *here*, not just by the manager's pre-filter — a ``-1`` bit must
    keep its key's recency priority, and before this mask a caller
    that skipped the pre-filter (a direct
    :class:`repro.dlrm.inference.BufferClassifier` sink, a hand-rolled
    offline pass) would have silently promoted every unpredicted key
    as cache-friendly (``-1 != 0``).

    Per-shard contract: ``buffer`` may equally be one
    :class:`repro.cache.sharding.CompressedShardView` with ``keys``
    restricted to that shard (the manager's per-shard sink splits a
    block along ``iter_shard_segments``' route).  Duplicates of a key
    always land in the same shard and the split preserves positional
    order, so per-shard dedup + apply is call-for-call identical to
    the global form — shards share no state, and within a shard the
    friendly/averse subsequences are exactly the global ones.

    Shared by the manager's per-chunk loop, the provider sink and
    :class:`repro.dlrm.inference.BufferClassifier` — one applier, every
    caller, the form chosen by block length alone.
    """
    keys = np.asarray(keys, dtype=np.int64)
    bits = np.asarray(bits)
    if keys.size <= SCALAR_FALLBACK:
        last: Dict[int, int] = {}
        for key, bit in zip(keys.tolist(), bits.tolist()):
            if bit >= 0 and key in buffer:
                last.pop(key, None)  # re-insert at the last position
                last[key] = bit
        for key, bit in last.items():
            if bit:
                buffer.set_priority(key, speed + 1)
        for key, bit in last.items():
            if not bit:
                buffer.demote(key)
        return
    predicted = bits >= 0
    if not predicted.all():
        if not predicted.any():
            return
        keys = keys[predicted]
        bits = bits[predicted]
    bits = bits != 0
    resident = buffer.contains_batch(keys)
    if not resident.any():
        return
    res_keys = keys[resident]
    res_bits = bits[resident]
    if res_keys.size > 1:
        _, first_rev = np.unique(res_keys[::-1], return_index=True)
        if first_rev.size != res_keys.size:  # duplicates: last wins
            sel = np.sort(res_keys.size - 1 - first_rev)
            res_keys = res_keys[sel]
            res_bits = res_bits[sel]
    buffer.set_priority_batch(res_keys[res_bits], speed + 1)
    buffer.demote_batch(res_keys[~res_bits])


class LiftGuard:
    """Trailing-window hit-rate lift guard: model guidance may degrade
    to model-free, never below it.

    A model trained for one occupancy regime can be actively *harmful*
    in another (the low-capacity lift inversion: 20%-capacity OPTgen
    labels overcommit a 5% buffer).  The guard measures the lift
    online and withholds the provider's bits while it is negative —
    the served block then behaves exactly like an all ``-1``
    ("no prediction") block, i.e. model-free.

    Mechanics — an online A/B over *phases* of ``phase_blocks``
    consecutive served blocks (guidance affects the blocks *after*
    the bits land, so single-block interleaving would attribute one
    arm's effect to the other; phase runs keep the attribution error
    to the phase boundary):

    * **healthy** (not tripped): one phase in ``probe_every`` serves
      *control* (bits withheld), the rest are guided;
    * **tripped**: roles invert — one guided probe phase in
      ``probe_every``, everything else model-free.

    Completed runs append ``(hits, accesses)`` to the arm's trailing
    window (last ``window_phases`` runs); when both windows are full
    and the guided rate falls below control minus ``margin`` the guard
    trips, and it untrips on the symmetric recovery.  Both flips clear
    the windows — samples measured under the previous regime would
    bias the next comparison.

    Driven by the manager at block granularity: :meth:`begin_block`
    decides the block's arm before it is served, :meth:`record_block`
    feeds its measured hits back after.  One decision is pending at a
    time; a :meth:`begin_block` whose block was never recorded (its
    serve raised) is superseded by the next.
    """

    def __init__(self, phase_blocks: int = 8, window_phases: int = 4,
                 probe_every: int = 8, margin: float = 0.0) -> None:
        if phase_blocks < 1:
            raise ValueError("phase_blocks must be >= 1")
        if window_phases < 1:
            raise ValueError("window_phases must be >= 1")
        if probe_every < 2:
            raise ValueError("probe_every must be >= 2 (one arm would "
                             "never be measured)")
        if margin < 0:
            raise ValueError("margin must be >= 0")
        self.phase_blocks = int(phase_blocks)
        self.window_phases = int(window_phases)
        self.probe_every = int(probe_every)
        self.margin = float(margin)
        self.tripped = False
        self.trips = 0
        self.untrips = 0
        self._begun = 0                      # blocks whose arm is decided
        self._pending: Optional[bool] = None  # arm awaiting measurement
        self._run_arm: Optional[bool] = None  # arm of the open run
        self._run_hits = 0
        self._run_size = 0
        self._run_blocks = 0
        self._windows: Dict[bool, Deque[Tuple[int, int]]] = {
            True: deque(maxlen=self.window_phases),
            False: deque(maxlen=self.window_phases),
        }

    def begin_block(self) -> bool:
        """Decide the next served block's arm; True = guided (apply
        the provider's bits), False = control (withhold them)."""
        phase = self._begun // self.phase_blocks
        minority = (phase % self.probe_every) == self.probe_every - 1
        arm = minority if self.tripped else not minority
        self._begun += 1
        self._pending = arm
        return arm

    def record_block(self, hits: int, accesses: int) -> None:
        """Feed one block's measured hits; pairs with the pending
        :meth:`begin_block` decision."""
        arm = self._pending
        if arm is None:
            raise RuntimeError("record_block without a matching "
                               "begin_block")
        self._pending = None
        if self._run_arm is None:
            self._run_arm = arm
        elif arm != self._run_arm:
            self._flush_run()
            self._run_arm = arm
        self._run_hits += int(hits)
        self._run_size += int(accesses)
        self._run_blocks += 1
        if self._run_blocks >= self.phase_blocks:
            self._flush_run()

    def rate(self, guided: bool) -> Optional[float]:
        """Trailing hit rate of one arm (None before any sample)."""
        window = self._windows[guided]
        total = sum(size for _, size in window)
        if not total:
            return None
        return sum(hits for hits, _ in window) / total

    def _flush_run(self) -> None:
        if self._run_size:
            self._windows[self._run_arm].append(
                (self._run_hits, self._run_size))
            self._update_state()
        self._run_arm = None
        self._run_hits = self._run_size = self._run_blocks = 0

    def _update_state(self) -> None:
        guided_win = self._windows[True]
        control_win = self._windows[False]
        if (len(guided_win) < guided_win.maxlen
                or len(control_win) < control_win.maxlen):
            return  # not enough evidence on both arms yet
        guided_rate = self.rate(True)
        control_rate = self.rate(False)
        if not self.tripped and guided_rate < control_rate - self.margin:
            self.tripped = True
            self.trips += 1
        elif self.tripped and guided_rate > control_rate + self.margin:
            self.tripped = False
            self.untrips += 1
        else:
            return
        guided_win.clear()
        control_win.clear()

    def stats(self) -> Dict[str, float]:
        """Flat guard counters/gauges (JSON-ready)."""
        return {
            "tripped": float(self.tripped),
            "trips": self.trips,
            "untrips": self.untrips,
            "guided_rate": self.rate(True),
            "control_rate": self.rate(False),
            "blocks_decided": self._begun,
        }


class PriorityProvider:
    """Maps served key blocks to per-access caching bits (base class =
    the ``"none"`` behavior: no observation, no bits, no thread).

    Contract with the sink (:meth:`RecMGManager._sink_provider`): after
    a block is served, the sink calls :meth:`observe` (feed the stream)
    then :meth:`bits_for` (collect predictions).  ``bits_for`` returns
    an ``int8`` array of the block's length — ``1`` friendly, ``0``
    averse, ``-1`` no prediction — or ``None`` when the provider has
    nothing to say about the whole block.
    """

    mode = "none"

    def observe(self, keys: np.ndarray) -> None:
        """Feed one served block of dense ids to the provider."""

    def bits_for(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Tri-state caching bits for ``keys`` (see class docstring)."""
        return None

    def staleness_blocks(self) -> Optional[int]:
        """Blocks observed but not yet reflected in predictions
        (``None`` for providers whose predictions are never stale)."""
        return None

    def close(self) -> None:
        """Release worker resources (idempotent; base class no-ops)."""

    def stats(self) -> Dict[str, float]:
        """Flat inference/staleness counters (JSON-ready)."""
        return {}


class NullProvider(PriorityProvider):
    """``priority_mode="none"``: today's model-free serving, bit-
    identical — the manager skips the sink entirely when this provider
    is installed, so not even a per-block residency gather is added."""


class _ModelProviderBase(PriorityProvider):
    """Shared encode/predict/retrain plumbing of the model providers."""

    def __init__(self, model, encoder, config, metrics=None,
                 retrainer=None) -> None:
        if model is None:
            raise ValueError(f"priority_mode={self.mode!r} requires a "
                             f"caching model")
        if not getattr(encoder, "fitted", False):
            raise ValueError(f"priority_mode={self.mode!r} requires a "
                             f"fitted encoder (the dense-id universe "
                             f"defines the feature space)")
        self.model = model
        self.encoder = encoder
        self.config = config
        self.metrics = metrics
        self.retrainer = retrainer
        self.inference_batches = 0
        self.inference_keys = 0
        self.inference_seconds = 0.0

    def _predict(self, keys: np.ndarray) -> np.ndarray:
        """Encode ``keys`` (tail-padded to whole chunks), run the
        model, slice back to the true length; records timing."""
        begin = time.perf_counter()
        chunks = self.encoder.encode_dense_chunks(keys)
        bits = self.model.predict(chunks).reshape(-1)[:keys.size]
        elapsed = time.perf_counter() - begin
        self.inference_batches += 1
        self.inference_keys += int(keys.size)
        self.inference_seconds += elapsed
        if self.metrics is not None:
            self.metrics.record_inference(elapsed, int(keys.size))
        return bits.astype(np.int8)

    def _maybe_retrain(self, keys: np.ndarray) -> None:
        """Feed the retraining window; fine-tune + swap when due.  The
        swap is a reference assignment — atomic under the GIL."""
        if self.retrainer is not None and self.retrainer.observe(keys):
            self.model = self.retrainer.retrain(self.model)

    def stats(self) -> Dict[str, float]:
        return {
            "inference_batches": self.inference_batches,
            "inference_keys": self.inference_keys,
            "inference_seconds": self.inference_seconds,
            "retrains": (self.retrainer.retrains
                         if self.retrainer is not None else 0),
        }


class SyncModelProvider(_ModelProviderBase):
    """``priority_mode="sync"``: batched inference on the serving
    thread, one predict per served block.  Deterministic — the
    differential-testable mode — but inference cost lands on the
    serving critical path."""

    mode = "sync"

    def observe(self, keys: np.ndarray) -> None:
        self._maybe_retrain(np.asarray(keys, dtype=np.int64))

    def bits_for(self, keys: np.ndarray) -> Optional[np.ndarray]:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return None
        return self._predict(keys)


class AsyncModelProvider(_ModelProviderBase):
    """``priority_mode="async"``: a background worker refreshes a dense
    per-key bit table; serving gathers possibly-stale bits and never
    blocks on inference (module docstring has the full story).

    Concurrency notes:

    * The serving thread only *reads* ``self._table`` (one fancy
      gather) and touches the pending deque under the lock; the worker
      is the only writer of table slots and inference counters.  A
      gather racing a scatter may see a mix of old and new bits within
      one block — by design: stale-but-valid predictions are the whole
      point, and each ``int8`` slot is written atomically.
    * ``observe`` never blocks: when the pending queue is full the
      *oldest* block is dropped (its keys will be observed again if
      they stay hot), which bounds both memory and staleness.
    * ``close()`` drains the queued refreshes (bounded by
      ``pending_max`` blocks) and joins the worker; after close the
      table is frozen — serving continues on the last refreshed bits.
    """

    mode = "async"

    def __init__(self, model, encoder, config, key_space: int,
                 metrics=None, retrainer=None,
                 refresh_blocks: Optional[int] = None,
                 pending_max: Optional[int] = None) -> None:
        super().__init__(model, encoder, config, metrics=metrics,
                         retrainer=retrainer)
        if key_space < 1:
            raise ValueError("async provider needs a dense key_space "
                             ">= 1 for its bit table")
        self.refresh_blocks = int(
            refresh_blocks if refresh_blocks is not None
            else getattr(config, "priority_refresh_blocks", 1))
        self.pending_max = int(
            pending_max if pending_max is not None
            else getattr(config, "priority_pending_max", 8))
        if self.refresh_blocks < 1:
            raise ValueError("refresh_blocks must be >= 1")
        if self.pending_max < 1:
            raise ValueError("pending_max must be >= 1")
        #: -1 = no prediction yet; the worker scatters 0/1 bits in.
        self._table = np.full(int(key_space), -1, dtype=np.int8)
        self._pending: Deque[np.ndarray] = deque()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._closed = False
        self._retrain_due = False   # a retrain cycle is owed the worker
        self._retraining = False    # the worker is inside one right now
        self.observed_blocks = 0    #: blocks seen by observe()
        self.submitted_blocks = 0   #: blocks enqueued for refresh
        self.refreshed_blocks = 0   #: blocks the worker completed
        self.dropped_blocks = 0     #: blocks shed by the bounded queue
        self.worker_errors = 0      #: refresh cycles that raised
        self._thread = threading.Thread(target=self._worker_loop,
                                        name="priority-refresh",
                                        daemon=True)
        self._thread.start()

    # -- serving side ---------------------------------------------------
    def observe(self, keys: np.ndarray) -> None:
        """Feed one served block: the retraining window sees **every**
        block, the refresh queue only every ``refresh_blocks``-th.

        These cadences are independent on purpose — the refresh
        interval thins *inference* cost, but thinning the retraining
        window with it would starve the trainer (with
        ``refresh_blocks=k`` it would label a window holding only
        every k-th block, a k-times-sparser stream than the one being
        served).  The window append is O(1) list work, cheap enough
        for the serving thread; the expensive label/fine-tune cycle it
        occasionally arms still runs on the refresh worker, flagged
        through ``_retrain_due`` rather than run inline here.
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return
        self.observed_blocks += 1
        retrain_due = (self.retrainer is not None
                       and self.retrainer.observe(keys))
        submit = not (self.observed_blocks - 1) % self.refresh_blocks
        if not (submit or retrain_due):
            return
        with self._wake:
            if self._closed:
                return
            if submit:
                if len(self._pending) >= self.pending_max:
                    self._pending.popleft()  # drop-oldest; never block
                    self.dropped_blocks += 1
                self._pending.append(keys.copy())
                self.submitted_blocks += 1
            if retrain_due:
                self._retrain_due = True
            self._wake.notify()

    def bits_for(self, keys: np.ndarray) -> Optional[np.ndarray]:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return None
        table = self._table
        # Spillover keys (>= key_space) have no table slot: clip the
        # gather index and force their bits to "no prediction".
        got = table[np.clip(keys, 0, table.size - 1)]
        return np.where(keys < table.size, got, np.int8(-1))

    def _staleness_locked(self) -> int:
        """Counter arithmetic for :meth:`staleness_blocks`; the caller
        must hold ``self._lock``."""
        return (self.submitted_blocks - self.refreshed_blocks
                - self.dropped_blocks)

    def staleness_blocks(self) -> int:
        """Blocks enqueued but not yet refreshed (in queue or in
        flight); bounded by ``pending_max + 1`` by construction, and
        never negative: the three counters are read under the provider
        lock as one consistent snapshot.  (An unlocked read racing the
        worker could see ``refreshed_blocks`` advance before the
        matching ``submitted_blocks`` and report a transient negative
        lag into :meth:`ServingMetrics.record_staleness`, which
        rejects it.)"""
        with self._lock:
            return self._staleness_locked()

    # -- worker side ----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            with self._wake:
                while (not self._pending and not self._retrain_due
                       and not self._closed):
                    self._wake.wait()
                if self._closed and not self._pending:
                    # Drained.  A pending retrain is *dropped*, not
                    # drained: post-close the table is frozen, so a
                    # freshly tuned model would never predict again.
                    return
                keys = None
                retrain = False
                if self._pending:
                    keys = self._pending.popleft()
                else:  # no refresh backlog: run the owed retrain cycle
                    self._retrain_due = False
                    self._retraining = True
                    retrain = True
            if keys is not None:
                try:
                    self._refresh(keys)
                except Exception:
                    # A dying worker must not freeze serving: count it,
                    # keep draining — unrefreshed slots stay at -1,
                    # which the sink treats as "no prediction".
                    self.worker_errors += 1
                with self._idle:
                    self.refreshed_blocks += 1
                    self._idle.notify_all()
            elif retrain:
                try:
                    # Reference-assignment swap: atomic under the GIL,
                    # in-flight predictions keep the old weights.
                    self.model = self.retrainer.retrain(self.model)
                except Exception:
                    self.worker_errors += 1
                with self._idle:
                    self._retraining = False
                    self._idle.notify_all()

    def _refresh(self, keys: np.ndarray) -> None:
        bits = self._predict(keys)
        in_range = keys < self._table.size
        self._table[keys[in_range]] = bits[in_range]
        # Staleness is sampled by the *sink* (serving thread) per served
        # block, keeping each metrics field family single-writer: this
        # worker owns the inference counters, the serving thread owns
        # batch latency and staleness.  Retraining is NOT fed here —
        # the serving thread feeds the window for every observed block
        # (see observe); refresh blocks are a thinned subset of it.

    # -- lifecycle ------------------------------------------------------
    def flush(self, timeout: float = 10.0) -> bool:
        """Block until every submitted block is refreshed and any owed
        retrain cycle has completed (test/bench hook — serving code
        never calls this).  Returns False on timeout."""
        deadline = time.perf_counter() + timeout
        with self._idle:
            while (self._staleness_locked() > 0 or self._retrain_due
                   or self._retraining):
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    return False
                self._idle.wait(remaining)
        return True

    def close(self) -> None:
        with self._wake:
            if self._closed:
                return
            self._closed = True
            self._wake.notify_all()
        self._thread.join()

    def stats(self) -> Dict[str, float]:
        out = super().stats()
        # One consistent counter snapshot (same lock as the worker's
        # updates) — stats() racing a refresh must not report e.g.
        # refreshed > submitted or a negative staleness.
        with self._lock:
            out.update(
                observed_blocks=self.observed_blocks,
                submitted_blocks=self.submitted_blocks,
                refreshed_blocks=self.refreshed_blocks,
                dropped_blocks=self.dropped_blocks,
                staleness_blocks=self._staleness_locked(),
                worker_errors=self.worker_errors,
            )
        # The table read stays outside the lock: racing a scatter is
        # by-design (each int8 slot is atomic) and coverage is a gauge.
        out.update(table_coverage=float(
            np.count_nonzero(self._table >= 0) / self._table.size))
        return out


def make_provider(mode: str, model, encoder, config, metrics=None,
                  capacity: Optional[int] = None) -> PriorityProvider:
    """Build the provider for ``priority_mode`` (validating the mode).

    ``capacity`` is the buffer capacity — required only when
    ``config.online_retrain_interval`` enables the retrainer, whose
    OPTgen labeling budget is ``capacity * optgen_fraction`` (the
    paper's 80% headroom rule, same as offline labeling).
    """
    if mode not in PRIORITY_MODES:
        raise ValueError(f"priority_mode must be one of {PRIORITY_MODES}, "
                         f"got {mode!r}")
    if mode == "none":
        return NullProvider()
    retrainer = None
    if getattr(config, "online_retrain_interval", 0):
        if capacity is None:
            raise ValueError("online retraining needs the buffer capacity "
                             "(it sets the OPTgen labeling budget)")
        from ..core.training import OnlineCachingTrainer  # no cycle: lazy
        retrainer = OnlineCachingTrainer(encoder, config, capacity)
    if mode == "sync":
        return SyncModelProvider(model, encoder, config, metrics=metrics,
                                 retrainer=retrainer)
    return AsyncModelProvider(model, encoder, config,
                              key_space=encoder.vocab_size,
                              metrics=metrics, retrainer=retrainer)

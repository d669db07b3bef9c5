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

On a sharded buffer every caching-bit write is **per shard**: the
block's bits are split along ``ShardedBuffer.iter_shard_segments``'
route and applied through each shard's ``CompressedShardView`` (see
:meth:`RecMGManager._apply_caching_bits` and the split-identity
argument on :func:`apply_caching_bits`).

:class:`LiftGuard` is the safety valve on top of any provider: an
online A/B of guided vs model-free phases over trailing hit-rate
windows; while measured lift is negative the manager withholds the
provider's bits (the block serves as if every bit were ``-1``), so
model guidance can degrade to model-free but never below it.

Two implementations, selected by ``priority_mode``:

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
  decisions are deterministic, which makes model-guided serving
  differential-testable.

Model guidance runs on the serving thread only: under the GIL a
refresh thread gets no second core, and one measured a worse p99 than
this provider (4.2–4.9 vs 1.9–2.9 ms on a 2-core host) for a tenth of
its hit-rate lift.

Bits are *tri-state* ``int8``: ``1`` cache-friendly, ``0`` cache-
averse, ``-1`` no prediction.  The sink applies only ``>= 0``
positions; everything else keeps its recency priority, so a provider
(or a lift-guard control block) without a prediction degrades to
model-free behavior, never to garbage.

The model is trained offline and never changes while it serves — an
inline fine-tune-and-swap loop lost hit rate on three of four measured
scenarios and paused the serving thread a median 66-475 ms per retrain
(ROADMAP item 3) — so the provider contract is the single method
:meth:`PriorityProvider.bits_for`.

This module imports nothing from :mod:`repro.core` at module level:
:mod:`repro.core.manager` imports it at its top level, so an import
back into ``repro.core`` would cycle.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Optional, Tuple

import numpy as np

from ..cache.buffer import SCALAR_FALLBACK

#: Provider selection accepted by ``RecMGConfig.priority_mode``.
PRIORITY_MODES = ("none", "sync")


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
    — the crossover ``serve_segment`` uses inside the ``fast``
    backend — run exactly that loop (``run()``'s model chunks too,
    wherever they are served chunk by chunk; ``run()``'s fused pass
    writes the same state inside ``FastPriorityBuffer.serve_chunks``);
    longer ones its vectorized form, one ``contains_batch`` residency
    gather classifying the block and the classes landing via
    ``set_priority_batch`` / ``demote_batch``: the same state on every
    backend.  The crossover holds for the applier too (dense ``fast``
    buffer): bulk ~37-55 us fixed + 0.13 us/key, scalar ~0.7 us/key —
    15 keys 54 vs 14 us, 64 keys 56 vs 50, 128 keys 74 vs 90.

    Tri-state safe: ``-1`` ("no prediction") positions are masked out
    *here*, not just by the manager's pre-filter — a ``-1`` bit must
    keep its key's recency priority, and before this mask a caller
    that skipped the pre-filter (a hand-rolled offline pass) would
    have silently promoted every unpredicted key as cache-friendly
    (``-1 != 0``).

    ``buffer`` is one backend, or one
    :class:`repro.cache.sharding.CompressedShardView` with ``keys``
    restricted to that shard: on a sharded buffer
    :meth:`RecMGManager._apply_caching_bits` splits a block along
    ``iter_shard_segments``' route and calls this once per shard.
    Duplicates of a key always land in the same shard and the split
    preserves positional order, so per-shard dedup + apply writes
    exactly the state of the scalar sequence routed key by key —
    shards share no state, and within a shard the friendly/averse
    subsequences are exactly the block's own.

    The manager calls it only from that applier, which its per-chunk
    loop and its provider sink share — the form chosen by block length
    alone.
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
    and the guided rate falls below control the guard trips, and it
    untrips once guided beats control.  Both flips clear the windows —
    samples measured under the previous regime would bias the next
    comparison.

    Driven by the manager at block granularity: :meth:`begin_block`
    decides the block's arm before it is served, :meth:`record_block`
    feeds its measured hits back after.  One decision is pending at a
    time; a :meth:`begin_block` whose block was never recorded (its
    serve raised) is superseded by the next.
    """

    def __init__(self, phase_blocks: int = 8, window_phases: int = 4,
                 probe_every: int = 8) -> None:
        if phase_blocks < 1:
            raise ValueError("phase_blocks must be >= 1")
        if window_phases < 1:
            raise ValueError("window_phases must be >= 1")
        if probe_every < 2:
            raise ValueError("probe_every must be >= 2 (one arm would "
                             "never be measured)")
        self.phase_blocks = int(phase_blocks)
        self.window_phases = int(window_phases)
        self.probe_every = int(probe_every)
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
        if not self.tripped and guided_rate < control_rate:
            self.tripped = True
            self.trips += 1
        elif self.tripped and guided_rate > control_rate:
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
    the ``"none"`` behavior: no bits).

    Contract with the sink (:meth:`RecMGManager._sink_provider`): after
    a guided block is served, the sink calls :meth:`bits_for` once; a
    lift-guard control block makes no provider call.  ``bits_for``
    returns an ``int8`` array of the block's length — ``1`` friendly,
    ``0`` averse, ``-1`` no prediction — or ``None`` when the provider
    has nothing to say about the whole block.
    """

    mode = "none"

    def bits_for(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Tri-state caching bits for ``keys`` (see class docstring)."""
        return None

    def stats(self) -> Dict[str, float]:
        """Flat inference counters (JSON-ready)."""
        return {}


class NullProvider(PriorityProvider):
    """``priority_mode="none"``: today's model-free serving, bit-
    identical — the manager skips the sink entirely when this provider
    is installed, so not even a per-block residency gather is added."""


class SyncModelProvider(PriorityProvider):
    """``priority_mode="sync"``: batched inference on the serving
    thread, one predict per served block.  Deterministic — the
    differential-testable mode — but inference cost lands on the
    serving critical path."""

    mode = "sync"

    def __init__(self, model, encoder, metrics=None) -> None:
        if model is None:
            raise ValueError(f"priority_mode={self.mode!r} requires a "
                             f"caching model")
        if not getattr(encoder, "fitted", False):
            raise ValueError(f"priority_mode={self.mode!r} requires a "
                             f"fitted encoder (the dense-id universe "
                             f"defines the feature space)")
        self.model = model
        self.encoder = encoder
        self.metrics = metrics
        self.inference_batches = 0
        self.inference_keys = 0
        self.inference_seconds = 0.0

    def bits_for(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Encode ``keys`` (tail-padded to whole chunks), run the
        model, slice back to the true length; records timing."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return None
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

    def stats(self) -> Dict[str, float]:
        return {
            "inference_batches": self.inference_batches,
            "inference_keys": self.inference_keys,
            "inference_seconds": self.inference_seconds,
        }


def make_provider(mode: str, model, encoder,
                  metrics=None) -> PriorityProvider:
    """Build the provider for ``priority_mode`` (validating the mode)."""
    if mode not in PRIORITY_MODES:
        raise ValueError(f"priority_mode must be one of {PRIORITY_MODES}, "
                         f"got {mode!r}")
    if mode == "none":
        return NullProvider()
    return SyncModelProvider(model, encoder, metrics=metrics)

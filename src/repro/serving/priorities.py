"""The model-in-the-loop priority provider for the serving engines.

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

Every caching-bit write is **per shard**: the block's bits are split
along ``ShardedBuffer.iter_shard_segments``' scatter (the whole block
on one shard) and applied to each shard's backend in its local ids (see
:meth:`RecMGManager._apply_caching_bits` and the split-identity
argument on :func:`apply_caching_bits`).

The one provider, :class:`SyncModelProvider`, is installed when
``priority_mode`` is ``"sync"``; with ``"none"`` the manager holds no
provider and never invokes the sink.  The provider runs batched
feature encoding + ``CachingModel.predict`` per served block, on the
serving thread.  Amortized like every other bulk op, but inference
cost lands on the serving critical path: ``bench/``'s ``model-sync``
workload (1920-key blocks on the exact ``fast`` backend) serves a
median ~520 k keys/s over seeds 1-10, and its traced run puts ~3/4 of
each op in the caching forward (``core.caching_model.busy_share``;
2-core host, one BLAS thread, numpy 2.4; ``predict`` is the model's
float32 ``infer``, with no tape).  ``bench/README.md`` has the
commands.  Decisions are deterministic, which makes model-guided
serving differential-testable.

Model guidance runs on the serving thread only: under the GIL a
refresh thread gets no second core, and one measured a worse p99 than
this provider (4.2–4.9 vs 1.9–2.9 ms on a 2-core host) for a tenth of
its hit-rate lift.

Bits are ``int8``: ``1`` cache-friendly, ``0`` cache-averse.
``CachingModel.predict``, their only source, thresholds every logit,
so every position of a served block carries a bit and the sink applies
them all.

The model is trained offline and never changes while it serves — an
inline fine-tune-and-swap loop lost hit rate on three of four measured
scenarios and paused the serving thread a median 66-475 ms per
retrain — and its bits are never withheld online: an A/B lift guard
sharing the one buffer kept a mismatched model at or above model-free
on 1 of 30 measured runs.  So the provider contract is the single
method :meth:`SyncModelProvider.bits_for`.

This module imports nothing from :mod:`repro.core` at module level:
:mod:`repro.core.manager` imports it at its top level, so an import
back into ``repro.core`` would cycle.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

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
    longer ones its vectorized form, one ``contains_batch`` membership
    gather classifying the block and the classes landing via
    ``set_priority_batch`` / ``demote_batch``: the same state on every
    backend.  The crossover holds for the applier too (dense ``fast``
    buffer): bulk ~37-55 us fixed + 0.13 us/key, scalar ~0.7 us/key —
    15 keys 54 vs 14 us, 64 keys 56 vs 50, 128 keys 74 vs 90.

    ``buffer`` is one backend.
    :meth:`RecMGManager._apply_caching_bits` splits a block along
    ``iter_shard_segments``' scatter and calls this once per shard,
    with that shard's backend and that shard's local ids.  Duplicates
    of a key always land in the same shard under the same local id,
    and the split preserves positional order, so per-shard dedup +
    apply writes exactly the state of the scalar sequence routed key
    by key — shards share no state, and within a shard the
    friendly/averse subsequences are exactly the block's own.

    The manager calls it only from that applier, which its per-chunk
    loop and — when a :class:`SyncModelProvider` is installed — its
    provider sink share, the form chosen by block length alone.
    """
    keys = np.asarray(keys, dtype=np.int64)
    bits = np.asarray(bits)
    if keys.size <= SCALAR_FALLBACK:
        last: Dict[int, int] = {}
        for key, bit in zip(keys.tolist(), bits.tolist()):
            if key in buffer:
                last.pop(key, None)  # re-insert at the last position
                last[key] = bit
        for key, bit in last.items():
            if bit:
                buffer.set_priority(key, speed + 1)
        for key, bit in last.items():
            if not bit:
                buffer.demote(key)
        return
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


class SyncModelProvider:
    """``priority_mode="sync"``: batched inference on the serving
    thread, one predict per served block.  Deterministic — the
    differential-testable mode — but inference cost lands on the
    serving critical path.

    Contract with the sink (:meth:`RecMGManager._sink_provider`): after
    each block is served, the sink calls :meth:`bits_for` once.  It
    returns an ``int8`` array of the block's length — ``1`` friendly,
    ``0`` averse — or ``None`` for an empty block.
    """

    def __init__(self, model, encoder, metrics=None) -> None:
        if model is None:
            raise ValueError("priority_mode='sync' requires a caching "
                             "model")
        if not getattr(encoder, "fitted", False):
            raise ValueError("priority_mode='sync' requires a fitted "
                             "encoder (the dense-id universe defines the "
                             "feature space)")
        self.model = model
        self.encoder = encoder
        self.metrics = metrics

    def bits_for(self, keys: np.ndarray) -> Optional[np.ndarray]:
        """Encode ``keys`` (tail-padded to whole chunks), run the
        model, slice back to the true length; records the inference
        time into ``metrics`` when one is given."""
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size == 0:
            return None
        begin = time.perf_counter()
        chunks = self.encoder.encode_dense_chunks(keys)
        bits = self.model.predict(chunks).reshape(-1)[:keys.size]
        if self.metrics is not None:
            self.metrics.record_inference(time.perf_counter() - begin,
                                          int(keys.size))
        return bits


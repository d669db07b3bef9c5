"""Dense-id residency index: vectorized membership over a dense key space.

The serving stack's hottest question is membership — "which of these
keys are resident right now?" — asked once per access by the scalar
loops and once per *segment* by the batched engines.  When keys live in
a dense id space (the manager serves ``encoder.dense_ids``, the
prefetch harness serves ``remap_to_dense`` keys), the answer is a
single numpy gather: :class:`ResidencyIndex` keeps a boolean bitmap
over ``[0, key_space)`` and answers :meth:`contains_batch` for a whole
segment with one fancy-indexing read instead of a per-key dict loop.

Keys outside the dense range (the manager assigns unseen keys unique
ids *above* the vocabulary, see
:meth:`repro.core.features.FeatureEncoder.dense_ids`) are tracked in a
spillover set, so correctness never depends on every key fitting the
bitmap — only throughput does.  ``key_space=0`` is the empty universe:
every key spills, e.g. raw packed keys served without a fitted
vocabulary.

The index is maintained *incrementally by the buffer backends*
(:mod:`repro.cache.buffer`), every one of which carries one:
:class:`~repro.cache.buffer.ClockBuffer` and
:class:`~repro.cache.buffer.FastPriorityBuffer` set bits on
``insert``/``serve_segment`` and clear them on
``evict_one``/``evict_batch``;
:class:`~repro.cache.buffer.PriorityBuffer` keeps its index as a
mirror of its entry dict (over the empty universe when built without
``key_space``).  Call sites (``serving.priorities.apply_caching_bits``,
``prefetch.harness``, ``ShardedBuffer``) therefore stay
backend-agnostic.
"""

from __future__ import annotations

from typing import Iterator, Sequence, Set

import numpy as np


class ResidencyIndex:
    """Boolean residency bitmap over dense ids ``[0, key_space)``.

    Mutations accept scalars or batches; batch forms are vectorized
    over the in-range keys and fall back to a spillover set for ids
    outside the bitmap (rare by construction — see module docstring).
    ``add``/``discard`` are idempotent, mirroring set semantics: the
    buffer backends own the capacity bookkeeping, the index only
    answers membership.
    """

    __slots__ = ("key_space", "bitmap", "_overflow")

    def __init__(self, key_space: int) -> None:
        if key_space < 0:
            raise ValueError("key_space must be >= 0")
        self.key_space = int(key_space)
        #: The raw bitmap — exposed so hot call sites can gather
        #: ``bitmap[segment]`` directly once they know the segment is
        #: in range; :meth:`contains_batch` is the safe general form.
        self.bitmap = np.zeros(self.key_space, dtype=bool)
        self._overflow: Set[int] = set()

    # -- scalar protocol ----------------------------------------------
    def __contains__(self, key: int) -> bool:
        if 0 <= key < self.key_space:
            return bool(self.bitmap[key])
        return key in self._overflow

    def add(self, key: int) -> None:
        if 0 <= key < self.key_space:
            self.bitmap[key] = True
        else:
            self._overflow.add(key)

    def discard(self, key: int) -> None:
        if 0 <= key < self.key_space:
            self.bitmap[key] = False
        else:
            self._overflow.discard(key)

    # -- batch protocol -----------------------------------------------
    def _split(self, keys) -> np.ndarray:
        return np.asarray(keys, dtype=np.int64)

    def add_batch(self, keys: Sequence[int]) -> None:
        """Bulk set: one vectorized write for in-range keys."""
        arr = self._split(keys)
        if arr.size == 0:
            return
        if arr.min() >= 0 and arr.max() < self.key_space:
            self.bitmap[arr] = True
            return
        in_range = (arr >= 0) & (arr < self.key_space)
        self.bitmap[arr[in_range]] = True
        self._overflow.update(arr[~in_range].tolist())

    def discard_batch(self, keys: Sequence[int]) -> None:
        """Bulk clear: one vectorized write for in-range keys."""
        arr = self._split(keys)
        if arr.size == 0:
            return
        if arr.min() >= 0 and arr.max() < self.key_space:
            self.bitmap[arr] = False
            return
        in_range = (arr >= 0) & (arr < self.key_space)
        self.bitmap[arr[in_range]] = False
        self._overflow.difference_update(arr[~in_range].tolist())

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Residency of each key as a boolean array (one gather when
        every key is in range)."""
        arr = self._split(keys)
        if arr.size == 0:
            return np.zeros(0, dtype=bool)
        if arr.min() >= 0 and arr.max() < self.key_space:
            return self.bitmap[arr]
        in_range = (arr >= 0) & (arr < self.key_space)
        out = np.zeros(arr.size, dtype=bool)
        out[in_range] = self.bitmap[arr[in_range]]
        if self._overflow:
            spill = ~in_range
            out[spill] = np.fromiter(
                map(self._overflow.__contains__, arr[spill].tolist()),
                dtype=bool, count=int(np.count_nonzero(spill)))
        return out

    # -- bookkeeping ---------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of per-id state (the bitmap).  Memory here scales with
        ``key_space``, not occupancy — which is why sharded buffers
        build their indexes over the *compressed* per-shard universe
        (see :mod:`repro.cache.sharding`)."""
        return int(self.bitmap.nbytes)

    def count(self) -> int:
        """Number of resident keys (O(key_space) popcount — the owning
        buffer tracks its own length; this is for audits/tests)."""
        return int(np.count_nonzero(self.bitmap)) + len(self._overflow)

    def resident_keys(self) -> Iterator[int]:
        """Iterate resident keys (in-range ascending, then spillover)."""
        for key in np.flatnonzero(self.bitmap).tolist():
            yield key
        yield from self._overflow

    def clear(self) -> None:
        self.bitmap[:] = False
        self._overflow.clear()

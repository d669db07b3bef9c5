"""Sharded buffer: partition a dense key space across N backend shards.

Production embedding caches do not serve millions of users from one
buffer: the id space is *partitioned* across shards, each shard owns an
independent slice of the capacity, and a request batch is scattered to
its shards, served per shard, and gathered back.  This module builds
that layer on top of the single-shard backends in
:mod:`repro.cache.buffer`.

**Routing contract.**  A :class:`ShardedBuffer` is constructed over a
dense id universe ``[0, key_space)`` (the same universe the
:class:`~repro.cache.residency.ResidencyIndex` bitmaps cover) and a
*router* — one of :data:`SHARD_POLICIES`:

* ``"contiguous"`` (:class:`ContiguousRangeRouter`) — shard ``s`` owns
  the contiguous id range ``[ceil(s*K/N), ceil((s+1)*K/N))``.  Dense
  ids are assigned in sorted packed-key order
  (:func:`repro.traces.access.remap_to_dense` keeps same-table rows
  contiguous), so contiguous ranges map to contiguous (table, row)
  regions — the natural partition for range-partitioned embedding
  tables, and the one hot-shard workloads stress.
* ``"modulo"`` (:class:`ModuloRouter`) — shard ``s`` owns every id
  congruent to ``s`` mod N; a hash-free striping that spreads
  contiguous hot ranges evenly across shards.

Routing is **total and deterministic**: every int64 key — including ids
outside ``[0, key_space)``, which the manager assigns to keys unseen at
encoder-fit time — maps to exactly one shard, and the scalar and batch
forms agree key for key (out-of-range ids route by ``key mod N`` under
both policies, so spillover correctness never depends on the id fitting
the universe).  Because a key can only ever live in its router shard,
the per-shard residents are pairwise disjoint and their union *is* the
global residency — ``contains_batch`` answers by scattering the query
to shards and gathering the per-shard gathers back (property-tested
after every op in ``tests/test_sharding.py``).

**Id compression (the translation boundary).**  Each shard's dense
backend is built over the *compressed* per-shard universe
``[0, shard_key_space)``, not the full ``[0, key_space)``: both routers
admit an exact, vectorized bijection from the ids a shard owns onto a
dense local range (contiguous: ``id - range_lo``; modulo: ``id // N``),
so per-id backend state (slot vectors, expiry/seqno vectors, residency
bitmaps) costs the same total memory as a single-shard buffer instead
of N× it.  Translation happens at exactly one layer — the
:class:`CompressedShardView` wrapped around every backend shard:

* callers (the :class:`ShardedBuffer` bulk ops, the manager's
  provider sink, ``prefetch.harness`` and the tests) keep
  passing **global** keys and receive **global** keys back — victims
  of ``evict_one``/``evict_batch``/``serve_segment`` and ``keys()``
  are decompressed on the way out;
* spillover ids (outside ``[0, key_space)``) pass through *unchanged*:
  they route by ``key mod N`` and always fall outside the compressed
  universe too (negative stays negative; ``id >= key_space >=
  shard_key_space``), so they land in each backend's existing spillover
  side path and decompression is unambiguous — a stored id in
  ``[0, shard_key_space)`` inverts the bijection, anything else *is*
  the global key.

Compression is a **storage transform, not a policy change**: backend
decisions depend on (priority, seqno, slot/hand) order, never on id
values, and both bijections are monotonic over a shard's owned ids, so
every victim sequence and hit/miss stream is byte-identical to the
uncompressed layout (pinned by the sharded goldens in
``tests/test_golden_backends.py`` and the 200-seed fuzz).  View methods
require their keys to actually route to the view's shard (spillover
included) — :meth:`ShardedBuffer.iter_shard_segments` scatters first,
so every production call site satisfies this by construction.

**Capacity and eviction.**  By default the total capacity splits as
evenly as the remainder allows: shard ``s`` gets ``capacity // N``
slots, plus one for ``s < capacity % N``.  ``shard_weights=`` (also a
:class:`~repro.core.config.RecMGConfig` knob) instead splits capacity
proportionally to per-shard weights — largest-remainder apportionment,
ties to the lowest shard id, every shard keeps at least one slot — so
a workload whose traffic (or observed occupancy) is skewed across
shards can be served with skew-matched capacity instead of a uniform
split that starves the hot shard (see the weighted hot-shard entry in
``benchmarks/test_perf_hotpaths.py``).  Eviction decisions are
**local to a shard**: a full shard evicts its own
``(effective_priority, seqno)`` (or clock-order) victim even while
another shard has free slots, and :meth:`ShardedBuffer.evict_batch` —
which levels the fullest shards down by water-filling — returns victims
grouped per shard in shard-id order, *not* in the single-buffer global
``(effective_priority, seqno)`` order.  This is the documented price of
sharding; the single-shard backends keep the exact global contract.

**Bulk protocol.**  Every op of the single-shard bulk protocol
(``contains_batch`` / ``put_batch`` / ``set_priority_batch`` /
``demote_batch`` / ``evict_batch`` / ``serve_segment``) is implemented
as one vectorized scatter of the keys to shards
(:meth:`ShardRouter.route_batch`), per-shard *batched* backend calls
through the compressing views, and one gather back — no per-key python
loop.  Within a shard the original
key order is preserved, and ops on distinct shards commute (disjoint
key sets), so the batch forms keep the single-shard semantics per
shard.

**Rebalancing (live re-splitting).**  The split chosen at construction
is not forever: :meth:`ShardedBuffer.rebalance` re-splits the capacity
(largest-remainder over new weights) and — contiguous router only —
re-draws the owned ranges by the same apportionment over ``key_space``,
migrating resident keys between shards without a global rebuild.  The
migration contract, executed by :class:`ShardRebalancer`:

* residents are **exported** from each shard's compressed universe
  under the old partition (backend ``export_state``: exact backends
  carry ``(key, effective_priority, seqno)``, the clock backend
  ``(key, priority)`` in hand order), decompressed to global ids,
  **re-routed** under the new partition and **re-imported** into the
  rebuilt destination backends — priorities carry over exactly, so no
  key gains or loses standing by moving;
* relative eviction order *within* a source shard is preserved
  (seqnos re-rank monotonically; hand order re-packs in sweep order);
  *across* source shards merged into one destination the order is the
  deterministic (source shard asc, per-source order) concatenation —
  the **eviction-order caveat across migration**: there is no global
  recency clock to interleave two shards' histories by;
* a destination whose new capacity undercuts its assembled population
  (the donor-shrink path) evicts the overflow through a real
  ``evict_batch`` on the merged population, so the victims are exactly
  the backend's own choices, and reports them to the caller;
* a rebalance whose target split equals the current state is a
  **no-op** (bit-identical to not calling it), and spillover ids never
  migrate (``key mod N`` routing is partition-invariant);
* rebalancing is **not safe against in-flight serving** — the
  manager's online driver runs it at block boundaries only, on the
  serving thread.

All four migration invariants — partition disjointness, residency-union
preservation, occupancy ≤ new capacity, compressed-universe round-trip
— are fuzz-pinned across 200 random op/rebalance interleavings in
``tests/test_rebalancing.py``.

A 1-shard :class:`ShardedBuffer` is decision-for-decision identical to
the bare backend (200-seed differential in ``tests/test_sharding.py``;
both bijections degenerate to the identity at N=1);
``make_buffer(..., num_shards=1)`` therefore returns the bare backend
and only ``num_shards > 1`` pays the routing layer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .buffer import make_buffer


class ContiguousRangeRouter:
    """Contiguous-range partition of ``[0, key_space)`` into N shards.

    ``route(key) = key * N // key_space`` for in-universe keys — shard
    ``s`` owns ``[ceil(s*K/N), ceil((s+1)*K/N))`` (:meth:`range_of`).
    Out-of-universe keys (spillover ids above the vocabulary, or
    negative probes) route by ``key mod N``.

    Compression (see module docstring) shifts a shard's owned range
    down to zero: ``compress(id) = id - range_lo`` — an order-preserving
    bijection onto ``[0, hi - lo)``.

    The partition is *mutable*: :meth:`set_bounds` re-draws the owned
    ranges (the repartition half of ``ShardedBuffer.rebalance``; see
    "Rebalancing" in the module docstring).  Construction always uses
    the default ceil split — weights never change the partition at
    build time — and in-universe routing stays a pure arithmetic
    expression while the bounds equal that default, falling back to a
    vectorized ``searchsorted`` over the boundary array only after a
    re-draw.  Out-of-universe keys route by ``key mod N`` under either
    partition, so spillover routing is rebalance-invariant.
    """

    name = "contiguous"

    #: ``set_bounds`` can re-draw this router's partition (the modulo
    #: partition is fixed by arithmetic, so its rebalance is
    #: capacity-only).
    supports_repartition = True

    def __init__(self, num_shards: int, key_space: int) -> None:
        self.num_shards = int(num_shards)
        self.key_space = int(key_space)
        self._bounds = self.default_bounds(self.num_shards, self.key_space)
        self._uniform = True
        self._range_lo = self._bounds[:-1].copy()

    @staticmethod
    def default_bounds(num_shards: int, key_space: int) -> np.ndarray:
        """Boundary array ``[b_0..b_N]`` of the construction-time ceil
        split: shard ``s`` owns ``[ceil(s*K/N), ceil((s+1)*K/N))``."""
        return np.array([-((-s * key_space) // num_shards)
                         for s in range(num_shards + 1)], dtype=np.int64)

    def set_bounds(self, bounds: Sequence[int]) -> None:
        """Re-draw the owned ranges: shard ``s`` now owns
        ``[bounds[s], bounds[s+1])``.

        Only ``ShardedBuffer.rebalance`` may call this, *after*
        exporting every shard's residents under the old partition —
        the compression bijections change with the ranges, so any
        state still stored under the old ranges becomes unreadable.
        """
        arr = np.asarray(bounds, dtype=np.int64)
        if arr.shape != (self.num_shards + 1,):
            raise ValueError(
                f"bounds must have {self.num_shards + 1} entries "
                f"(got {arr.size})")
        if int(arr[0]) != 0 or int(arr[-1]) != self.key_space:
            raise ValueError("bounds must span [0, key_space]")
        if (np.diff(arr) < 0).any():
            raise ValueError("bounds must be nondecreasing")
        self._bounds = arr.copy()
        self._uniform = bool(np.array_equal(
            self._bounds, self.default_bounds(self.num_shards,
                                              self.key_space)))
        self._range_lo = self._bounds[:-1].copy()

    def route(self, key: int) -> int:
        key = int(key)
        if 0 <= key < self.key_space:
            if self._uniform:
                return key * self.num_shards // self.key_space
            return int(np.searchsorted(self._bounds, key,
                                       side="right")) - 1
        return key % self.num_shards

    def route_batch(self, keys: Sequence[int]) -> np.ndarray:
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0 or (arr.min() >= 0 and arr.max() < self.key_space):
            return self._route_owned(arr)  # hot path: no spillover
        shards = self._route_owned(np.clip(arr, 0, self.key_space - 1))
        out = (arr < 0) | (arr >= self.key_space)
        shards[out] = np.mod(arr[out], self.num_shards)
        return shards

    def _route_owned(self, arr: np.ndarray) -> np.ndarray:
        """Shard of each in-universe id."""
        if self._uniform:
            return arr * self.num_shards // self.key_space
        return (np.searchsorted(self._bounds, arr,
                                side="right") - 1).astype(np.int64)

    def range_of(self, shard: int) -> Tuple[int, int]:
        """In-universe id range ``[lo, hi)`` owned by ``shard``."""
        return int(self._bounds[shard]), int(self._bounds[shard + 1])

    # -- compression (exact bijection onto the local universe) ---------
    def shard_key_space(self, shard: int) -> int:
        """Size of ``shard``'s compressed universe (>= 1 even for an
        empty owned range, so the dense backends always have a
        bitmap)."""
        lo, hi = self.range_of(shard)
        return max(1, hi - lo)

    def compress(self, shard: int, keys: Sequence[int]) -> np.ndarray:
        """Owned global ids -> local ids in ``[0, hi - lo)``; spillover
        ids (outside ``[0, key_space)``) pass through unchanged.  Keys
        must route to ``shard``."""
        arr = np.asarray(keys, dtype=np.int64)
        lo = self.range_of(shard)[0]
        if lo == 0 or arr.size == 0:  # shard 0 (and 1-shard): identity
            return arr
        if arr.min() >= 0 and arr.max() < self.key_space:
            return arr - lo  # hot path: no spillover in the segment
        in_universe = (arr >= 0) & (arr < self.key_space)
        return np.where(in_universe, arr - lo, arr)

    def compress_routed(self, keys: Sequence[int],
                        shard_ids: np.ndarray) -> np.ndarray:
        """Whole-block :meth:`compress`: ``keys[i]`` is compressed for
        its own shard ``shard_ids[i]`` (= ``route_batch(keys)``) in one
        vectorized pass, so the scatter step pays the fixed numpy cost
        once per block instead of once per shard."""
        arr = np.asarray(keys, dtype=np.int64)
        if self.num_shards == 1 or arr.size == 0:
            return arr
        lo = self._range_lo[shard_ids]
        if arr.min() >= 0 and arr.max() < self.key_space:
            return arr - lo  # hot path: no spillover in the block
        in_universe = (arr >= 0) & (arr < self.key_space)
        return np.where(in_universe, arr - lo, arr)

    def decompress(self, shard: int, keys: Sequence[int]) -> np.ndarray:
        """Inverse of :meth:`compress`: local ids in ``[0, hi - lo)``
        map back to the owned range, anything else passes through."""
        arr = np.asarray(keys, dtype=np.int64)
        lo, hi = self.range_of(shard)
        if lo == 0 or arr.size == 0:
            return arr
        if arr.min() >= 0 and arr.max() < hi - lo:
            return arr + lo  # hot path: all ids local
        local = (arr >= 0) & (arr < hi - lo)
        return np.where(local, arr + lo, arr)

    def compress_key(self, shard: int, key: int) -> int:
        key = int(key)
        if 0 <= key < self.key_space:
            return key - self.range_of(shard)[0]
        return key

    def decompress_key(self, shard: int, key: int) -> int:
        key = int(key)
        lo, hi = self.range_of(shard)
        if 0 <= key < hi - lo:
            return key + lo
        return key


class ModuloRouter:
    """Modulo striping: shard ``s`` owns every id congruent to s mod N
    (in- and out-of-universe keys alike).

    Compression divides out the stride: ``compress(id) = id // N`` — an
    order-preserving bijection from the owned in-universe ids onto
    ``[0, ceil((key_space - s) / N))`` (``decompress(local) = local * N
    + s``)."""

    name = "modulo"

    #: ``key % N`` is fixed by arithmetic — a rebalance under this
    #: router re-splits capacity only and never migrates keys.
    supports_repartition = False

    def __init__(self, num_shards: int, key_space: int) -> None:
        self.num_shards = int(num_shards)
        self.key_space = int(key_space)

    def route(self, key: int) -> int:
        return int(key) % self.num_shards

    def route_batch(self, keys: Sequence[int]) -> np.ndarray:
        return np.mod(np.asarray(keys, dtype=np.int64), self.num_shards)

    # -- compression (exact bijection onto the local universe) ---------
    def _owned_count(self, shard: int) -> int:
        """How many in-universe ids are congruent to ``shard``."""
        if shard >= self.key_space:
            return 0
        return -((-(self.key_space - shard)) // self.num_shards)

    def shard_key_space(self, shard: int) -> int:
        """Size of ``shard``'s compressed universe (>= 1, see
        :meth:`ContiguousRangeRouter.shard_key_space`)."""
        return max(1, self._owned_count(shard))

    def compress(self, shard: int, keys: Sequence[int]) -> np.ndarray:
        """Owned global ids -> ``id // N``; spillover ids pass through
        unchanged.  Keys must route to ``shard``."""
        arr = np.asarray(keys, dtype=np.int64)
        if self.num_shards == 1 or arr.size == 0:
            return arr
        if arr.min() >= 0 and arr.max() < self.key_space:
            return arr // self.num_shards  # hot path: no spillover
        in_universe = (arr >= 0) & (arr < self.key_space)
        return np.where(in_universe, arr // self.num_shards, arr)

    def compress_routed(self, keys: Sequence[int],
                        shard_ids: np.ndarray) -> np.ndarray:
        """Whole-block :meth:`compress` (see
        :meth:`ContiguousRangeRouter.compress_routed`); ``id // N``
        needs no per-shard term, so ``shard_ids`` is unused here."""
        arr = np.asarray(keys, dtype=np.int64)
        if self.num_shards == 1 or arr.size == 0:
            return arr
        if arr.min() >= 0 and arr.max() < self.key_space:
            return arr // self.num_shards  # hot path: no spillover
        in_universe = (arr >= 0) & (arr < self.key_space)
        return np.where(in_universe, arr // self.num_shards, arr)

    def decompress(self, shard: int, keys: Sequence[int]) -> np.ndarray:
        """Inverse of :meth:`compress`: local ids map back to
        ``local * N + shard``, anything else passes through."""
        arr = np.asarray(keys, dtype=np.int64)
        if self.num_shards == 1 or arr.size == 0:
            return arr
        if arr.min() >= 0 and arr.max() < self._owned_count(shard):
            return arr * self.num_shards + shard  # hot path: all local
        local = (arr >= 0) & (arr < self._owned_count(shard))
        return np.where(local, arr * self.num_shards + shard, arr)

    def compress_key(self, shard: int, key: int) -> int:
        key = int(key)
        if 0 <= key < self.key_space:
            return key // self.num_shards
        return key

    def decompress_key(self, shard: int, key: int) -> int:
        key = int(key)
        if 0 <= key < self._owned_count(shard):
            return key * self.num_shards + shard
        return key


#: Registry behind the ``shard_policy=`` knob (``make_buffer``,
#: ``RecMGConfig``, ``RecMGManager``, ``dlrm.inference``,
#: ``prefetch.harness``).
SHARD_POLICIES = {
    "contiguous": ContiguousRangeRouter,
    "modulo": ModuloRouter,
}


def make_router(shard_policy: str, num_shards: int, key_space: int):
    """Instantiate a shard router by policy name."""
    try:
        cls = SHARD_POLICIES[shard_policy]
    except KeyError:
        raise ValueError(
            f"unknown shard_policy {shard_policy!r}; choose from "
            f"{sorted(SHARD_POLICIES)}") from None
    return cls(num_shards, key_space)


def backend_for_key(buffer, key: int):
    """The single-shard backend responsible for ``key``: the routed
    shard (a :class:`CompressedShardView`, so global keys keep working)
    of a :class:`ShardedBuffer`, or ``buffer`` itself otherwise.

    Scalar serving loops (the manager's audit path, the harness and
    classifier per-access loops) use this so eviction-for-space happens
    in the shard that actually needs the slot.
    """
    route = getattr(buffer, "shard_backend_for", None)
    return buffer if route is None else route(key)


def split_capacity(capacity: int, num_shards: int,
                   shard_weights: Optional[Sequence[float]] = None
                   ) -> List[int]:
    """Per-shard capacities for a total of ``capacity`` slots.

    Uniform (``shard_weights=None``): ``capacity // N`` each, the
    remainder to the lowest shard ids — the historical split, kept
    bit-exact so weighted support cannot drift the default goldens.
    Weighted: largest-remainder apportionment of
    ``capacity * w_s / sum(w)`` (floors first, leftover slots to the
    largest fractional parts, ties to the lowest shard id), then a
    deterministic rebalance so every shard keeps at least one slot
    (possible because ``ShardedBuffer`` requires ``capacity >= N``).
    """
    capacity = int(capacity)
    num_shards = int(num_shards)
    if shard_weights is None:
        base, remainder = divmod(capacity, num_shards)
        return [base + (1 if s < remainder else 0)
                for s in range(num_shards)]
    weights = np.asarray(shard_weights, dtype=np.float64)
    if weights.shape != (num_shards,):
        raise ValueError(
            f"shard_weights must provide one weight per shard "
            f"(expected {num_shards}, got {weights.size})")
    if not (np.isfinite(weights).all() and (weights > 0).all()):
        raise ValueError("shard_weights must be positive and finite")
    raw = capacity * weights / weights.sum()
    split = np.floor(raw).astype(np.int64)
    leftover = capacity - int(split.sum())
    if leftover:
        # Largest fractional part first, ties to the lowest shard id.
        order = np.lexsort((np.arange(num_shards), split - raw))
        split[order[:leftover]] += 1
    while (split == 0).any():
        split[int(np.argmax(split))] -= 1
        split[int(np.argmin(split))] += 1
    return split.tolist()


class CompressedShardView:
    """One backend shard behind the global-key protocol.

    The single point where per-shard id compression happens (module
    docstring): ``backend`` runs over the compressed universe
    ``[0, router.shard_key_space(shard_index))`` while every method
    here speaks global ids — arguments are compressed on the way in,
    victims/keys/residency decompressed on the way out, and spillover
    ids pass through untouched in both directions.

    **Precondition**: keys handed to a view must route to its shard
    (``router.route(key) == shard_index``; spillover ids included).
    The scatter step of every bulk op
    (:meth:`ShardedBuffer.iter_shard_segments`) guarantees this; the
    compression bijections are only defined over a shard's own ids, so
    a foreign key would silently alias a local one.

    ``serve_segment`` is total on every backend, so the view forwards
    it like any other op: :meth:`ShardedBuffer.serve_segment` calls it
    once per routed sub-segment, whatever the backend.
    """

    def __init__(self, backend, router, shard_index: int) -> None:
        self.backend = backend
        self.router = router
        self.shard_index = int(shard_index)
        self.approximate = bool(getattr(backend, "approximate", False))
        self.residency = getattr(backend, "residency", None)
        self._c_memo: List[Tuple[object, np.ndarray]] = []

    @property
    def capacity(self) -> int:
        """The backend's capacity, read through — never cached.

        A snapshot taken at construction went stale the moment a
        rebalance shrank the shard, which let ``put_batch``'s
        raise-before-mutate pre-validation over-admit against the old
        (larger) capacity in the donor-shrink path (regression-tested
        in ``tests/test_rebalancing.py``).
        """
        return self.backend.capacity

    def rebind(self, backend) -> None:
        """Swap in a rebuilt backend (``ShardedBuffer.rebalance`` only).

        The view object itself is stable — engines may hold references
        across a rebalance — so everything derived from the backend is
        refreshed here: the residency handle and the compression memo
        (the bijection changes with the partition, so memoized
        compressions are invalid).
        """
        self.backend = backend
        self.residency = getattr(backend, "residency", None)
        del self._c_memo[:]

    # -- translation helpers -------------------------------------------
    def _c(self, keys) -> np.ndarray:
        # Callers hand a view the *same* segment array iter_shard_segments
        # primed (serve_segment, or contains_batch -> put_batch), so a
        # two-slot identity memo removes the repeat compressions.
        # Keyed on object identity with a strong reference (no id()
        # reuse); key arrays are never mutated in place after a bulk
        # call, which the bulk protocol already requires.
        for ref, compressed in self._c_memo:
            if ref is keys:
                return compressed
        arr = self.router.compress(self.shard_index, keys)
        if isinstance(keys, np.ndarray):
            self._c_memo.insert(0, (keys, arr))
            del self._c_memo[2:]
        return arr

    def _d(self, keys) -> np.ndarray:
        return self.router.decompress(self.shard_index, keys)

    def _d_list(self, keys: List[int]) -> List[int]:
        if not keys:
            return keys
        return self._d(np.asarray(keys, dtype=np.int64)).tolist()

    @property
    def key_space(self) -> int:
        """The backend's (compressed) dense universe size."""
        return self.backend.key_space

    # -- read protocol -------------------------------------------------
    def __contains__(self, key: int) -> bool:
        return self.router.compress_key(self.shard_index,
                                        int(key)) in self.backend

    def __len__(self) -> int:
        return len(self.backend)

    def keys(self) -> Iterator[int]:
        decompress_key = self.router.decompress_key
        for local in self.backend.keys():
            yield decompress_key(self.shard_index, int(local))

    def priority_of(self, key: int) -> int:
        return self.backend.priority_of(
            self.router.compress_key(self.shard_index, int(key)))

    @property
    def is_full(self) -> bool:
        return self.backend.is_full

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        return self.backend.contains_batch(self._c(keys))

    def per_id_nbytes(self) -> int:
        return self.backend.per_id_nbytes()

    # -- writes --------------------------------------------------------
    def insert(self, key: int, priority: int) -> None:
        self.backend.insert(
            self.router.compress_key(self.shard_index, int(key)), priority)

    def set_priority(self, key: int, priority: int) -> None:
        self.backend.set_priority(
            self.router.compress_key(self.shard_index, int(key)), priority)

    def demote(self, key: int) -> None:
        self.backend.demote(
            self.router.compress_key(self.shard_index, int(key)))

    def put_batch(self, keys: Sequence[int], priority: int) -> None:
        self.backend.put_batch(self._c(keys), priority)

    def set_priority_batch(self, keys: Sequence[int],
                           priority: int) -> None:
        self.backend.set_priority_batch(self._c(keys), priority)

    def demote_batch(self, keys: Sequence[int]) -> None:
        self.backend.demote_batch(self._c(keys))

    # -- eviction / serving (victims come back global) -----------------
    def evict_one(self) -> int:
        return self.router.decompress_key(self.shard_index,
                                          int(self.backend.evict_one()))

    def evict_batch(self, n: int, avoid=None) -> List[int]:
        if avoid is None:
            victims = self.backend.evict_batch(n)
        else:
            victims = self.backend.evict_batch(n, avoid=self._c(avoid))
        return self._d_list(victims)

    def serve_segment(self, segment: np.ndarray, priority: int):
        """Positions need no translation, so only the victims cross
        the boundary back."""
        served, miss_positions, victims = self.backend.serve_segment(
            self._c(segment), priority)
        return served, miss_positions, self._d(victims)


def _allocate_evictions(lengths: np.ndarray, count: int) -> np.ndarray:
    """Per-shard eviction counts for a global ``evict_batch(count)``.

    Deterministic water-filling: the fullest shards are levelled down
    until ``count`` victims are allocated, so repeated global eviction
    drives shard occupancies toward equal — the natural policy for a
    shared capacity pool.  Ties in fullness break by ascending shard
    id; when the final level cannot be met exactly, the least-full
    shards among the levelled group give up one victim fewer.  Raises
    ``RuntimeError`` when fewer than ``count`` entries are resident,
    matching the single-shard backends.
    """
    total = int(lengths.sum())
    if count > total:
        raise RuntimeError("cannot evict more entries than resident")
    take = np.zeros(lengths.size, dtype=np.int64)
    if count <= 0:
        return take
    order = np.argsort(-lengths, kind="stable")  # fullest first, id ties
    sorted_len = lengths[order]
    prefix = np.cumsum(sorted_len)
    for k in range(1, lengths.size + 1):
        floor_level = int(sorted_len[k]) if k < lengths.size else 0
        if int(prefix[k - 1]) - k * floor_level >= count:
            level = (int(prefix[k - 1]) - count) // k
            base = sorted_len[:k] - level
            excess = int(base.sum()) - count
            if excess:
                base[k - excess:k] -= 1
            take[order[:k]] = base
            return take
    raise RuntimeError("eviction allocation failed")  # pragma: no cover


class ShardRebalancer:
    """Plans and executes one :meth:`ShardedBuffer.rebalance`.

    The migration runs in four steps (see "Rebalancing" in the module
    docstring for the contract):

    1. **Plan** — the target capacity split (largest-remainder over the
       new weights) and, when the router supports repartitioning, the
       target range boundaries (the same largest-remainder apportionment
       over ``key_space``; ``weights=None`` restores the construction
       defaults).  If neither differs from the current state the
       rebalance is a no-op and returns without touching any backend.
    2. **Export** — every shard's residents leave through the backend
       migration protocol (``export_state``) and are decompressed to
       global ids under the *old* partition.
    3. **Re-route** — the partition is re-drawn, every exported key is
       routed under the new bounds, and each destination's population
       is assembled: exact backends' entries ordered by (source shard
       asc, seqno asc), the clock backend's in (source shard asc, hand
       order) — relative eviction order *within* a source shard is
       preserved exactly; *across* source shards it is this
       deterministic merge (the eviction-order caveat).
    4. **Import / shrink** — each shard's backend is rebuilt over its
       new compressed universe and capacity.  A destination whose
       assembled population overflows its new capacity (the donor-shrink
       path) first imports into a population-sized scratch backend and
       runs a real ``evict_batch`` — aging included, so the overflow
       victims are exactly the ones the backend itself would choose —
       then imports the survivors.  Victims are reported in the stats
       so manager-level eviction accounting stays consistent.
    """

    def __init__(self, buffer: "ShardedBuffer") -> None:
        self.buffer = buffer

    def plan(self, shard_weights: Optional[Sequence[float]]
             ) -> Tuple[List[int], Optional[np.ndarray]]:
        """Target ``(shard_capacities, range_bounds)`` for the given
        weights; ``range_bounds`` is None when the partition cannot
        change (modulo router, or a universe smaller than the shard
        count)."""
        buf = self.buffer
        new_caps = split_capacity(buf.capacity, buf.num_shards,
                                  shard_weights)
        new_bounds: Optional[np.ndarray] = None
        if (buf.router.supports_repartition
                and buf.key_space >= buf.num_shards):
            if shard_weights is None:
                new_bounds = ContiguousRangeRouter.default_bounds(
                    buf.num_shards, buf.key_space)
            else:
                sizes = split_capacity(buf.key_space, buf.num_shards,
                                       shard_weights)
                new_bounds = np.concatenate(
                    ([0], np.cumsum(sizes))).astype(np.int64)
        return new_caps, new_bounds

    def apply(self, shard_weights: Optional[Sequence[float]]) -> Dict:
        buf = self.buffer
        router = buf.router
        new_caps, new_bounds = self.plan(shard_weights)
        bounds_unchanged = (new_bounds is None
                            or np.array_equal(new_bounds, router._bounds))
        if new_caps == buf.shard_capacities and bounds_unchanged:
            # No-op: the target state is the current state.  Returning
            # here (before any export) is what makes a same-weights
            # rebalance bit-identical to never calling it.
            return {"changed": False, "migrated_keys": 0, "evicted": [],
                    "shard_capacities": list(buf.shard_capacities)}
        exact = not buf.approximate
        # Step 2: export under the old partition (ids leave global).
        exports = []
        for view in buf.shards:
            if exact:
                local_keys, prio, seq = view.backend.export_state()
                exports.append((view._d(local_keys), prio, seq))
            else:
                local_keys, prio = view.backend.export_state()
                exports.append((view._d(local_keys), prio, None))
        # Step 3: re-draw the partition, re-route, regroup.
        if new_bounds is not None and not bounds_unchanged:
            router.set_bounds(new_bounds)
        empty = np.empty(0, dtype=np.int64)
        grouped_keys: List[List[np.ndarray]] = [[] for _ in buf.shards]
        grouped_prio: List[List[np.ndarray]] = [[] for _ in buf.shards]
        migrated = 0
        for source, (keys, prio, seq) in enumerate(exports):
            if keys.size == 0:
                continue
            dest = router.route_batch(keys)
            migrated += int(np.count_nonzero(dest != source))
            for d in np.unique(dest).tolist():
                mask = dest == d
                sub_keys, sub_prio = keys[mask], prio[mask]
                if exact:
                    order = np.argsort(seq[mask], kind="stable")
                    sub_keys, sub_prio = sub_keys[order], sub_prio[order]
                grouped_keys[d].append(sub_keys)
                grouped_prio[d].append(sub_prio)
        # Step 4: rebuild every shard over its new universe/capacity.
        evicted: List[int] = []
        for d, view in enumerate(buf.shards):
            keys = (np.concatenate(grouped_keys[d])
                    if grouped_keys[d] else empty)
            prio = (np.concatenate(grouped_prio[d])
                    if grouped_prio[d] else empty)
            local = router.compress(d, keys)
            cap = new_caps[d]
            if keys.size > cap:
                # Donor shrink: a real evict_batch on the assembled
                # population (scratch backend sized to hold it all)
                # picks the overflow victims the backend itself would.
                scratch = make_buffer(
                    buf.impl, int(keys.size),
                    key_space=router.shard_key_space(d))
                self._import(scratch, local, prio, exact)
                victims = np.asarray(
                    scratch.evict_batch(int(keys.size) - cap),
                    dtype=np.int64)
                evicted.extend(
                    router.decompress(d, victims).tolist())
                if exact:
                    local, prio, seq = scratch.export_state()
                    order = np.argsort(seq, kind="stable")
                    local, prio = local[order], prio[order]
                else:
                    local, prio = scratch.export_state()
            backend = make_buffer(buf.impl, cap,
                                  key_space=router.shard_key_space(d))
            assert backend.key_space == router.shard_key_space(d)
            self._import(backend, local, prio, exact)
            view.rebind(backend)
        buf.shard_capacities = list(new_caps)
        buf.shard_weights = (None if shard_weights is None
                             else tuple(float(w) for w in shard_weights))
        return {"changed": True, "migrated_keys": migrated,
                "evicted": evicted, "shard_capacities": list(new_caps)}

    @staticmethod
    def _import(backend, local_keys: np.ndarray, prio: np.ndarray,
                exact: bool) -> None:
        """Load an assembled population, re-ranking exact seqnos to
        ``0..n-1`` (relative order — all that eviction behavior depends
        on — is already encoded in the array order)."""
        if exact:
            backend.import_state(
                local_keys, prio,
                np.arange(local_keys.size, dtype=np.int64))
        else:
            backend.import_state(local_keys, prio)


class ShardedBuffer:
    """N independent backend shards behind the single-buffer protocol.

    See the module docstring for the routing/compression/capacity/
    eviction contract.  ``impl`` names any registered backend
    (:data:`repro.cache.buffer.BUFFER_IMPLS`); every shard is built
    over its *compressed* universe
    (``router.shard_key_space(s)``) and wrapped in a
    :class:`CompressedShardView`, so the bulk protocol runs
    array-native end to end while every caller — including the
    manager's provider sink, which consumes :meth:`iter_shard_segments`
    — keeps speaking global ids.  ``approximate`` is inherited from
    the shard backend (the rebalancer migrates exact and clock state
    differently).
    ``shard_weights`` (optional) splits the capacity proportionally
    instead of uniformly (:func:`split_capacity`).
    """

    def __init__(self, impl: str, capacity: int, key_space: int,
                 num_shards: int, shard_policy: str = "contiguous",
                 shard_weights: Optional[Sequence[float]] = None) -> None:
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if key_space is None:
            raise ValueError(
                "ShardedBuffer requires key_space= (the routers partition "
                "the dense id universe)")
        if capacity < num_shards:
            raise ValueError(
                f"capacity {capacity} cannot give every one of "
                f"{num_shards} shards at least one slot")
        self.impl = impl
        self.capacity = int(capacity)
        self.key_space = int(key_space)
        self.num_shards = num_shards
        self.shard_policy = shard_policy
        self.shard_weights = (None if shard_weights is None
                              else tuple(float(w) for w in shard_weights))
        self.router = make_router(shard_policy, num_shards, self.key_space)
        self.shard_capacities = split_capacity(self.capacity, num_shards,
                                               shard_weights)
        self.shards: List[CompressedShardView] = []
        for index, shard_capacity in enumerate(self.shard_capacities):
            backend = make_buffer(impl, shard_capacity,
                                  key_space=self.router.shard_key_space(
                                      index))
            # The dense backends report their universe so the
            # translation boundary is assertable (an uncompressed shard
            # here would silently cost N× the per-id memory).
            assert backend.key_space == self.router.shard_key_space(index)
            self.shards.append(CompressedShardView(backend, self.router,
                                                   index))
        #: Victim order approximates/honors the per-shard contract of
        #: the underlying backend; never the cross-shard global order.
        self.approximate = bool(getattr(self.shards[0], "approximate",
                                        False))

    # -- routing -------------------------------------------------------
    def shard_id_of(self, key: int) -> int:
        """Shard index owning ``key`` (total: any int64 routes)."""
        return self.router.route(key)

    def shard_backend_for(self, key: int):
        """The shard view owning ``key`` (global-key protocol; see
        :func:`backend_for_key`)."""
        return self.shards[self.router.route(key)]

    def route_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Shard index per key — the scatter step of every bulk op."""
        return self.router.route_batch(keys)

    def iter_shard_segments(self, keys: np.ndarray):
        """Scatter ``keys`` to shards: yields ``(shard_index, view,
        positions, sub_keys)`` per non-empty shard, where ``positions``
        indexes ``keys`` (ascending, so per-shard order follows the
        access stream) and ``sub_keys = keys[positions]`` — global
        ids; ``view`` (a :class:`CompressedShardView`) translates.

        The block is compressed once here (``compress_routed``, one
        vectorized pass) and each shard's slice primed into its view's
        compression memo, so the per-shard calls the caller makes next
        (``serve_segment``, or ``contains_batch`` / ``put_batch``, on
        the yielded ``sub_keys``) skip re-compressing it.

        **Per-shard bit-split contract** (the provider sink): a block
        of per-access caching bits may be split along this same route
        — ``bits[positions]`` rides with ``sub_keys`` — and applied
        per shard through the yielded view
        (:func:`repro.serving.priorities.apply_caching_bits`).
        Duplicates of a key always land in the same shard and
        ``positions`` is ascending, so per-shard dedup/apply is
        call-for-call identical to the global bulk calls.  Compression
        memo entries are immutable ``(ref, compressed)`` tuples matched
        by object identity, so a lookup can only miss (and recompute),
        never alias a foreign array."""
        arr = np.asarray(keys, dtype=np.int64)
        shard_ids = self.router.route_batch(arr)
        compressed = self.router.compress_routed(arr, shard_ids)
        for shard_index in range(self.num_shards):
            positions = np.flatnonzero(shard_ids == shard_index)
            if positions.size:
                view = self.shards[shard_index]
                sub = arr[positions]
                view._c_memo.insert(0, (sub, compressed[positions]))
                del view._c_memo[2:]
                yield (shard_index, view, positions, sub)

    # -- read protocol -------------------------------------------------
    def __contains__(self, key: int) -> bool:
        return int(key) in self.shard_backend_for(int(key))

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    def keys(self) -> Iterator[int]:
        for shard in self.shards:
            yield from shard.keys()

    def priority_of(self, key: int) -> int:
        return self.shard_backend_for(int(key)).priority_of(int(key))

    @property
    def is_full(self) -> bool:
        """True when *every* shard is full.  A single full shard
        already refuses inserts routed to it — scalar call sites must
        gate on the routed shard (:func:`backend_for_key`), not on
        this global view."""
        return all(shard.is_full for shard in self.shards)

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Residency of each key: scatter to shards, one bitmap gather
        per shard, gather back by position."""
        arr = np.asarray(keys, dtype=np.int64)
        out = np.zeros(arr.size, dtype=bool)
        for _, shard, positions, sub in self.iter_shard_segments(arr):
            out[positions] = shard.contains_batch(sub)
        return out

    def per_id_nbytes(self) -> int:
        """Total per-id dense-state bytes across shards — ≈ the
        single-shard footprint, *not* N× it (the point of compression;
        regression-tested in ``tests/test_sharding.py``)."""
        return sum(shard.per_id_nbytes() for shard in self.shards)

    # -- scalar writes (route + forward) -------------------------------
    def insert(self, key: int, priority: int) -> None:
        """Insert (or refresh) ``key`` in its shard; the caller must
        ensure space *in that shard* (``RuntimeError`` otherwise, like
        the single-shard backends)."""
        self.shard_backend_for(int(key)).insert(int(key), priority)

    def set_priority(self, key: int, priority: int) -> None:
        self.shard_backend_for(int(key)).set_priority(int(key), priority)

    def demote(self, key: int) -> None:
        self.shard_backend_for(int(key)).demote(int(key))

    # -- bulk writes (scatter / per-shard batch / no gather needed) ----
    def put_batch(self, keys: Sequence[int], priority: int) -> None:
        """Bulk insert-or-refresh, one batched call per shard.

        Capacity is per shard: the whole batch is validated against
        every shard's free space *before* any shard mutates, so a
        ``RuntimeError`` (a sub-batch overflowing its shard, even while
        other shards have room) leaves the buffer untouched — the same
        raise-before-mutate contract as the single-shard backends.
        """
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            return
        segments = list(self.iter_shard_segments(arr))
        for _, shard, _, sub in segments:
            fresh = int(np.count_nonzero(
                ~shard.contains_batch(np.unique(sub))))
            if len(shard) + fresh > shard.capacity:
                raise RuntimeError("buffer full; evict first")
        for _, shard, _, sub in segments:
            shard.put_batch(sub, priority)

    def set_priority_batch(self, keys: Sequence[int], priority: int) -> None:
        arr = np.asarray(keys, dtype=np.int64)
        for _, shard, _, sub in self.iter_shard_segments(arr):
            shard.set_priority_batch(sub, priority)

    def demote_batch(self, keys: Sequence[int]) -> None:
        arr = np.asarray(keys, dtype=np.int64)
        for _, shard, _, sub in self.iter_shard_segments(arr):
            shard.demote_batch(sub)

    # -- serving -------------------------------------------------------
    def serve_segment(self, segment: np.ndarray, priority: int
                      ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Demand-serve a whole segment shard-wise: one route
        (:meth:`iter_shard_segments`), one ``serve_segment`` call per
        shard's sub-segment, the results gathered back.  Shards hold
        disjoint key sets and never touch each other's slots, so this
        is exactly serving N independent buffers, each through its own
        backend's policy.  Returns the single-buffer result shape:
        ``served == len(segment)``, the ascending miss positions in
        ``segment``, and the victims grouped per shard in shard-id
        order (the :meth:`evict_batch` grouping)."""
        arr = np.asarray(segment, dtype=np.int64)
        misses = [np.zeros(0, dtype=np.int64)]
        victims = [np.zeros(0, dtype=np.int64)]
        for _, shard, positions, sub in self.iter_shard_segments(arr):
            _, sub_misses, sub_victims = shard.serve_segment(sub, priority)
            misses.append(positions[sub_misses])
            victims.append(sub_victims)
        return (int(arr.size), np.sort(np.concatenate(misses)),
                np.concatenate(victims))

    # -- eviction ------------------------------------------------------
    def evict_one(self) -> int:
        """Evict one entry from the fullest shard (ties break by
        ascending shard id) — the ``count=1`` case of the levelling
        policy.  Serving paths that need space *for a key* must instead
        evict from that key's shard (:func:`backend_for_key`)."""
        if not len(self):
            raise RuntimeError("cannot evict from an empty buffer")
        lengths = np.asarray([len(shard) for shard in self.shards])
        return self.shards[int(np.argmax(lengths))].evict_one()

    def evict_batch(self, n: int) -> List[int]:
        """Evict ``n`` entries globally, levelling the fullest shards
        down (:func:`_allocate_evictions`).  Victims come out grouped
        per shard in shard-id order; *within* a shard they follow that
        shard's own eviction order — there is no cross-shard
        ``(effective_priority, seqno)`` interleaving (see module
        docstring and the Sharding note in :mod:`repro.cache.buffer`).
        This ordering is contract, pinned by
        ``tests/test_sharding.py::test_evict_batch_victim_order_is_per_shard``."""
        count = int(n)
        if count <= 0:
            return []
        lengths = np.asarray([len(shard) for shard in self.shards],
                             dtype=np.int64)
        allocation = _allocate_evictions(lengths, count)
        victims: List[int] = []
        for shard, share in zip(self.shards, allocation.tolist()):
            if share:
                victims.extend(shard.evict_batch(share))
        return victims

    # -- rebalancing ---------------------------------------------------
    def rebalance(self, shard_weights: Optional[Sequence[float]] = None
                  ) -> Dict:
        """Re-split capacity (and, under the contiguous router, the
        partition) to ``shard_weights``, migrating residents live.

        See "Rebalancing" in the module docstring and
        :class:`ShardRebalancer` for the migration contract.  In brief:

        * ``shard_weights=None`` targets the construction defaults
          (uniform capacity split, ceil-split ranges); weights target
          the largest-remainder apportionment of both capacity and —
          contiguous router only — the key range.
        * A rebalance whose target equals the current state is a
          **no-op**: it returns before touching any backend, so calling
          it is bit-identical to not calling it.
        * A real rebalance rebuilds *every* shard into canonical
          packed state: residents keep their exact effective
          priorities, relative eviction order within each source shard
          is preserved, and populations merged from several source
          shards are ordered (source shard asc, then per-source order)
          — the **eviction-order caveat across migration**.  Serving
          decisions afterwards match a fresh ``ShardedBuffer`` built
          with the new weights (partition re-drawn) and pre-seeded
          with the same residents in that canonical order (pinned in
          ``tests/test_golden_backends.py``).
        * Shards whose new capacity undercuts their assembled
          population evict the overflow through their own backend's
          eviction order; the victims come back in ``"evicted"`` so
          callers can keep eviction accounting consistent.
        * **Not thread-safe against in-flight serving** — call it
          between serves, from the serving thread, as the manager's
          online driver does.

        Returns a stats dict: ``changed``, ``migrated_keys`` (keys
        whose shard assignment changed), ``evicted`` (donor-shrink
        victims, global ids), ``shard_capacities`` (the new split).
        """
        return ShardRebalancer(self).apply(shard_weights)

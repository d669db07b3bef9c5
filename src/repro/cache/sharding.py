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
:class:`ShardRouter` under one of :data:`SHARD_POLICIES`:

* ``"contiguous"`` — shard ``s`` owns the contiguous id range
  ``[ceil(s*K/N), ceil((s+1)*K/N))``.  Dense ids are assigned in
  sorted packed-key order (:func:`repro.traces.access.remap_to_dense`
  keeps same-table rows contiguous), so contiguous ranges map to
  contiguous (table, row) regions — the natural partition for
  range-partitioned embedding tables, and the one hot-shard workloads
  stress.
* ``"modulo"`` — shard ``s`` owns every id congruent to ``s`` mod N; a
  hash-free striping that spreads contiguous hot ranges evenly across
  shards.

Routing is **total and deterministic**: every int64 key — including ids
outside ``[0, key_space)``, which the manager assigns to keys unseen at
encoder-fit time — maps to exactly one shard, and the scalar and batch
forms agree key for key (out-of-range ids route by ``key mod N`` under
both policies, so spillover correctness never depends on the id fitting
the universe).  ``router.route`` is the one place a key's shard is
computed.  Because a key can only ever live in its router shard, the
per-shard residents are pairwise disjoint and their union *is* the
global residency — scalar ``key in buffer`` asks the key's own shard,
and a per-shard ``contains_batch`` over the scattered block gathers
back to the same answer (property-tested after every op in
``tests/test_sharding.py``).

**Id compression (the translation boundary).**  Each shard's dense
backend is built over the *compressed* per-shard universe
``[0, shard_key_space)``, not the full ``[0, key_space)``: shard ``s``
owns the in-universe ids ``offset[s] + stride * j`` for ``j <
count[s]`` (contiguous: stride 1, offset the range start; modulo:
stride N, offset ``s``), and its backend stores ``j``.  So per-id
backend state (slot vectors, expiry/seqno vectors, residency bitmaps)
costs the same total memory as a single-shard buffer instead of N×
it.  Ids are translated once per block, at the scatter:

* :meth:`ShardedBuffer.iter_shard_segments` routes a block and
  compresses it in one vectorized pass, and yields each shard's backend
  and local ids; the bulk callers (:meth:`ShardedBuffer.serve_segment`
  and the manager's caching-bit applier) hand those to the backend and
  decompress the victims through the router;
* the scalar protocol (``insert`` / ``set_priority`` / ``demote`` /
  ``evict_for`` and the reads) translates one key at a time, through
  one locate step (``router.route`` + ``compress_key``), and
  decompresses the victims it returns;
* spillover ids (outside ``[0, key_space)``) pass through *unchanged*:
  they route by ``key mod N`` and always fall outside the compressed
  universe too (negative stays negative; ``id >= key_space >=
  shard_key_space``), so they land in each backend's existing spillover
  side path and decompression is unambiguous — a stored id in
  ``[0, count)`` inverts the bijection, anything else *is* the global
  key.

Compression is a **storage transform, not a policy change**: backend
decisions depend on (priority, seqno, slot/hand) order, never on id
values, and the bijection is monotonic over a shard's owned ids, so
every victim sequence and hit/miss stream is byte-identical to the
uncompressed layout (pinned by the sharded goldens in
``tests/test_golden_backends.py`` and the 200-seed fuzz).  Local ids
are only meaningful to the shard they were routed to.

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
another shard has free slots, and :meth:`ShardedBuffer.serve_segment`
returns its victims grouped per shard in shard-id order, *not* in the
single-buffer global ``(effective_priority, seqno)`` order.  This is
the documented price of sharding; the single-shard backends keep the
exact global contract.

**What serving calls.**  A :class:`ShardedBuffer` is the one buffer
the manager serves through.  It speaks the scalar protocol
(``insert`` / ``set_priority`` / ``demote`` and the reads, routed per
key), eviction for space (:meth:`ShardedBuffer.evict_for`: from the
key's own shard, victims as global ids) and ``serve_segment``, which is
one vectorized scatter of the segment to shards
(:meth:`ShardedBuffer.iter_shard_segments`), one backend
``serve_segment`` call per shard's local ids, and one gather back — no
per-key python loop.  Within a shard the original key order is
preserved, and shards hold disjoint key sets, so that is exactly
serving N independent buffers.  Only the manager's caching-bit applier
reaches the backends itself: it splits a block along the same scatter
and writes each shard's bits to its backend in local ids.

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

**One shard is the identity.**  With ``num_shards=1`` the router's
offset is 0 and its stride 1, so compression maps every id to itself,
and the buffer skips routing on every path: ``serve_segment`` returns
the backend's own result, the scalar locate hands the key to the
backend unchanged, and ``iter_shard_segments`` yields the whole block.
That one branch is what lets the manager always serve through a
:class:`ShardedBuffer`: a 1-shard buffer is decision-for-decision
identical to the bare backend (200-seed differential in
``tests/test_sharding.py``) at the bare backend's per-block cost.
``make_buffer`` builds the bare backends, one per shard here, and for
the callers that never shard.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .buffer import make_buffer


#: The ``shard_policy=`` names (``ShardedBuffer`` and
#: ``RecMGConfig.shard_policy``).
SHARD_POLICIES = ("contiguous", "modulo")


class ShardRouter:
    """A partition of ``[0, key_space)`` into N shards, and each
    shard's id compression (module docstring).

    Shard ``s`` owns the in-universe ids ``offset[s] + stride * j`` for
    ``j < count[s]``.  ``"contiguous"``: stride 1 and ``offset[s]`` the
    start of its range, ``[ceil(s*K/N), ceil((s+1)*K/N))`` at
    construction (:meth:`range_of`).  ``"modulo"``: stride N and
    ``offset[s] = s``.  :meth:`compress` maps an owned id to its ``j``
    — an order-preserving bijection onto ``[0, count[s])`` — and
    :meth:`decompress` inverts it; ids outside ``[0, key_space)`` pass
    through both unchanged.

    Only routing differs by policy.  Ids outside the universe route by
    ``key mod N`` under both (with ``key_space=0``, every id does), and
    the modulo policy routes in-universe ids the same way.  The
    contiguous policy routes them by the arithmetic ``key * N //
    key_space`` while its ranges are the construction-time ceil split,
    and by a ``searchsorted`` over the boundary array once
    :meth:`set_bounds` has re-drawn them (the repartition half of
    ``ShardedBuffer.rebalance``; the modulo partition is fixed, so its
    rebalance re-splits capacity only).  Spillover routing is therefore
    rebalance-invariant.
    """

    def __init__(self, policy: str, num_shards: int, key_space: int) -> None:
        self.name = policy
        self.num_shards = int(num_shards)
        self.key_space = int(key_space)
        if policy == "contiguous":
            self.stride = 1
            self.set_bounds(self.default_bounds(self.num_shards,
                                                self.key_space))
        else:
            self.stride = self.num_shards
            self._offset = np.arange(self.num_shards, dtype=np.int64)
            # ceil((K - s) / N): 0 for every s >= K, since s < N.
            self._count = -((self._offset - self.key_space)
                            // self.num_shards)

    @staticmethod
    def default_bounds(num_shards: int, key_space: int) -> np.ndarray:
        """Boundary array ``[b_0..b_N]`` of the construction-time ceil
        split: shard ``s`` owns ``[ceil(s*K/N), ceil((s+1)*K/N))``."""
        return np.array([-((-s * key_space) // num_shards)
                         for s in range(num_shards + 1)], dtype=np.int64)

    def set_bounds(self, bounds: Sequence[int]) -> None:
        """Re-draw the contiguous ranges: shard ``s`` now owns
        ``[bounds[s], bounds[s+1])``.

        Only ``ShardedBuffer.rebalance`` may call this, *after*
        exporting every shard's residents under the old partition —
        the compression changes with the ranges, so any state still
        stored under the old ranges becomes unreadable.
        """
        if self.name != "contiguous":
            raise ValueError("only the contiguous partition can be re-drawn")
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
        self._offset = self._bounds[:-1].copy()
        self._count = np.diff(self._bounds)

    def range_of(self, shard: int) -> Tuple[int, int]:
        """In-universe id range ``[lo, hi)`` owned by ``shard``
        (contiguous policy)."""
        return int(self._bounds[shard]), int(self._bounds[shard + 1])

    # -- routing -------------------------------------------------------
    def route(self, key: int) -> int:
        key = int(key)
        if self.name == "contiguous" and 0 <= key < self.key_space:
            if self._uniform:
                return key * self.num_shards // self.key_space
            return int(np.searchsorted(self._bounds, key,
                                       side="right")) - 1
        return key % self.num_shards

    def route_batch(self, keys: Sequence[int]) -> np.ndarray:
        arr = np.asarray(keys, dtype=np.int64)
        if self.name != "contiguous" or self.key_space == 0:
            return np.mod(arr, self.num_shards)
        if arr.size == 0 or (arr.min() >= 0 and arr.max() < self.key_space):
            return self._route_owned(arr)  # hot path: no spillover
        shards = self._route_owned(np.clip(arr, 0, self.key_space - 1))
        out = (arr < 0) | (arr >= self.key_space)
        shards[out] = np.mod(arr[out], self.num_shards)
        return shards

    def _route_owned(self, arr: np.ndarray) -> np.ndarray:
        """Contiguous shard of each in-universe id."""
        if self._uniform:
            return arr * self.num_shards // self.key_space
        return (np.searchsorted(self._bounds, arr,
                                side="right") - 1).astype(np.int64)

    # -- compression (exact bijection onto the local universe) ---------
    def shard_key_space(self, shard: int) -> int:
        """Size of ``shard``'s compressed universe (>= 1 even for a
        shard that owns no id, so the dense backends always have a
        bitmap)."""
        return max(1, int(self._count[shard]))

    def compress(self, shard, keys: Sequence[int]) -> np.ndarray:
        """Global ids -> local ids.  ``shard`` is one shard index or
        one per key (``route_batch(keys)``, the whole-block form), and
        every key must route to its shard.  Spillover ids (outside
        ``[0, key_space)``) pass through unchanged."""
        arr = np.asarray(keys, dtype=np.int64)
        if self.num_shards == 1 or arr.size == 0:
            return arr
        local = arr - self._offset[shard]
        if self.stride != 1:
            local //= self.stride
        if arr.min() >= 0 and arr.max() < self.key_space:
            return local  # hot path: no spillover
        return np.where((arr >= 0) & (arr < self.key_space), local, arr)

    def decompress(self, shard: int, local: Sequence[int]) -> np.ndarray:
        """Inverse of :meth:`compress` for one shard: local ids in
        ``[0, count)`` map back to the shard's owned ids, anything else
        passes through."""
        arr = np.asarray(local, dtype=np.int64)
        if self.num_shards == 1 or arr.size == 0:
            return arr
        owned = arr * self.stride + int(self._offset[shard])
        if arr.min() >= 0 and arr.max() < self._count[shard]:
            return owned  # hot path: all ids local
        return np.where((arr >= 0) & (arr < self._count[shard]), owned, arr)

    def compress_key(self, shard: int, key: int) -> int:
        key = int(key)
        if self.num_shards > 1 and 0 <= key < self.key_space:
            return (key - int(self._offset[shard])) // self.stride
        return key

    def decompress_key(self, shard: int, local: int) -> int:
        local = int(local)
        if self.num_shards > 1 and 0 <= local < self._count[shard]:
            return int(self._offset[shard]) + self.stride * local
        return local


def make_router(shard_policy: str, num_shards: int,
                key_space: int) -> ShardRouter:
    """Build a shard router by policy name."""
    if shard_policy not in SHARD_POLICIES:
        raise ValueError(
            f"unknown shard_policy {shard_policy!r}; choose from "
            f"{sorted(SHARD_POLICIES)}")
    return ShardRouter(shard_policy, num_shards, key_space)


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


class Shard:
    """One shard's slot in :attr:`ShardedBuffer.shards`: its backend,
    over the shard's compressed universe, in local ids.  A rebalance
    swaps ``backend`` for the rebuilt one, so a reference to the slot
    stays current across it."""

    __slots__ = ("backend",)

    def __init__(self, backend) -> None:
        self.backend = backend


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
        if (buf.router.name == "contiguous"
                and buf.key_space >= buf.num_shards):
            if shard_weights is None:
                new_bounds = ShardRouter.default_bounds(
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
        for index, shard in enumerate(buf.shards):
            if exact:
                local_keys, prio, seq = shard.backend.export_state()
            else:
                local_keys, prio = shard.backend.export_state()
                seq = None
            exports.append((router.decompress(index, local_keys), prio, seq))
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
        for d, shard in enumerate(buf.shards):
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
            shard.backend = backend
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
    (:data:`repro.cache.buffer.BUFFER_IMPLS`); every shard's backend is
    built over its *compressed* universe (``router.shard_key_space(s)``)
    and held in :attr:`shards`.  ``approximate`` is inherited from the
    shard backend (the rebalancer migrates exact and clock state
    differently).  ``shard_weights`` (optional) splits the capacity
    proportionally instead of uniformly (:func:`split_capacity`).

    More than one shard needs ``key_space`` (the routers partition the
    dense id universe); one shard takes ``None``, the empty universe,
    as a bare backend does.
    """

    def __init__(self, impl: str, capacity: int, key_space: Optional[int],
                 num_shards: int = 1, shard_policy: str = "contiguous",
                 shard_weights: Optional[Sequence[float]] = None) -> None:
        num_shards = int(num_shards)
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if key_space is None and num_shards > 1:
            raise ValueError(
                f"num_shards={num_shards} requires key_space=; the shard "
                f"routers partition the dense id universe [0, key_space)")
        if shard_weights is not None and num_shards == 1:
            raise ValueError("shard_weights requires num_shards > 1")
        if capacity < num_shards:
            raise ValueError(
                f"capacity {capacity} cannot give every one of "
                f"{num_shards} shards at least one slot")
        self.impl = impl
        self.capacity = int(capacity)
        self.key_space = int(key_space or 0)
        self.num_shards = num_shards
        self.shard_policy = shard_policy
        self.shard_weights = (None if shard_weights is None
                              else tuple(float(w) for w in shard_weights))
        self.router = make_router(shard_policy, num_shards, self.key_space)
        self.shard_capacities = split_capacity(self.capacity, num_shards,
                                               shard_weights)
        self.shards: List[Shard] = []
        for index, shard_capacity in enumerate(self.shard_capacities):
            backend = make_buffer(impl, shard_capacity,
                                  key_space=self.router.shard_key_space(
                                      index))
            # The dense backends report their universe so the
            # translation boundary is assertable (an uncompressed shard
            # here would silently cost N× the per-id memory).
            assert backend.key_space == self.router.shard_key_space(index)
            self.shards.append(Shard(backend))
        #: Victim order approximates/honors the per-shard contract of
        #: the underlying backend; never the cross-shard global order.
        self.approximate = bool(getattr(self.shards[0].backend,
                                        "approximate", False))

    # -- routing -------------------------------------------------------
    def _locate(self, key: int) -> Tuple[int, object, int]:
        """``(shard index, backend, local id)`` of ``key``: the one
        scalar translation, route + compress — and on one shard the
        key itself, with no arithmetic."""
        if self.num_shards == 1:
            return 0, self.shards[0].backend, key
        key = int(key)
        index = self.router.route(key)
        return (index, self.shards[index].backend,
                self.router.compress_key(index, key))

    def route_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Shard index per key (the manager counts per-shard traffic
        with it)."""
        return self.router.route_batch(keys)

    def iter_shard_segments(self, keys: np.ndarray):
        """Scatter ``keys`` to shards: yields ``(shard_index, backend,
        positions, local)`` per non-empty shard, where ``positions``
        indexes ``keys`` (ascending, so per-shard order follows the
        access stream) and ``local`` holds that shard's local ids of
        ``keys[positions]``, cut from one compression of the whole
        block.  Bulk callers hand ``local`` to ``backend`` and
        decompress what comes back (victims) through the router.  One
        shard yields the whole block as it is.

        **Per-shard bit-split contract** (the manager's caching-bit
        applier): a block of per-access caching bits is split along
        this same route — ``bits[positions]`` rides with ``local`` —
        and applied per shard to the shard's backend
        (:func:`repro.serving.priorities.apply_caching_bits`).
        Duplicates of a key always land in the same shard, compression
        is a bijection there, and ``positions`` is ascending, so
        per-shard dedup/apply writes exactly the state of the scalar
        sequence routed key by key."""
        arr = np.asarray(keys, dtype=np.int64)
        if self.num_shards == 1:
            if arr.size:
                yield 0, self.shards[0].backend, np.arange(arr.size), arr
            return
        shard_ids = self.router.route_batch(arr)
        local = self.router.compress(shard_ids, arr)
        for shard_index in range(self.num_shards):
            positions = np.flatnonzero(shard_ids == shard_index)
            if positions.size:
                yield (shard_index, self.shards[shard_index].backend,
                       positions, local[positions])

    # -- read protocol -------------------------------------------------
    def __contains__(self, key: int) -> bool:
        _, backend, local = self._locate(key)
        return local in backend

    def __len__(self) -> int:
        return sum(len(shard.backend) for shard in self.shards)

    def keys(self) -> Iterator[int]:
        for index, shard in enumerate(self.shards):
            yield from self.router.decompress(
                index, list(shard.backend.keys())).tolist()

    def priority_of(self, key: int) -> int:
        _, backend, local = self._locate(key)
        return backend.priority_of(local)

    @property
    def is_full(self) -> bool:
        """True when *every* shard is full.  A single full shard
        already refuses inserts routed to it: :meth:`evict_for` makes
        room in the routed shard."""
        return all(shard.backend.is_full for shard in self.shards)

    def per_id_nbytes(self) -> int:
        """Total per-id dense-state bytes across shards — ≈ the
        single-shard footprint, *not* N× it (the point of compression;
        regression-tested in ``tests/test_sharding.py``)."""
        return sum(shard.backend.per_id_nbytes() for shard in self.shards)

    # -- scalar writes (route + forward) -------------------------------
    def insert(self, key: int, priority: int) -> None:
        """Insert (or refresh) ``key`` in its shard; the caller must
        ensure space *in that shard* (:meth:`evict_for`;
        ``RuntimeError`` otherwise, like the single-shard backends)."""
        _, backend, local = self._locate(key)
        backend.insert(local, priority)

    def set_priority(self, key: int, priority: int) -> None:
        _, backend, local = self._locate(key)
        backend.set_priority(local, priority)

    def demote(self, key: int) -> None:
        _, backend, local = self._locate(key)
        backend.demote(local)

    def evict_for(self, key: int) -> List[int]:
        """Evict from ``key``'s own shard — the one that will hold it;
        other shards' free slots are unreachable — until it has room;
        returns the victims, in eviction order, as global ids."""
        index, backend, _ = self._locate(key)
        victims = []
        while backend.is_full:
            victims.append(self.router.decompress_key(index,
                                                      backend.evict_one()))
        return victims

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
        order.  One shard returns its backend's result as it is."""
        if self.num_shards == 1:
            return self.shards[0].backend.serve_segment(segment, priority)
        arr = np.asarray(segment, dtype=np.int64)
        misses = [np.zeros(0, dtype=np.int64)]
        victims = [np.zeros(0, dtype=np.int64)]
        for index, backend, positions, local in self.iter_shard_segments(
                arr):
            _, sub_misses, sub_victims = backend.serve_segment(local,
                                                               priority)
            misses.append(positions[sub_misses])
            victims.append(self.router.decompress(index, sub_victims))
        return (int(arr.size), np.sort(np.concatenate(misses)),
                np.concatenate(victims))

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

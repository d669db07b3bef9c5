"""Priority-managed GPU buffer (paper Algorithms 1 and 2).

RecMG co-manages the GPU buffer with two models: the caching model
assigns each recently accessed vector a 1-bit priority (added to
``eviction_speed``), and the prefetch model inserts vectors at priority
``eviction_speed``.  Eviction (Algorithm 2) selects the entry with the
lowest priority and then *ages* every entry by decrementing its priority
(floored at zero), mimicking RRIP.

Three interchangeable backends implement the buffer protocol
(``insert`` / ``set_priority`` / ``demote`` / ``evict_one`` /
``evict_batch`` / ``serve_segment``); pick one with
:func:`make_buffer` — the manager's
:class:`~repro.cache.sharding.ShardedBuffer` passes it
``RecMGConfig.buffer_impl`` per shard,
``repro.dlrm.inference.BufferClassifier`` its own ``buffer_impl=``
argument.
``serve_segment(segment, priority)`` is
*total* on all three, and on the sharded façade: one call serves the
whole demand segment and returns ``(served, miss_positions,
victims)`` with ``served == len(segment)`` — the buffer serves a
segment, the manager folds.

* :class:`PriorityBuffer` (``"reference"``) — the literal
  O(n)-per-eviction transcription of Algorithm 2; easy to audit, used
  as the reference in tests.  Its ``serve_segment`` is the scalar
  serving loop itself.
* :class:`FastPriorityBuffer` (``"fast"``, the manager's default) —
  *exact* semantics, array-native.  Aging by a global decrement is
  represented implicitly: each entry stores the *age at which its
  priority reaches zero* (``expiry = age_now + priority``), so
  ``effective_priority = max(0, expiry - age_now)``.  Entries live in
  the shared slot layout, ``(expiry, seqno)`` per slot.  The bulk
  protocol runs as
  numpy gathers/scatters, ``evict_batch(n)`` computes the whole victim
  sequence with one vectorized selection over the resident entries
  (identical, victim for victim, to ``n`` scalar ``evict_one`` calls
  — fuzz-checked in ``tests/test_buffer_differential.py``), and
  :meth:`FastPriorityBuffer.serve_segment` serves a whole demand
  segment in one call, bit-identically to the scalar serving loop —
  past :data:`SCALAR_FALLBACK` keys as a bulk pass, where a victim the
  segment touches later re-misses inside the call, the victim choice
  and the miss set solved together as a fixed point, and the pass's
  rare trims are finished inside the call.  Scalar
  ``evict_one`` is exact at amortised O(1) too: a persistent *victim
  queue* — the smallest-seqno priority-zero entries below every live
  entry's seqno, gathered once and popped across calls, demotes pushed
  on top, every record validated against the entry's current seqno —
  so the scalar-eviction regime (the manager's 15-key model chunks)
  costs no heap either; only when no such entry exists (priorities far
  above the eviction count) does a call fall back to one O(capacity)
  selection.
* :class:`ClockBuffer` (``"clock"``) — *approximate* priorities in
  the shared slot layout, one priority per slot, swept by a clock hand.
  :meth:`ClockBuffer.evict_batch` reclaims many slots per sweep: it
  harvests priority-zero slots in hand order and, when a sweep runs
  dry, ages every survivor by the *minimum surviving priority* in a
  single vectorized subtraction (one aging step per sweep — the CLOCK
  approximation of Algorithm 2's aging; subtracting the minimum at
  once yields provably identical victims to repeated −1 passes, since
  intermediate passes harvest nothing).  Within one call, victims come
  out in nondecreasing pre-call priority and never outrank a survivor
  (ties broken by hand position instead of insertion order).  The
  manager picks it for throughput-bound serving:
  :meth:`ClockBuffer.serve_segment` classifies a whole demand segment,
  reclaims the space its new keys need with one *protected* sweep (no
  victim is a segment key) and stores it, in a single array pass — in
  one pass per piece of at most half the slots' worth of distinct keys
  when the segment holds more distinct keys than slots — trading exact
  victim order for array-speed eviction, with no sort on a dense
  segment.

**One slot layout for both array backends.**  The fast and clock
backends store their entries alike (:class:`_SlotLayout`, the only
code that knows the format): ``capacity``-sized slot arrays, a
free-slot stack, and one ``id -> slot`` map — a dense vector over the
ids of ``[0, key_space)`` (the paper treats each embedding-vector index
as a memory address, and the manager fits that universe from the
encoder's vocabulary) plus a side dict for every other id.
``key_space=0`` (the default) is the empty universe: every id, raw
packed keys included, spills, which is exact for any int64 key and
differs from an in-universe id only in speed.  The map is the one
membership record; everything else is per slot — the clock's priority,
the fast backend's ``(expiry, seqno)`` — so victim selection gathers
``capacity`` slots, never the universe, and the per-id state is the
same 12 bytes per id on both.  Both allocate slots as the scalar
protocol does, an eviction pushing its slot and a store popping one,
and their bulk passes leave the slot arrays the scalar operations
would.  The reference backend answers membership from its entry dict.

**Bulk membership / priority protocol.**  All backends answer
``contains_batch(keys) -> bool[:]`` (membership of a whole segment in
one call — a gather over the ``id -> slot`` map, spillover ids
answered by a dict lookup) and accept ``set_priority_batch(keys,
priority)`` and ``demote_batch(keys)``: the caching-bit writes of
``serving.priorities.apply_caching_bits`` past its scalar crossover.
On the exact backends the batch forms are *defined* as the scalar
operations applied in order (seqno semantics preserved); on the fast
backend ``set_priority_batch`` / ``demote_batch`` are one slot gather
plus two forward scatters (a repeated key's last position wins).
Serving itself goes through ``serve_segment``.

**Eviction order (exact backends).**  ``evict_one`` removes the entry
minimizing the pair ``(effective_priority, seqno)``.  Seqnos are unique
by construction — ``insert``/``set_priority`` draw fresh increasing
seqnos, ``demote`` draws fresh *decreasing* negative seqnos —
so the pair admits no ties and the victim is fully determined by the
operation history, never by dict/heap internals.  Consequences both
exact backends honor (regression-tested in ``tests/test_buffer.py``):
equal-priority entries evict oldest-touch-first (LRU), and demoted
entries evict before everything else in *reverse demote order* (the
most recently demoted key holds the smallest seqno).

A property-based test asserts trace-level equivalence of the exact
pair, and a differential fuzz suite
(``tests/test_buffer_differential.py``) drives all backends — each
array-native one over a universe smaller than the fuzzed ids and over
the empty one — through randomized op sequences, checking after every
operation that bulk membership, scalar membership and the resident
keys agree.

**Sharding.**  The manager serves through a
:class:`~repro.cache.sharding.ShardedBuffer` of one or more of these
backends, each over its shard's compressed universe; with one shard it
is the identity.  See :mod:`repro.cache.sharding` for the routing,
compression and per-shard eviction contract.

**One migration record.**  Under Algorithm 2 a buffer's future
victims depend only on each entry's priority and its place in the
tie-breaking order, so every backend exports its residents as one
record, ``export_state() -> (keys, priorities)`` in eviction-tie
order, and ``import_state(keys, priorities)`` loads such a record into
an empty backend:

* the exact backends export in ascending seqno order, with effective
  priorities (aging applied, floored at 0), and import by drawing
  fresh ascending seqnos, so the relative seqno order — all that
  eviction reads — survives;
* the clock backend exports in circular hand order from the hand, and
  a fresh one imports entry ``i`` into slot ``i`` with the hand at 0,
  so its sweep visits the entries in the same order.

So a fresh backend loaded with ``import_state(*export_state())`` holds
the same keys and priorities and drains in the same victim order
(property-tested over all three backends in
``tests/test_buffer_differential.py``).
:meth:`~repro.cache.sharding.ShardedBuffer.rebalance` moves residents
between shards through this record.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Depth of the dense ``fast`` buffer's victim queue: one O(resident)
#: selection buys up to this many scalar evictions.
_VICTIM_QUEUE = 1024


def _as_key_list(keys: Sequence[int]) -> List[int]:
    return (keys.tolist() if isinstance(keys, np.ndarray)
            else [int(key) for key in keys])


#: Blocks of at most this many keys take a scalar loop rather than a
#: bulk pass whose fixed cost exceeds that whole loop: inside
#: :meth:`FastPriorityBuffer.serve_segment`, and in
#: ``serving.priorities.apply_caching_bits``.  The measured crossover,
#: model-free on the ``recmg-replay`` trace (2-core host): the scalar
#: loop costs ~1.65 us/key and the bulk pass ~100 us + 0.5 us/key —
#: 15 keys: 26 vs 107 us, 64: 103 vs 118, 96: 168 vs 134, 256: 411 vs
#: 224.
SCALAR_FALLBACK = 64


def _serve_scalar(buffer, arr: np.ndarray, priority: int
                  ) -> Tuple[int, np.ndarray, np.ndarray]:
    """The scalar serving loop every ``serve_segment`` is defined
    against — a hit refreshes the key at ``priority``, a miss evicts
    one entry when the buffer is full and inserts the key at
    ``priority`` — in ``serve_segment``'s result shape."""
    misses: List[int] = []
    victims: List[int] = []
    for position, key in enumerate(arr.tolist()):
        if key in buffer:
            buffer.set_priority(key, priority)
            continue
        misses.append(position)
        if buffer.is_full:
            victims.append(buffer.evict_one())
        buffer.insert(key, priority)
    return (int(arr.size), np.array(misses, dtype=np.int64),
            np.array(victims, dtype=np.int64))


def _serve_in_prefixes(serve_prefix, arr: np.ndarray, priority: int
                       ) -> Tuple[int, np.ndarray, np.ndarray]:
    """Make a backend's prefix server total: ``serve_prefix(rest,
    priority)`` serves at least one leading access of a non-empty
    ``rest`` and is called again on the remainder until all of ``arr``
    is served.  The pieces' results join in segment order (miss
    positions shifted to ``arr``'s)."""
    served, misses, victims = serve_prefix(arr, priority)
    if served == arr.size:
        return served, misses, victims
    miss_parts, victim_parts = [misses], [victims]
    while served < arr.size:
        step, misses, victims = serve_prefix(arr[served:], priority)
        miss_parts.append(misses + served)
        victim_parts.append(victims)
        served += step
    return served, np.concatenate(miss_parts), np.concatenate(victim_parts)


def _exact_victim_sequence(expiry: np.ndarray, seq: np.ndarray, age: int,
                           count: int) -> np.ndarray:
    """Victim order of ``count`` consecutive exact evictions.

    Pure function over candidate entry arrays (one row per resident
    entry): eviction ``k`` happens at age ``age + k`` and removes the
    entry minimizing ``(max(0, expiry - (age + k)), seq)`` — exactly
    the process ``count`` scalar ``evict_one`` calls with no
    interleaved stores would run.  Returns the indices of the victims
    in eviction order.  The sequence is prefix-stable: the first ``k``
    victims for any larger ``count`` are the victims of ``k``
    evictions.

    The common serving case — at least ``count`` entries already at
    effective priority zero, none of the still-live entries ripening
    into a smaller seqno within the batch — resolves with one
    ``argpartition`` over the zero class, no per-victim work.  The
    general case (zero class drains, or a live entry with an *older*
    seqno ripens mid-batch and must preempt) replays the release-time
    process with a small heap over the gathered arrays.
    """
    zero = expiry <= age
    nz = int(np.count_nonzero(zero))
    if nz >= count:
        zidx = np.flatnonzero(zero)
        if nz > count:
            part = np.argpartition(seq[zidx], count - 1)[:count]
            zidx = zidx[part]
        chosen = zidx[np.argsort(seq[zidx])]
        late = (~zero) & (expiry <= age + count - 1)
        if not late.any() or int(seq[late].min()) > int(seq[chosen[-1]]):
            return chosen
    # General path: entries "release" into the zero class when the age
    # reaches their expiry; each step pops the smallest released seqno,
    # or the (expiry, seq)-smallest live entry when nothing is released.
    order = np.lexsort((seq, expiry))
    exp_sorted = expiry[order]
    seq_sorted = seq[order]
    out = np.empty(count, dtype=np.int64)
    released: List[Tuple[int, int]] = []
    ptr = 0
    total = int(order.size)
    for k in range(count):
        limit = age + k
        while ptr < total and exp_sorted[ptr] <= limit:
            heapq.heappush(released, (int(seq_sorted[ptr]), int(order[ptr])))
            ptr += 1
        if released:
            out[k] = heapq.heappop(released)[1]
        else:
            out[k] = order[ptr]
            ptr += 1
    return out


class PriorityBuffer:
    """Reference implementation of Algorithms 1–2 (O(n) eviction).

    Everything, membership and the O(n) audit eviction included, runs
    off the entry dicts.  ``key_space`` is only recorded: sharded
    construction asserts it against the router's per-shard universe.
    """

    #: Exact Algorithm 2 semantics (victims follow the documented
    #: (effective_priority, seqno) total order).
    approximate = False

    def __init__(self, capacity: int, key_space: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if key_space < 0:
            raise ValueError("key_space must be >= 0")
        self.capacity = capacity
        self.key_space = int(key_space)
        self._priority: Dict[int, int] = {}
        self._seqno: Dict[int, int] = {}
        self._next_seq = 0
        self._min_seq = 0

    def __contains__(self, key: int) -> bool:
        return key in self._priority

    def __len__(self) -> int:
        return len(self._priority)

    def keys(self) -> Iterator[int]:
        return iter(self._priority)

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Membership of each key as a boolean array."""
        arr = np.asarray(keys, dtype=np.int64)
        return np.fromiter(map(self._priority.__contains__, arr.tolist()),
                           dtype=bool, count=arr.size)

    def priority_of(self, key: int) -> int:
        return self._priority[key]

    @property
    def is_full(self) -> bool:
        return len(self._priority) >= self.capacity

    def per_id_nbytes(self) -> int:
        """Bytes of state that scale with ``key_space``: none (the
        entry dicts scale with occupancy)."""
        return 0

    def insert(self, key: int, priority: int) -> None:
        """Insert (or refresh) ``key``; caller must ensure space."""
        if key not in self._priority and self.is_full:
            raise RuntimeError("buffer full; evict first")
        self._priority[key] = priority
        self._seqno[key] = self._next_seq
        self._next_seq += 1

    def set_priority(self, key: int, priority: int) -> None:
        """Update priority; also refreshes recency (LRU tie-breaking)."""
        if key not in self._priority:
            raise KeyError(key)
        self._priority[key] = priority
        self._seqno[key] = self._next_seq
        self._next_seq += 1

    def set_priority_batch(self, keys: Sequence[int], priority: int) -> None:
        """Scalar :meth:`set_priority` per key, in order (exact seqno
        semantics); every key must be resident."""
        for key in _as_key_list(keys):
            self.set_priority(key, priority)

    def demote(self, key: int) -> None:
        """Mark ``key`` as evict-next: priority 0, older than everything.

        Used for cache-averse vectors (caching-model bit 0) — the
        fully-associative analogue of Hawkeye's distant insertion.
        """
        if key not in self._priority:
            raise KeyError(key)
        self._priority[key] = 0
        self._min_seq -= 1
        self._seqno[key] = self._min_seq

    def demote_batch(self, keys: Sequence[int]) -> None:
        """Scalar :meth:`demote` per key, in order (reverse-demote
        eviction order preserved)."""
        for key in _as_key_list(keys):
            self.demote(key)

    def serve_segment(self, segment: Sequence[int], priority: int
                      ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Demand-serve ``segment`` through the scalar serving loop
        itself, in the result shape every backend shares (see
        :meth:`FastPriorityBuffer.serve_segment`)."""
        return _serve_scalar(self, np.asarray(segment, dtype=np.int64),
                             priority)

    def export_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """The migration record: resident ``(keys, priorities)`` in
        ascending seqno order (module docstring)."""
        order = sorted(self._seqno, key=self._seqno.__getitem__)
        return (np.array(order, dtype=np.int64),
                np.array([self._priority[k] for k in order], dtype=np.int64))

    def import_state(self, keys: Sequence[int],
                     priorities: Sequence[int]) -> None:
        """Load a migration record into an *empty* buffer, one scalar
        :meth:`insert` per entry: entry ``i`` draws the ``i``-th fresh
        seqno (module docstring)."""
        if self._priority:
            raise RuntimeError("import_state requires an empty buffer")
        keys = _as_key_list(keys)
        if len(keys) > self.capacity:
            raise RuntimeError("buffer full; evict first")
        for key, priority in zip(keys, _as_key_list(priorities)):
            self.insert(key, priority)

    def evict_one(self) -> int:
        """Algorithm 2: evict min-(priority, seqno) entry, age the rest.

        Tie-breaking contract (see module docstring): seqnos are unique,
        so the minimum of the ``(priority, seqno)`` pair is unique — the
        victim never depends on dict iteration order, and
        :class:`FastPriorityBuffer` makes the identical choice.
        """
        if not self._priority:
            raise RuntimeError("cannot evict from an empty buffer")
        victim = min(self._priority,
                     key=lambda k: (self._priority[k], self._seqno[k]))
        for key in self._priority:
            self._priority[key] = max(0, self._priority[key] - 1)
        del self._priority[victim]
        del self._seqno[victim]
        return victim

    def evict_batch(self, n: int) -> List[int]:
        """Evict ``n`` entries; exactly ``n`` consecutive
        :meth:`evict_one` calls (aging applies between victims)."""
        count = int(n)
        if count <= 0:
            return []
        if count > len(self._priority):
            raise RuntimeError("cannot evict more entries than resident")
        return [self.evict_one() for _ in range(count)]


class _SlotLayout:
    """The storage both array backends share: ``capacity`` slots behind
    one ``id -> slot`` map.

    Slot ``s`` holds key ``_key[s]`` while ``_valid[s]``; each backend
    adds its own per-slot priority arrays.  Free slots sit on the stack
    ``_free_slots[:_free_top]``, popped from the top: slots 0, 1, 2,
    ... go out first, and a freed slot is reused before an untouched
    one.  The map is a dense vector ``_slot_of`` over ``[0, key_space)``
    (``-1``: not resident) plus the side dict ``_slot_over`` for every
    other id — the ``id -> slot`` map is the one membership record, and
    this class is the only code that tells the two halves apart
    (a source rule in ``tests/test_source_rules.py`` pins that).
    """

    def __init__(self, capacity: int, key_space: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if key_space < 0:
            raise ValueError("key_space must be >= 0")
        self.capacity = capacity
        self._key = np.full(capacity, -1, dtype=np.int64)
        self._valid = np.zeros(capacity, dtype=bool)
        self._free_slots = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._free_top = capacity
        self._key_space = int(key_space)
        self._slot_of = np.full(self._key_space, -1, dtype=np.int64)
        self._slot_over: Dict[int, int] = {}
        # id -> segment position map of :meth:`_first_touches`.
        self._scratch = np.empty(self._key_space, dtype=np.int32)
        self._slot_for, self._bind, self._unbind = self._scalar_map()

    def __contains__(self, key: int) -> bool:
        return self._slot_for(int(key)) >= 0

    def __len__(self) -> int:
        return self.capacity - self._free_top

    def keys(self) -> Iterator[int]:
        return iter(self._key[self._valid].tolist())

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Membership of each key as a boolean array (one slot gather,
        :meth:`_locate`)."""
        return self._locate(np.asarray(keys, dtype=np.int64))[0] >= 0

    @property
    def is_full(self) -> bool:
        return not self._free_top

    @property
    def key_space(self) -> int:
        """Dense-id universe this backend was built over (0: the empty
        universe).  Sharded construction asserts this against the
        router's per-shard universe — see the translation boundary in
        :mod:`repro.cache.sharding`."""
        return self._key_space

    def per_id_nbytes(self) -> int:
        """Bytes of state that scale with ``key_space``: the id→slot
        and scratch vectors (the slot arrays scale with capacity, not
        the universe)."""
        return int(self._slot_of.nbytes + self._scratch.nbytes)

    # -- the map ---------------------------------------------------------
    def _scalar_map(self):
        """The map's scalar operations, bound once as ``_slot_for`` /
        ``_bind`` / ``_unbind``: closures over its arrays, since the
        scalar hot loops call one or two per key.  ``slot_for(key)``:
        the slot of ``key`` (-1: not resident); ``bind(key, slot)``:
        map ``key`` to ``slot`` and mark the slot occupied;
        ``unbind(slot)``: vacate the occupied ``slot`` (not pushed on
        the free stack) and return the key it held."""
        slot_of, over = self._slot_of, self._slot_over
        key_at, valid = self._key, self._valid
        key_space = self._key_space

        def slot_for(key: int) -> int:
            if 0 <= key < key_space:
                return slot_of.item(key)
            return over.get(key, -1)

        def bind(key: int, slot: int) -> None:
            if 0 <= key < key_space:
                slot_of[key] = slot
            else:
                over[key] = slot
            key_at[slot] = key
            valid[slot] = True

        def unbind(slot: int) -> int:
            key = key_at.item(slot)
            if 0 <= key < key_space:
                slot_of[key] = -1
            else:
                del over[key]
            valid[slot] = False
            return key

        return slot_for, bind, unbind

    def _locate(self, arr: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Slot of every key of ``arr`` (-1 = not resident) and whether
        the non-empty segment is *dense* — every id inside
        ``[0, key_space)``, the one range check that keeps negative ids
        (which a bare gather would wrap) and spillover ids off the
        dense vectors.  Dense segments take the gather/scatter forms;
        spillover segments the slow forms of the same steps (here: the
        in-range gather plus one side-dict lookup per spillover id)."""
        if arr.size and arr.min() >= 0 and arr.max() < self._key_space:
            return self._slot_of[arr], True
        in_range = (arr >= 0) & (arr < self._key_space)
        slots = np.full(arr.size, -1, dtype=np.int64)
        slots[in_range] = self._slot_of[arr[in_range]]
        spill = np.flatnonzero(~in_range)
        slots[spill] = np.fromiter(
            map(self._slot_over.get, arr[spill].tolist(), repeat(-1)),
            dtype=np.int64, count=spill.size)
        return slots, False

    def _resident_slot(self, key: int) -> int:
        """Slot of ``key``, which must be resident (``KeyError``
        otherwise)."""
        slot = self._slot_for(int(key))
        if slot < 0:
            raise KeyError(key)
        return slot

    def _resident_slots(self, arr: np.ndarray) -> np.ndarray:
        """:meth:`_locate` of keys that must all be resident
        (``KeyError`` before anything is mutated otherwise)."""
        slots = self._locate(arr)[0]
        if (slots < 0).any():
            raise KeyError(int(arr[slots < 0][0]))
        return slots

    def _first_touches(self, arr: np.ndarray, dense: bool) -> np.ndarray:
        """First-occurrence mask of ``arr``.  ``flatnonzero`` of it is
        in segment order, so new keys take slots in *first-touch
        order* — slot order feeds the clock hand's tie-breaking and
        must follow the access stream, not hash or sort order
        (regression-tested).  A dense segment takes the sort-free form:
        a reversed scatter over the scratch map leaves each key's
        *first* position (duplicate indices: last write wins — pinned
        by a regression test), so the positions agreeing with the map
        are the first touches.  The scratch is never cleared, and only
        ``arr``'s own ids are read back."""
        if dense:
            idx = np.arange(arr.size, dtype=self._scratch.dtype)
            self._scratch[arr[::-1]] = idx[::-1]
            return self._scratch[arr] == idx
        first = np.zeros(arr.size, dtype=bool)
        first[np.unique(arr, return_index=True)[1]] = True
        return first

    def _bind_batch(self, keys: np.ndarray, slots: np.ndarray,
                    dense: bool) -> None:
        """``_bind`` of the distinct ``keys`` to ``slots``.  ``dense``:
        every key is known to lie in the universe (:meth:`_locate`'s
        flag for a segment holding them); False takes the general
        form."""
        if dense:
            self._slot_of[keys] = slots
        else:
            in_range = (keys >= 0) & (keys < self._key_space)
            self._slot_of[keys[in_range]] = slots[in_range]
            spill = ~in_range
            self._slot_over.update(zip(keys[spill].tolist(),
                                       slots[spill].tolist()))
        self._key[slots] = keys
        self._valid[slots] = True

    def _unbind_batch(self, slots: np.ndarray) -> np.ndarray:
        """``_unbind`` of the occupied ``slots``; returns their keys."""
        keys = self._key[slots]
        self._valid[slots] = False
        if self._slot_over:
            inside = (keys >= 0) & (keys < self._key_space)
            for key in keys[~inside].tolist():
                del self._slot_over[key]
            keys_inside = keys[inside]
        else:
            keys_inside = keys  # nothing spilled: every key is in range
        self._slot_of[keys_inside] = -1
        return keys

    # -- the free stack --------------------------------------------------
    def _pop_free(self, count: int) -> np.ndarray:
        """Pop ``count`` free slots, in pop order (a view, valid until
        the next push)."""
        top = self._free_top
        self._free_top = top - count
        return self._free_slots[self._free_top:top][::-1]

    def _occupy(self, key: int) -> int:
        """Pop a free slot for the non-resident ``key`` and bind it."""
        if not self._free_top:
            raise RuntimeError("buffer full; evict first")
        slot = self._pop_free(1).item(0)
        self._bind(key, slot)
        return slot

    def _occupy_batch(self, keys: np.ndarray, dense: bool) -> np.ndarray:
        """Give the distinct non-resident ``keys`` free slots, in order
        — exactly one :meth:`_occupy` per key (the caller guarantees
        the room; ``dense`` as for :meth:`_bind_batch`)."""
        slots = self._pop_free(keys.size)
        self._bind_batch(keys, slots, dense)
        return slots

    def _release(self, slots: np.ndarray) -> np.ndarray:
        """Vacate the occupied ``slots`` and push them on the free
        stack in order (exactly one eviction per slot); returns their
        keys."""
        keys = self._unbind_batch(slots)
        top = self._free_top
        self._free_top = top + slots.size
        self._free_slots[top:self._free_top] = slots
        return keys

    def _import_keys(self, keys: Sequence[int]) -> np.ndarray:
        """The storage half of ``import_state``: bind a migration
        record's keys, in record order, into an *empty* buffer —
        the slots record-order ``insert`` calls would take (``0..n-1``
        in a fresh one) — and return those slots."""
        if len(self):
            raise RuntimeError("import_state requires an empty buffer")
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size > self.capacity:
            raise RuntimeError("buffer full; evict first")
        return self._occupy_batch(arr, False)


class FastPriorityBuffer(_SlotLayout):
    """Array-native buffer equivalent to :class:`PriorityBuffer`.

    ``_age`` is the count of evictions so far; an entry set to priority
    ``p`` at age ``a`` has effective priority ``max(0, (a + p) - _age)``.
    Entries live in the shared slot layout (:class:`_SlotLayout`), with
    their ``(expiry, seqno)`` in the per-slot vectors ``_expiry`` /
    ``_seq``.  Where an entry is stored never matters: victims follow
    ``(effective_priority, seqno)`` and seqnos are unique.  Slot
    allocation still follows the scalar protocol step for step — an
    eviction pushes its slot, a store pops one — so the bulk forms
    leave the very slot arrays the scalar loop would.

    Victim choice follows the same documented ``(effective_priority,
    seqno)`` total order as the reference, selected per *batch* instead
    of per entry: ``evict_batch(n)`` gathers every occupied slot's
    ``(expiry, seqno)`` once and computes the whole victim sequence
    with :func:`_exact_victim_sequence` — identical, victim for victim,
    to ``n`` scalar ``evict_one`` calls — and :meth:`serve_segment`
    bulk-serves a whole demand segment bit-identically to the scalar
    serving loop.  Scalar :meth:`evict_one` pops a persistent victim
    queue: one such selection buys up to ``_VICTIM_QUEUE`` exact
    evictions, so scalar-eviction workloads (the manager's 15-key chunk
    loop) run at amortised O(1) per eviction.  The eviction-order
    contract is fuzz-checked against the reference in
    ``tests/test_buffer_differential.py``, over a universe smaller than
    the fuzzed ids and over the empty one.
    """

    #: Exact Algorithm 2 semantics (victims follow the documented
    #: (effective_priority, seqno) total order).
    approximate = False

    def __init__(self, capacity: int, key_space: int = 0) -> None:
        super().__init__(capacity, key_space)
        self._age = 0
        self._next_seq = 0
        self._min_seq = 0
        self._expiry = np.zeros(capacity, dtype=np.int64)
        self._seq = np.zeros(capacity, dtype=np.int64)
        # Victim queue of :meth:`evict_one`: ``[slot, seqno]`` records,
        # or None until a scalar eviction builds it.
        self._victims: Optional[List[List[int]]] = None

    def priority_of(self, key: int) -> int:
        return max(0, int(self._expiry[self._resident_slot(key)])
                   - self._age)

    def _store(self, slot: int, priority: int, seq: int) -> None:
        """Write the entry of an occupied ``slot``."""
        self._expiry[slot] = self._age + priority
        self._seq[slot] = seq

    def insert(self, key: int, priority: int) -> None:
        key = int(key)
        slot = self._slot_for(key)
        if slot < 0:
            slot = self._occupy(key)
        self._store(slot, priority, self._next_seq)
        self._next_seq += 1

    def set_priority(self, key: int, priority: int) -> None:
        """Update priority; also refreshes recency (LRU tie-breaking)."""
        self._store(self._resident_slot(key), priority, self._next_seq)
        self._next_seq += 1

    def set_priority_batch(self, keys: Sequence[int], priority: int) -> None:
        """Scalar :meth:`set_priority` per key, in order (exact seqno
        semantics), as forward scatters — a repeated key's last
        position wins; every key must be resident (validated before
        anything is mutated)."""
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            return
        slots = self._resident_slots(arr)
        base = self._next_seq
        self._expiry[slots] = self._age + int(priority)
        self._seq[slots] = base + np.arange(arr.size)
        self._next_seq = base + int(arr.size)

    def demote(self, key: int) -> None:
        """Mark ``key`` as evict-next: priority 0, older than everything."""
        slot = self._resident_slot(key)
        self._min_seq -= 1
        self._store(slot, 0, self._min_seq)
        if self._victims is not None:
            self._push_demoted([slot], self._min_seq)

    def demote_batch(self, keys: Sequence[int]) -> None:
        """Scalar :meth:`demote` per key, in order (reverse-demote
        eviction order preserved), as one scatter of the equivalent
        descending seqnos."""
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            return
        slots = self._resident_slots(arr)
        base = self._min_seq
        self._expiry[slots] = self._age
        self._seq[slots] = base - 1 - np.arange(arr.size)
        self._min_seq = base - int(arr.size)
        if self._victims is not None:
            self._push_demoted(slots.tolist(), base - 1)

    def _gather_entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All resident entries as (slots, expiry, seqno) arrays — the
        candidate pool for victim selection, in slot order."""
        slots = np.flatnonzero(self._valid)
        return slots, self._expiry[slots], self._seq[slots]

    def export_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """The migration record: resident ``(keys, priorities)`` in
        ascending seqno order, priorities *effective* (aging applied,
        floored at 0; module docstring)."""
        slots, expiry, seq = self._gather_entries()
        order = np.argsort(seq)
        return (self._key[slots[order]],
                np.maximum(0, expiry[order] - self._age))

    def import_state(self, keys: Sequence[int],
                     priorities: Sequence[int]) -> None:
        """Load a migration record into an *empty* buffer: entry ``i``
        draws the ``i``-th fresh seqno (module docstring)."""
        slots = self._import_keys(keys)
        base = self._next_seq
        self._expiry[slots] = (self._age
                               + np.asarray(priorities, dtype=np.int64))
        self._seq[slots] = np.arange(base, base + slots.size)
        self._next_seq = base + int(slots.size)
        # The old queue holds only records of evicted entries.
        self._victims = None

    def evict_batch(self, n: int) -> List[int]:
        """Evict ``n`` entries; exactly ``n`` consecutive
        :meth:`evict_one` calls, computed as one vectorized selection
        (:func:`_exact_victim_sequence`)."""
        count = int(n)
        if count <= 0:
            return []
        if count > len(self):
            raise RuntimeError("cannot evict more entries than resident")
        slots, expiry, seq = self._gather_entries()
        victims = self._release(
            slots[_exact_victim_sequence(expiry, seq, self._age, count)])
        self._age += count
        return victims.tolist()

    def evict_one(self) -> int:
        """Exact scalar eviction, amortised O(1): pop the victim queue.

        The queue is a stack of ``[slot, seqno]`` records, seqnos
        descending so the smallest sits on top.  A record is *valid*
        while its slot is occupied under that very seqno.  Two
        invariants make the topmost valid record the
        ``(effective_priority, seqno)`` minimum, i.e. the reference
        victim: a valid record's entry holds effective priority zero,
        and every resident entry without a valid record has a seqno
        above every record's.  Every operation keeps them: a store
        draws a fresh seqno above all others (the entry's old record
        goes stale), an eviction vacates the slot, aging only ripens
        live entries — which hold no record — and a demote draws a
        seqno *below* all others, so its record goes on top
        (:meth:`_push_demoted`).  Stale records are skipped as they
        surface; a drained queue is rebuilt (:meth:`_refill_victims`).
        """
        if not len(self):
            raise RuntimeError("cannot evict from an empty buffer")
        valid, seq_at = self._valid, self._seq
        while True:
            if not self._victims:
                slot = self._refill_victims()
                if slot is not None:
                    break
            slot, seq = self._victims.pop()
            if valid[slot] and seq_at[slot] == seq:
                break
        victim = self._unbind(slot)
        self._free_slots[self._free_top] = slot
        self._free_top += 1
        self._age += 1
        return victim

    def _refill_victims(self) -> Optional[int]:
        """Rebuild the victim queue from one gather of the resident
        entries: the ``_VICTIM_QUEUE`` smallest-seqno priority-zero
        entries whose seqno lies below every live entry's, so that no
        live entry ripening later can preempt a record.  When there is
        no such entry (priorities far above the eviction count) the
        queue stays unbuilt and the victim's slot is returned instead —
        :func:`_exact_victim_sequence`'s choice, off the same gather."""
        slots, expiry, seq = self._gather_entries()
        zero = expiry <= self._age
        pool = np.flatnonzero(zero)
        if 0 < pool.size < zero.size:
            pool = pool[seq[pool] < seq[~zero].min()]
        if not pool.size:
            self._victims = None
            order = _exact_victim_sequence(expiry, seq, self._age, 1)
            return int(slots[order[0]])
        if pool.size > _VICTIM_QUEUE:
            pool = pool[np.argpartition(seq[pool], _VICTIM_QUEUE - 1)
                        [:_VICTIM_QUEUE]]
        pool = pool[np.argsort(seq[pool])[::-1]]
        # tolist() allocates the stack once, at its final size.
        self._victims = np.column_stack((slots[pool], seq[pool])).tolist()
        return None

    def _push_demoted(self, slots: List[int], first_seq: int) -> None:
        """Record demotes on the live victim queue: the entries of
        ``slots`` drew the seqnos ``first_seq, first_seq - 1, ...``,
        each below every seqno before it, so pushing them in order
        keeps the smallest on top (a repeated entry's earlier records
        are simply stale).  Bulk evictions never pop, so the queue is
        bounded here: past ``_VICTIM_QUEUE + capacity`` records it is
        dropped — demotes cost nothing again — and the next scalar
        eviction rebuilds."""
        if (len(self._victims) + len(slots)
                > _VICTIM_QUEUE + self.capacity):
            self._victims = None
            return
        self._victims.extend(
            [slot, first_seq - step] for step, slot in enumerate(slots))

    def serve_chunks(self, dense: np.ndarray, length: int,
                     bits_all: Optional[np.ndarray],
                     preds_all: Optional[np.ndarray], speed: int,
                     budget: int, prefetched: set
                     ) -> Tuple[np.ndarray, int, int, int]:
        """Algorithm 1 for a whole block of ``length``-key model chunks
        in one scalar pass — state for state
        ``RecMGManager.run``'s per-chunk triple, its oracle
        (``tests/test_chunk_pass.py``), without that loop's ~35 method
        calls per chunk.  Per chunk: the demand accesses (hit: refresh
        at ``speed``; miss: evict when full, insert at ``speed``), then
        row ``i`` of ``bits_all`` as caching bits (resident keys only,
        a repeated key's last bit wins; friendly to
        ``speed + 1``, averse demoted, each class in positional order),
        then row ``i`` of ``preds_all`` as prefetches (non-resident
        ones, at most ``budget``, tagged in ``prefetched``; a demand
        hit consumes its key's tag, an eviction drops it).  Either
        array may be None.  Each key is looked up once through the
        ``id -> slot`` map and its slot's entry written directly; the
        victim queue of :meth:`evict_one` is popped inline, a new key
        taking its victim's slot (the scalar pop after the push), and
        the counters live in locals, written back even when a
        malformed input raises mid-pass; past a stale top record or a
        drained queue, :meth:`evict_one` carries on.  Returns the
        positions of the demand misses, the prefetch hits consumed and
        the evictions — the manager's per-engine result contract — plus
        the prefetches issued.
        """
        keys = np.asarray(dense, dtype=np.int64).tolist()
        bits = None if bits_all is None else np.asarray(bits_all).tolist()
        preds = None if preds_all is None else np.asarray(preds_all).tolist()
        slot_for, bind, unbind = self._slot_for, self._bind, self._unbind
        valid, expiry_at, seq_at = self._valid, self._expiry, self._seq
        free_slots = self._free_slots
        queue_bound = _VICTIM_QUEUE + self.capacity
        age, top = self._age, self._free_top
        next_seq, min_seq = self._next_seq, self._min_seq
        prefetch_hits = evictions = issued = 0
        missed: List[int] = []

        def admit(key: int) -> None:
            """Insert the non-resident ``key`` at ``speed``, evicting
            first when full."""
            nonlocal age, top, next_seq, evictions
            if top:
                top -= 1
                slot = free_slots.item(top)
            else:
                slot = -1
                if self._victims:
                    slot, seq = self._victims.pop()
                    if not (valid[slot] and seq_at[slot] == seq):
                        slot = -1
                if slot >= 0:
                    victim = unbind(slot)
                else:
                    # The top record was stale, or there is none:
                    # evict_one carries on — skips the stale ones,
                    # rebuilds a drained queue — and pushes the slot
                    # it frees, which the insert pops right back.
                    self._age, self._free_top = age, top
                    victim = self.evict_one()
                    slot = free_slots.item(top)
                prefetched.discard(victim)
                age += 1
                evictions += 1
            bind(key, slot)
            expiry_at[slot] = age + speed
            seq_at[slot] = next_seq
            next_seq += 1

        try:
            for index in range(len(keys) // length):
                start = index * length
                chunk = keys[start:start + length]
                for position, key in enumerate(chunk, start):
                    slot = slot_for(key)
                    if slot >= 0:
                        if key in prefetched:
                            prefetched.discard(key)
                            prefetch_hits += 1
                        expiry_at[slot] = age + speed
                        seq_at[slot] = next_seq
                        next_seq += 1
                    else:
                        missed.append(position)
                        admit(key)
                if bits is not None:
                    last: Dict[int, int] = {}
                    for key, bit in zip(chunk, bits[index]):
                        last.pop(key, None)  # re-insert: last position
                        last[key] = bit
                    for key, bit in last.items():
                        slot = slot_for(key)
                        if slot < 0:
                            continue
                        if bit:
                            expiry_at[slot] = age + speed + 1
                            seq_at[slot] = next_seq
                            next_seq += 1
                            continue
                        min_seq -= 1
                        expiry_at[slot] = age
                        seq_at[slot] = min_seq
                        victims = self._victims
                        if victims is not None:
                            # _push_demoted's bound, one entry at a time.
                            if len(victims) >= queue_bound:
                                self._victims = None
                            else:
                                victims.append([slot, min_seq])
                if preds is not None:
                    room = budget
                    for key in preds[index]:
                        if room <= 0:
                            break
                        if slot_for(key) >= 0:
                            continue
                        room -= 1
                        issued += 1
                        admit(key)
                        prefetched.add(key)
        finally:
            self._age, self._free_top = age, top
            self._next_seq, self._min_seq = next_seq, min_seq
        return (np.asarray(missed, dtype=np.int64), prefetch_hits,
                evictions, issued)

    def serve_segment(self, segment: np.ndarray, priority: int
                      ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Exact demand-serve of a whole segment.

        State- and decision-equivalent to the scalar serving loop::

            for key in segment:
                if key in buffer: buffer.set_priority(key, priority)
                else:
                    if buffer.is_full: buffer.evict_one()
                    buffer.insert(key, priority)

        Returns ``(served, miss_positions, victims)`` — the one result
        shape every backend and ``ShardedBuffer`` share: ``served`` is
        always ``len(segment)``, then the ascending positions of the misses
        and the victim keys in eviction order (an int64 array).  A
        victim may be a key of the segment: evicted before its first
        touch, that touch misses (a *re-miss*); evicted after it, its
        next touch does.

        Segments of at most :data:`SCALAR_FALLBACK` keys run that
        scalar loop itself.  Longer ones take the bulk pass
        (:meth:`_serve_bulk`), which serves the whole segment in one
        go unless one of its rare trims ends the served prefix; the
        call then finishes the remainder the same way — a short
        remainder, or one whose first access the pass cannot serve,
        through the scalar loop.  Serving a segment equals serving its
        pieces in sequence, so the result is exact either way.
        """
        return _serve_in_prefixes(self._serve_prefix,
                                  np.asarray(segment, dtype=np.int64),
                                  priority)

    def _serve_prefix(self, arr: np.ndarray, priority: int
                      ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Serve a leading piece (at least one access) of a non-empty
        ``arr``: the bulk pass when ``arr`` is past the crossover and
        the pass serves anything, else the scalar loop over (at most)
        the crossover's worth of keys."""
        if arr.size > SCALAR_FALLBACK:
            result = self._serve_bulk(arr, priority)
            if result[0]:
                return result
        return _serve_scalar(self, arr[:SCALAR_FALLBACK], priority)

    def _serve_bulk(self, arr: np.ndarray, priority: int
                    ) -> Tuple[int, np.ndarray, np.ndarray]:
        """The bulk pass under :meth:`serve_segment`: one membership
        gather, one victim selection over the priority-zero pool —
        iterated to a fixed point when victims re-miss later in the
        segment — and one bulk store.  Returns the
        :meth:`serve_segment` result of the longest prefix it can
        serve: the whole segment unless one of the rare trims below
        applies, and 0 (nothing mutated) when not even the first
        access can be bulk-served.

        Why it is exact.  Every in-segment store uses the same
        ``priority`` and draws a seqno above every pre-segment seqno,
        and eviction ``j`` fires right before the ``(free + 1 + j)``-th
        miss, at age ``_age + j``, however hits interleave.  So while
        the *pool* — the entries at effective priority zero at the
        start — still holds an entry the segment has not touched yet,
        the smallest-seqno such entry is the scalar loop's victim: it
        beats every touched or stored entry (smaller seqno) and every
        live one (zero priority).  The victims are then a greedy walk
        over the pool in seqno order, where a candidate is eligible for
        eviction ``j`` while fewer than ``j + 1`` evictions fire before
        its first touch.  That count depends on the misses, and the
        misses on the victims: a miss set ``M`` fixes the evictions,
        the walk picks victims ``V(M)``, and those imply the misses
        ``F | touches(V(M))`` (``F``: first touches of keys not
        resident at the start).  The scalar loop's misses are a fixed
        point of that map — and every fixed point is a consistent run
        of the deterministic scalar loop, so there is only one.  The
        map is monotone: added misses only add eviction positions, and
        the greedy then has evicted a superset at every position
        (induction over the positions: a victim of the smaller set is
        either gone already or still the smallest eligible entry).
        Iterating from ``F`` therefore climbs to the least fixed point,
        the scalar loop's misses, adding at least one re-miss per round
        until nothing changes.  Each key misses at most once in the
        pass (a victim is evicted before its first touch, and no
        stored key is evicted), so the misses take the free slots in
        pop order and then each victim's slot — the scalar loop's
        push-then-pop, slot for slot.

        The trims that remain, each rare: a segment holding more
        distinct keys than the buffer has slots is served up to the
        first first-touch that no longer fits; and the prefix ends
        right before the first eviction the pool cannot answer —
        because it ran dry (the victim would be a mid-segment release
        or a live entry), or because a live entry with an older seqno
        than a chosen victim ripens mid-call and could preempt it.  The
        walk is prefix-stable, so a prefix of the fixed point is the
        fixed point of the prefix: trimming recomputes nothing.
        """
        length = int(arr.size)
        empty = np.zeros(0, dtype=np.int64)
        if length == 0:
            return 0, empty, empty
        age0 = self._age
        capacity = self.capacity
        slots, dense = self._locate(arr)
        first_idx = np.flatnonzero(self._first_touches(arr, dense))
        if first_idx.size > capacity:
            # Wider than the buffer: trim to the longest prefix whose
            # distinct keys fit, so bulk serving still covers everything
            # up to the overflowing first touch.
            length = int(first_idx[capacity])
            arr = arr[:length]
            first_idx = first_idx[:capacity]
        held = slots[first_idx] >= 0
        fresh = first_idx[~held]
        misses = fresh
        free = self._free_top
        evict_positions = misses[free:]
        victims = victim_slots = empty
        if evict_positions.size:
            entries, expiry, seq = self._gather_entries()
            pool = np.flatnonzero(expiry <= age0)
            # Each pool entry's first in-segment touch (``length``:
            # none), looked up by the slot it held at the start.
            touch_of = np.full(capacity, length, dtype=np.int64)
            touch_of[slots[first_idx[held]]] = first_idx[held]
            touch = touch_of[entries[pool]]
            # The walk takes one pool entry per eviction or per skipped
            # (touched) candidate, and a re-miss turns a skip into one
            # more eviction — so only the smallest (evictions + touched)
            # seqnos can matter: partition those out before the sort.
            depth = min(int(pool.size), int(evict_positions.size)
                        + int(np.count_nonzero(touch < length)))
            if depth < pool.size:
                part = np.argpartition(seq[pool], depth - 1)[:depth]
                pool, touch = pool[part], touch[part]
            order = np.argsort(seq[pool])
            pool, touch = pool[order], touch[order]
            cand = np.flatnonzero(touch < length)
            cand_touch = touch[cand]
            remisses = empty
            while True:
                count = int(evict_positions.size)
                # Evictions firing before each touched candidate's touch:
                # it is eligible for steps below that.  Untouched and
                # late-touched candidates are assigned wholesale between
                # the protected ones.
                level = np.searchsorted(evict_positions, cand_touch)
                guarded = level < count
                assigned = cursor = 0
                cut = None
                skipped: List[int] = []
                for position, bound in zip(cand[guarded].tolist(),
                                           level[guarded].tolist()):
                    gap = position - cursor
                    if assigned + gap >= count:
                        cut = cursor + count - assigned
                        break
                    assigned += gap
                    if bound > assigned:
                        assigned += 1
                        if assigned == count:
                            cut = position + 1
                            break
                    else:
                        skipped.append(position)
                    cursor = position + 1
                if cut is None:
                    # Fewer than ``count`` when the pool runs dry.
                    cut = min(depth, cursor + count - assigned)
                taken = np.ones(cut, dtype=bool)
                taken[skipped] = False
                picked = cand < cut
                picked[picked] = taken[cand[picked]]
                found = cand_touch[picked]
                # Monotone: the re-misses only grow, so an unchanged
                # count is the fixed point.
                if found.size == remisses.size:
                    break
                remisses = found
                misses = np.sort(np.concatenate((fresh, remisses)))
                evict_positions = misses[free:]
            chosen = pool[np.flatnonzero(taken)]
            trim = length
            if chosen.size < count:
                # The pool ran dry: stop before the first eviction it
                # cannot answer.
                trim = int(evict_positions[chosen.size])
            if chosen.size:
                # A still-live entry whose priority ripens mid-call can
                # preempt with an older seqno; stop before the first
                # eviction it could reach (conservative, rare).
                late = (expiry > age0) & (expiry <= age0 + count - 1)
                if late.any():
                    inter = late & (seq < seq[chosen[-1]])
                    if inter.any():
                        release = int((expiry[inter] - age0).min())
                        trim = min(trim, int(evict_positions[release]))
            if trim < length:
                if trim == 0:
                    return 0, empty, empty
                length = trim
                arr = arr[:length]
                misses = misses[:np.searchsorted(misses, length)]
                evict_positions = evict_positions[
                    :np.searchsorted(evict_positions, length)]
            n_evict = int(evict_positions.size)
            if n_evict:
                victim_slots = entries[chosen[:n_evict]]
                victims = self._unbind_batch(victim_slots)
                self._age += n_evict
        new_slots = self._pop_free(int(misses.size) - victim_slots.size)
        self._bind_batch(arr[misses], np.concatenate((new_slots,
                                                      victim_slots)), dense)
        # Every key of ``arr`` is resident now: forward scatters over
        # its slots leave each entry at its key's *last* position
        # (duplicate indices: last write wins).
        final = self._locate(arr)[0]
        base = self._next_seq
        self._seq[final] = base + np.arange(length)
        if victims.size:
            indicator = np.zeros(length, dtype=np.int64)
            indicator[evict_positions] = 1
            self._expiry[final] = age0 + np.cumsum(indicator) + int(priority)
        else:
            self._expiry[final] = age0 + int(priority)
        self._next_seq = base + length
        return length, misses, victims


class ClockBuffer(_SlotLayout):
    """Array-backed approximate-priority buffer (CLOCK sweep).

    Entries live in the shared slot layout (:class:`_SlotLayout`),
    with a ``priority`` per slot, turned into a circular list by a hand
    position.  ``insert`` fills a free slot, ``set_priority`` writes the
    slot's priority (the multi-bit analogue of CLOCK's reference bit),
    ``demote`` zeroes it; the batch forms are slot gathers and
    scatters.

    The batched sweep is the point of the backend
    (:meth:`serve_segment`'s protected reclaim, :meth:`evict_batch`):
    one call reclaims many slots by harvesting priority-zero slots in
    hand order and, whenever a sweep runs dry, aging *every* survivor
    by the minimum surviving priority in a single vectorized
    subtraction.  Aging therefore happens once per full sweep instead
    of once per eviction — the approximation that lets a whole batch of
    evictions cost O(capacity) numpy work rather than O(batch · log n)
    heap pops — and collapsing the aging passes into one subtraction
    yields provably identical victims (intermediate −1 passes harvest
    nothing).  Within one call the victims come out in nondecreasing
    pre-call priority, and no victim has a higher pre-call priority
    than any survivor; among equal priorities the hand position (not
    insertion order) breaks ties.  Those invariants are fuzz-checked in
    ``tests/test_buffer_differential.py``.
    """

    #: Victim order approximates Algorithm 2 (hand-order tie-breaking,
    #: per-sweep aging); the manager must not expect exact-backend
    #: victim equivalence.
    approximate = True

    def __init__(self, capacity: int, key_space: int = 0) -> None:
        super().__init__(capacity, key_space)
        self._prio = np.zeros(capacity, dtype=np.int64)
        self._hand = 0

    def priority_of(self, key: int) -> int:
        return int(self._prio[self._resident_slot(key)])

    def insert(self, key: int, priority: int) -> None:
        """Insert (or refresh) ``key``; caller must ensure space.

        Priorities clamp to >= 0: the sweep harvests exactly the
        priority-zero class, so a negative priority (meaningful to the
        exact backends' seqno order) would otherwise never ripen.
        """
        key = int(key)
        slot = self._slot_for(key)
        if slot < 0:
            slot = self._occupy(key)
        self._prio[slot] = max(0, priority)

    def set_priority(self, key: int, priority: int) -> None:
        """Update priority, clamped to >= 0 (recency is approximated by
        the hand)."""
        self._prio[self._resident_slot(key)] = max(0, priority)

    def set_priority_batch(self, keys: Sequence[int], priority: int) -> None:
        """Bulk :meth:`set_priority`: one slot gather and one scatter;
        every key must be resident (validated before anything is
        mutated)."""
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            return
        self._prio[self._resident_slots(arr)] = max(0, int(priority))

    def demote(self, key: int) -> None:
        """Mark ``key`` as evict-soon: priority 0, reclaimed by the
        next sweep to reach its slot (hand order, not exact order)."""
        self.set_priority(key, 0)

    def demote_batch(self, keys: Sequence[int]) -> None:
        """Bulk :meth:`demote` (priority-zero scatter)."""
        self.set_priority_batch(keys, 0)

    def serve_segment(self, segment: np.ndarray, priority: int
                      ) -> Tuple[int, np.ndarray, np.ndarray]:
        """Demand-serve a whole segment in array passes: classify,
        *protected* reclaim, store.

        Each pass is state- and decision-equivalent to the composed
        protocol it replaced — ``contains_batch``, count the distinct
        non-resident keys, ``evict_batch(needed, avoid=piece)``, then
        ``insert`` each key of the piece in order — with one slot
        gather doing the work of all those lookups (fuzz-pinned in
        ``tests/test_buffer_differential.py``).  Protection means no
        victim is a key of the pass's piece: the clock hand skips over
        them, so no key is evicted moments before its own refresh
        (which is why the clock hit rate sits *above* the exact
        backends on looping workloads).

        One pass serves the whole segment unless that holds more
        distinct keys than the buffer has slots and so cannot be made
        eviction-free.  Then each pass takes the longest piece with at
        most *half* the slots' worth of distinct keys, until the
        remainder fits: a pass reclaims at most half the buffer, by
        priority, so the entries the caching model ranks high survive
        it.  A piece as wide as the buffer would sweep out every entry
        outside it whatever its priority, and the model's lift at
        small capacities would vanish (pinned by
        ``test_model_guided_low_capacity_lift`` in
        ``benchmarks/test_perf_hotpaths.py``).

        Returns ``(served, miss_positions, victims)`` — the result
        shape of :meth:`FastPriorityBuffer.serve_segment`: ``served``
        is always ``len(segment)``, then the ascending miss positions
        (each pass's distinct non-resident keys, at their first
        occurrence in that pass) and the victim keys in eviction order.
        """
        return _serve_in_prefixes(self._serve_prefix,
                                  np.asarray(segment, dtype=np.int64),
                                  priority)

    def _serve_prefix(self, arr: np.ndarray, priority: int
                      ) -> Tuple[int, np.ndarray, np.ndarray]:
        """One :meth:`serve_segment` pass over the leading piece of
        ``arr`` (at least one access of a non-empty ``arr``)."""
        empty = np.zeros(0, dtype=np.int64)
        if arr.size == 0:
            return 0, empty, empty
        priority = max(0, int(priority))
        slots, dense = self._locate(arr)
        resident = slots >= 0
        if resident.all():
            self._prio[slots] = priority
            return arr.size, empty, empty
        first = self._first_touches(arr, dense)
        if (arr.size > self.capacity
                and int(np.count_nonzero(first)) > self.capacity):
            # Stop before the first touch past half the slots.
            cut = int(np.flatnonzero(first)[max(1, self.capacity // 2)])
            arr, slots = arr[:cut], slots[:cut]
            first, resident = first[:cut], resident[:cut]
        miss_positions = np.flatnonzero(first & ~resident)
        slots = slots[resident]
        needed = miss_positions.size - self._free_top
        victims = empty
        if needed > 0:
            eligible = self._valid.copy()
            eligible[slots] = False
            victims = self._sweep(needed, eligible)
        self._prio[self._occupy_batch(arr[miss_positions],
                                      dense)] = priority
        self._prio[slots] = priority
        return arr.size, miss_positions, victims

    def export_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """The migration record: resident ``(keys, priorities)`` in
        circular hand order, from the slot the sweep examines next
        (module docstring)."""
        slots = np.flatnonzero(self._valid)
        split = int(np.searchsorted(slots, self._hand))
        ordered = np.concatenate((slots[split:], slots[:split]))
        return self._key[ordered].copy(), self._prio[ordered].copy()

    def import_state(self, keys: Sequence[int],
                     priorities: Sequence[int]) -> None:
        """Load a migration record into an *empty* buffer: in a fresh
        one entry ``i`` takes slot ``i`` and the hand starts at 0, so
        the sweep visits the entries in the order given (module
        docstring)."""
        self._prio[self._import_keys(keys)] = np.maximum(
            np.asarray(priorities, dtype=np.int64), 0)

    def evict_one(self) -> int:
        if not len(self):
            raise RuntimeError("cannot evict from an empty buffer")
        return self.evict_batch(1)[0]

    def evict_batch(self, n: int,
                    avoid: Optional[Sequence[int]] = None) -> List[int]:
        """Reclaim ``n`` slots with a batched clock sweep; returns the
        victim keys in eviction order (see class docstring for the
        ordering guarantees).

        ``avoid`` (optional) *protects* the given keys: the sweep
        harvests and ages as if their slots were not there, so none of
        them is ever a victim — the clock analogue of the exact
        engine's protection-aware walk over its priority-zero pool
        (:meth:`FastPriorityBuffer.serve_segment`), and the
        reclaim :meth:`serve_segment` runs for the segment it serves.
        At least ``n`` non-protected entries must be resident
        (``RuntimeError`` otherwise, before anything is mutated).
        """
        count = int(n)
        if count <= 0:
            return []
        eligible = self._valid
        if avoid is not None:
            eligible = eligible.copy()
            arr = np.asarray(avoid, dtype=np.int64)
            if arr.size:
                slots = self._locate(arr)[0]
                eligible[slots[slots >= 0]] = False
        return self._sweep(count, eligible).tolist()

    def _sweep(self, count: int, eligible: np.ndarray) -> np.ndarray:
        """The batched clock sweep under :meth:`evict_batch` and
        :meth:`serve_segment`: evict ``count`` (> 0) entries among the
        ``eligible`` slots — ``_valid`` itself, or a copy with the
        protected slots cleared, which the sweep consumes — and return
        their keys in eviction order."""
        valid = self._valid
        prio = self._prio
        if count > int(np.count_nonzero(eligible)):
            raise RuntimeError("cannot evict more entries than resident")
        victims: List[np.ndarray] = []
        while count:
            zeros = np.flatnonzero(eligible & (prio == 0))
            if zeros.size:
                # Circular hand order: slots at/after the hand first.
                split = int(np.searchsorted(zeros, self._hand))
                take = np.concatenate((zeros[split:], zeros[:split]))[:count]
                if eligible is not valid:
                    eligible[take] = False
                victims.append(self._release(take))
                count -= int(take.size)
                self._hand = int(take[-1] + 1) % self.capacity
            if count:
                # Sweep ran dry: every eligible survivor holds a
                # positive priority (all zeros were consumed), and −1
                # passes that harvest nothing only delay the inevitable
                # — age by the minimum surviving priority in a single
                # vectorized subtraction.  Victims are identical to
                # repeated −1 sweeps; the cost drops from
                # O(min_prio · capacity) to O(capacity).  Aging applies
                # to every valid slot (protected ones age too, exactly
                # as they would if the sweep passed over them).
                step = prio[eligible].min()
                np.subtract(prio, step, out=prio, where=valid)
                if eligible is not valid:
                    # Protected slots can sit below the eligible
                    # minimum; priorities are floored at zero.
                    np.maximum(prio, 0, out=prio)
        return victims[0] if len(victims) == 1 else np.concatenate(victims)


#: Registry behind the ``buffer_impl`` knob (``RecMGConfig``, dlrm
#: inference): exact reference, exact fast, approximate clock.
BUFFER_IMPLS = {
    "reference": PriorityBuffer,
    "fast": FastPriorityBuffer,
    "clock": ClockBuffer,
}


def make_buffer(impl: str, capacity: int,
                key_space: Optional[int] = None):
    """Instantiate a buffer backend by registry name.

    ``key_space`` (dense-id universe size) is forwarded to every
    backend — the universe of the ``id -> slot`` map of the clock and
    fast backends' shared slot layout, recorded only on the reference
    one;
    ``None`` is the empty universe.
    Sharding is :class:`~repro.cache.sharding.ShardedBuffer`'s, which
    builds one backend per shard here.
    """
    try:
        cls = BUFFER_IMPLS[impl]
    except KeyError:
        raise ValueError(
            f"unknown buffer_impl {impl!r}; choose from "
            f"{sorted(BUFFER_IMPLS)}") from None
    return cls(capacity, key_space=key_space or 0)

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
``repro.dlrm.inference.BufferClassifier`` and ``repro.prefetch.harness``
their own ``buffer_impl=`` argument.
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
  dense ``id -> (expiry, seqno)`` vectors plus a
  :class:`~repro.cache.residency.ResidencyIndex` bitmap (ids outside
  the universe spill to a side dict).  The bulk protocol runs as
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
  numpy slot arrays (key / priority / valid) swept by a clock hand.
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
  victim order for array-speed eviction.  Membership is a dense
  ``id → slot`` vector plus a
  :class:`repro.cache.residency.ResidencyIndex` bitmap, so that pass
  and bulk membership run as numpy gathers and scatters with no sort
  and no per-key dict traffic (ids outside the universe spill to a
  side dict, preserving correctness for unseen keys).

**Id universe.**  Every backend keeps its residency bitmap, and the
fast and clock backends their per-id state, over the ids of
``[0, key_space)`` — the paper treats each embedding-vector index as a
memory address, and the manager fits that universe from the encoder's
vocabulary.  ``key_space=0`` (the default) is the empty universe: every
id, raw packed keys included, takes the spillover path, which is exact
for any int64 key and differs from an in-universe id only in speed.

**Bulk residency / priority protocol.**  All backends answer
``contains_batch(keys) -> bool[:]`` (residency of a whole segment in
one call — a bitmap gather, spillover ids answered by a set lookup)
and accept ``set_priority_batch(keys, priority)`` and
``demote_batch(keys)``: the caching-bit writes of
``serving.priorities.apply_caching_bits`` past its scalar crossover.
On the exact backends the batch forms are *defined* as the scalar
operations applied in order (seqno semantics preserved); on the fast
backend ``set_priority_batch`` / ``demote_batch`` are one
last-occurrence ``np.unique`` plus two scatters (spillover ids go
through the side dict in the same calls).  Serving itself goes through
``serve_segment``.

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
the empty one — through randomized op sequences, checking bulk/scalar
residency agreement after every operation.

**Sharding.**  The manager serves through a
:class:`~repro.cache.sharding.ShardedBuffer` of one or more of these
backends, each over its shard's compressed universe; with one shard it
is the identity.  See :mod:`repro.cache.sharding` for the routing,
compression and per-shard eviction contract.

Each backend also speaks a two-method **state migration** protocol —
``export_state()`` / ``import_state(...)`` — used by
``ShardedBuffer.rebalance`` to move resident entries between shard
backends when the capacity split (and, under the contiguous router,
the partition itself) changes at runtime.  The exact backends carry
``(key, effective_priority, seqno)`` triples (future victim choices
depend only on the priorities and the *relative* seqno order, so
re-ranked seqnos preserve eviction order); the clock backend carries
``(key, priority)`` pairs in circular hand order (slot assignment on
import preserves the sweep sequence).  See "Rebalancing" in
:mod:`repro.cache.sharding` for the full migration contract.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .residency import ResidencyIndex

#: Depth of the dense ``fast`` buffer's victim queue: one O(resident)
#: selection buys up to this many scalar evictions.
_VICTIM_QUEUE = 1024


def _as_key_list(keys: Sequence[int]) -> List[int]:
    return (keys.tolist() if isinstance(keys, np.ndarray)
            else [int(key) for key in keys])


def _last_occurrence(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct keys of ``arr`` (sorted) and each one's last-occurrence
    position — the store that survives when scalar per-key operations
    are applied in order."""
    uniq, first_rev = np.unique(arr[::-1], return_index=True)
    return uniq, arr.size - 1 - first_rev


def _first_touch_mask(scratch: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """Sort-free first-occurrence mask of ``arr`` over a persistent
    ``id -> position`` scratch vector covering every id in ``arr``.
    The reversed scatter leaves each key's *first* position (duplicate
    indices: last write wins — pinned by a regression test), so the
    positions agreeing with the map are the first touches.  The scratch
    is never cleared: afterwards it holds each ``arr`` key's first
    position, and stale values for every other id."""
    idx = np.arange(arr.size, dtype=scratch.dtype)
    scratch[arr[::-1]] = idx[::-1]
    return scratch[arr] == idx


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

    A :class:`ResidencyIndex` over ``[0, key_space)`` mirrors the entry
    dict so ``contains_batch`` answers from the bitmap (one gather);
    without a universe (``key_space=0``, the default) every key goes to
    the index's spillover set.  Everything else — including the O(n)
    audit eviction — runs off the entry dicts.
    """

    #: Exact Algorithm 2 semantics (victims follow the documented
    #: (effective_priority, seqno) total order).
    approximate = False

    def __init__(self, capacity: int, key_space: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._priority: Dict[int, int] = {}
        self._seqno: Dict[int, int] = {}
        self._next_seq = 0
        self._min_seq = 0
        self.residency = ResidencyIndex(key_space)

    def __contains__(self, key: int) -> bool:
        return key in self._priority

    def __len__(self) -> int:
        return len(self._priority)

    def keys(self) -> Iterator[int]:
        return iter(self._priority)

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Residency of each key as a boolean array (one bitmap
        gather)."""
        return self.residency.contains_batch(np.asarray(keys, dtype=np.int64))

    def priority_of(self, key: int) -> int:
        return self._priority[key]

    @property
    def is_full(self) -> bool:
        return len(self._priority) >= self.capacity

    @property
    def key_space(self) -> int:
        """Dense-id universe this backend was built over (0 without
        one).  Sharded construction asserts this against the router's
        per-shard universe — see the translation boundary in
        :mod:`repro.cache.sharding`."""
        return self.residency.key_space

    def per_id_nbytes(self) -> int:
        """Bytes of state that scale with ``key_space`` (the residency
        mirror's bitmap; the entry dicts scale with occupancy)."""
        return self.residency.nbytes

    def insert(self, key: int, priority: int) -> None:
        """Insert (or refresh) ``key``; caller must ensure space."""
        if key not in self._priority and self.is_full:
            raise RuntimeError("buffer full; evict first")
        self._priority[key] = priority
        self._seqno[key] = self._next_seq
        self._next_seq += 1
        self.residency.add(key)

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

    def export_state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All resident entries as ``(keys, priority, seqno)`` arrays
        (order unspecified) — the export half of the shard-rebalancing
        migration protocol (see "Rebalancing" in
        :mod:`repro.cache.sharding`)."""
        count = len(self._priority)
        keys = np.fromiter(self._priority, dtype=np.int64, count=count)
        prio = np.fromiter((self._priority[k] for k in keys.tolist()),
                           dtype=np.int64, count=count)
        seq = np.fromiter((self._seqno[k] for k in keys.tolist()),
                          dtype=np.int64, count=count)
        return keys, prio, seq

    def import_state(self, keys: Sequence[int], priorities: Sequence[int],
                     seqnos: Sequence[int]) -> None:
        """Load exported entries into an *empty* buffer verbatim.

        Keys must be unique and fit the capacity; seqnos must be unique
        per entry.  Future victim choices depend only on the priorities
        and the relative seqno order, so a caller may re-rank seqnos
        (e.g. to ``0..n-1``) without changing eviction behavior.
        """
        if len(self._priority):
            raise RuntimeError("import_state requires an empty buffer")
        keys_arr = np.asarray(keys, dtype=np.int64)
        prio_arr = np.asarray(priorities, dtype=np.int64)
        seq_arr = np.asarray(seqnos, dtype=np.int64)
        if keys_arr.size > self.capacity:
            raise RuntimeError("buffer full; evict first")
        for key, p, s in zip(keys_arr.tolist(), prio_arr.tolist(),
                             seq_arr.tolist()):
            self._priority[key] = p
            self._seqno[key] = s
            self.residency.add(key)
        if keys_arr.size:
            self._next_seq = max(self._next_seq, int(seq_arr.max()) + 1)
            self._min_seq = min(self._min_seq, int(seq_arr.min()))

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
        self.residency.discard(victim)
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


class FastPriorityBuffer:
    """Array-native buffer equivalent to :class:`PriorityBuffer`.

    ``_age`` is the count of evictions so far; an entry set to priority
    ``p`` at age ``a`` has effective priority ``max(0, (a + p) - _age)``.
    Entries live in dense ``id -> expiry`` / ``id -> seqno`` vectors
    over ``[0, key_space)`` plus a
    :class:`~repro.cache.residency.ResidencyIndex` bitmap; ids outside
    the universe (every id when ``key_space=0``) spill to a side dict
    keyed by id, holding the same ``(expiry, seqno)`` pair.

    Victim choice follows the same documented ``(effective_priority,
    seqno)`` total order as the reference, selected per *batch* instead
    of per entry: ``evict_batch(n)`` gathers every resident ``(expiry,
    seqno)`` once and computes the whole victim sequence with
    :func:`_exact_victim_sequence` — identical, victim for victim, to
    ``n`` scalar ``evict_one`` calls — and :meth:`serve_segment`
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
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._age = 0
        self._next_seq = 0
        self._min_seq = 0
        self.residency = ResidencyIndex(key_space)
        self._key_space = self.residency.key_space
        self._expiry_of = np.zeros(self._key_space, dtype=np.int64)
        self._seq_of = np.zeros(self._key_space, dtype=np.int64)
        # Spillover ids outside the universe: id -> (expiry, seqno).
        self._over: Dict[int, Tuple[int, int]] = {}
        self._size = 0
        # Reusable id -> segment-position map for serve_segment's
        # linear first/last-occurrence scatters (never reset: a
        # slot read back is fresh or checked against the segment).
        self._scratch_pos = np.empty(self._key_space, dtype=np.int64)
        # Victim queue of :meth:`evict_one`: ``[key, seqno]`` records,
        # or None until a scalar eviction builds it.
        self._victims: Optional[List[List[int]]] = None

    def __contains__(self, key: int) -> bool:
        # Inlined ResidencyIndex.__contains__ (scalar-loop hot spot).
        if 0 <= key < self._key_space:
            return bool(self.residency.bitmap[key])
        return key in self._over

    def __len__(self) -> int:
        return self._size

    def keys(self) -> Iterator[int]:
        return self.residency.resident_keys()

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Residency of each key as a boolean array (one bitmap gather;
        spillover ids answer from the index's overflow set)."""
        return self.residency.contains_batch(np.asarray(keys, dtype=np.int64))

    def priority_of(self, key: int) -> int:
        key = int(key)
        if 0 <= key < self._key_space:
            if not self.residency.bitmap[key]:
                raise KeyError(key)
            return max(0, int(self._expiry_of[key]) - self._age)
        expiry, _ = self._over[key]
        return max(0, expiry - self._age)

    @property
    def is_full(self) -> bool:
        return self._size >= self.capacity

    @property
    def key_space(self) -> int:
        """Dense-id universe this backend was built over (0: the empty
        universe).  Sharded construction asserts this against the
        router's per-shard universe — see the translation boundary in
        :mod:`repro.cache.sharding`."""
        return self._key_space

    def per_id_nbytes(self) -> int:
        """Bytes of state that scale with ``key_space``: the expiry/
        seqno/scratch vectors plus the residency bitmap."""
        return int(self._expiry_of.nbytes + self._seq_of.nbytes
                   + self._scratch_pos.nbytes) + self.residency.nbytes

    def insert(self, key: int, priority: int) -> None:
        if key in self:
            self.set_priority(key, priority)
            return
        if self.is_full:
            raise RuntimeError("buffer full; evict first")
        key = int(key)
        self._store(key, priority, self._next_seq)
        self._next_seq += 1
        self.residency.add(key)
        self._size += 1

    def set_priority(self, key: int, priority: int) -> None:
        """Update priority; also refreshes recency (LRU tie-breaking)."""
        if key not in self:
            raise KeyError(key)
        self._store(int(key), priority, self._next_seq)
        self._next_seq += 1

    def _resident_last_occurrence(self, arr: np.ndarray
                                  ) -> Tuple[np.ndarray, np.ndarray]:
        """:func:`_last_occurrence` of a batch whose keys must all be
        resident (``KeyError`` before anything is mutated otherwise)."""
        resident = self.residency.contains_batch(arr)
        if not resident.all():
            raise KeyError(int(arr[~resident][0]))
        return _last_occurrence(arr)

    def set_priority_batch(self, keys: Sequence[int], priority: int) -> None:
        """Scalar :meth:`set_priority` per key, in order (exact seqno
        semantics), as one last-occurrence scatter; every key must be
        resident (validated before anything is mutated)."""
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            return
        uniq, last_pos = self._resident_last_occurrence(arr)
        base = self._next_seq
        self._store_batch(uniq, self._age + int(priority), base + last_pos)
        self._next_seq = base + int(arr.size)

    def demote(self, key: int) -> None:
        """Mark ``key`` as evict-next: priority 0, older than everything."""
        if key not in self:
            raise KeyError(key)
        self._min_seq -= 1
        key = int(key)
        self._store(key, 0, self._min_seq)
        if self._victims is not None:
            self._push_demoted([key], self._min_seq)

    def demote_batch(self, keys: Sequence[int]) -> None:
        """Scalar :meth:`demote` per key, in order (reverse-demote
        eviction order preserved), as one scatter of the equivalent
        descending seqnos."""
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            return
        uniq, last_pos = self._resident_last_occurrence(arr)
        base = self._min_seq
        self._store_batch(uniq, self._age, base - 1 - last_pos)
        self._min_seq = base - int(arr.size)
        if self._victims is not None:
            self._push_demoted(arr.tolist(), base - 1)

    def _store(self, key: int, priority: int, seq: int) -> None:
        """Write one entry's (expiry, seqno); membership bookkeeping
        (residency bit, ``_size``) is the caller's job."""
        expiry = self._age + priority
        if 0 <= key < self._key_space:
            self._expiry_of[key] = expiry
            self._seq_of[key] = seq
        else:
            self._over[key] = (expiry, seq)

    def _store_batch(self, keys: np.ndarray, expiry, seq) -> None:
        """Write the distinct ``keys``' absolute ``expiry`` and ``seq``
        (arrays aligned with them, or scalars): one scatter per vector,
        spillover ids into the side dict.  Membership bookkeeping is
        the caller's job, as for :meth:`_store`."""
        if keys.size and keys.min() >= 0 and keys.max() < self._key_space:
            self._expiry_of[keys] = expiry
            self._seq_of[keys] = seq
            return
        in_range = (keys >= 0) & (keys < self._key_space)
        expiry = np.broadcast_to(expiry, keys.shape)
        seq = np.broadcast_to(seq, keys.shape)
        self._expiry_of[keys[in_range]] = expiry[in_range]
        self._seq_of[keys[in_range]] = seq[in_range]
        spill = ~in_range
        self._over.update(zip(keys[spill].tolist(),
                              zip(expiry[spill].tolist(),
                                  seq[spill].tolist())))

    def _gather_entries(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All resident entries as (keys, expiry, seqno) arrays —
        the candidate pool for victim selection (in-universe ids
        ascending, then the spillover ids)."""
        ids = np.flatnonzero(self.residency.bitmap)
        expiry = self._expiry_of[ids]
        seq = self._seq_of[ids]
        if self._over:
            over = self._over
            okeys = np.fromiter(over, dtype=np.int64, count=len(over))
            oexp = np.fromiter((entry[0] for entry in over.values()),
                               dtype=np.int64, count=len(over))
            oseq = np.fromiter((entry[1] for entry in over.values()),
                               dtype=np.int64, count=len(over))
            ids = np.concatenate((ids, okeys))
            expiry = np.concatenate((expiry, oexp))
            seq = np.concatenate((seq, oseq))
        return ids, expiry, seq

    def export_state(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All resident entries as ``(keys, effective_priority, seqno)``
        arrays (order unspecified) — the export half of the
        shard-rebalancing migration protocol (see "Rebalancing" in
        :mod:`repro.cache.sharding`).  Priorities come out *effective*
        (aging already applied, floored at 0), so an import into a
        fresh backend reproduces the same future victim sequence."""
        ids, expiry, seq = self._gather_entries()
        return ids, np.maximum(0, expiry - self._age), seq

    def import_state(self, keys: Sequence[int], priorities: Sequence[int],
                     seqnos: Sequence[int]) -> None:
        """Load exported entries into an *empty* buffer.

        Keys must be unique and fit the capacity; seqnos must be unique
        per entry.  Future victim choices depend only on the priorities
        and the relative seqno order, so a caller may re-rank seqnos
        (e.g. to ``0..n-1``) without changing eviction behavior.
        """
        if len(self):
            raise RuntimeError("import_state requires an empty buffer")
        keys_arr = np.asarray(keys, dtype=np.int64)
        prio_arr = np.asarray(priorities, dtype=np.int64)
        seq_arr = np.asarray(seqnos, dtype=np.int64)
        if keys_arr.size > self.capacity:
            raise RuntimeError("buffer full; evict first")
        if keys_arr.size == 0:
            return
        self._store_batch(keys_arr, self._age + prio_arr, seq_arr)
        self.residency.add_batch(keys_arr)
        self._size = int(keys_arr.size)
        # Imported seqnos are arbitrary: stale records could match.
        self._victims = None
        self._next_seq = max(self._next_seq, int(seq_arr.max()) + 1)
        self._min_seq = min(self._min_seq, int(seq_arr.min()))

    def _remove_victims(self, victims: np.ndarray, count: int) -> None:
        """Drop ``victims`` (residency + spillover entries) and apply
        the ``count`` aging steps their evictions carry."""
        self.residency.discard_batch(victims)
        if self._over:
            over = self._over
            key_space = self._key_space
            for key in victims.tolist():
                if not 0 <= key < key_space:
                    del over[key]
        self._size -= count
        self._age += count

    def evict_batch(self, n: int) -> List[int]:
        """Evict ``n`` entries; exactly ``n`` consecutive
        :meth:`evict_one` calls, computed as one vectorized selection
        (:func:`_exact_victim_sequence`)."""
        count = int(n)
        if count <= 0:
            return []
        if count > self._size:
            raise RuntimeError("cannot evict more entries than resident")
        keys, expiry, seq = self._gather_entries()
        victims = keys[_exact_victim_sequence(expiry, seq, self._age, count)]
        self._remove_victims(victims, count)
        return victims.tolist()

    def evict_one(self) -> int:
        """Exact scalar eviction, amortised O(1): pop the victim queue.

        The queue is a stack of ``[key, seqno]`` records, seqnos
        descending so the smallest sits on top.  A record is *valid*
        while its key is resident under that very seqno.  Two
        invariants make the topmost valid record the
        ``(effective_priority, seqno)`` minimum, i.e. the reference
        victim: a valid record's entry holds effective priority zero,
        and every resident entry without a valid record has a seqno
        above every record's.  Every operation keeps them: a store
        draws a fresh seqno above all others (the key's old record
        goes stale), an eviction clears the residency bit, aging only
        ripens live entries — which hold no record — and a demote
        draws a seqno *below* all others, so its record goes on top
        (:meth:`_push_demoted`).  Stale records are skipped as they
        surface; a drained queue is rebuilt (:meth:`_refill_victims`).
        """
        if not self._size:
            raise RuntimeError("cannot evict from an empty buffer")
        bitmap = self.residency.bitmap
        seq_of = self._seq_of
        over = self._over
        key_space = self._key_space
        while True:
            if not self._victims:
                victim = self._refill_victims()
                if victim is not None:
                    break
            victim, seq = self._victims.pop()
            if 0 <= victim < key_space:
                if bitmap[victim] and seq_of[victim] == seq:
                    break
            elif victim in over and over[victim][1] == seq:
                break
        self.residency.discard(victim)
        over.pop(victim, None)
        self._size -= 1
        self._age += 1
        return victim

    def _refill_victims(self) -> Optional[int]:
        """Rebuild the victim queue from one gather of the resident
        entries: the ``_VICTIM_QUEUE`` smallest-seqno priority-zero
        entries whose seqno lies below every live entry's, so that no
        live entry ripening later can preempt a record.  When there is
        no such entry (priorities far above the eviction count) the
        queue stays unbuilt and the victim is returned instead —
        :func:`_exact_victim_sequence`'s choice, off the same gather."""
        keys, expiry, seq = self._gather_entries()
        zero = expiry <= self._age
        pool = np.flatnonzero(zero)
        if 0 < pool.size < zero.size:
            pool = pool[seq[pool] < seq[~zero].min()]
        if not pool.size:
            self._victims = None
            order = _exact_victim_sequence(expiry, seq, self._age, 1)
            return int(keys[order[0]])
        if pool.size > _VICTIM_QUEUE:
            pool = pool[np.argpartition(seq[pool], _VICTIM_QUEUE - 1)
                        [:_VICTIM_QUEUE]]
        pool = pool[np.argsort(seq[pool])[::-1]]
        # tolist() allocates the stack once, at its final size.
        self._victims = np.column_stack((keys[pool], seq[pool])).tolist()
        return None

    def _push_demoted(self, keys: List[int], first_seq: int) -> None:
        """Record demotes on the live victim queue: ``keys`` drew the
        seqnos ``first_seq, first_seq - 1, ...``, each below every
        seqno before it, so pushing them in order keeps the smallest
        on top (a repeated key's earlier records are simply stale).
        Bulk evictions never pop, so the queue is bounded here: past
        ``_VICTIM_QUEUE + capacity`` records it is dropped — demotes
        cost nothing again — and the next scalar eviction rebuilds."""
        if (len(self._victims) + len(keys)
                > _VICTIM_QUEUE + self.capacity):
            self._victims = None
            return
        self._victims.extend(
            [key, first_seq - step] for step, key in enumerate(keys))

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
        a repeated key's last bit ``>= 0`` wins; friendly to
        ``speed + 1``, averse demoted, each class in positional order),
        then row ``i`` of ``preds_all`` as prefetches (non-resident
        ones, at most ``budget``, tagged in ``prefetched``; a demand
        hit consumes its key's tag, an eviction drops it).  Either
        array may be None.  The entry arrays are indexed directly —
        spillover ids through ``_over``, in the same loop — the victim
        queue of :meth:`evict_one` is popped inline, and the
        counters live in locals, written back even when a malformed
        input raises mid-pass; past a stale top record or a drained
        queue, :meth:`evict_one` carries on.  Returns the positions
        of the demand misses, the prefetch hits consumed and the
        evictions — the manager's per-engine result contract — plus
        the prefetches issued.
        """
        keys = np.asarray(dense, dtype=np.int64).tolist()
        bits = None if bits_all is None else np.asarray(bits_all).tolist()
        preds = None if preds_all is None else np.asarray(preds_all).tolist()
        bitmap = self.residency.bitmap
        overflow = self.residency._overflow
        expiry_of, seq_of, over = self._expiry_of, self._seq_of, self._over
        key_space = self._key_space
        capacity = self.capacity
        queue_bound = _VICTIM_QUEUE + capacity
        age, size = self._age, self._size
        next_seq, min_seq = self._next_seq, self._min_seq
        prefetch_hits = evictions = issued = 0
        missed: List[int] = []

        def admit(key: int, in_range: bool) -> None:
            """Insert the non-resident ``key`` at ``speed``, evicting
            first when full."""
            nonlocal age, size, next_seq, evictions
            if size >= capacity:
                victim = None
                if self._victims:
                    victim, seq = self._victims.pop()
                    if 0 <= victim < key_space:
                        if bitmap[victim] and seq_of[victim] == seq:
                            bitmap[victim] = False
                        else:
                            victim = None
                    elif victim in over and over[victim][1] == seq:
                        overflow.discard(victim)
                        del over[victim]
                    else:
                        victim = None
                if victim is None:
                    # The top record was stale, or there is none:
                    # evict_one carries on — skips the stale ones,
                    # rebuilds a drained queue.
                    self._age, self._size = age, size
                    victim = self.evict_one()
                prefetched.discard(victim)
                age += 1
                evictions += 1
            else:
                size += 1
            if in_range:
                bitmap[key] = True
                expiry_of[key] = age + speed
                seq_of[key] = next_seq
            else:
                overflow.add(key)
                over[key] = (age + speed, next_seq)
            next_seq += 1

        try:
            for index in range(len(keys) // length):
                start = index * length
                chunk = keys[start:start + length]
                for position, key in enumerate(chunk, start):
                    in_range = 0 <= key < key_space
                    if bitmap[key] if in_range else key in over:
                        if key in prefetched:
                            prefetched.discard(key)
                            prefetch_hits += 1
                        if in_range:
                            expiry_of[key] = age + speed
                            seq_of[key] = next_seq
                        else:
                            over[key] = (age + speed, next_seq)
                        next_seq += 1
                    else:
                        missed.append(position)
                        admit(key, in_range)
                if bits is not None:
                    last: Dict[int, int] = {}
                    for key, bit in zip(chunk, bits[index]):
                        if bit >= 0:
                            last.pop(key, None)  # re-insert: last position
                            last[key] = bit
                    for key, bit in last.items():
                        in_range = 0 <= key < key_space
                        if not (bitmap[key] if in_range else key in over):
                            continue
                        if bit:
                            expiry, seq = age + speed + 1, next_seq
                            next_seq += 1
                        else:
                            min_seq -= 1
                            expiry, seq = age, min_seq
                            victims = self._victims
                            if victims is not None:
                                # _push_demoted's bound, one key at a time.
                                if len(victims) >= queue_bound:
                                    self._victims = None
                                else:
                                    victims.append([key, seq])
                        if in_range:
                            expiry_of[key] = expiry
                            seq_of[key] = seq
                        else:
                            over[key] = (expiry, seq)
                if preds is not None:
                    room = budget
                    for key in preds[index]:
                        if room <= 0:
                            break
                        in_range = 0 <= key < key_space
                        if bitmap[key] if in_range else key in over:
                            continue
                        room -= 1
                        issued += 1
                        admit(key, in_range)
                        prefetched.add(key)
        finally:
            self._age, self._size = age, size
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
        """The bulk pass under :meth:`serve_segment`: one residency
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
        until nothing changes.

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
        size0 = self._size
        age0 = self._age
        capacity = self.capacity
        dense_seg = bool(arr.min() >= 0 and arr.max() < self._key_space)
        if dense_seg:
            # Linear segment indexing on the reusable scratch map, which
            # is left holding each segment key's first position for the
            # touch lookup below.  ``uniq`` comes out in first-touch
            # order, not sorted.
            first_mask = _first_touch_mask(self._scratch_pos, arr)
            first_idx = np.flatnonzero(first_mask)
            uniq = arr[first_idx]
            res_u = self.residency.bitmap[uniq]
        else:
            uniq, first_idx = np.unique(arr, return_index=True)
            res_u = self.residency.contains_batch(uniq)
        if int(uniq.size) > capacity:
            # Wider than the buffer: trim to the longest prefix whose
            # distinct keys fit, so bulk serving still covers everything
            # up to the overflowing first touch.
            if not dense_seg:
                first_mask = np.zeros(length, dtype=bool)
                first_mask[first_idx] = True
            length = int(np.searchsorted(np.cumsum(first_mask), capacity,
                                         side="right"))
            if length == 0:
                return 0, empty, empty
            arr = arr[:length]
            keep = first_idx < length
            uniq = uniq[keep]
            first_idx = first_idx[keep]
            res_u = res_u[keep]
        fresh = first_idx[~res_u]
        if not dense_seg:
            fresh = np.sort(fresh)
        misses = fresh
        free = capacity - size0
        evict_positions = misses[free:]
        victims = empty
        if evict_positions.size:
            keys, expiry, seq = self._gather_entries()
            pool = np.flatnonzero(expiry <= age0)
            # Each pool entry's first in-segment touch (``length``: none).
            pool_keys = keys[pool]
            touch = np.full(pool.size, length, dtype=np.int64)
            if dense_seg:
                # In-range ids lead the gather (spillover ones cannot be
                # segment keys).  The scratch map is never cleared, so an
                # id the segment lacks reads a stale value: the bounds
                # check and the key check reject it.
                inside = int(np.searchsorted(pool,
                                             keys.size - len(self._over)))
                ids = pool_keys[:inside]
                pos = self._scratch_pos[ids]
                ok = (pos >= 0) & (pos < length)
                ok[ok] = arr[pos[ok]] == ids[ok]
                touch[:inside][ok] = pos[ok]
            else:
                slot = np.minimum(np.searchsorted(uniq, pool_keys),
                                  uniq.size - 1)
                ok = uniq[slot] == pool_keys
                touch[ok] = first_idx[slot[ok]]
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
                keep = first_idx < length
                uniq = uniq[keep]
                first_idx = first_idx[keep]
                misses = misses[:np.searchsorted(misses, length)]
                evict_positions = evict_positions[
                    :np.searchsorted(evict_positions, length)]
            n_evict = int(evict_positions.size)
            if n_evict:
                # Advances _age to age0 + n_evict; the store expiries
                # below use the per-position interleaved ages.
                victims = keys[chosen[:n_evict]]
                self._remove_victims(victims, n_evict)
        base = self._next_seq
        if dense_seg:
            # Forward scatter: each key's map entry ends at its *last*
            # position; ``uniq`` keys all occur in (the possibly
            # trimmed) ``arr``, so every read is fresh.
            pos = self._scratch_pos
            pos[arr] = np.arange(length, dtype=np.int64)
            last_pos = pos[uniq]
        else:
            _, last_pos = _last_occurrence(arr)
        seq_vals = base + last_pos
        if victims.size:
            indicator = np.zeros(length, dtype=np.int64)
            indicator[evict_positions] = 1
            store_age = age0 + np.cumsum(indicator)
            expiry_vals = store_age[last_pos] + int(priority)
        else:
            expiry_vals = np.full(uniq.size, age0 + int(priority),
                                  dtype=np.int64)
        self._store_batch(uniq, expiry_vals, seq_vals)
        self.residency.add_batch(uniq)
        self._size += int(misses.size)
        self._next_seq = base + length
        return length, misses, victims


class ClockBuffer:
    """Array-backed approximate-priority buffer (CLOCK sweep).

    Entries live in fixed numpy slot arrays (``key`` / ``priority`` /
    ``valid``) turned into a circular list by a hand position.
    ``insert`` fills a free slot, ``set_priority`` writes the slot's
    priority (the multi-bit analogue of CLOCK's reference bit),
    ``demote`` zeroes it.

    Membership is a dense ``id → slot`` int vector over
    ``[0, key_space)`` plus a
    :class:`~repro.cache.residency.ResidencyIndex` bitmap maintained
    incrementally on every insert/eviction: ``contains_batch`` is a
    bitmap gather, ``set_priority_batch`` a pure numpy scatter, and
    the sweep clears victims in bulk — no per-key dict traffic anywhere
    on the serving hot path.  Ids outside the
    universe (the manager's unseen-key ids above the vocabulary; every
    id when ``key_space=0``) spill to a side dict, with identical
    behavior (fuzz-checked in ``tests/test_buffer_differential.py``).

    The batched sweep is the point of the backend
    (:meth:`serve_segment`'s protected reclaim, :meth:`evict_batch`):
    one call reclaims many slots by harvesting priority-zero slots in
    hand order and, whenever a sweep runs dry, aging *every* survivor
    by the minimum surviving priority in a single vectorized
    subtraction.  Aging
    therefore happens once per full sweep instead of once per eviction
    — the approximation that lets a whole batch of evictions cost
    O(capacity) numpy work rather than O(batch · log n) heap pops —
    and collapsing the aging passes into one subtraction yields
    provably identical victims (intermediate −1 passes harvest
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
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._key = np.full(capacity, -1, dtype=np.int64)
        self._prio = np.zeros(capacity, dtype=np.int64)
        self._valid = np.zeros(capacity, dtype=bool)
        # Free-slot stack ``_free_slots[:_free_top]``, popped from the
        # top: slots 0, 1, 2, ... go out first and a freed slot is
        # reused before an untouched one.
        self._free_slots = np.arange(capacity - 1, -1, -1, dtype=np.int64)
        self._free_top = capacity
        self._hand = 0
        self.residency = ResidencyIndex(key_space)
        self._key_space = self.residency.key_space
        self._slot_of = np.full(self._key_space, -1, dtype=np.int64)
        # Spillover ids outside the universe: id -> slot.
        self._slot_over: Dict[int, int] = {}
        # id -> segment position map of :func:`_first_touch_mask`.
        self._scratch = np.empty(self._key_space, dtype=np.int32)

    # -- membership bookkeeping ----------------------------------------
    def _slot_for(self, key: int) -> int:
        """Slot of ``key``, or -1 when not resident."""
        if 0 <= key < self._key_space:
            return int(self._slot_of[key])
        return self._slot_over.get(key, -1)

    def _map_add(self, key: int, slot: int) -> None:
        if 0 <= key < self._key_space:
            self._slot_of[key] = slot
        else:
            self._slot_over[key] = slot
        self.residency.add(key)

    def _map_discard_batch(self, victim_keys: np.ndarray) -> None:
        if not self._slot_over:
            # Nothing spilled: every resident id fits the bitmap.
            self._slot_of[victim_keys] = -1
            self.residency.bitmap[victim_keys] = False
            return
        if self._key_space:
            in_range = ((victim_keys >= 0)
                        & (victim_keys < self._key_space))
            inside = victim_keys[in_range]
            self._slot_of[inside] = -1
            self.residency.bitmap[inside] = False
            victim_keys = victim_keys[~in_range]
        # Spillover victims skip the index's array masks: on the scalar
        # path they come one at a time, where masks cost more than sets.
        spill = victim_keys.tolist()
        over = self._slot_over
        for key in spill:
            del over[key]
        self.residency._overflow.difference_update(spill)

    # ------------------------------------------------------------------
    def __contains__(self, key: int) -> bool:
        return self._slot_for(int(key)) >= 0

    def __len__(self) -> int:
        return self.capacity - self._free_top

    def keys(self) -> Iterator[int]:
        return iter(self._key[self._valid].tolist())

    def contains_batch(self, keys: Sequence[int]) -> np.ndarray:
        """Residency of each key as a boolean array (one bitmap gather;
        spillover ids answer from the index's overflow set)."""
        return self.residency.contains_batch(np.asarray(keys, dtype=np.int64))

    def priority_of(self, key: int) -> int:
        slot = self._slot_for(int(key))
        if slot < 0:
            raise KeyError(key)
        return int(self._prio[slot])

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
        and scratch vectors plus the residency bitmap (the slot arrays
        scale with capacity, not the universe)."""
        return (int(self._slot_of.nbytes + self._scratch.nbytes)
                + self.residency.nbytes)

    def insert(self, key: int, priority: int) -> None:
        """Insert (or refresh) ``key``; caller must ensure space.

        Priorities clamp to >= 0: the sweep harvests exactly the
        priority-zero class, so a negative priority (meaningful to the
        exact backends' seqno order) would otherwise never ripen.
        """
        key = int(key)
        slot = self._slot_for(key)
        if slot >= 0:
            self._prio[slot] = max(0, priority)
            return
        if not self._free_top:
            raise RuntimeError("buffer full; evict first")
        self._free_top -= 1
        slot = int(self._free_slots[self._free_top])
        self._map_add(key, slot)
        self._key[slot] = key
        self._prio[slot] = max(0, priority)
        self._valid[slot] = True

    def set_priority(self, key: int, priority: int) -> None:
        """Update priority, clamped to >= 0 (recency is approximated by
        the hand)."""
        slot = self._slot_for(int(key))
        if slot < 0:
            raise KeyError(key)
        self._prio[slot] = max(0, priority)

    def set_priority_batch(self, keys: Sequence[int], priority: int) -> None:
        """Bulk :meth:`set_priority`: one slot gather and one scatter;
        every key must be resident (validated before anything is
        mutated)."""
        arr = np.asarray(keys, dtype=np.int64)
        if arr.size == 0:
            return
        slots = self._locate(arr)[0]
        if (slots < 0).any():
            raise KeyError(int(arr[slots < 0][0]))
        self._prio[slots] = max(0, int(priority))

    def demote(self, key: int) -> None:
        """Mark ``key`` as evict-soon: priority 0, reclaimed by the
        next sweep to reach its slot (hand order, not exact order)."""
        self.set_priority(key, 0)

    def demote_batch(self, keys: Sequence[int]) -> None:
        """Bulk :meth:`demote` (priority-zero scatter)."""
        self.set_priority_batch(keys, 0)

    # -- bulk classify / store (serve_segment's steps) -----------------
    def _locate(self, arr: np.ndarray) -> Tuple[np.ndarray, bool]:
        """Slot of every key of the non-empty ``arr`` (-1 = not
        resident) and whether the segment is *dense* — every id inside
        ``[0, key_space)``, the one range check that keeps negative ids
        (which a bare gather would wrap) and spillover ids off the
        dense vectors.  Dense segments take the gather/scatter forms
        below; spillover segments take the slow forms of the same
        steps (here: the in-range gather plus one side-dict lookup per
        spillover id)."""
        if arr.min() >= 0 and arr.max() < self._key_space:
            return self._slot_of[arr], True
        in_range = (arr >= 0) & (arr < self._key_space)
        slots = np.full(arr.size, -1, dtype=np.int64)
        slots[in_range] = self._slot_of[arr[in_range]]
        spill = np.flatnonzero(~in_range)
        slots[spill] = np.fromiter(
            map(self._slot_over.get, arr[spill].tolist(), repeat(-1)),
            dtype=np.int64, count=spill.size)
        return slots, False

    def _first_touches(self, arr: np.ndarray, dense: bool) -> np.ndarray:
        """First-occurrence mask of ``arr``.  ``flatnonzero`` of it is
        in segment order, so new keys take slots in *first-touch
        order* — slot order feeds the hand's tie-breaking and must
        follow the access stream, not hash or sort order
        (regression-tested)."""
        if dense:
            return _first_touch_mask(self._scratch, arr)
        first = np.zeros(arr.size, dtype=bool)
        first[np.unique(arr, return_index=True)[1]] = True
        return first

    def _store_new(self, new_keys: np.ndarray, priority: int,
                   dense: bool) -> None:
        """Give the distinct non-resident ``new_keys`` free slots, in
        order (the caller guarantees ``new_keys.size`` free slots)."""
        if not new_keys.size:
            return
        top = self._free_top
        self._free_top = top - new_keys.size
        new_slots = self._free_slots[self._free_top:top][::-1]
        if dense:
            self._slot_of[new_keys] = new_slots
            self.residency.bitmap[new_keys] = True
        else:
            in_range = (new_keys >= 0) & (new_keys < self._key_space)
            self._slot_of[new_keys[in_range]] = new_slots[in_range]
            spill = ~in_range
            self._slot_over.update(zip(new_keys[spill].tolist(),
                                       new_slots[spill].tolist()))
            self.residency.add_batch(new_keys)
        self._key[new_slots] = new_keys
        self._prio[new_slots] = priority
        self._valid[new_slots] = True

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
        self._store_new(arr[miss_positions], priority, dense)
        self._prio[slots] = priority
        return arr.size, miss_positions, victims

    def export_state(self) -> Tuple[np.ndarray, np.ndarray]:
        """Resident ``(keys, priority)`` arrays in circular hand order
        (starting at the slot the sweep would examine next) — the
        export half of the shard-rebalancing migration protocol (see
        "Rebalancing" in :mod:`repro.cache.sharding`).  An import in
        this order into a fresh backend reproduces the same sweep
        sequence."""
        slots = np.flatnonzero(self._valid)
        split = int(np.searchsorted(slots, self._hand))
        ordered = np.concatenate((slots[split:], slots[:split]))
        return self._key[ordered].copy(), self._prio[ordered].copy()

    def import_state(self, keys: Sequence[int],
                     priorities: Sequence[int]) -> None:
        """Load exported ``(key, priority)`` pairs into an *empty*
        buffer, preserving order: entry ``i`` takes slot ``i`` and the
        hand starts at 0, so the sweep visits the entries in the order
        given (hand-order tie-breaking is part of the migration
        contract).  Keys must be unique and fit the capacity."""
        if len(self):
            raise RuntimeError("import_state requires an empty buffer")
        keys_arr = np.asarray(keys, dtype=np.int64)
        prio_arr = np.asarray(priorities, dtype=np.int64)
        if keys_arr.size > self.capacity:
            raise RuntimeError("buffer full; evict first")
        for key, p in zip(keys_arr.tolist(), prio_arr.tolist()):
            self.insert(key, p)

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
                victim_keys = self._key[take]
                valid[take] = False
                if eligible is not valid:
                    eligible[take] = False
                self._map_discard_batch(victim_keys)
                top = self._free_top
                self._free_top = top + take.size
                self._free_slots[top:self._free_top] = take
                victims.append(victim_keys)
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
#: inference, prefetch harness): exact reference, exact fast,
#: approximate clock.
BUFFER_IMPLS = {
    "reference": PriorityBuffer,
    "fast": FastPriorityBuffer,
    "clock": ClockBuffer,
}


def make_buffer(impl: str, capacity: int,
                key_space: Optional[int] = None):
    """Instantiate a buffer backend by registry name.

    ``key_space`` (dense-id universe size) is forwarded to every
    backend — a :class:`~repro.cache.residency.ResidencyIndex` bitmap
    behind ``contains_batch`` everywhere, plus array-native entries on
    the clock and fast backends; ``None`` is the empty universe.
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

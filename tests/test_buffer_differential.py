"""Differential fuzz: one op stream, every buffer backend.

~200 randomized operation sequences (insert / set_priority / demote /
set_priority_batch / demote_batch / evict_one / evict_batch /
serve_segment interleavings — every ``serve_segment`` call must serve
its whole segment, on every backend) drive every backend behind the
``buffer_impl`` knob:

* the exact four (:class:`PriorityBuffer` without and with a
  ``key_space``, :class:`FastPriorityBuffer` over the empty universe —
  every id spills — and over a ``key_space`` chosen *smaller* than the
  fuzzed key range so spillover ids mix with in-universe ones) must
  agree *key-for-key*: identical victims, identical resident sets,
  identical effective priorities after every operation; the same
  sequence shifted to packed ids (>= 2**40, as raw ``table << 40 |
  row`` keys are) drives an empty-universe fast buffer against the
  reference too;
* the approximate :class:`ClockBuffer` is checked against its contract
  instead: capacity never exceeded, the resident set is always a subset
  of the keys ever inserted, and within one ``evict_batch`` call the
  victims come out in nondecreasing pre-call priority and never outrank
  a survivor ("evictions prefer lower priority within a sweep");
* the clock backend runs twice — over the empty universe and over a
  ``key_space`` residency bitmap — and the two must agree
  victim-for-victim: identical resident sets, priorities and eviction
  order;
* after **every** op, every backend's ``contains_batch`` must agree
  with scalar ``in`` membership over a probe range that includes
  out-of-range and negative ids (bulk/scalar residency agreement).

A queue differential (:func:`test_dense_victim_queue_matches_reference`
and its sharded twin) stresses what scalar ``evict_one`` on the dense
fast buffer now rests on — a victim queue that persists *across*
calls: scalar evictions, inserts, touches and demotes interleave with
the bulk protocol (``serve_segment`` included), with drained-and-
re-imported populations and, on sharded twins, per-shard demotes and
evictions around live ``ShardedBuffer.rebalance`` calls, priorities
far above the eviction count (the fallback selection), spillover ids,
and a queue depth shrunk until refills and truncation happen every
few evictions.

A clock serving differential
(:func:`test_clock_serve_segment_matches_composed_protocol`, a
``hypothesis`` fuzz, and its hand-picked twin) drives twin
:class:`ClockBuffer` s — dense, empty universe (packed ids included),
dense with spillover ids, and the shard backends of a sharded buffer
fed the local ids of its scatter — one through
``serve_segment``, the other through the composed protocol it replaced
(``contains_batch`` → first-occurrence count →
``evict_batch(needed, avoid=piece)`` → an ``insert`` per key, piece by
piece while the rest holds more distinct keys than slots, each piece
holding at most half the slots' worth), asserting equal results *and*
bit-equal state after every step.

A cascade differential
(:func:`test_exact_serve_segment_cascades_match_scalar`) drives twin
dense :class:`FastPriorityBuffer` s, one through one ``serve_segment``
call (bulk pass first, whatever it trims finished inside the call),
the other through the scalar serving loop, over segments shaped so
that victims re-miss inside the same call and chain: decisions,
victims and full state equal after every segment, a garbage-filled
scratch map included, and the first bulk pass serving the whole
segment whenever the scalar loop evicted nothing but untouched
priority-zero entries with no live entry ripening — so falling back
to ending the prefix at a re-miss fails it.  The same re-miss meets
prefetch tags on the manager's unsharded and sharded exact engines
and on ``BufferClassifier``
(:func:`test_tagged_victim_re_miss_is_one_on_demand_miss`), and the
manager's one fold scores a tag by its key's first occurrence across a
wide call's internal prefixes on every backend, unsharded and sharded
(:func:`test_fold_scores_a_tag_by_its_first_occurrence`).

An applier differential
(:func:`test_caching_bit_applier_forms_leave_identical_state`) pins the
two forms of ``serving.priorities.apply_caching_bits`` — the scalar
loop short blocks take and the bulk protocol — to each other on every
backend, state for state and victim for victim.

A further differential (:func:`test_exact_serving_decision_equivalence`)
runs the *manager* end to end on 200 seeded synthetic traces: the dense
``"fast"`` backend's bulk serving engine
(``RecMGManager._serve_demand_bulk`` over
``FastPriorityBuffer.serve_segment``) must reproduce the scalar audit
loop decision-for-decision (``run(record_decisions=True)``), counter
for counter, and leave the identical buffer state — including runs
whose encoder is fitted on a prefix only, so unseen keys exercise the
spillover path mid-serving.
"""

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (ClockBuffer, FastPriorityBuffer, PriorityBuffer,
                         ShardedBuffer, buffer as buffer_module, make_buffer)
from sharded_ops import drain, evict, home, per_shard, shards_of

NUM_SEQUENCES = 200
OPS_PER_SEQUENCE = 120
KEY_SPACE = 28
#: Dense-mode clock bitmap deliberately smaller than the fuzzed key
#: range: keys >= DENSE_SPACE exercise the spillover dict.
DENSE_SPACE = KEY_SPACE // 2 + 1
MAX_PRIORITY = 6

#: Probe for contains_batch/scalar agreement: spans below, inside and
#: above both the bitmap and the fuzzed key range.
PROBE = np.arange(-3, KEY_SPACE + 8, dtype=np.int64)
#: Offset of the packed-id twins: table 3, row = the fuzzed key.
PACKED = 3 << 40

#: The buffer protocol plus ``serve_segment``.
OP_WEIGHTS = [
    ("insert", 6),
    ("set_priority", 4),
    ("demote", 2),
    ("serve_segment", 3),
    ("set_priority_batch", 2),
    ("demote_batch", 1),
    ("evict_one", 4),
    ("evict_batch", 3),
]


def _gen_ops(rng: random.Random, op_weights=OP_WEIGHTS,
             max_priority=MAX_PRIORITY):
    """One randomized op sequence (backend-independent description)."""
    names = [name for name, _ in op_weights]
    weights = [weight for _, weight in op_weights]
    ops = []
    for _ in range(OPS_PER_SEQUENCE):
        op = rng.choices(names, weights=weights)[0]
        key = rng.randrange(KEY_SPACE)
        priority = rng.randrange(max_priority + 1)
        batch = [rng.randrange(KEY_SPACE)
                 for _ in range(rng.randint(1, 10))]
        count = rng.randint(1, 6)
        ops.append((op, key, priority, batch, count))
    return ops


def _assert_contains_batch_agrees(buffer, probe=PROBE) -> None:
    """contains_batch must match scalar ``in`` over the probe range."""
    bulk = buffer.contains_batch(probe)
    scalar = np.array([int(key) in buffer for key in probe], dtype=bool)
    assert bulk.dtype == np.bool_ and bulk.shape == scalar.shape
    assert np.array_equal(bulk, scalar)


def _assert_same_state(ref, other) -> None:
    assert sorted(other.keys()) == sorted(ref.keys())
    for key in ref.keys():
        assert other.priority_of(key) == ref.priority_of(key)


def _scalar_serve(buffer, keys, priority):
    """The scalar serving loop ``serve_segment`` is defined against
    (eviction for space in the key's own shard); returns its victims."""
    victims = []
    for key in keys:
        if key in buffer:
            buffer.set_priority(key, priority)
            continue
        backend, to_global = home(buffer, key)
        if backend.is_full:
            victims.append(to_global(backend.evict_one()))
        buffer.insert(key, priority)
    return victims


def _apply_exact_group(ref: PriorityBuffer, others, op, probe=PROBE):
    """Apply one op to every exact backend (the reference without and
    with a universe + fast over the empty and a small universe),
    asserting key-for-key agreement on victims; validity is decided by
    the shared state."""
    kind, key, priority, batch, count = op
    group = (ref, *others)
    if kind == "insert":
        if key in ref:
            for buffer in group:
                buffer.set_priority(key, priority)
        elif not ref.is_full:
            for buffer in group:
                buffer.insert(key, priority)
    elif kind == "set_priority" and key in ref:
        for buffer in group:
            buffer.set_priority(key, priority)
    elif kind == "demote" and key in ref:
        for buffer in group:
            buffer.demote(key)
    elif kind == "set_priority_batch":
        resident = [k for k in batch if k in ref]
        for buffer in group:
            buffer.set_priority_batch(resident, priority)
    elif kind == "demote_batch":
        resident = [k for k in batch if k in ref]
        for buffer in group:
            buffer.demote_batch(resident)
    elif kind == "evict_one" and len(ref):
        victim = ref.evict_one()
        for buffer in others:
            assert buffer.evict_one() == victim
    elif kind == "evict_batch" and len(ref):
        n = min(count, len(ref))
        victims = ref.evict_batch(n)
        for buffer in others:
            assert buffer.evict_batch(n) == victims
    elif kind == "serve_segment":
        # Every other backend, the reference one included, serves the
        # whole segment in one call, equal to the scalar loop.
        expected = _scalar_serve(ref, batch, priority)
        for buffer in others:
            served, _, victims = buffer.serve_segment(
                np.asarray(batch, dtype=np.int64), priority)
            assert served == len(batch)
            assert victims.tolist() == expected
    elif kind == "import_state" and len(ref):
        # Drain, then reload the drained population in reversed seqno
        # order — what a rebalance does to a shard, on the same object.
        keys, prio, seq = ref.export_state()
        drained = ref.evict_batch(len(ref))
        ref.import_state(keys, prio, -seq)
        for buffer in others:
            assert buffer.evict_batch(len(buffer)) == drained
            buffer.import_state(keys, prio, -seq)
    for buffer in others:
        assert len(buffer) == len(ref)
    for buffer in group:
        _assert_contains_batch_agrees(buffer, probe)


def _packed(op):
    """``op`` with every key shifted to a packed id (>= 2**40)."""
    kind, key, priority, batch, count = op
    return kind, PACKED + key, priority, [PACKED + k for k in batch], count


def _assert_clock_modes_agree(clock: ClockBuffer, dense: ClockBuffer):
    """Empty-universe and dense clocks are behaviorally identical."""
    assert len(clock) == len(dense)
    assert sorted(clock.keys()) == sorted(dense.keys())
    for key in clock.keys():
        assert clock.priority_of(key) == dense.priority_of(key)
    assert dense.residency.count() == len(dense)


def _apply_clock(clock: ClockBuffer, dense: ClockBuffer,
                 inserted_ever: set, op):
    """Apply one op to both clock modes (validity decided by their
    shared state) and check the invariants plus mode agreement."""
    kind, key, priority, batch, count = op
    if kind == "insert":
        if key in clock or not clock.is_full:
            clock.insert(key, priority)
            dense.insert(key, priority)
            inserted_ever.add(key)
    elif kind == "set_priority" and key in clock:
        clock.set_priority(key, priority)
        dense.set_priority(key, priority)
    elif kind == "demote" and key in clock:
        clock.demote(key)
        dense.demote(key)
        assert clock.priority_of(key) == 0
    elif kind == "set_priority_batch":
        resident = [k for k in batch if k in clock]
        clock.set_priority_batch(resident, priority)
        dense.set_priority_batch(resident, priority)
        assert all(clock.priority_of(k) == max(0, priority)
                   for k in resident)
    elif kind == "demote_batch":
        resident = [k for k in batch if k in clock]
        clock.demote_batch(resident)
        dense.demote_batch(resident)
        assert all(clock.priority_of(k) == 0 for k in resident)
    elif kind == "evict_one" and len(clock):
        victim = clock.evict_one()
        assert victim not in clock
        assert dense.evict_one() == victim
    elif kind == "serve_segment":
        arr = np.asarray(batch, dtype=np.int64)
        ours = clock.serve_segment(arr, priority)
        theirs = dense.serve_segment(arr, priority)
        assert ours[0] == theirs[0] == len(batch)
        assert ours[1].tolist() == theirs[1].tolist()
        assert ours[2].tolist() == theirs[2].tolist()
    elif kind == "evict_batch" and len(clock):
        n = min(count, len(clock))
        pre = {k: clock.priority_of(k) for k in clock.keys()}
        victims = clock.evict_batch(n)
        assert dense.evict_batch(n) == victims
        assert len(victims) == n
        assert len(set(victims)) == n
        # Victims drain in nondecreasing pre-call priority ...
        order = [pre[v] for v in victims]
        assert order == sorted(order), (victims, pre)
        # ... and never outrank a survivor (sweep preference).
        survivors = list(clock.keys())
        if survivors:
            assert max(order) <= min(pre[s] for s in survivors), \
                (victims, pre)
    # Global invariants, after every single op.
    assert len(clock) <= clock.capacity
    assert set(clock.keys()) <= inserted_ever
    _assert_clock_modes_agree(clock, dense)
    _assert_contains_batch_agrees(clock)
    _assert_contains_batch_agrees(dense)


def _pick_crossover(monkeypatch, rng: random.Random) -> None:
    """The fuzzed segments are short: a crossover of 1 or 3 keys sends
    them through the fast backend's bulk pass (trims finished by the
    scalar loop inside the call), the default through its scalar
    loop."""
    monkeypatch.setattr(buffer_module, "SCALAR_FALLBACK",
                        rng.choice([1, 3, buffer_module.SCALAR_FALLBACK]))


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_differential_op_sequences(seed, monkeypatch):
    rng = random.Random(8800 + seed)
    capacity = rng.randint(1, 16)
    ops = _gen_ops(rng)
    _pick_crossover(monkeypatch, rng)

    ref = PriorityBuffer(capacity)
    exact_others = [
        PriorityBuffer(capacity, key_space=DENSE_SPACE),
        FastPriorityBuffer(capacity),
        FastPriorityBuffer(capacity, key_space=DENSE_SPACE),
    ]
    packed_ref = PriorityBuffer(capacity)
    packed = FastPriorityBuffer(capacity)
    clock = ClockBuffer(capacity)
    dense = ClockBuffer(capacity, key_space=DENSE_SPACE)
    inserted_ever: set = set()

    for op in ops:
        _apply_exact_group(ref, exact_others, op)
        _apply_exact_group(packed_ref, [packed], _packed(op),
                           probe=PROBE + PACKED)
        if op[0] in ("insert", "serve_segment"):
            inserted_ever.update([op[1]] if op[0] == "insert" else op[3])
        _apply_clock(clock, dense, inserted_ever, op)

    # Exact group: full key-for-key state agreement at the end.
    for buffer in exact_others:
        _assert_same_state(ref, buffer)
    _assert_same_state(packed_ref, packed)
    assert sorted(packed.keys()) == [PACKED + key for key in sorted(ref.keys())]
    fast_dense = exact_others[-1]
    assert fast_dense.residency.count() == len(ref)
    # Drain everything: the remaining victim order must agree too.
    remaining = len(ref)
    if remaining:
        drained = ref.evict_batch(remaining)
        for buffer in exact_others:
            assert buffer.evict_batch(remaining) == drained
        assert packed.evict_batch(remaining) == [PACKED + key
                                                 for key in drained]
    assert fast_dense.residency.count() == 0
    clock_remaining = len(clock)
    if clock_remaining:
        drained = clock.evict_batch(clock_remaining)
        assert len(drained) == clock_remaining
        assert dense.evict_batch(clock_remaining) == drained
    assert len(clock) == 0
    assert len(dense) == 0
    assert dense.residency.count() == 0


def test_exact_group_priority_parity_mid_sequence():
    """Spot-check that parity holds *during* a sequence, not only at the
    end (priorities age differently per eviction) — with and without
    a universe."""
    rng = random.Random(4242)
    ref = PriorityBuffer(8)
    others = [PriorityBuffer(8, key_space=DENSE_SPACE),
              FastPriorityBuffer(8),
              FastPriorityBuffer(8, key_space=DENSE_SPACE)]
    for _ in range(4):
        for op in _gen_ops(rng):
            _apply_exact_group(ref, others, op)
            for buffer in others:
                _assert_same_state(ref, buffer)


# ---------------------------------------------------------------------------
# Dense victim queue: scalar evict_one interleaved with the bulk protocol.

QUEUE_SEQUENCES = 150
QUEUE_OP_WEIGHTS = OP_WEIGHTS + [("evict_one", 6), ("serve_segment", 4),
                                 ("import_state", 1)]


def _shrink_queue(monkeypatch, rng: random.Random) -> None:
    """Most seeds run with a queue a few records deep, so a 120-op
    sequence refills and truncates many times."""
    monkeypatch.setattr(buffer_module, "_VICTIM_QUEUE",
                        rng.choice([1, 2, 5, 1024]))


@pytest.mark.parametrize("seed", range(QUEUE_SEQUENCES))
def test_dense_victim_queue_matches_reference(seed, monkeypatch):
    """Dense ``FastPriorityBuffer`` vs ``PriorityBuffer``, victim for
    victim, under scalar/bulk interleavings (see module docstring).
    ``max_priority`` 400 keeps entries live for the whole sequence: the
    queue finds no candidate and the fallback selection must answer."""
    rng = random.Random(9100 + seed)
    _shrink_queue(monkeypatch, rng)
    _pick_crossover(monkeypatch, rng)
    capacity = rng.randint(1, 20)
    ref = PriorityBuffer(capacity)
    others = [FastPriorityBuffer(capacity, key_space=DENSE_SPACE)]
    for op in _gen_ops(rng, QUEUE_OP_WEIGHTS, rng.choice([1, 6, 400])):
        _apply_exact_group(ref, others, op)
        _assert_same_state(ref, others[0])
    if len(ref):
        assert others[0].evict_batch(len(ref)) == ref.evict_batch(len(ref))


@pytest.mark.parametrize("seed", range(40))
def test_dense_victim_queue_survives_rebalance(seed, monkeypatch):
    """Sharded dense fast vs sharded reference: scalar serving (each
    miss evicting in its key's shard), per-shard demotes and evictions
    from one key's shard, with live ``rebalance`` calls re-drawing
    capacities and partition mid-sequence — every shard's queue must
    die with its backend."""
    rng = random.Random(9500 + seed)
    _shrink_queue(monkeypatch, rng)
    kwargs = dict(key_space=DENSE_SPACE, num_shards=rng.choice([2, 3]),
                  shard_policy=rng.choice(["contiguous", "modulo"]))
    capacity = rng.randint(kwargs["num_shards"], 18)
    ref = ShardedBuffer("reference", capacity, **kwargs)
    dense = ShardedBuffer("fast", capacity, **kwargs)
    for _ in range(OPS_PER_SEQUENCE):
        roll = rng.random()
        batch = [rng.randrange(KEY_SPACE) for _ in range(rng.randint(1, 8))]
        if roll < 0.5:
            priority = rng.randrange(MAX_PRIORITY + 1)
            assert (_scalar_serve(dense, batch, priority)
                    == _scalar_serve(ref, batch, priority))
        elif roll < 0.7:
            resident = [key for key in batch if key in ref]
            for buffer in (ref, dense):
                for target, sub in per_shard(buffer, resident):
                    target.demote_batch(sub)
        elif roll < 0.92:
            count = 1 if roll < 0.85 else rng.randint(1, 4)
            assert (evict(*home(dense, batch[0]), count)
                    == evict(*home(ref, batch[0]), count))
        else:
            weights = [rng.random() + 0.1
                       for _ in range(kwargs["num_shards"])]
            assert dense.rebalance(weights) == ref.rebalance(weights)
        _assert_same_state(ref, dense)
    assert drain(dense) == drain(ref)


def test_import_state_resets_victim_queue():
    """A record of the pre-import numbering may match an imported
    ``(key, seqno)`` pair whose priority is no longer zero."""
    buffer = FastPriorityBuffer(4, key_space=8)
    for key in range(4):
        buffer.insert(key, 0)
    assert buffer.evict_one() == 0      # builds the queue: 1, 2, 3 pending
    buffer.evict_batch(3)
    buffer.import_state([1, 2, 3], [5, 0, 0], [1, 2, 3])
    assert buffer.evict_one() == 2      # 1 is live now; (1, 1) is stale


def test_victim_queue_stays_bounded_without_scalar_evictions():
    """Bulk evictions never pop the queue, so demotes must not grow it
    without bound — and before any scalar eviction they record
    nothing at all."""
    capacity = 48
    buffer = FastPriorityBuffer(capacity, key_space=256)
    for key in range(capacity):
        buffer.insert(key, 2)
    rng = np.random.default_rng(5)
    buffer.demote_batch(rng.integers(0, capacity, 15))
    assert buffer._victims is None
    buffer.evict_one()                  # the one scalar eviction: queue live
    peak = 0
    for step in range(100_000):
        resident = np.flatnonzero(buffer.residency.bitmap)
        buffer.demote_batch(rng.choice(resident, 15))
        if step % 64 == 0:              # churn through the bulk protocol
            buffer.evict_batch(4)
            absent = np.flatnonzero(~buffer.residency.bitmap)
            for key in rng.choice(absent, 4, replace=False).tolist():
                buffer.insert(key, 2)
        peak = max(peak, len(buffer._victims or ()))
    assert 0 < peak <= buffer_module._VICTIM_QUEUE + capacity


# ---------------------------------------------------------------------------
# FastPriorityBuffer.serve_segment: in-call re-miss cascades vs the scalar
# loop.

CASCADE_SEEDS = 200
#: Dense universe of the cascade fuzz; ids outside it (negative ones and
#: up to CASCADE_IDS) spill over into ``_over``.
CASCADE_SPACE = 40
CASCADE_IDS = 56
#: What the cascade fuzz must reach (counted per served segment);
#: ``"finished"``: the bulk pass trimmed and the call finished the rest.
CASCADE_CASES = ("whole", "whole_remiss", "whole_chain", "ripening",
                 "finished", "wide", "spill", "demoted", "garbage")


def _fast_state(buffer: FastPriorityBuffer):
    """Everything a dense :class:`FastPriorityBuffer` is, short of its
    scratch map and its victim queue (bulk serving never pops it)."""
    return (buffer.residency.bitmap.tolist(), buffer._expiry_of.tolist(),
            buffer._seq_of.tolist(), sorted(buffer._over.items()),
            sorted(buffer.residency._overflow), buffer._age, buffer._size,
            buffer._next_seq, buffer._min_seq)


def _replay(buffer, segment, priority):
    """The scalar serving loop on ``buffer``, instrumented.  Returns the
    hit decisions, the victims, whether every victim held priority zero
    at the start and was untouched when evicted, whether an entry live
    at the start ripens before the last eviction, and counts: re-misses
    (misses of keys resident at the start) and chains (evictions fired
    *by* a re-miss whose victim re-misses later)."""
    keys, prio, _ = buffer.export_state()
    start = dict(zip(keys.tolist(), prio.tolist()))
    touched: set = set()
    decisions, victims, fired_by = [], [], []
    clean = True
    for key in segment:
        hit = key in buffer
        decisions.append(hit)
        if hit:
            buffer.set_priority(key, priority)
        else:
            if buffer.is_full:
                victim = buffer.evict_one()
                clean &= victim not in touched and start.get(victim) == 0
                victims.append(victim)
                fired_by.append(key)
            buffer.insert(key, priority)
        touched.add(key)
    remissed = {key for key, hit in zip(segment, decisions)
                if not hit and key in start}
    ripens = any(0 < level <= len(victims) - 1 for level in start.values())
    chains = sum(1 for key, victim in zip(fired_by, victims)
                 if key in remissed and victim in remissed)
    return decisions, victims, clean, ripens, len(remissed), chains


def _bulk_serve(buffer, segment, priority):
    """Serve ``segment`` with one ``serve_segment`` call (the caller
    puts the crossover at 1, so the bulk pass runs first on every
    segment of two keys or more), which must serve all of it; returns
    the decisions, the victims and what the call's first bulk pass
    served (0: the scalar loop took the first access; a 1-key segment
    is the scalar loop's whole, untrimmed)."""
    passes = []
    bulk = buffer._serve_bulk

    def counted(arr, level):
        result = bulk(arr, level)
        passes.append(result[0])
        return result

    buffer._serve_bulk = counted
    try:
        served, misses, victims = buffer.serve_segment(
            np.asarray(segment, dtype=np.int64), priority)
    finally:
        del buffer._serve_bulk
    assert served == len(segment)
    assert np.all(np.diff(misses) > 0) and victims.dtype == np.int64
    hits = np.ones(served, dtype=bool)
    hits[misses] = False
    return hits.tolist(), victims.tolist(), passes[0] if passes else served


def _cascade_segment(rng: random.Random, buffer, capacity: int,
                     ids: range):
    """A segment shaped to cascade: ``"cascade"`` misses first, then the
    oldest residents — the first victims — in age order, each re-miss
    evicting the next; ``"mixed"`` draws residents and fresh ids at
    random; ``"wide"`` holds more distinct keys than slots."""
    keys, _, seq = buffer.export_state()
    by_age = keys[np.argsort(seq)].tolist()
    fresh = [key for key in ids if key not in buffer]
    shape = rng.choice(["cascade", "cascade", "mixed", "wide"])
    if shape == "cascade" and fresh:
        segment = rng.sample(fresh, rng.randint(1, min(len(fresh),
                                                        capacity)))
        room = capacity - len(segment)
        for key in by_age[:rng.randint(0, room)]:
            segment.append(key)
            if rng.random() < 0.2:
                segment.append(rng.choice(segment))
    elif shape == "wide":
        segment = rng.sample(fresh + by_age,
                             min(len(fresh) + len(by_age),
                                 capacity + rng.randint(1, 4)))
    else:
        palette = rng.sample(by_age + fresh,
                             min(capacity, len(by_age) + len(fresh)))
        segment = [rng.choice(palette)
                   for _ in range(rng.randint(1, 3 * capacity))]
    return segment


def _garbage_scratch(rng: random.Random, buffer, length: int) -> str:
    """Fill the scratch map with what a never-cleared map may hold:
    negative, huge or stale in-segment positions."""
    kind = rng.choice(["clean", "negative", "huge", "stale"])
    scratch = buffer._scratch_pos
    seeded = np.random.default_rng(rng.randrange(1 << 30))
    if kind == "negative":
        scratch[:] = seeded.integers(-(1 << 62), 0, scratch.size)
    elif kind == "huge":
        scratch[:] = seeded.integers(1 << 40, 1 << 62, scratch.size)
    elif kind == "stale":
        scratch[:] = seeded.integers(0, length + 2, scratch.size)
    return kind


def _cascade_run(seed: int) -> Counter:
    """One seeded sequence: twin dense fast buffers stirred alike (scalar
    serves at priorities 0-9, demotes, evictions), then segments served
    by ``serve_segment`` on one and the scalar loop on the other —
    decisions, victims and full state equal after every segment, then
    200 more victims equal.  The crossover is 1, so the short segments
    reach the bulk pass.  Returns how often each case came up."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(buffer_module, "SCALAR_FALLBACK", 1)
        return _cascade_steps(seed)


def _cascade_steps(seed: int) -> Counter:
    rng = random.Random(9900 + seed)
    capacity = rng.randint(2, 24)
    ids = range(-3 if rng.random() < 0.5 else 0,
                CASCADE_IDS if rng.random() < 0.5 else CASCADE_SPACE)
    bulk = FastPriorityBuffer(capacity, key_space=CASCADE_SPACE)
    scalar = FastPriorityBuffer(capacity, key_space=CASCADE_SPACE)
    twins = (bulk, scalar)
    stats: Counter = Counter()
    for _ in range(10):
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            keys = [rng.choice(ids) for _ in range(rng.randint(1, capacity))]
            if roll < 0.6:
                level = rng.choice([0, 0, rng.randint(1, 9)])
                for buffer in twins:
                    _scalar_serve(buffer, keys, level)
            elif roll < 0.85:
                for buffer in twins:
                    buffer.demote_batch([key for key in keys
                                         if key in buffer])
            elif len(scalar):
                assert bulk.evict_one() == scalar.evict_one()
        segment = _cascade_segment(rng, scalar, capacity, ids)
        priority = rng.randint(1, 9)
        stats["wide"] += len(set(segment)) > capacity
        stats["spill"] += bool(bulk._over) or min(segment) < 0 \
            or max(segment) >= CASCADE_SPACE
        stats["demoted"] += scalar._min_seq < 0
        stats["garbage"] += _garbage_scratch(rng, bulk,
                                             len(segment)) != "clean"
        decisions, victims, clean, ripens, remisses, chains = _replay(
            scalar, segment, priority)
        bulk_decisions, bulk_victims, first = _bulk_serve(bulk, segment,
                                                          priority)
        assert bulk_decisions == decisions
        assert bulk_victims == victims
        stats["ripening"] += ripens
        if clean and not ripens:
            # Nothing but the pool answered: one call serves it all, re-
            # misses and chains included.
            assert first == len(segment)
            stats["whole"] += 1
            stats["whole_remiss"] += remisses > 0
            stats["whole_chain"] += chains > 0
        stats["finished"] += first < len(segment)
        assert _fast_state(bulk) == _fast_state(scalar)
    for step in range(200):
        key, level = 1000 + step, rng.randint(0, 3)  # a miss each
        assert _scalar_serve(bulk, [key], level) == _scalar_serve(
            scalar, [key], level)
    return stats


@pytest.mark.parametrize("seed", range(CASCADE_SEEDS))
def test_exact_serve_segment_cascades_match_scalar(seed):
    """Small buffers, priorities 1-9, demotes, live entries ripening
    mid-call, re-miss chains, spillover ids in the segment and in
    ``_over``, wider-than-capacity segments and a garbage-filled
    scratch map: ``serve_segment`` matches the scalar loop decision
    for decision, victim for victim and in full state."""
    _cascade_run(seed)


def test_exact_serve_segment_cascade_fuzz_covers_every_case():
    """The cascade fuzz is not vacuous: across 40 of its seeds each case
    it names comes up, and one-call serves include re-misses."""
    stats = sum((_cascade_run(seed) for seed in range(40)), Counter())
    assert all(stats[case] > 0 for case in CASCADE_CASES), stats
    assert stats["whole_remiss"] >= 20, stats


def test_exact_serve_segment_ignores_scratch_garbage():
    """The touch lookup reads the scratch map for every pool entry, the
    segment's keys or not: negative, huge and stale values must change
    nothing against a fresh twin."""
    rng = np.random.default_rng(3)
    ids = rng.permutation(96)
    # 32 residents at priority zero, a segment over 15 of them and 15
    # fresh ids: evictions and re-misses, never more keys than slots.
    segment = rng.choice(np.concatenate((ids[:15], ids[32:47])), 80)
    outcomes = []
    for fill in (None, -7, 1 << 62, "stale"):
        buffer = FastPriorityBuffer(32, key_space=96)
        for key in ids[:32].tolist():
            buffer.insert(key, 0)
        if fill == "stale":
            buffer._scratch_pos[:] = np.arange(96) % segment.size
        elif fill is not None:
            buffer._scratch_pos[:] = fill
        served, misses, victims = buffer.serve_segment(segment, 2)
        outcomes.append((served, misses.tolist(), victims.tolist(),
                         _fast_state(buffer)))
    assert outcomes[0][0] == segment.size and outcomes[0][2]
    assert all(outcome == outcomes[0] for outcome in outcomes)


#: Fuzzed clock ids: below, inside and above the 20-id dense universe of
#: the spillover mode (negative ids included — a bare gather would wrap
#: them).
CLOCK_IDS = st.integers(-3, 44)
#: mode -> (id strategy, twin factory).  "empty" has no universe, so
#: every id spills — packed ones (>= 2**40) too; "views" serves the
#: shard backends of a 3-shard buffer the local ids of its scatter, so
#: victims must decompress to global ids of their own shard.
CLOCK_MODES = {
    "dense": (st.integers(0, 39),
              lambda capacity: ClockBuffer(capacity, key_space=40)),
    "empty": (st.one_of(CLOCK_IDS, CLOCK_IDS.map(lambda key: PACKED + key)),
              ClockBuffer),
    "spillover": (CLOCK_IDS,
                  lambda capacity: ClockBuffer(capacity, key_space=20)),
    "views": (CLOCK_IDS,
              lambda capacity: ShardedBuffer("clock", 3 * capacity,
                                             key_space=20, num_shards=3)),
}


def _clock_ops(ids):
    """Op sequences: mostly serves (duplicate-heavy by construction —
    up to 30 draws from at most 48 ids), the rest stirring the state a
    serve starts from."""
    keys = st.lists(ids, max_size=30)
    return st.lists(st.one_of(
        st.tuples(st.just("serve"), keys, st.integers(-2, 6)),
        st.tuples(st.just("serve"), keys, st.integers(-2, 6)),
        st.tuples(st.just("set_priority_batch"), keys, st.integers(-2, 6)),
        st.tuples(st.just("evict_batch"), keys, st.integers(1, 5)),
    ), min_size=1, max_size=25)


def _clock_state(buffer: ClockBuffer):
    """Everything a :class:`ClockBuffer` is — slot arrays, hand, the
    free stack in order, the id→slot maps and the residency index."""
    return [buffer._key.tolist(), buffer._prio.tolist(),
            buffer._valid.tolist(), buffer._hand,
            buffer._free_slots[:buffer._free_top].tolist(),
            buffer._slot_of.tolist(), buffer._slot_over,
            buffer.residency.bitmap.tolist(), buffer.residency._overflow]


def _bulk_pass(buffer, segment: np.ndarray, priority: int):
    served, misses, victims = buffer.serve_segment(segment, priority)
    assert misses.dtype.kind == "i" and victims.dtype == np.int64
    return served, misses.tolist(), victims.tolist()


def _composed_pass(buffer, segment: np.ndarray, priority: int):
    """The protocol ``serve_segment`` replaced — ``contains_batch`` →
    first-occurrence count → ``evict_batch(needed, avoid=piece)`` → an
    ``insert`` per key of the piece, in order — piece by piece: while
    the rest holds more distinct keys than slots, the longest piece
    with at most half the slots' worth; returns ``(served,
    miss_positions, victims)`` as lists.  ``insert`` shares nothing
    with ``serve_segment``'s first-touch and store helpers."""
    served, misses, victims = 0, [], []
    while served < segment.size:
        piece = segment[served:]
        first_idx = np.sort(np.unique(piece, return_index=True)[1])
        if first_idx.size > buffer.capacity:
            half = max(1, buffer.capacity // 2)
            piece = piece[:first_idx[half]]
            first_idx = first_idx[:half]
        resident = buffer.contains_batch(piece)
        fresh = first_idx[~resident[first_idx]]
        needed = len(buffer) + fresh.size - buffer.capacity
        evicted = (buffer.evict_batch(needed, avoid=piece) if needed > 0
                   else [])
        # Protected reclaim: no victim is a key of the piece.
        assert not set(evicted) & set(piece.tolist())
        for key in piece.tolist():
            buffer.insert(key, priority)
        misses += (served + fresh).tolist()
        victims += evicted
        served += int(piece.size)
    return served, misses, victims


#: How each twin serves a pass: the entry under test, then the
#: composed protocol.
CLOCK_PASSES = (_bulk_pass, _composed_pass)


def _clock_backends(buffer):
    """The :class:`ClockBuffer` s of a bare clock or a sharded buffer."""
    return [backend for backend, _ in shards_of(buffer)]


def _assert_twins_agree(twins) -> None:
    states = [[_clock_state(backend) for backend in _clock_backends(twin)]
              for twin in twins]
    assert states[0] == states[1]


def _serve_clock_twins(twins, keys, priority):
    """Serve ``keys`` on every twin (bare clocks, or one shard's
    backends in its local ids), each through its own pass, comparing
    results and state; returns the victims."""
    segment = np.asarray(keys, dtype=np.int64)
    results = [serve(twin, segment, priority)
               for serve, twin in zip(CLOCK_PASSES, twins)]
    assert results[0] == results[1]
    assert results[0][0] == segment.size
    _assert_twins_agree(twins)
    return results[0][2]


def _apply_clock_twins(twins, op):
    kind, keys, value = op
    if kind == "set_priority_batch":
        for buffer in twins:
            resident = [key for key in keys if key in buffer]
            for target, sub in per_shard(buffer, resident):
                target.set_priority_batch(sub, value)
    elif kind == "evict_batch":
        for twin in twins:
            for backend in _clock_backends(twin):
                if len(backend):
                    backend.evict_batch(min(value, len(backend)))
    elif hasattr(twins[0], "iter_shard_segments"):
        block = np.asarray(keys, dtype=np.int64)
        router = twins[0].router
        for routed in zip(*(twin.iter_shard_segments(block)
                            for twin in twins)):
            index, backend, positions, local = routed[0]
            stored = router.decompress(index, list(backend.keys()))
            held = set(stored.tolist()) | set(block[positions].tolist())
            victims = router.decompress(index, _serve_clock_twins(
                [item[1] for item in routed], local, value))
            # Victims decompress to global ids, of this very shard.
            assert set(victims.tolist()) <= held
            assert all(router.route(key) == index
                       for key in victims.tolist())
    else:
        _serve_clock_twins(twins, keys, value)


@pytest.mark.parametrize("mode", sorted(CLOCK_MODES))
def test_clock_serve_segment_matches_composed_protocol(mode):
    ids, factory = CLOCK_MODES[mode]

    @given(st.integers(1, 12), _clock_ops(ids))
    @settings(max_examples=150, deadline=None)
    def check(capacity, ops):
        twins = [factory(capacity) for _ in CLOCK_PASSES]
        for op in ops:
            _apply_clock_twins(twins, op)
            _assert_twins_agree(twins)

    check()


@pytest.mark.parametrize("mode", sorted(CLOCK_MODES))
def test_clock_serve_segment_edge_segments(mode):
    """The segment shapes the fuzz may take a while to hit, in one
    sequence per mode: empty, single key, all resident, duplicate-heavy,
    ``distinct == capacity`` and ``distinct == capacity + 1`` (served
    in pieces of at most half the slots' worth of distinct keys),
    negative priority (clamps to 0)."""
    capacity = 6
    twins = [CLOCK_MODES[mode][1](capacity) for _ in CLOCK_PASSES]
    # One shard's worth of ids under the "views" router (ids < 7 share
    # shard 0 of the 20-id universe; spillover ids are 0 mod 3).
    spill = [] if mode == "dense" else [21, -3]
    pool = [0, 1, 2, 3, 4, 5, 6] + spill
    for keys, priority in [
            ([], 3), ([4], 3), ([4], -2), ([4, 4, 4], 1),
            ([4, 1, 4, 1, 1, 4, 2, 2], 2),          # duplicate-heavy
            (pool[:capacity], 3),                   # distinct == capacity
            (pool[:capacity][::-1], -1),            # all resident, clamps
            (pool[1:capacity + 1] + pool[:1], 2),   # needs every other slot
            (pool[:capacity + 1], 4),               # distinct == capacity + 1
            (pool[::-1] + pool, 0),
            (spill + [6, 6] + spill, 5)]:
        _apply_clock_twins(twins, ("serve", keys, priority))
    backend = _clock_backends(twins[0])[0]
    assert len(backend) == capacity
    assert int(backend._prio.min()) >= 0


def test_clock_serve_segment_raise_paths_mutate_nothing():
    """A protected sweep short of eligible entries raises before
    touching any state."""
    buffer = ClockBuffer(4, key_space=16)
    buffer.serve_segment(np.array([1, 2, 3]), 2)
    before = _clock_state(buffer)
    with pytest.raises(RuntimeError, match="more entries"):
        buffer.evict_batch(2, avoid=[1, 2, 40, -1])
    assert _clock_state(buffer) == before


@pytest.mark.parametrize("key_space", (None, 8))
def test_clock_out_of_range_ids_never_reach_the_dense_gather(key_space):
    """A negative id must not wrap onto the id at the other end of the
    slot vector, nor an id above the universe index past it."""
    buffer = make_buffer("clock", 4, key_space=key_space)
    buffer.insert(7, 1)
    buffer.insert(0, 1)
    served, misses, victims = buffer.serve_segment(
        np.array([-1, 8, -8, 7]), 3)
    assert (served, misses.tolist(), victims.tolist()) == (4, [0, 1, 2], [0])
    assert sorted(buffer.keys()) == [-8, -1, 7, 8]


# ---------------------------------------------------------------------------
# apply_caching_bits: the scalar loop vs the bulk protocol.

APPLIER_CAPACITY = 256
#: Dense universe smaller than the id range: ids above it spill over.
APPLIER_SPACE = 300
APPLIER_IDS = 360
APPLIER_BACKENDS = {
    "reference": lambda: make_buffer("reference", APPLIER_CAPACITY),
    "fast-dense": lambda: make_buffer("fast", APPLIER_CAPACITY,
                                      key_space=APPLIER_SPACE),
    # No universe: every id in the spillover dict.
    "fast-dict": lambda: make_buffer("fast", APPLIER_CAPACITY),
    "clock": lambda: make_buffer("clock", APPLIER_CAPACITY,
                                 key_space=APPLIER_SPACE),
    "shard-views": lambda: ShardedBuffer("fast", APPLIER_CAPACITY,
                                         key_space=APPLIER_SPACE,
                                         num_shards=2),
}


def _backend_states(buffer):
    """``export_state()`` of every backend under ``buffer`` as lists —
    exact backends sorted by key (their export order is unspecified),
    the clock's kept as is (hand order is its state)."""
    states = []
    for backend, _ in shards_of(buffer):
        columns = backend.export_state()
        order = (slice(None) if getattr(backend, "approximate", False)
                 else np.argsort(columns[0]))
        states.append([column[order].tolist() for column in columns])
    return states


@pytest.mark.parametrize("size", (1, 15, 63, 64, 65, 200))
@pytest.mark.parametrize("backend", sorted(APPLIER_BACKENDS))
def test_caching_bit_applier_forms_leave_identical_state(backend, size,
                                                         monkeypatch):
    """Blocks with duplicates, ``-1`` bits, non-resident keys and
    spill-over ids, sizes straddling the crossover: the applier as it
    dispatches, forced scalar and forced bulk must leave the same
    ``export_state()`` (seqnos included) and the same drain.
    A sharded buffer takes its bits per shard backend, in local ids, as
    the manager's sink splits them."""
    from repro.serving import priorities

    assert 63 < priorities.SCALAR_FALLBACK < 65
    for seed in range(6):
        rng = np.random.default_rng([seed, size])
        resident = rng.choice(APPLIER_IDS, size=240, replace=False)
        levels = rng.integers(0, MAX_PRIORITY + 1, size=resident.size)
        pool = rng.choice(APPLIER_IDS + 40, size=max(2, size // 2))
        keys = rng.choice(pool, size=size)
        bits = rng.integers(-1, 2, size=size).astype(np.int8)
        outcomes = []
        for crossover in (None, 10 ** 9, -1):
            buffer = APPLIER_BACKENDS[backend]()
            for key, level in zip(resident.tolist(), levels.tolist()):
                _scalar_serve(buffer, [key], level)  # a full shard evicts
            for shard, _ in shards_of(buffer):
                for _ in range(3):  # dense fast: demotes meet a live queue
                    shard.evict_one()
            with monkeypatch.context() as patch:
                if crossover is not None:
                    patch.setattr(priorities, "SCALAR_FALLBACK", crossover)
                if hasattr(buffer, "iter_shard_segments"):
                    for _, shard, positions, local in \
                            buffer.iter_shard_segments(keys):
                        priorities.apply_caching_bits(shard, local,
                                                      bits[positions], 4)
                else:
                    priorities.apply_caching_bits(buffer, keys, bits, 4)
            outcomes.append((_backend_states(buffer), drain(buffer)))
        assert outcomes[0] == outcomes[1] == outcomes[2]


# ---------------------------------------------------------------------------
# Batched exact serving engine vs the scalar audit loop, end to end.

SERVING_SEEDS = 200


def _serving_trace(rng: random.Random):
    from repro.traces import SyntheticTraceConfig, generate_trace

    config = SyntheticTraceConfig(
        num_tables=rng.choice([1, 2, 4]),
        rows_per_table=rng.choice([40, 90, 160]),
        num_accesses=rng.choice([300, 600, 900]),
        num_clusters=rng.choice([4, 8]),
        cluster_block=4,
        periodic_items=rng.choice([0, 20, 60]),
        periodic_spacing=rng.choice([3, 7]),
        seed=rng.randrange(10_000),
    )
    return generate_trace(config)


@pytest.mark.parametrize("seed", range(SERVING_SEEDS))
def test_exact_serving_decision_equivalence(seed):
    """The dense ``"fast"`` bulk serving engine reproduces the
    scalar audit loop decision-for-decision on randomized traces —
    counters, victims (via eviction counts), per-access hit stream and
    the final buffer state all identical.  Encoders fitted on a prefix
    only make the tail map above the vocabulary, exercising the
    spillover fallback mid-serving."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager

    rng = random.Random(7100 + seed)
    trace = _serving_trace(rng)
    config = RecMGConfig(eviction_speed=rng.choice([1, 2, 4, 9]),
                         buffer_impl="fast")
    fit_on = trace if rng.random() < 0.7 else trace.head(
        max(1, len(trace) // 2))
    encoder = FeatureEncoder(config).fit(fit_on)
    capacity = max(1, int(trace.num_unique * rng.choice([0.05, 0.2, 0.6])))

    def run(fast_serve):
        manager = RecMGManager(capacity, encoder, config)
        stats = manager.run(trace, fast_serve=fast_serve,
                            record_decisions=True)
        return manager, stats

    batched_manager, batched = run(fast_serve=True)
    scalar_manager, scalar = run(fast_serve=False)
    assert batched_manager.buffer.key_space == encoder.vocab_size, \
        "fitted encoder must give the buffer its universe"
    assert batched == scalar
    assert np.array_equal(batched_manager.last_decisions,
                          scalar_manager.last_decisions)
    # Identical buffer state: same residents, priorities, and victim
    # order for a full drain.
    b_buf, s_buf = (manager.buffer.shards[0].backend
                    for manager in (batched_manager, scalar_manager))
    assert sorted(b_buf.keys()) == sorted(s_buf.keys())
    for key in s_buf.keys():
        assert b_buf.priority_of(key) == s_buf.priority_of(key)
    remaining = len(s_buf)
    if remaining:
        assert b_buf.evict_batch(remaining) == s_buf.evict_batch(remaining)


@pytest.mark.parametrize("engine", ["single", "sharded", "classifier"])
def test_tagged_victim_re_miss_is_one_on_demand_miss(engine):
    """A prefetch-tagged key at priority zero that the segment's first
    miss evicts and a later access re-touches, inside one bulk pass, is
    one on-demand miss with no prefetch hit and no tag left: its first
    occurrence misses.  The unsharded exact engine, a sharded exact
    shard and ``BufferClassifier`` (no tags, same re-miss), each
    against its scalar oracle — the same set-up on the ``reference``
    backend."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager
    from repro.dlrm import BufferClassifier

    tagged = 150
    fill = np.arange(79)
    # 160 misses and evicts `tagged` (demoted last: the smallest seqno);
    # its re-miss evicts 4; the rest hit.  72 keys, all routed to shard
    # 0 of the sharded buffer: past the engine's scalar cutoff.
    segment = np.concatenate(([160, tagged], np.arange(5, 75)))
    demoted = np.array([3, 4, tagged])
    outcomes = []
    for impl in ("fast", "reference"):
        calls: list = []
        if engine == "classifier":
            server = BufferClassifier(80, buffer_impl=impl, priority=2,
                                      key_space=400)
            server.access_batch(np.append(fill, tagged))
            server.buffer.demote_batch(demoted)
            buffer = server.buffer
        else:
            config = RecMGConfig(eviction_speed=2, buffer_impl=impl,
                                 num_shards=1 if engine == "single" else 2)
            server = RecMGManager(
                80 if engine == "single" else 160, FeatureEncoder(config),
                config, key_space=400)
            server.serve_batch(fill)
            server._apply_prefetches(np.array([tagged]))
            server._apply_caching_bits(demoted, np.zeros(3, dtype=np.int8))
            assert server._prefetched == {tagged}
            buffer = server.buffer
        target = (buffer if engine == "classifier"
                  else buffer.shards[0].backend)
        bulk = getattr(target, "_serve_bulk", None)
        if bulk is not None:
            target._serve_bulk = (lambda seg, prio, bulk=bulk:
                                  calls.append(len(seg)) or bulk(seg, prio))
        hits = (server.access_batch(segment) if engine == "classifier"
                else server.serve_batch(segment))
        counters = (None if engine == "classifier" else (
            server.breakdown.cache_hits, server.breakdown.prefetch_hits,
            server.breakdown.on_demand, server.evictions,
            server.prefetches_useful, sorted(server._prefetched)))
        state = sorted((key, buffer.priority_of(key)) for key in buffer.keys())
        outcomes.append((hits.tolist(), counters, state, drain(buffer),
                         calls))
    fast, reference = outcomes
    assert fast[:4] == reference[:4]
    assert fast[4] == [segment.size]        # one bulk pass served it all
    assert fast[0] == [False, False] + [True] * (segment.size - 2)
    if engine != "classifier":
        _, prefetch_hits, on_demand, _, useful, tags = fast[1]
        assert (prefetch_hits, useful, tags) == (0, 0, [])
        assert on_demand == fill.size + 2


@pytest.mark.parametrize("num_shards", [1, 2])
@pytest.mark.parametrize("impl", ["fast", "clock", "reference"])
def test_fold_scores_a_tag_by_its_first_occurrence(impl, num_shards):
    """One call wider than the buffer (or shard) — served in several
    internal prefixes on ``fast`` and ``clock``, by the scalar loop on
    ``reference``: the tagged key hits in the first, a later one
    evicts it, and the segment's last access re-touches it.  The fold
    scores one prefetch hit (its first occurrence hit), one on-demand
    miss for the re-touch, and leaves no tag; on the exact backends
    the engine also equals the ``fast_serve=False`` audit loop,
    counter for counter."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager

    tagged = 150
    # 70 fresh keys between the two touches, every key routed to shard
    # 0 (ids below 200 of the 400-id universe): far more distinct keys
    # than its 4 slots, and past the fast backend's crossover.
    segment = np.concatenate(([tagged], np.arange(20, 90), [tagged]))
    outcomes = []
    for fast_serve in (True, False):
        config = RecMGConfig(eviction_speed=2, buffer_impl=impl,
                             num_shards=num_shards)
        manager = RecMGManager(4 * num_shards, FeatureEncoder(config),
                               config, key_space=400)
        manager.serve_batch(np.array([10, 11, 12]))
        manager._apply_prefetches(np.array([tagged]))
        assert manager._prefetched == {tagged}
        breakdown = manager.breakdown
        misses_before = breakdown.on_demand
        manager._record_hits = []
        manager._select_engine(fast_serve)(segment)
        hits = np.concatenate(manager._record_hits).tolist()
        manager._record_hits = None
        outcomes.append((hits, breakdown.prefetch_hits,
                         manager.prefetches_useful,
                         breakdown.on_demand - misses_before,
                         breakdown.cache_hits, manager.evictions,
                         sorted(manager._prefetched)))
    bulk, audit = outcomes
    hits, prefetch_hits, useful, misses, _, _, tags = bulk
    assert hits[0] and not hits[-1]         # first touch hits, re-touch misses
    assert (prefetch_hits, useful, tags) == (1, 1, [])
    assert misses == 71                     # the 70 fresh keys + the re-touch
    if impl != "clock":
        assert bulk == audit


def test_short_fast_subsegments_take_the_scalar_loop():
    """On ``fast`` shards a sub-segment of at most ``SCALAR_FALLBACK``
    keys is served by the scalar loop inside ``serve_segment`` — no
    bulk pass — and a longer one by the bulk pass."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager

    config = RecMGConfig(eviction_speed=2, buffer_impl="fast", num_shards=2)
    manager = RecMGManager(400, FeatureEncoder(config), config,
                           key_space=400)
    passes: list = []
    for shard in manager.buffer.shards:
        bulk = shard.backend._serve_bulk
        shard.backend._serve_bulk = (lambda arr, prio, bulk=bulk:
                                     passes.append(arr.size)
                                     or bulk(arr, prio))
    # 60 keys per shard, then 80 keys all routed to shard 0.
    manager.serve_batch(np.concatenate((np.arange(0, 60),
                                        np.arange(200, 260))))
    assert passes == []
    manager.serve_batch(np.arange(100, 180))
    assert passes == [80]
    assert buffer_module.SCALAR_FALLBACK == 64

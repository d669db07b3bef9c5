"""Priority GPU buffer (Algorithms 1-2): semantics and fast/naive parity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    BUFFER_IMPLS,
    ClockBuffer,
    FastPriorityBuffer,
    PriorityBuffer,
    buffer as buffer_module,
    make_buffer,
)


class TestReferenceSemantics:
    def test_evicts_lowest_priority(self):
        buf = PriorityBuffer(3)
        buf.insert(1, 5)
        buf.insert(2, 1)
        buf.insert(3, 4)
        assert buf.evict_one() == 2

    def test_aging_decrements(self):
        buf = PriorityBuffer(3)
        buf.insert(1, 2)
        buf.insert(2, 0)
        buf.evict_one()                 # evicts 2, ages 1 down to 1
        assert buf.priority_of(1) == 1

    def test_tie_breaks_by_recency(self):
        buf = PriorityBuffer(3)
        buf.insert(1, 1)
        buf.insert(2, 1)
        buf.set_priority(1, 1)          # touch 1 -> 2 is now oldest
        assert buf.evict_one() == 2

    def test_demote_evicted_first(self):
        buf = PriorityBuffer(3)
        buf.insert(1, 0)
        buf.insert(2, 5)
        buf.insert(3, 5)
        buf.demote(3)
        assert buf.evict_one() == 3

    def test_full_insert_raises(self):
        buf = PriorityBuffer(1)
        buf.insert(1, 1)
        with pytest.raises(RuntimeError):
            buf.insert(2, 1)

    def test_empty_evict_raises(self):
        with pytest.raises(RuntimeError):
            PriorityBuffer(1).evict_one()

    def test_priority_floor_at_zero(self):
        buf = PriorityBuffer(4)
        buf.insert(1, 1)
        buf.insert(2, 0)
        buf.insert(3, 0)
        assert buf.evict_one() == 2   # oldest zero-priority entry
        assert buf.priority_of(1) == 0  # aged 1 -> 0, floored
        assert buf.priority_of(3) == 0


OPS = st.lists(
    st.tuples(st.sampled_from(["insert", "set", "demote", "evict"]),
              st.integers(0, 40), st.integers(0, 6)),
    min_size=1, max_size=300,
)


class TestFastParity:
    @given(OPS)
    @settings(max_examples=60, deadline=None)
    def test_equivalent_to_reference(self, ops):
        """Both implementations make identical victim choices under any
        interleaving of inserts, priority updates, demotions, evictions."""
        ref = PriorityBuffer(12)
        fast = FastPriorityBuffer(12)
        for op, key, priority in ops:
            if op == "insert":
                if key in ref:
                    ref.set_priority(key, priority)
                    fast.set_priority(key, priority)
                elif not ref.is_full:
                    ref.insert(key, priority)
                    fast.insert(key, priority)
            elif op == "set" and key in ref:
                ref.set_priority(key, priority)
                fast.set_priority(key, priority)
            elif op == "demote" and key in ref:
                ref.demote(key)
                fast.demote(key)
            elif op == "evict" and len(ref):
                assert ref.evict_one() == fast.evict_one()
            assert len(ref) == len(fast)
        assert sorted(ref.keys()) == sorted(fast.keys())
        for key in ref.keys():
            assert ref.priority_of(key) == fast.priority_of(key)

    def test_fast_basic_semantics(self):
        buf = FastPriorityBuffer(3)
        buf.insert(1, 5)
        buf.insert(2, 1)
        buf.insert(3, 4)
        assert buf.evict_one() == 2
        assert buf.priority_of(1) == 4  # aged

    CAP1_OPS = st.lists(
        st.tuples(st.sampled_from(["insert", "set", "demote", "evict"]),
                  st.integers(0, 5), st.integers(0, 4)),
        min_size=1, max_size=120,
    )

    @given(CAP1_OPS)
    @settings(max_examples=60, deadline=None)
    def test_equivalent_at_capacity_one(self, ops):
        """Interleaved demote/set_priority/insert at capacity 1 — the
        degenerate buffer where every insert immediately borders an
        eviction and the zero/live heap migration is maximally hot."""
        ref = PriorityBuffer(1)
        fast = FastPriorityBuffer(1)
        for op, key, priority in ops:
            if op == "insert":
                if key in ref:
                    ref.set_priority(key, priority)
                    fast.set_priority(key, priority)
                elif not ref.is_full:
                    ref.insert(key, priority)
                    fast.insert(key, priority)
            elif op == "set" and key in ref:
                ref.set_priority(key, priority)
                fast.set_priority(key, priority)
            elif op == "demote" and key in ref:
                ref.demote(key)
                fast.demote(key)
            elif op == "evict" and len(ref):
                assert ref.evict_one() == fast.evict_one()
            assert len(ref) == len(fast)
            assert sorted(ref.keys()) == sorted(fast.keys())
            for key in ref.keys():
                assert ref.priority_of(key) == fast.priority_of(key)

    def test_fast_validations(self):
        buf = FastPriorityBuffer(1)
        with pytest.raises(RuntimeError):
            buf.evict_one()
        buf.insert(1, 1)
        with pytest.raises(RuntimeError):
            buf.insert(2, 1)
        with pytest.raises(KeyError):
            buf.set_priority(99, 1)
        with pytest.raises(KeyError):
            buf.demote(99)


@pytest.mark.parametrize("impl", ["reference", "fast"])
class TestEvictionOrderContract:
    """Regression tests for the documented (effective_priority, seqno)
    victim order: identical on both exact backends by construction, not
    by accident of dict/heap internals."""

    def _buf(self, impl, capacity):
        return make_buffer(impl, capacity)

    def test_equal_priority_evicts_oldest_touch_first(self, impl):
        buf = self._buf(impl, 3)
        buf.insert(1, 2)
        buf.insert(2, 2)
        buf.insert(3, 2)
        buf.set_priority(1, 2)          # refresh: 1 becomes newest
        assert buf.evict_batch(3) == [2, 3, 1]

    def test_demoted_keys_evict_in_reverse_demote_order(self, impl):
        """demote() draws fresh *decreasing* seqnos, so the most
        recently demoted key evicts first (stack order)."""
        buf = self._buf(impl, 3)
        buf.insert(1, 5)
        buf.insert(2, 5)
        buf.insert(3, 5)
        buf.demote(1)
        buf.demote(3)
        assert buf.evict_one() == 3     # demoted last -> smallest seqno
        assert buf.evict_one() == 1

    def test_reinsert_after_demote_refreshes_seqno(self, impl):
        buf = self._buf(impl, 3)
        buf.insert(1, 1)
        buf.insert(2, 1)
        buf.demote(1)
        buf.set_priority(1, 1)          # back to a fresh positive seqno
        assert buf.evict_one() == 2     # 2 is now the oldest at prio 1

    def test_aged_entry_ties_break_by_insertion_order(self, impl):
        """Entries reaching equal *effective* priority through different
        aging histories still tie-break by seqno."""
        buf = self._buf(impl, 3)
        buf.insert(1, 2)
        buf.insert(2, 0)
        assert buf.evict_one() == 2     # ages 1 down to 1
        buf.insert(3, 1)                # same effective priority as 1
        assert buf.evict_one() == 1     # older seqno loses the tie

    def test_victim_sequence_identical_across_exact_backends(self, impl):
        """The full drain order of a mixed workload is the contract;
        compare each backend against the hand-computed sequence."""
        buf = self._buf(impl, 4)
        buf.insert(10, 3)
        buf.insert(11, 1)
        buf.insert(12, 1)
        buf.demote(10)
        buf.insert(13, 0)
        buf.set_priority(11, 1)
        # 10 first (demoted: priority 0, negative seqno); the aging from
        # that eviction floors 11/12 to zero alongside 13, after which
        # pure seqno order drains 12 (seq 2), 13 (seq 3), 11 (seq 4).
        assert buf.evict_batch(4) == [10, 12, 13, 11]


class TestClockSemantics:
    """ClockBuffer unit semantics (the fuzz suite covers interleavings)."""

    def test_registry_exposes_three_backends(self):
        assert sorted(BUFFER_IMPLS) == ["clock", "fast", "reference"]
        assert make_buffer("clock", 2).approximate
        assert not make_buffer("fast", 2).approximate
        with pytest.raises(ValueError):
            make_buffer("nope", 2)

    def test_zero_priority_evicted_before_survivors(self):
        buf = ClockBuffer(3)
        buf.insert(1, 2)
        buf.insert(2, 0)
        buf.insert(3, 1)
        assert buf.evict_one() == 2

    def test_sweep_ages_survivors_once_per_pass(self):
        buf = ClockBuffer(3)
        buf.insert(1, 2)
        buf.insert(2, 1)
        buf.insert(3, 1)
        # No zeros: one aging sweep makes 2 and 3 zero; hand order
        # takes both before 1 (still at priority 1).
        assert buf.evict_batch(2) == [2, 3]
        assert buf.priority_of(1) == 1

    def test_batch_victims_nondecreasing_priority(self):
        buf = ClockBuffer(4)
        for key, priority in [(1, 3), (2, 0), (3, 2), (4, 0)]:
            buf.insert(key, priority)
        victims = buf.evict_batch(3)
        pre = {1: 3, 2: 0, 3: 2, 4: 0}
        order = [pre[v] for v in victims]
        assert order == sorted(order)
        assert max(order) <= min(pre[s] for s in buf.keys())

    def test_demote_marks_evict_soon(self):
        buf = ClockBuffer(3)
        buf.insert(1, 4)
        buf.insert(2, 4)
        buf.insert(3, 4)
        buf.demote(2)
        assert buf.evict_one() == 2

    def test_put_batch_checks_capacity_before_mutating(self):
        buf = ClockBuffer(2)
        buf.insert(1, 1)
        with pytest.raises(RuntimeError):
            buf.put_batch([2, 3], 1)
        assert sorted(buf.keys()) == [1]
        buf.put_batch([1, 2], 3)        # refresh + fill exactly
        assert sorted(buf.keys()) == [1, 2]
        assert buf.priority_of(1) == 3

    def test_validations_match_exact_backends(self):
        buf = ClockBuffer(1)
        with pytest.raises(RuntimeError):
            buf.evict_one()
        buf.insert(1, 1)
        with pytest.raises(RuntimeError):
            buf.insert(2, 1)
        with pytest.raises(KeyError):
            buf.set_priority(99, 1)
        with pytest.raises(KeyError):
            buf.demote(99)
        with pytest.raises(RuntimeError):
            buf.evict_batch(2)
        with pytest.raises(ValueError):
            ClockBuffer(0)

    def test_negative_priorities_clamp_and_still_evict(self):
        """Regression: a negative priority must not make an entry
        immortal (the sweep harvests the priority-zero class only)."""
        buf = ClockBuffer(2)
        buf.insert(1, -1)
        assert buf.priority_of(1) == 0
        buf.insert(2, 2)
        buf.set_priority(2, -5)
        assert buf.priority_of(2) == 0
        assert buf.evict_batch(2) == [1, 2]
        buf.put_batch([3], -3)
        assert buf.priority_of(3) == 0
        assert buf.evict_one() == 3

    def test_slots_recycle_across_full_turnover(self):
        buf = ClockBuffer(3)
        for generation in range(5):
            keys = list(range(10 * generation, 10 * generation + 3))
            buf.put_batch(keys, 1)
            assert sorted(buf.keys()) == keys
            assert buf.evict_batch(3) and len(buf) == 0

    def test_wide_segment_passes_reclaim_at_most_half_the_buffer(self):
        """A segment with more distinct keys than slots is served in
        pieces of at most half the slots' worth of distinct keys: each
        pass evicts by priority, so a high-priority resident outlives
        a segment of ``capacity + 1`` fresh keys.  One pass over a
        piece as wide as the buffer would have swept it out."""
        buf = ClockBuffer(4, key_space=16)
        buf.put_batch([10, 11, 12], 0)
        buf.insert(13, 5)
        segment = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        served, misses, victims = buf.serve_segment(segment, 1)
        assert served == segment.size
        assert misses.tolist() == [0, 1, 2, 3, 4]
        assert sorted(victims.tolist()) == [1, 2, 10, 11, 12]
        assert 13 in buf and sorted(buf.keys()) == [3, 4, 5, 13]


@pytest.mark.parametrize("impl", ["reference", "fast"])
class TestBulkProtocolExact:
    """contains_batch / set_priority_batch / demote_batch on the exact
    backends: defined as the scalar ops applied in order."""

    def test_contains_batch_matches_scalar(self, impl):
        buf = make_buffer(impl, 4)
        for key in (2, 5, 9):
            buf.insert(key, 1)
        probe = np.array([0, 2, 5, 7, 9, -1], dtype=np.int64)
        assert np.array_equal(
            buf.contains_batch(probe),
            np.array([k in buf for k in probe.tolist()]))

    def test_set_priority_batch_equals_scalar_loop(self, impl):
        bulk = make_buffer(impl, 4)
        scalar = make_buffer(impl, 4)
        for buf in (bulk, scalar):
            for key in (1, 2, 3):
                buf.insert(key, 2)
        bulk.set_priority_batch(np.array([2, 1]), 5)
        for key in (2, 1):
            scalar.set_priority(key, 5)
        assert bulk.evict_batch(3) == scalar.evict_batch(3)

    def test_set_priority_batch_requires_residency(self, impl):
        buf = make_buffer(impl, 2)
        buf.insert(1, 1)
        with pytest.raises(KeyError):
            buf.set_priority_batch([1, 99], 3)

    def test_demote_batch_preserves_reverse_demote_order(self, impl):
        buf = make_buffer(impl, 3)
        for key in (1, 2, 3):
            buf.insert(key, 4)
        buf.demote_batch([1, 3])
        assert buf.evict_one() == 3     # demoted last -> evicts first
        assert buf.evict_one() == 1


class TestClockSlotOrder:
    """Regression (PR 3): ``put_batch`` used to route new keys through
    ``set()``, so slots — and therefore hand-order victim tie-breaking —
    followed integer-hash order instead of first-touch order."""

    @pytest.mark.parametrize("key_space", [None, 64])
    def test_put_batch_assigns_slots_in_first_touch_order(self, key_space):
        buf = make_buffer("clock", 4, key_space=key_space)
        # set() iteration would order these 1, 2, 3.
        buf.put_batch([3, 1, 2], 0)
        assert buf.evict_batch(3) == [3, 1, 2]

    @pytest.mark.parametrize("key_space", [None, 64])
    def test_duplicates_keep_first_touch_position(self, key_space):
        buf = make_buffer("clock", 8, key_space=key_space)
        buf.put_batch([5, 3, 5, 2, 3, 7], 0)
        assert buf.evict_batch(4) == [5, 3, 2, 7]

    def test_mixed_resident_and_new_keys(self):
        buf = ClockBuffer(4)
        buf.insert(9, 0)                 # slot 0
        buf.put_batch([4, 9, 6], 0)      # new: 4 -> slot 1, 6 -> slot 2
        assert buf.evict_batch(3) == [9, 4, 6]


def _unit_step_clock_reference(prios, n):
    """Pre-PR 3 ``evict_batch`` aging semantics: harvest zeros in hand
    order, else age every survivor by exactly one, repeatedly.  Slot i
    holds key i; hand starts at 0 (fresh buffer).  Returns (victims,
    survivor priorities by slot)."""
    prio = list(prios)
    valid = [True] * len(prio)
    hand = 0
    victims = []
    while n:
        zeros = [i for i, p in enumerate(prio) if valid[i] and p == 0]
        if zeros:
            ordered = ([i for i in zeros if i >= hand]
                       + [i for i in zeros if i < hand])
            take = ordered[:n]
            for i in take:
                valid[i] = False
            victims.extend(take)
            n -= len(take)
            hand = (take[-1] + 1) % len(prio)
        if n:
            for i, p in enumerate(prio):
                if valid[i] and p > 0:
                    prio[i] = p - 1
    survivors = {i: prio[i] for i in range(len(prio)) if valid[i]}
    return victims, survivors


class TestClockBatchAgingStep:
    """Regression (PR 3): a dry sweep now ages survivors by the minimum
    surviving priority in one vectorized subtraction.  Victims and
    survivor priorities must equal the old one-per-sweep aging — which
    went O(priority · capacity) when priorities are large (high
    ``eviction_speed``)."""

    @pytest.mark.parametrize("key_space", [None, 4096])
    def test_differential_vs_unit_step_reference(self, key_space):
        import random as _random

        rng = _random.Random(99)
        for _ in range(12):
            capacity = rng.randint(2, 12)
            prios = [rng.randint(0, 3000) for _ in range(capacity)]
            buf = make_buffer("clock", capacity, key_space=key_space)
            for key, priority in enumerate(prios):
                buf.insert(key, priority)
            n = rng.randint(1, capacity)
            expected_victims, expected_prios = \
                _unit_step_clock_reference(prios, n)
            assert buf.evict_batch(n) == expected_victims
            for key in buf.keys():
                assert buf.priority_of(key) == expected_prios[key]

    def test_high_speed_batch_aging_pass_count(self):
        """The whole point: huge priorities no longer cost one aging
        pass per unit of priority.  Deterministic operation-count proxy
        (no wall clock): every dry sweep issues exactly one
        ``np.subtract``, so reclaiming 64 slots from all-positive
        priorities must age at most 64 times — unit-step aging would
        issue ~100k subtracts here."""
        from unittest import mock

        capacity = 4096
        buf = ClockBuffer(capacity)
        for key in range(capacity):
            buf.insert(key, 100_000 + key)
        with mock.patch("repro.cache.buffer.np.subtract",
                        wraps=np.subtract) as aging:
            victims = buf.evict_batch(64)
        assert len(victims) == 64
        assert aging.call_count <= 64

    def test_single_aging_step_uses_min_surviving_priority(self):
        buf = ClockBuffer(3)
        buf.insert(1, 7)
        buf.insert(2, 3)
        buf.insert(3, 5)
        assert buf.evict_batch(1) == [2]
        # Survivors aged by min surviving priority (3), not just one.
        assert buf.priority_of(1) == 4
        assert buf.priority_of(3) == 2


class TestClockDenseMode:
    """key_space mode: residency bitmap + dense slot vector."""

    def test_make_buffer_forwards_key_space_to_every_backend(self):
        for impl in ("clock", "fast", "reference"):
            buf = make_buffer(impl, 4, key_space=32)
            assert buf.residency is not None
            assert buf.residency.key_space == 32
            assert buf.key_space == 32
        # Without one: the empty universe on the array-native pair, no
        # index on the reference.
        for impl in ("clock", "fast"):
            assert make_buffer(impl, 4).key_space == 0
            assert make_buffer(impl, 4).residency.key_space == 0
        assert make_buffer("reference", 4).residency is None

    def test_rejects_bad_key_space(self):
        """0 is the empty universe; only a negative one is refused."""
        from repro.cache import ResidencyIndex

        assert ClockBuffer(4, key_space=0).key_space == 0
        assert ResidencyIndex(0).count() == 0
        for make in (ResidencyIndex, lambda k: ClockBuffer(4, key_space=k),
                     lambda k: FastPriorityBuffer(4, key_space=k)):
            with pytest.raises(ValueError):
                make(-1)

    def test_spillover_keys_above_key_space(self):
        """The manager maps unseen keys above the vocabulary; they must
        behave exactly like in-range keys."""
        buf = ClockBuffer(3, key_space=8)
        buf.insert(2, 1)
        buf.insert(100, 1)      # spillover
        buf.put_batch([2, 101], 0)
        assert 100 in buf and 101 in buf
        assert np.array_equal(
            buf.contains_batch(np.array([2, 100, 101, 5])),
            np.array([True, True, True, False]))
        assert sorted(buf.evict_batch(3)) == [2, 100, 101]
        assert buf.residency.count() == 0

    def test_set_priority_batch_scatter(self):
        buf = ClockBuffer(4, key_space=16)
        buf.put_batch([1, 2, 3], 1)
        buf.set_priority_batch(np.array([3, 1]), 0)
        assert buf.priority_of(3) == 0 and buf.priority_of(1) == 0
        assert buf.priority_of(2) == 1
        with pytest.raises(KeyError):
            buf.set_priority_batch(np.array([1, 9]), 2)


class TestFastDenseMode:
    """key_space mode of the exact pair: residency bitmap + dense
    (expiry, seqno) vectors on the fast backend, bitmap mirror on the
    reference backend.  Exhaustive equivalence with the reference lives
    in tests/test_buffer_differential.py; these pin the contracts the
    batched serving engine builds on."""

    def test_numpy_duplicate_index_assignment_keeps_last(self):
        """serve_segment's linear first/last-occurrence scatters rely
        on fancy-index assignment writing duplicate indices in order
        (last value wins).  Pin the semantic so a numpy behavior change
        fails loudly here instead of corrupting victim selection."""
        out = np.empty(4, dtype=np.int64)
        out[np.array([2, 2, 2])] = np.array([10, 11, 12])
        assert out[2] == 12
        out[np.array([3, 3, 3])[::-1]] = np.array([7, 8, 9])[::-1]
        assert out[3] == 7

    def test_spillover_keys_above_key_space(self):
        """Ids outside the bitmap behave exactly like in-range keys."""
        buf = FastPriorityBuffer(3, key_space=8)
        buf.insert(2, 1)
        buf.insert(100, 1)      # spillover
        buf.put_batch([2, 101], 0)
        assert 100 in buf and 101 in buf
        assert np.array_equal(
            buf.contains_batch(np.array([2, 100, 101, 5])),
            np.array([True, True, True, False]))
        assert buf.priority_of(100) == 1 and buf.priority_of(101) == 0
        # Exact victim order: 2 first (zero, oldest seqno); the aging
        # step then ripens 100, whose older seqno beats 101.
        assert buf.evict_batch(3) == [2, 100, 101]
        assert buf.residency.count() == 0

    def test_dense_mode_keeps_exact_eviction_contract(self):
        """The documented (effective_priority, seqno) order, spot-wise:
        demote beats everything in reverse-demote order, equal priority
        evicts oldest touch first."""
        for buf in (FastPriorityBuffer(4, key_space=16),
                    PriorityBuffer(4, key_space=16)):
            buf.insert(1, 2)
            buf.insert(2, 2)
            buf.insert(3, 5)
            buf.insert(4, 5)
            buf.demote(1)
            buf.demote(2)
            assert buf.evict_batch(4) == [2, 1, 3, 4]

    def test_batch_ops_validate_before_scatter(self):
        buf = FastPriorityBuffer(4, key_space=16)
        buf.put_batch([1, 2, 3], 1)
        with pytest.raises(KeyError):
            buf.set_priority_batch(np.array([1, 9]), 2)
        with pytest.raises(KeyError):
            buf.demote_batch(np.array([1, 9]))
        with pytest.raises(RuntimeError):
            buf.put_batch([4, 5], 1)
        assert sorted(buf.keys()) == [1, 2, 3]


class TestServeSegment:
    """FastPriorityBuffer.serve_segment: the batched exact serving
    primitive (scalar-loop equivalence is fuzzed end to end in
    tests/test_buffer_differential.py)."""

    @pytest.fixture(autouse=True)
    def _bulk_from_the_first_key(self, monkeypatch):
        """The segments here are short: with the crossover at 1 the
        bulk pass serves every one of two keys or more instead of the
        scalar loop (the 1-key cases call ``_serve_bulk`` directly)."""
        monkeypatch.setattr(buffer_module, "SCALAR_FALLBACK", 1)

    @staticmethod
    def _scalar(buf, segment, priority):
        decisions, victims = [], []
        for key in segment:
            key = int(key)
            if key in buf:
                decisions.append(True)
                buf.set_priority(key, priority)
            else:
                decisions.append(False)
                if buf.is_full:
                    victims.append(buf.evict_one())
                buf.insert(key, priority)
        return decisions, victims

    def test_empty_universe_serves_packed_keys(self):
        """``key_space=0``: packed keys (>= 2**40) all spill, and one
        call still serves the segment exactly like the scalar loop."""
        base = 3 << 40
        a, b = FastPriorityBuffer(4), FastPriorityBuffer(4)
        for buf in (a, b):
            buf.put_batch([base + 5, base + 7, base + 9], 0)
        # base+2 evicts base+5, whose re-miss evicts base+7.
        segment = np.array([base + 1, base + 9, base + 2, base + 5],
                           dtype=np.int64)
        decisions_b, victims_b = self._scalar(b, segment, 2)
        served, first_miss, victims_a = a.serve_segment(segment, 2)
        assert served == segment.size
        hits = np.ones(served, dtype=bool)
        hits[first_miss] = False
        assert hits.tolist() == decisions_b == [False, True, False, False]
        assert victims_a.tolist() == victims_b == [base + 5, base + 7]
        assert sorted(a.keys()) == sorted(b.keys())
        assert a.evict_batch(4) == b.evict_batch(4)

    def test_full_segment_serve_matches_scalar(self):
        a = FastPriorityBuffer(6, key_space=16)
        b = FastPriorityBuffer(6, key_space=16)
        for buf in (a, b):  # two old entries that the misses evict
            buf.put_batch([11, 12], 0)
        segment = np.array([5, 6, 5, 7, 8, 8, 9], dtype=np.int64)
        decisions_b, victims_b = self._scalar(b, segment, 2)
        served, first_miss, victims_a = a.serve_segment(segment, 2)
        victims_a = victims_a.tolist()
        assert served == len(segment)
        assert victims_a == [11]
        decisions_a = [True] * served
        for position in first_miss.tolist():
            decisions_a[position] = False
        assert decisions_a == decisions_b
        assert victims_a == victims_b
        assert sorted(a.keys()) == sorted(b.keys()) == [5, 6, 7, 8, 9, 12]
        for key in a.keys():
            assert a.priority_of(key) == b.priority_of(key)

    def test_reaccess_of_victim_re_misses_in_the_same_call(self):
        """A key evicted mid-segment and re-accessed later re-misses
        inside the same call, and that miss's own eviction can take
        the next later-touched key (a chain): 3 evicts 1, 1's re-miss
        evicts 9 (2 was refreshed), 9's evicts 7 — one call, three
        misses, and state equal to the scalar loop."""
        a = FastPriorityBuffer(4, key_space=16)
        b = FastPriorityBuffer(4, key_space=16)
        for buf in (a, b):
            buf.put_batch([1, 2, 9, 7], 0)
        segment = np.array([3, 2, 1, 9, 2], dtype=np.int64)
        decisions_b, victims_b = self._scalar(b, segment, 0)
        served, misses, victims = a.serve_segment(segment, 0)
        assert served == len(segment)
        assert misses.tolist() == [0, 2, 3]
        assert victims.tolist() == victims_b == [1, 9, 7]
        assert decisions_b == [False, True, False, False, True]
        assert sorted(a.keys()) == sorted(b.keys()) == [1, 2, 3, 9]
        for key in a.keys():
            assert a.priority_of(key) == b.priority_of(key)
        assert a.evict_batch(4) == b.evict_batch(4)

    def _assert_total_call_is_scalar(self, build, segment, priority):
        """On twins from ``build()``, one ``serve_segment`` call — the
        bulk pass first, the call finishing what it trims — equals the
        scalar loop: decisions, victims and a full drain."""
        a, b = build(), build()
        decisions_b, victims_b = self._scalar(b, segment, priority)
        served, misses, victims = a.serve_segment(segment, priority)
        assert served == segment.size
        hits = np.ones(served, dtype=bool)
        hits[misses] = False
        assert hits.tolist() == decisions_b
        assert victims.tolist() == victims_b
        assert a.evict_batch(len(b)) == b.evict_batch(len(b))

    def test_dry_pool_ends_the_prefix_at_the_eviction_it_cannot_answer(
            self):
        """A re-miss whose eviction finds no untouched priority-zero
        entry left (the victim would be a key the segment stored)
        ends the bulk pass's prefix right before that access; the
        next pass serves it, inside the same total call."""
        def build():
            buf = FastPriorityBuffer(2, key_space=16)
            buf.put_batch([1, 2], 1)
            buf.evict_batch(2)  # age entries to zero quickly
            buf.put_batch([1, 2], 0)
            return buf

        # 3 misses (evicts 1), 2 hits, 1 re-misses with only stored
        # entries left to evict.
        segment = np.array([3, 2, 1, 2], dtype=np.int64)
        a = build()
        served, misses, victims = a._serve_bulk(segment, 0)
        assert victims.tolist() == [1]
        assert served == 2
        assert misses.tolist() == [0]
        served2, misses2, victims2 = a._serve_bulk(segment[served:], 0)
        assert served2 >= 1
        assert 0 in misses2.tolist()  # the re-miss of key 1
        assert victims2.tolist() == [3]
        self._assert_total_call_is_scalar(build, segment, 0)

    def test_zero_serve_when_first_access_needs_unservable_eviction(self):
        """If even the first access cannot be bulk-served (its eviction
        would pop a positive-priority victim), the bulk pass refuses
        without mutating, and the total call serves it through the
        scalar loop."""
        def build():
            buf = FastPriorityBuffer(1, key_space=8)
            buf.insert(1, 5)   # lone entry, still live
            return buf

        buf = build()
        before = (len(buf), buf.priority_of(1), buf._next_seq)
        segment = np.array([2], dtype=np.int64)
        assert buf._serve_bulk(segment, 1)[0] == 0
        assert (len(buf), buf.priority_of(1), buf._next_seq) == before
        self._assert_total_call_is_scalar(build, segment, 1)

    def test_segment_wider_than_buffer_serves_fitting_prefix(self):
        def build():
            return FastPriorityBuffer(2, key_space=16)

        buf = build()
        segment = np.array([1, 2, 1, 3, 4], dtype=np.int64)
        served, first_miss, victims = buf._serve_bulk(segment, 0)
        assert served == 3          # distinct keys {1, 2} fit; 3 spills
        assert first_miss.tolist() == [0, 1]
        assert victims.tolist() == []
        assert sorted(buf.keys()) == [1, 2]
        self._assert_total_call_is_scalar(build, segment, 0)

    @pytest.mark.parametrize("impl", sorted(BUFFER_IMPLS))
    def test_every_backend_serves_the_whole_segment(self, impl):
        """``serve_segment`` is total: a segment wider than the buffer,
        with repeats, is served in one call on every backend."""
        buf = make_buffer(impl, 3, key_space=16)
        segment = np.array([1, 2, 1, 3, 4, 5, 1, 2, 6], dtype=np.int64)
        served, misses, victims = buf.serve_segment(segment, 1)
        assert served == segment.size
        assert len(buf) == 3
        assert misses.size - victims.size == 3

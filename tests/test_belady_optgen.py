"""Belady MIN and OPTgen: optimality and label semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    LRUCache, NEVER, next_use_indices, run_optgen, run_optgen_reference,
    simulate, simulate_belady,
)
from repro.core import RecMGConfig
from repro.core.features import FeatureEncoder
from repro.core.labeling import build_labels
from repro.traces import Trace


def trace_of(keys):
    return Trace.from_pairs([(0, k) for k in keys])


class TestNextUse:
    def test_hand_example(self):
        keys = np.array([1, 2, 1, 3])
        nxt = next_use_indices(keys)
        assert nxt[0] == 2
        assert nxt[1] == NEVER
        assert nxt[2] == NEVER


class TestBelady:
    def test_classic_example(self):
        # With capacity 2, Belady on a,b,c,a,b keeps a and b; c misses.
        stats, decisions = simulate_belady(trace_of([1, 2, 3, 1, 2]),
                                           capacity=2,
                                           record_decisions=True)
        assert stats.hits == 2
        assert decisions.tolist() == [False, False, False, True, True]

    @given(st.lists(st.integers(0, 12), min_size=5, max_size=150),
           st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_belady_at_least_lru(self, keys, capacity):
        trace = trace_of(keys)
        opt_stats, _ = simulate_belady(trace, capacity)
        lru = LRUCache(capacity)
        simulate(lru, trace)
        assert opt_stats.hits >= lru.stats.hits

    def test_infinite_capacity_only_cold_misses(self):
        keys = [1, 2, 3, 1, 2, 3, 1]
        stats, _ = simulate_belady(trace_of(keys), capacity=100)
        assert stats.misses == 3


class TestOptgen:
    @given(st.lists(st.integers(0, 12), min_size=5, max_size=120),
           st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_matches_belady_hit_count(self, keys, capacity):
        """For a fully associative cache OPTgen reproduces MIN exactly
        (both implement the same feasibility argument)."""
        trace = trace_of(keys)
        belady_stats, _ = simulate_belady(trace, capacity)
        result = run_optgen(trace, capacity)
        assert result.stats.hits == belady_stats.hits

    def test_cache_friendly_semantics(self):
        # All reuses fit with capacity 2: every non-final access of a
        # reused key is friendly; final accesses are not.
        result = run_optgen(trace_of([1, 2, 1, 2]), capacity=2)
        assert result.cache_friendly.tolist() == [True, True, False, False]

    def test_last_access_never_friendly(self, tiny_trace):
        result = run_optgen(tiny_trace.head(1500), capacity=100)
        keys = tiny_trace.head(1500).keys()
        last_positions = {}
        for i, key in enumerate(keys):
            last_positions[int(key)] = i
        for position in last_positions.values():
            assert not result.cache_friendly[position]

    def test_prefetch_trace_is_miss_complement(self, tiny_trace):
        trace = tiny_trace.head(1500)
        config = RecMGConfig()
        labels = build_labels(trace, 100, config,
                              FeatureEncoder(config).fit(trace))
        result = run_optgen(trace, max(1, int(100 * config.optgen_fraction)))
        misses = labels.miss_positions
        assert len(misses) == result.stats.misses
        assert not labels.opt_hits[misses].any()
        assert np.array_equal(labels.opt_hits, result.opt_hits)

    @pytest.mark.parametrize("capacity", [1, 2_000, 9_999, 10_000, 20_000])
    def test_two_lap_cyclic_trace(self, capacity):
        """Mean reuse interval ``P`` — the long-interval regime.  Every
        second-lap interval covers slot ``P - 1``, so OPT admits exactly
        the first ``min(capacity, P)`` of them."""
        period = 10_000
        keys = np.arange(2 * period) % period
        result = run_optgen(Trace.from_keys(keys), capacity)
        admitted = min(capacity, period)
        assert result.stats.hits == admitted
        assert np.array_equal(result.cache_friendly[:period],
                              np.arange(period) < admitted)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            run_optgen(trace_of([1, 2]), capacity=0)


class TestDegenerateIntervals:
    """Immediate repeats produce single-slot (and, defensively, empty)
    reuse intervals — regression tests for the ``range_max(prev, i - 1)``
    guard."""

    def test_immediate_repeats_all_hit_at_capacity_one(self):
        result = run_optgen(trace_of([7, 7, 7, 7]), capacity=1)
        assert result.opt_hits.tolist() == [False, True, True, True]
        assert result.stats.hits == 3

    def test_immediate_repeats_interleaved(self):
        # The repeat of 3 must not be starved by the surrounding
        # occupancy of key 7's intervals.
        result = run_optgen(trace_of([7, 7, 3, 3, 7]), capacity=1)
        reference = run_optgen_reference(trace_of([7, 7, 3, 3, 7]),
                                         capacity=1)
        assert np.array_equal(result.opt_hits, reference.opt_hits)
        assert result.opt_hits.tolist() == [False, True, False, True, False]

    @given(st.integers(1, 8), st.integers(1, 12))
    @settings(max_examples=20, deadline=None)
    def test_pure_repeat_trace(self, repeats, capacity):
        keys = [5] * repeats
        result = run_optgen(trace_of(keys), capacity)
        assert result.stats.hits == repeats - 1
        assert result.stats.misses == 1

    def test_trees_accept_empty_interval(self):
        from repro.cache.optgen import _RecursiveMaxSegmentTree

        tree = _RecursiveMaxSegmentTree(8)
        tree.add(2, 1, 5)            # empty: must be a no-op
        assert tree.range_max(2, 1) == 0   # empty: trivially feasible
        assert tree.range_max(0, 7) == 0
        tree.add(1, 3, 2)
        assert tree.range_max(0, 7) == 2

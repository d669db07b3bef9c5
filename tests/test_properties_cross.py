"""Cross-module property tests: invariants spanning substrates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import (
    LRUCache, SetAssociativeCache, run_optgen, simulate, simulate_belady,
)
from repro.traces import Trace, lru_hit_rate, reuse_distances

KEY_LISTS = st.lists(st.integers(0, 20), min_size=5, max_size=120)


def trace_of(keys):
    return Trace.from_pairs([(0, k) for k in keys])


class TestCacheHierarchyInvariants:
    @given(KEY_LISTS, st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_opt_dominates_lru_dominates_setassoc_bound(self, keys, capacity):
        """OPT >= full LRU, and every policy's hits <= warm accesses."""
        trace = trace_of(keys)
        opt, _ = simulate_belady(trace, capacity)
        lru = LRUCache(capacity)
        simulate(lru, trace)
        warm = len(keys) - len(set(keys))
        assert opt.hits >= lru.stats.hits
        assert opt.hits <= warm

    @given(KEY_LISTS, st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_optgen_friendly_bits_bounded_by_hits(self, keys, capacity):
        """Each friendly label corresponds to a subsequent OPT hit, so
        friendly count == OPT hit count exactly."""
        trace = trace_of(keys)
        result = run_optgen(trace, capacity)
        assert int(result.cache_friendly.sum()) == result.stats.hits

    @given(KEY_LISTS)
    @settings(max_examples=30, deadline=None)
    def test_infinite_capacity_reaches_cold_miss_bound(self, keys):
        trace = trace_of(keys)
        opt, _ = simulate_belady(trace, capacity=10_000)
        assert opt.misses == len(set(keys))

    @given(KEY_LISTS, st.integers(1, 16))
    @settings(max_examples=30, deadline=None)
    def test_set_assoc_never_beats_full_lru_plus_slack(self, keys, capacity):
        """A 2-way set-assoc cache of equal capacity suffers conflict
        misses, so it never exceeds warm-access hits."""
        trace = trace_of(keys)
        cache = SetAssociativeCache(max(2, capacity), ways=2)
        simulate(cache, trace)
        warm = len(keys) - len(set(keys))
        assert cache.stats.hits <= warm


class TestReuseDistanceDuality:
    @given(KEY_LISTS)
    @settings(max_examples=30, deadline=None)
    def test_hit_rate_curve_reaches_warm_fraction(self, keys):
        """With capacity beyond the largest reuse distance, LRU hit rate
        equals the warm-access fraction."""
        trace = trace_of(keys)
        distances = reuse_distances(trace)
        warm_fraction = (distances >= 0).mean()
        assert lru_hit_rate(distances, capacity=10_000) == pytest.approx(
            warm_fraction)

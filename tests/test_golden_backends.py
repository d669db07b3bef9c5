"""Golden end-to-end regression: committed per-backend counters.

A fixed-seed synthetic trace is served by every manager backend (and
the LRU harness) and the resulting hit/miss/eviction counters are
checked against values committed here.  Hot-path rewrites are supposed
to be *behaviorally invisible* — the exact backends bit-for-bit, the
clock backend stable under its own contract — so any silent policy
shift (a changed victim order, a misclassified access, an off-by-one
in batch accounting) breaks this file loudly instead of drifting the
paper's figures.

Every clock golden was last regenerated when
``ClockBuffer.serve_segment`` took one rule for a segment with more
distinct keys than the buffer has slots: protected passes over pieces
of at most half the slots' worth of distinct keys.  Before, the
unsharded engine served such a segment through the unprotected scalar
loop, and clock shards in passes over pieces as wide as the shard.
Here every such segment is wide: 23 of the 24 unsharded 512-key
blocks against 197 slots, and all 24 shard sub-segments (~512 keys
against 49-99 slots); 13 of the 24 on the drifting trace.  The rows
moved: unsharded 7638 -> 8118 hits; sharded (8358, 8375, 8257, 8264)
-> (8055, 8014, 7951, 7937); rebalanced 8621 -> 8398 and 9493 ->
9378.  The time before, the unsharded engine had adopted *protected*
eviction (``evict_batch(avoid=segment)``; 7616 -> 7638 hits).

If a change legitimately alters policy behavior (it should say so in
its PR), regenerate the constants by running the printed expressions
— every entry is a plain (cache_hits, on_demand, evictions) tuple.
"""

import pytest

from repro.core import RecMGConfig
from repro.core.features import FeatureEncoder
from repro.core.manager import RecMGManager
from repro.prefetch import run_breakdown
from repro.traces import SyntheticTraceConfig, generate_trace

#: (cache_hits, on_demand, evictions) per (buffer_impl, key_space) at
#: a 20% buffer on the golden trace below; ``None`` gives the backend no
#: universe, so every id takes the spillover path.  The exact trio must
#: stay identical to each other *and* to these values; the clock pair
#: approximates (its own committed values, also universe-independent).
GOLDEN_MANAGER = {
    ("reference", "auto"): (7666, 4334, 4137),
    ("fast", None): (7666, 4334, 4137),
    ("fast", "auto"): (7666, 4334, 4137),
    ("clock", None): (8118, 3882, 3685),
    ("clock", "auto"): (8118, 3882, 3685),
}

#: (cache_hits, on_demand, evictions) per (buffer_impl, num_shards,
#: shard_policy) sharded manager config at the same 20% total capacity
#: on the golden trace.  Sharded serving is legitimately its own
#: policy: capacity splits per shard (so eviction pressure is local)
#: and the clock shards reclaim with *protected* eviction — hence the
#: clock rows, like the unsharded clock golden, beat the exact trio on
#: this looping trace, while the exact rows stay within noise of it
#: (per-shard exact serving of a partitioned stream).
GOLDEN_SHARDED = {
    ("fast", 2, "contiguous"): (7666, 4334, 4137),
    ("fast", 2, "modulo"): (7655, 4345, 4148),
    ("fast", 4, "contiguous"): (7674, 4326, 4129),
    ("fast", 4, "modulo"): (7668, 4332, 4135),
    ("clock", 2, "contiguous"): (8055, 3945, 3748),
    ("clock", 2, "modulo"): (8014, 3986, 3789),
    ("clock", 4, "contiguous"): (7951, 4049, 3852),
    ("clock", 4, "modulo"): (7937, 4063, 3866),
}

#: (cache_hits, on_demand, evictions, rebalance_count, migrated_keys)
#: per (buffer_impl, rebalance_interval) for the 4-shard contiguous
#: manager on the *drifting-hot-band* trace below (20% capacity).
#: ``interval=0`` is the static-split baseline; ``interval=1024`` runs
#: the online elastic rebalancer (threshold 0.05).  These pin the
#: whole migration path end to end — EWMA trigger, barrier, export/
#: re-route/import, donor shrink — and the committed rows double as
#: the decision-identity golden: any reordering of migrated entries'
#: eviction state shifts the downstream victim stream and these
#: counters with it.  The adaptive row must also *beat* its static
#: sibling (the self-consistency test below), mirroring the gated
#: drifting-hot-band bench in ``benchmarks/test_perf_hotpaths.py``.
GOLDEN_REBALANCED = {
    ("fast", 0): (8171, 3829, 3516, 0, 0),
    ("fast", 1024): (9209, 2791, 2478, 1, 65),
    ("clock", 0): (8398, 3602, 3289, 0, 0),
    ("clock", 1024): (9378, 2622, 2309, 1, 65),
}

#: (cache_hits, on_demand) for the no-prefetcher LRU harness on the
#: same trace/capacity: closed form == simulation (exact LRU), clock =
#: second-chance approximation.
GOLDEN_LRU = (7666, 4334)
GOLDEN_LRU_CLOCK = (7632, 4368)


@pytest.fixture(scope="module")
def golden_trace():
    config = SyntheticTraceConfig(
        num_tables=4, rows_per_table=512, num_accesses=12_000,
        num_clusters=16, cluster_block=8, periodic_items=120,
        periodic_spacing=7, seed=20260730,
    )
    return generate_trace(config)


@pytest.fixture(scope="module")
def golden_capacity(golden_trace):
    return max(1, int(golden_trace.num_unique * 0.2))


@pytest.mark.parametrize("impl,key_space", sorted(GOLDEN_MANAGER,
                                                  key=repr))
def test_manager_backend_matches_golden(golden_trace, golden_capacity,
                                        impl, key_space):
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(golden_trace)
    manager = RecMGManager(golden_capacity, encoder, config,
                           buffer_impl=impl, key_space=key_space)
    stats = manager.run(golden_trace)
    observed = (stats.breakdown.cache_hits, stats.breakdown.on_demand,
                stats.evictions)
    assert observed == GOLDEN_MANAGER[(impl, key_space)], (
        f"{impl!r}/key_space={key_space!r} shifted policy behavior: "
        f"{observed} != committed golden")
    assert stats.breakdown.total == len(golden_trace)
    assert stats.breakdown.prefetch_hits == 0  # no models deployed


@pytest.mark.parametrize("impl,num_shards,policy",
                         sorted(GOLDEN_SHARDED, key=repr))
def test_sharded_manager_matches_golden(golden_trace, golden_capacity,
                                        impl, num_shards, policy):
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(golden_trace)
    manager = RecMGManager(golden_capacity, encoder, config,
                           buffer_impl=impl, num_shards=num_shards,
                           shard_policy=policy)
    stats = manager.run(golden_trace)
    observed = (stats.breakdown.cache_hits, stats.breakdown.on_demand,
                stats.evictions)
    assert observed == GOLDEN_SHARDED[(impl, num_shards, policy)], (
        f"{impl!r}/{num_shards} shards/{policy!r} shifted sharded "
        f"policy behavior: {observed} != committed golden")
    assert stats.breakdown.total == len(golden_trace)
    assert stats.breakdown.prefetch_hits == 0  # no models deployed
    # Per-shard capacities partition the total exactly.
    assert sum(manager.buffer.shard_capacities) == golden_capacity


@pytest.fixture(scope="module")
def drifting_trace():
    from repro.traces.synthetic import generate_drifting_hot_band_trace

    config = SyntheticTraceConfig(
        num_tables=4, rows_per_table=512, num_accesses=12_000,
        seed=20260730,
    )
    return generate_drifting_hot_band_trace(config, num_shards=4)


@pytest.mark.parametrize("impl,interval", sorted(GOLDEN_REBALANCED,
                                                 key=repr))
def test_rebalanced_manager_matches_golden(drifting_trace, impl,
                                           interval):
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(drifting_trace)
    capacity = max(1, int(drifting_trace.num_unique * 0.2))
    manager = RecMGManager(capacity, encoder, config, buffer_impl=impl,
                           num_shards=4, shard_policy="contiguous",
                           rebalance_interval=interval,
                           rebalance_threshold=0.05)
    stats = manager.run(drifting_trace)
    summary = manager.serving_metrics.summary()
    observed = (stats.breakdown.cache_hits, stats.breakdown.on_demand,
                stats.evictions, summary["rebalance_count"],
                summary["rebalance_migrated_keys"])
    assert observed == GOLDEN_REBALANCED[(impl, interval)], (
        f"{impl!r}/interval={interval} shifted rebalancing behavior: "
        f"{observed} != committed golden")
    # Capacity conservation survives migration; donor-shrink victims
    # are accounted exactly once (hits + misses == accesses and the
    # buffer never over-admits).
    assert stats.breakdown.total == len(drifting_trace)
    assert sum(manager.buffer.shard_capacities) == capacity
    assert len(manager.buffer) <= capacity
    manager.close()


def test_rebalanced_goldens_are_self_consistent():
    """The adaptive rows must trigger at least one migration and beat
    their static siblings on the drifting workload — the committed
    form of the bench's recovered-gap gate."""
    for impl in ("fast", "clock"):
        static = GOLDEN_REBALANCED[(impl, 0)]
        adaptive = GOLDEN_REBALANCED[(impl, 1024)]
        assert static[0] + static[1] == adaptive[0] + adaptive[1] == 12_000
        assert static[3] == 0  # interval=0 never rebalances
        assert adaptive[3] >= 1 and adaptive[4] > 0
        assert adaptive[0] > static[0]


def test_sharded_goldens_are_self_consistent():
    """Exact sharded configs stay close to the exact trio (per-shard
    exact serving); protected-reclaim clock configs, sharded or not,
    must not fall below it (that is the point of the protection: no
    key is evicted right before its own refresh)."""
    exact_hits = GOLDEN_MANAGER[("fast", "auto")][0]
    assert GOLDEN_MANAGER[("clock", "auto")][0] >= exact_hits
    for (impl, _, _), (hits, misses, evictions) in GOLDEN_SHARDED.items():
        assert hits + misses == 12_000
        if impl == "fast":
            assert abs(hits - exact_hits) <= 20
        else:
            assert hits >= exact_hits


def test_exact_backends_identical_on_golden_trace():
    """The committed goldens themselves must agree across the exact
    trio and with and without each backend's id universe."""
    exact = {GOLDEN_MANAGER[key] for key in GOLDEN_MANAGER
             if key[0] != "clock"}
    assert len(exact) == 1
    clock = {GOLDEN_MANAGER[key] for key in GOLDEN_MANAGER
             if key[0] == "clock"}
    assert len(clock) == 1


def test_lru_harness_matches_golden(golden_trace, golden_capacity):
    closed = run_breakdown(golden_trace, golden_capacity)
    assert (closed.cache_hits, closed.on_demand) == GOLDEN_LRU
    simulated = run_breakdown(golden_trace, golden_capacity,
                              engine="reference")
    assert simulated == closed
    for impl in ("reference", "fast"):
        assert run_breakdown(golden_trace, golden_capacity,
                             engine="reference",
                             buffer_impl=impl) == closed
    clock = run_breakdown(golden_trace, golden_capacity,
                          buffer_impl="clock")
    assert (clock.cache_hits, clock.on_demand) == GOLDEN_LRU_CLOCK

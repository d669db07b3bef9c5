"""Sharded-buffer subsystem tests: routers, wiring, and differentials.

Three layers of checking for :mod:`repro.cache.sharding`:

* **Unit** — router totality/determinism (scalar == batch, every int64
  key maps to exactly one shard, contiguous ranges tile the universe),
  ``ShardedBuffer`` validation (``num_shards > 1`` without
  ``key_space`` is rejected with a clear error).
* **Op-level differential (200-seed fuzz)** — a 1-shard
  :class:`ShardedBuffer` must be decision-for-decision identical to
  the bare backend it wraps (victims, resident sets, priorities, after
  every op), for the exact and the clock backend alike; simultaneously
  an N>1 sharded buffer must keep the partition invariants after every
  op: every key routes to exactly one shard, per-shard residency
  bitmaps are pairwise disjoint, and their union equals scalar
  membership (spillover ids above the bitmap included).  The op
  vocabulary (``sharded_ops.py``) is what serving calls.
* **Manager-level** — the bulk serving engine over a sharded buffer
  (``RecMGManager._serve_demand_bulk`` through
  ``ShardedBuffer.serve_segment``) must be
  decision-for-decision identical to the scalar audit loop over the
  same sharded buffer for exact shards (the clock engine is
  approximate by contract: totals conserved, capacity never exceeded),
  a 1-shard manager must reproduce a bare dense-fast backend driven by
  the scalar serving loop exactly, and the scalar eviction path hands
  the manager global victim ids.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.cache import (
    ClockBuffer,
    FastPriorityBuffer,
    ShardRouter,
    ShardedBuffer,
    make_buffer,
)
from sharded_ops import (
    DENSE_SPACE,
    PROBE,
    apply_op,
    assert_partition_invariants,
    drain,
    gen_ops,
    resident,
    shards_of,
)

NUM_SEQUENCES = 200
OPS_PER_SEQUENCE = 90


def _shard_keys(buffer, index):
    """The global ids resident in shard ``index``."""
    backend, to_global = shards_of(buffer)[index]
    return sorted(to_global(key) for key in backend.keys())


# ---------------------------------------------------------------------------
# Routers.


@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_router_total_and_batch_consistent(policy, num_shards):
    router = ShardRouter(policy, num_shards, 40)
    keys = np.arange(-15, 120, dtype=np.int64)
    batch = router.route_batch(keys)
    assert batch.dtype == np.int64
    assert ((batch >= 0) & (batch < num_shards)).all()
    for key, shard in zip(keys.tolist(), batch.tolist()):
        assert router.route(key) == shard  # scalar == batch, per key


def test_contiguous_ranges_tile_universe():
    router = ShardRouter("contiguous", 3, 10)
    covered = []
    for shard in range(3):
        lo, hi = router.range_of(shard)
        covered.extend(range(lo, hi))
        for key in range(lo, hi):
            assert router.route(key) == shard
    assert covered == list(range(10))  # disjoint, exhaustive, in order


def test_modulo_router_stripes():
    router = ShardRouter("modulo", 4, 100)
    assert router.route(0) == 0 and router.route(7) == 3
    assert router.route(103) == 3  # spillover ids stripe identically


def test_make_router_rejects_unknown_policy():
    with pytest.raises(ValueError, match="shard_policy"):
        ShardRouter("hash-ring", 2, 10)


def test_shard_router_rejects_unknown_policy():
    """The router itself refuses a policy it does not implement, rather
    than building a modulo partition under the unknown name."""
    with pytest.raises(ValueError, match="unknown shard_policy"):
        ShardRouter("Modulo", 2, 10)


# ---------------------------------------------------------------------------
# Id compression (the N×-memory fix): exact per-router bijections.


@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
@pytest.mark.parametrize("key_space", [1, 2, 7, 19, 40])
def test_compress_round_trips_owned_universe(policy, num_shards,
                                             key_space):
    """``compress`` is an exact, order-preserving bijection from a
    shard's owned in-universe ids onto a dense prefix of
    ``[0, shard_key_space)``; ``decompress`` inverts it; scalar and
    batch forms agree key for key."""
    router = ShardRouter(policy, num_shards, key_space)
    all_ids = np.arange(key_space, dtype=np.int64)
    routes = router.route_batch(all_ids)
    total_owned = 0
    for shard in range(num_shards):
        owned = all_ids[routes == shard]
        local = router.compress(shard, owned)
        space = router.shard_key_space(shard)
        # The owned ids fill the compressed universe exactly (the
        # max(1, .) floor only pads shards that own nothing).
        assert space == max(1, owned.size)
        assert ((local >= 0) & (local < space)).all()
        assert np.unique(local).size == owned.size  # injective
        # Strictly monotonic: sorted/unique segment orders survive
        # compression, which is why decisions cannot drift.
        assert (np.diff(local) > 0).all()
        assert np.array_equal(router.decompress(shard, local), owned)
        for key, loc in zip(owned.tolist(), local.tolist()):
            assert router.compress_key(shard, key) == loc
            assert router.decompress_key(shard, loc) == key
        total_owned += owned.size
    assert total_owned == key_space  # shards partition the universe
    # The whole-block form agrees with the per-shard form element-wise
    # (including spillover passthrough).
    probe = np.concatenate([all_ids, [-5, -1, key_space, key_space + 7]])
    routes = router.route_batch(probe)
    block = router.compress(routes, probe)
    for shard in range(num_shards):
        mask = routes == shard
        assert np.array_equal(block[mask],
                              router.compress(shard, probe[mask]))


@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
def test_compress_spillover_passthrough(policy):
    """Ids outside ``[0, key_space)`` pass through compression and
    decompression unchanged — they live in the backends' spillover
    side paths under their global identity, so decompression stays
    unambiguous."""
    router = ShardRouter(policy, 3, 12)
    spill = np.array([-9, -1, 12, 13, 40, 10**12], dtype=np.int64)
    for shard in range(3):
        owned = spill[router.route_batch(spill) == shard]
        assert np.array_equal(router.compress(shard, owned), owned)
        assert np.array_equal(router.decompress(shard, owned), owned)
        for key in owned.tolist():
            assert router.compress_key(shard, key) == key
            assert router.decompress_key(shard, key) == key


#: Router shapes past the default split: ``(policy, N, K, re-drawn
#: contiguous bounds or None)``.
ROUTER_CASES = {
    "contiguous": ("contiguous", 4, 40, None),
    "modulo": ("modulo", 4, 40, None),
    "redrawn-empty-shard": ("contiguous", 4, 40, [0, 9, 9, 31, 40]),
    "contiguous-K<N": ("contiguous", 5, 3, None),
    "modulo-K<N": ("modulo", 5, 3, None),
    "contiguous-K=0": ("contiguous", 3, 0, None),
    "modulo-K=0": ("modulo", 3, 0, None),
}

#: Ids outside every universe above, in both directions.
SPILL = np.array([-9, -1, 40, 41, 53, 10**12], dtype=np.int64)


def _router(case):
    policy, num_shards, key_space, bounds = ROUTER_CASES[case]
    router = ShardRouter(policy, num_shards, key_space)
    if bounds is not None:
        router.set_bounds(bounds)
    return router


@pytest.mark.parametrize("case", sorted(ROUTER_CASES))
def test_router_routes_agree_and_tile_universe(case):
    """Scalar and batch routes agree key for key, spillover included,
    and the shards' owned ids tile ``[0, K)`` — as consecutive ranges
    under the contiguous policy."""
    router = _router(case)
    universe = np.arange(router.key_space, dtype=np.int64)
    probe = np.concatenate([universe, np.arange(-5, 0), SPILL])
    routes = router.route_batch(probe)
    assert routes.dtype == np.int64
    assert routes.tolist() == [router.route(key) for key in probe.tolist()]
    assert ((routes >= 0) & (routes < router.num_shards)).all()
    owned = [universe[routes[:universe.size] == shard]
             for shard in range(router.num_shards)]
    assert sum(ids.size for ids in owned) == router.key_space
    for shard, ids in enumerate(owned):
        assert router.shard_key_space(shard) == max(1, ids.size)
        if router.name == "contiguous":
            lo, hi = router.range_of(shard)
            assert ids.tolist() == list(range(lo, hi))
    if router.name == "contiguous":
        assert router.range_of(0)[0] == 0
        assert router.range_of(router.num_shards - 1)[1] == router.key_space


@pytest.mark.parametrize("case", sorted(ROUTER_CASES))
def test_router_compression_round_trips_in_order(case):
    """Each shard's owned ids compress onto exactly ``[0, count)`` in
    their own order, decompress back, and the scalar, per-shard and
    whole-block forms agree."""
    router = _router(case)
    universe = np.arange(router.key_space, dtype=np.int64)
    routes = router.route_batch(universe)
    block = router.compress(routes, universe)
    for shard in range(router.num_shards):
        owned = universe[routes == shard]
        local = router.compress(shard, owned)
        assert local.tolist() == list(range(owned.size))
        assert np.array_equal(block[routes == shard], local)
        assert np.array_equal(router.decompress(shard, local), owned)
        assert [router.compress_key(shard, key)
                for key in owned.tolist()] == local.tolist()
        assert [router.decompress_key(shard, key)
                for key in local.tolist()] == owned.tolist()


@pytest.mark.parametrize("case", sorted(ROUTER_CASES))
def test_router_spillover_passes_through(case):
    """Ids outside ``[0, K)`` route by ``key mod N`` and pass through
    compression and decompression unchanged, in every form."""
    router = _router(case)
    spill = SPILL[(SPILL < 0) | (SPILL >= router.key_space)]
    routes = router.route_batch(spill)
    assert np.array_equal(routes, np.mod(spill, router.num_shards))
    assert np.array_equal(router.compress(routes, spill), spill)
    for shard in range(router.num_shards):
        mine = spill[routes == shard]
        assert np.array_equal(router.compress(shard, mine), mine)
        assert np.array_equal(router.decompress(shard, mine), mine)
        for key in mine.tolist():
            assert router.compress_key(shard, key) == key
            assert router.decompress_key(shard, key) == key


def test_modulo_partition_cannot_be_redrawn():
    with pytest.raises(ValueError, match="contiguous"):
        ShardRouter("modulo", 2, 10).set_bounds([0, 5, 10])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("impl", ["fast", "clock"])
@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
def test_empty_universe_routes_every_id_by_modulo(impl, policy):
    """``key_space=0``: every id is outside the universe, so it routes
    by ``key mod N`` without the in-universe rule ever running (the
    contiguous one divides by the universe size)."""
    buf = ShardedBuffer(impl, 8, key_space=0, num_shards=2,
                        shard_policy=policy)
    served, misses, victims = buf.serve_segment(np.array([5, 6, 7, 5]), 2)
    assert served == 4
    assert misses.tolist() == [0, 1, 2] and victims.size == 0
    assert _shard_keys(buf, 0) == [6]
    assert _shard_keys(buf, 1) == [5, 7]
    assert resident(buf, np.array([5, 6, 7, 8])).tolist() == [
        True, True, True, False]


@pytest.mark.parametrize("impl", ["fast", "clock"])
@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
def test_sharded_per_id_memory_matches_single_shard(impl, policy):
    """Memory-footprint regression (the tentpole): a 4-shard dense
    buffer's summed per-id array bytes equal the single-shard
    footprint — per-id state is independent of ``num_shards``.  Before
    compression every shard spanned the full universe, costing 4×."""
    key_space, capacity = 4096, 512
    single = make_buffer(impl, capacity, key_space=key_space)
    sharded = ShardedBuffer(impl, capacity, key_space=key_space,
                            num_shards=4, shard_policy=policy)
    assert single.per_id_nbytes() > 0
    # The compressed shard universes tile the global one exactly, so
    # the summed footprint matches to the byte here (the per-shard
    # max(1, .) floor only pads when shards outnumber ids).
    assert sharded.per_id_nbytes() == single.per_id_nbytes()


@pytest.mark.parametrize("impl", ["fast", "clock"])
def test_per_id_nbytes_counts_every_per_id_array(impl):
    """Whatever a dense backend allocates per id is in the footprint it
    reports — the first-touch scratch vector of ``serve_segment``
    (4 B/id on the clock) included, not only the maps."""
    key_space = 4096
    buffer = make_buffer(impl, 512, key_space=key_space)
    per_id = {name: value for name, value in vars(buffer).items()
              if isinstance(value, np.ndarray)
              and value.shape == (key_space,)}
    assert any("scratch" in name for name in per_id)
    assert buffer.per_id_nbytes() == sum(
        value.nbytes for value in per_id.values())


# ---------------------------------------------------------------------------
# Weighted capacity splits.


def test_split_capacity_uniform_matches_historical_formula():
    from repro.cache import split_capacity

    assert split_capacity(11, 4) == [3, 3, 3, 2]
    assert split_capacity(8, 4) == [2, 2, 2, 2]
    assert split_capacity(5, 1) == [5]


def test_split_capacity_weighted_largest_remainder():
    from repro.cache import split_capacity

    assert split_capacity(20, 4, [0.85, 0.05, 0.05, 0.05]) == [17, 1, 1, 1]
    # Equal fractional parts break ties to the lowest shard id.
    assert split_capacity(10, 3, [1.0, 1.0, 1.0]) == [4, 3, 3]
    # Every shard keeps at least one slot even under extreme skew.
    assert split_capacity(4, 4, [100.0, 1e-6, 1e-6, 1e-6]) == [1, 1, 1, 1]
    split = split_capacity(97, 5, [5, 4, 3, 2, 1])
    assert sum(split) == 97 and all(c >= 1 for c in split)


def test_split_capacity_weighted_validation():
    from repro.cache import split_capacity

    with pytest.raises(ValueError, match="one weight per shard"):
        split_capacity(10, 3, [1.0, 2.0])
    with pytest.raises(ValueError, match="positive and finite"):
        split_capacity(10, 2, [1.0, 0.0])
    with pytest.raises(ValueError, match="positive and finite"):
        split_capacity(10, 2, [1.0, float("nan")])


def test_make_buffer_shard_weights():
    buf = ShardedBuffer("clock", 20, key_space=128, num_shards=4,
                        shard_weights=(0.85, 0.05, 0.05, 0.05))
    assert buf.shard_capacities == [17, 1, 1, 1]
    assert [s.backend.capacity for s in buf.shards] == [17, 1, 1, 1]
    assert buf.shard_weights == (0.85, 0.05, 0.05, 0.05)
    # Fill each shard to its weighted capacity (contiguous routing:
    # shard i owns [32*i, 32*(i+1))) — the global contract holds.
    keys = np.concatenate([np.arange(17), [32, 64, 96]]).astype(np.int64)
    for key in keys.tolist():
        buf.insert(key, 2)
    assert len(buf) == 20 and buf.is_full
    with pytest.raises(ValueError, match="num_shards > 1"):
        ShardedBuffer("clock", 8, key_space=64, shard_weights=(1.0,))


def test_config_shard_weights_validation():
    from repro.core import RecMGConfig

    config = RecMGConfig(num_shards=4,
                         shard_weights=(0.85, 0.05, 0.05, 0.05))
    assert config.shard_weights == (0.85, 0.05, 0.05, 0.05)
    with pytest.raises(ValueError, match="num_shards > 1"):
        RecMGConfig(shard_weights=(1.0,))
    with pytest.raises(ValueError, match="one weight per shard"):
        RecMGConfig(num_shards=3, shard_weights=(1.0, 2.0))
    with pytest.raises(ValueError, match="positive and finite"):
        RecMGConfig(num_shards=2, shard_weights=(1.0, -1.0))


def test_manager_shard_weights_via_config():
    """RecMGConfig.shard_weights threads through to the buffer split
    (and the run still conserves totals)."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager
    from repro.traces import SyntheticTraceConfig, generate_trace

    trace = generate_trace(SyntheticTraceConfig(
        num_tables=2, rows_per_table=64, num_accesses=600, seed=4))
    config = RecMGConfig(num_shards=4,
                         shard_weights=(0.7, 0.1, 0.1, 0.1))
    encoder = FeatureEncoder(config).fit(trace)
    manager = RecMGManager(20, encoder, config)
    assert isinstance(manager.buffer, ShardedBuffer)
    assert manager.buffer.shard_capacities == [14, 2, 2, 2]
    stats = manager.run(trace)
    assert stats.breakdown.total == len(trace)


# ---------------------------------------------------------------------------
# ShardedBuffer validation (both error paths of the sharding knob).


def test_make_buffer_rejects_shards_without_key_space():
    """The routers partition [0, key_space); without it there is no id
    universe to shard — must raise, not silently build one shard."""
    with pytest.raises(ValueError, match="key_space"):
        ShardedBuffer("clock", 8, key_space=None, num_shards=2)
    with pytest.raises(ValueError, match="key_space"):
        ShardedBuffer("fast", 8, key_space=None, num_shards=4,
                      shard_policy="modulo")


def test_make_buffer_shard_validation():
    with pytest.raises(ValueError, match="num_shards"):
        ShardedBuffer("clock", 8, key_space=32, num_shards=0)
    with pytest.raises(ValueError, match="at least one slot"):
        ShardedBuffer("clock", 3, key_space=32, num_shards=4)
    with pytest.raises(ValueError, match="shard_policy"):
        ShardedBuffer("clock", 8, key_space=32, num_shards=2,
                      shard_policy="nope")
    with pytest.raises(ValueError, match="unknown buffer_impl"):
        ShardedBuffer("nope", 8, key_space=32, num_shards=2)


def test_make_buffer_one_shard_returns_bare_backend():
    """``make_buffer`` is the backend registry; a 1-shard
    ``ShardedBuffer`` holds one such backend over the whole universe
    (the identity compression), and takes the empty universe too."""
    assert isinstance(make_buffer("clock", 8, key_space=32), ClockBuffer)
    assert make_buffer("fast", 8, key_space=32).key_space == 32
    buf = ShardedBuffer("clock", 8, key_space=32)
    assert isinstance(buf.shards[0].backend, ClockBuffer)
    assert buf.shards[0].backend.key_space == 32
    assert ShardedBuffer("fast", 8, key_space=None).key_space == 0


def test_make_buffer_sharded_partitions_capacity():
    buf = ShardedBuffer("fast", 11, key_space=64, num_shards=4)
    assert buf.shard_capacities == [3, 3, 3, 2]  # remainder to low ids
    assert sum(buf.shard_capacities) == buf.capacity == 11
    assert all(isinstance(s.backend, FastPriorityBuffer)
               for s in buf.shards)
    assert all(s.backend.per_id_nbytes() > 0 for s in buf.shards)
    # Each backend runs over the router's compressed universe, not the
    # full [0, key_space) — this is the N×-memory fix.
    assert all(s.backend.key_space == buf.router.shard_key_space(i)
               for i, s in enumerate(buf.shards))
    assert sum(s.backend.key_space for s in buf.shards) == buf.key_space
    assert not buf.shards[0].backend.approximate
    assert ShardedBuffer("clock", 8, key_space=64,
                         num_shards=2).shards[0].backend.approximate


@pytest.mark.parametrize("impl", ["reference", "fast", "clock"])
def test_sharded_serve_segment_serves_each_shard_whole(impl):
    """``ShardedBuffer.serve_segment`` serves the whole segment with
    one route: misses come back as ascending positions of the segment,
    victims grouped per shard in shard-id order.  On exact shards it
    equals the scalar serving loop over the sharded buffer, each miss
    evicting from its own shard; on clock shards, one backend call per
    shard's local ids made by hand on a twin."""
    buf = ShardedBuffer(impl, 9, key_space=30, num_shards=3)
    twin = ShardedBuffer(impl, 9, key_space=30, num_shards=3)
    rng = np.random.default_rng(5)
    for _ in range(6):
        segment = rng.integers(-2, 34, size=int(rng.integers(1, 40)))
        served, misses, victims = buf.serve_segment(segment, 2)
        assert served == segment.size
        assert np.all(np.diff(misses) > 0)
        shard_ids = [buf.router.route(int(key)) for key in victims]
        assert shard_ids == sorted(shard_ids)
        expected_misses, grouped = [], [[] for _ in twin.shards]
        if impl == "clock":
            for index, backend, positions, local in \
                    twin.iter_shard_segments(segment):
                _, sub_misses, sub_victims = backend.serve_segment(local, 2)
                expected_misses += positions[sub_misses].tolist()
                grouped[index] = twin.router.decompress(
                    index, sub_victims).tolist()
        else:
            for position, key in enumerate(segment.tolist()):
                if key in twin:
                    twin.set_priority(key, 2)
                    continue
                expected_misses.append(position)
                grouped[twin.router.route(key)] += twin.evict_for(key)
                twin.insert(key, 2)
        assert misses.tolist() == sorted(expected_misses)
        assert victims.tolist() == [key for group in grouped
                                    for key in group]
        assert sorted((key, buf.priority_of(key)) for key in buf.keys()) \
            == sorted((key, twin.priority_of(key)) for key in twin.keys())


# ---------------------------------------------------------------------------
# Op-level differential fuzz: 1-shard == bare; N-shard partition laws.

@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_sharding_differential_op_sequences(seed):
    rng = random.Random(9900 + seed)
    capacity = rng.randint(3, 16)
    policy = rng.choice(["contiguous", "modulo"])
    ops = gen_ops(rng, OPS_PER_SEQUENCE)

    pairs = [
        (FastPriorityBuffer(capacity, key_space=DENSE_SPACE),
         ShardedBuffer("fast", capacity, key_space=DENSE_SPACE,
                       num_shards=1, shard_policy=policy)),
        (ClockBuffer(capacity, key_space=DENSE_SPACE),
         ShardedBuffer("clock", capacity, key_space=DENSE_SPACE,
                       num_shards=1, shard_policy=policy)),
    ]
    multi = [
        ShardedBuffer("fast", capacity, key_space=DENSE_SPACE,
                      num_shards=3, shard_policy=policy),
        ShardedBuffer("clock", capacity, key_space=DENSE_SPACE,
                      num_shards=3, shard_policy=policy),
    ]

    for op in ops:
        for bare, wrapped in pairs:
            bare_victims = apply_op(bare, op)
            wrapped_victims = apply_op(wrapped, op)
            # Decision-for-decision: same victims, same residents, same
            # priorities, same bulk residency answers.
            assert bare_victims == wrapped_victims
            assert len(bare) == len(wrapped)
            keys = sorted(bare.keys())
            assert sorted(wrapped.keys()) == keys
            for key in keys:
                assert wrapped.priority_of(key) == bare.priority_of(key)
            assert np.array_equal(bare.contains_batch(PROBE),
                                  resident(wrapped, PROBE))
        for sharded in multi:
            apply_op(sharded, op)
            assert_partition_invariants(sharded)

    # Drain: remaining victim order still identical for the 1-shard
    # wrappers, and the N-shard buffers drain to empty cleanly.
    for bare, wrapped in pairs:
        assert drain(wrapped) == drain(bare)
    for sharded in multi:
        remaining = len(sharded)
        victims = drain(sharded)
        assert len(victims) == len(set(victims)) == remaining
        assert len(sharded) == 0
        assert_partition_invariants(sharded)


def test_protected_clock_eviction_with_spillover_avoid():
    """ClockBuffer.evict_batch(avoid=...) protects in-range and
    spillover ids alike, ages past protected zeros, and raises on
    overdraw."""
    buf = ClockBuffer(5, key_space=8)
    for key in (1, 2, 3, 100):         # 100 spills over the bitmap
        buf.insert(key, 0)
    buf.insert(4, 2)
    victims = buf.evict_batch(2, avoid=np.array([1, 100, -3, 50]))
    assert sorted(victims) == [2, 3]   # protected keys survive
    assert 1 in buf and 100 in buf
    # Only 4 (positive priority) remains eligible: aging must ripen it
    # rather than touch the protected zeros.
    assert buf.evict_batch(1, avoid=np.array([1, 100])) == [4]
    assert buf.priority_of(1) == 0 and buf.priority_of(100) == 0
    with pytest.raises(RuntimeError, match="more entries"):
        buf.evict_batch(3, avoid=np.array([1, 100]))


def test_sharded_spillover_keys_route_and_serve():
    """Ids outside [0, key_space) route deterministically (mod N) and
    behave like in-range keys through the whole protocol."""
    buf = ShardedBuffer("clock", 6, key_space=8, num_shards=2)
    # 100 -> shard 0, 101 -> shard 1: no shard overflows, no victim.
    assert buf.serve_segment(np.array([1, 100, 101, 7]), 2)[2].size == 0
    assert 100 in buf and 101 in buf
    assert buf.router.route(100) == 0 and buf.router.route(101) == 1
    assert np.array_equal(
        resident(buf, np.array([1, 7, 100, 101, 102, -5])),
        np.array([True, True, True, True, False, False]))
    buf.demote(100)
    buf.demote(101)
    assert buf.priority_of(100) == 0 and buf.priority_of(101) == 0
    victims = drain(buf)
    assert sorted(victims) == [1, 7, 100, 101]
    assert len(buf) == 0


# ---------------------------------------------------------------------------
# Manager-level differentials.

MANAGER_SEEDS = 40


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


def _manager_setup(seed):
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder

    rng = random.Random(6200 + seed)
    trace = _serving_trace(rng)
    config = RecMGConfig(eviction_speed=rng.choice([1, 2, 4]))
    fit_on = trace if rng.random() < 0.7 else trace.head(
        max(1, len(trace) // 2))
    encoder = FeatureEncoder(config).fit(fit_on)
    num_shards = rng.choice([2, 3, 4])
    policy = rng.choice(["contiguous", "modulo"])
    capacity = max(num_shards,
                   int(trace.num_unique * rng.choice([0.05, 0.2, 0.6])))
    return trace, config, encoder, capacity, num_shards, policy


@pytest.mark.parametrize("seed", range(MANAGER_SEEDS))
def test_sharded_exact_serving_decision_equivalence(seed):
    """The shard-wise batched engine over exact (fast) shards must
    reproduce the scalar audit loop over the same sharded buffer
    decision-for-decision — counters, per-access hit stream, final
    residents/priorities, and full-drain victim order — including
    prefix-fitted encoders whose tail ids spill over the bitmaps."""
    from repro.core.manager import RecMGManager

    trace, config, encoder, capacity, num_shards, policy = \
        _manager_setup(seed)

    def run(fast_serve):
        manager = RecMGManager(capacity, encoder, replace(
            config, buffer_impl="fast", num_shards=num_shards,
            shard_policy=policy))
        stats = manager.run(trace, fast_serve=fast_serve,
                            record_decisions=True)
        manager.close()
        return manager, stats

    batched_manager, batched = run(True)
    scalar_manager, scalar = run(False)
    assert isinstance(batched_manager.buffer, ShardedBuffer)
    assert batched == scalar
    assert np.array_equal(batched_manager.last_decisions,
                          scalar_manager.last_decisions)
    b_buf, s_buf = batched_manager.buffer, scalar_manager.buffer
    assert sorted(b_buf.keys()) == sorted(s_buf.keys())
    for key in s_buf.keys():
        assert b_buf.priority_of(key) == s_buf.priority_of(key)
    assert drain(b_buf) == drain(s_buf)


def _bare_scalar_serve(capacity, encoder, trace, speed):
    """The independent oracle of a 1-shard manager: a bare dense
    ``fast`` backend over the encoder's universe, driven key by key by
    the buffer-level scalar serving loop.  Returns ``(hits, evictions,
    backend)``."""
    key_space = encoder.vocab_size if encoder.vocab_size > 0 else None
    backend = FastPriorityBuffer(capacity, key_space=key_space or 0)
    hits, evictions = [], 0
    for key in encoder.dense_ids(trace).tolist():
        hit = key in backend
        hits.append(hit)
        if hit:
            backend.set_priority(key, speed)
            continue
        if backend.is_full:
            backend.evict_one()
            evictions += 1
        backend.insert(key, speed)
    return np.array(hits, dtype=bool), evictions, backend


@pytest.mark.parametrize("seed", range(0, MANAGER_SEEDS, 2))
def test_one_shard_manager_matches_bare_backend(seed):
    """A 1-shard manager serves exactly as a bare dense-fast backend
    driven by the scalar serving loop: identical counters, decisions,
    residents and priorities (the façade is the identity)."""
    from repro.core.manager import RecMGManager

    trace, config, encoder, capacity, _, policy = _manager_setup(seed)

    hits, evictions, bare = _bare_scalar_serve(capacity, encoder, trace,
                                               config.eviction_speed)
    one = RecMGManager(capacity, encoder, replace(
        config, buffer_impl="fast", num_shards=1, shard_policy=policy))
    one_stats = one.run(trace, record_decisions=True)
    assert np.array_equal(one.last_decisions, hits)
    assert one_stats.breakdown.cache_hits == int(hits.sum())
    assert one_stats.breakdown.on_demand == int((~hits).sum())
    assert one_stats.evictions == evictions
    assert sorted(one.buffer.keys()) == sorted(bare.keys())
    for key in bare.keys():
        assert one.buffer.priority_of(key) == bare.priority_of(key)


@pytest.mark.parametrize("seed", range(0, MANAGER_SEEDS, 2))
def test_sharded_clock_serving_contract(seed):
    """Approximate sharded serving: counters conserve the trace total,
    capacity is never exceeded, and the final residency satisfies the
    partition invariants."""
    from repro.core.manager import RecMGManager

    trace, config, encoder, capacity, num_shards, policy = \
        _manager_setup(seed)
    manager = RecMGManager(capacity, encoder, replace(
        config, buffer_impl="clock", num_shards=num_shards,
        shard_policy=policy))
    stats = manager.run(trace)
    assert stats.breakdown.total == len(trace)
    assert stats.breakdown.prefetch_hits == 0
    buffer = manager.buffer
    assert len(buffer) <= capacity
    for shard in buffer.shards:
        assert len(shard.backend) <= shard.backend.capacity
    seen = resident(buffer, encoder.dense_ids(trace))
    # Everything resident at the end was served from this trace.
    assert len(buffer) == len({int(k) for k in buffer.keys()})
    assert seen.any() or capacity == 0


class _StubPrefetchModel:
    """Deterministic predict_indices: neighbours of the chunk's own
    ids — a mix of resident and non-resident targets, so prefetch
    fills, prefetch hits, and tag-dropping evictions all occur."""

    def predict_indices(self, chunks, encoder, sel):
        dense = chunks.dense_ids[sel]
        vocab = max(1, encoder.vocab_size)
        return (dense[:, :4] + 1) % vocab


@pytest.mark.parametrize("seed", range(0, MANAGER_SEEDS, 2))
def test_sharded_prefetch_accounting_matches_scalar(seed):
    """Prefetch counters through the sharded batched engine must match
    the scalar audit loop exactly (exact shards): tags are consumed in
    the chunk where the key is served, before a later chunk's eviction
    can drop them."""
    from repro.core.manager import RecMGManager

    trace, config, encoder, capacity, num_shards, policy = \
        _manager_setup(seed)

    def run(fast_serve):
        manager = RecMGManager(capacity, encoder, replace(
            config, buffer_impl="fast", num_shards=num_shards,
            shard_policy=policy), prefetch_model=_StubPrefetchModel())
        stats = manager.run(trace, fast_serve=fast_serve)
        return stats

    batched = run(True)
    scalar = run(False)
    assert batched == scalar
    assert (batched.breakdown.prefetch_hits
            == batched.prefetches_useful
            == scalar.prefetches_useful)
    # Conservation regardless of engine.
    assert batched.breakdown.total == len(trace)


@pytest.mark.parametrize("policy, shard_keys", [
    ("contiguous", (21, 22, 23, 24)),  # shard 2 owns [20, 30)
    ("modulo", (6, 10, 14, 18)),       # shard 2 owns 2 mod 4
])
def test_prefetch_eviction_hands_the_manager_global_victim_ids(policy,
                                                               shard_keys):
    """A prefetch ``insert`` into full shard 2 while every other shard
    has free slots evicts from shard 2 only, and ``evict_for`` returns
    the victims as *global* ids: the evicted prefetched key loses its
    tag, no tag is ever a local id (here 1-4, which are other shards'
    global ids), and each victim counts exactly once."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager

    config = RecMGConfig(eviction_speed=2, buffer_impl="fast",
                         num_shards=4, shard_policy=policy)
    manager = RecMGManager(8, FeatureEncoder(config), config, key_space=40)
    buffer = manager.buffer
    resident, tagged, first, second = shard_keys
    local_ids = {buffer.router.compress_key(2, key) for key in shard_keys}
    assert local_ids == {1, 2, 3, 4} and not local_ids & set(shard_keys)
    assert {buffer.router.route(key) for key in shard_keys} == {2}

    manager.serve_batch(np.array([resident]))
    manager._apply_prefetches(np.array([tagged]))
    manager._apply_caching_bits(np.array([tagged]), np.array([0]))
    assert manager._prefetched == {tagged}
    assert buffer.shards[2].backend.is_full and not buffer.is_full
    assert [len(shard.backend) for shard in buffer.shards] == [0, 0, 2, 0]

    returned = []
    evict_for = buffer.evict_for
    buffer.evict_for = lambda key: returned.append(evict_for(key)) or \
        returned[-1]
    evictions = manager.evictions
    manager._apply_prefetches(np.array([first, second]))

    # The demoted prefetched key goes first, then the oldest resident.
    assert returned == [[tagged], [resident]]
    assert manager.evictions - evictions == 2
    assert manager._prefetched == {first, second}
    assert not manager._prefetched & local_ids
    assert sorted(buffer.keys()) == [first, second]
    assert [len(shard.backend) for shard in buffer.shards] == [0, 0, 2, 0]


def test_sharded_manager_requires_fitted_encoder():
    """num_shards > 1 with an unfitted encoder (no dense universe)
    surfaces the ShardedBuffer constructor's key_space rejection."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager

    config = RecMGConfig(num_shards=2)
    with pytest.raises(ValueError, match="key_space"):
        RecMGManager(8, FeatureEncoder(config), config)


def test_sharded_manager_via_config_knobs():
    """RecMGConfig.num_shards / shard_policy thread through to the
    manager's buffer."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager
    from repro.traces import SyntheticTraceConfig, generate_trace

    trace = generate_trace(SyntheticTraceConfig(
        num_tables=2, rows_per_table=64, num_accesses=600, seed=4))
    config = RecMGConfig(num_shards=3, shard_policy="modulo")
    encoder = FeatureEncoder(config).fit(trace)
    manager = RecMGManager(9, encoder, config)
    assert isinstance(manager.buffer, ShardedBuffer)
    assert manager.buffer.num_shards == 3
    assert manager.buffer.shard_policy == "modulo"
    stats = manager.run(trace)
    assert stats.breakdown.total == len(trace)
    with pytest.raises(ValueError, match="shard_policy"):
        RecMGConfig(shard_policy="nope")
    with pytest.raises(ValueError, match="num_shards"):
        RecMGConfig(num_shards=0)


def test_sharded_caching_bits_match_bare():
    """_apply_caching_bits split per shard backend, in local ids, lands
    the same priorities the bare dense backend gets."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager
    from repro.traces import SyntheticTraceConfig, generate_trace

    trace = generate_trace(SyntheticTraceConfig(
        num_tables=2, rows_per_table=64, num_accesses=400, seed=9))
    config = RecMGConfig()
    encoder = FeatureEncoder(config).fit(trace)
    rng = np.random.default_rng(3)

    def build(**kwargs):
        manager = RecMGManager(12, encoder,
                               replace(config, buffer_impl="fast", **kwargs))
        dense = encoder.dense_ids(trace)[:12]
        for key in dense.tolist():
            manager.buffer.insert(key, config.eviction_speed)
        bits = rng.integers(0, 2, size=dense.size)
        manager._apply_caching_bits(dense, bits)
        return manager.buffer, dense

    rng = np.random.default_rng(3)
    bare_buf, dense = build()
    rng = np.random.default_rng(3)
    sharded_buf, _ = build(num_shards=3)
    for key in dense.tolist():
        assert sharded_buf.priority_of(key) == bare_buf.priority_of(key)


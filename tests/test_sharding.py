"""Sharded-buffer subsystem tests: routers, wiring, and differentials.

Three layers of checking for :mod:`repro.cache.sharding`:

* **Unit** — router totality/determinism (scalar == batch, every int64
  key maps to exactly one shard, contiguous ranges tile the universe),
  ``make_buffer`` validation (``num_shards > 1`` without ``key_space``
  is rejected with a clear error, mirroring the PR 4 ``key_space``
  rejection), and the deterministic water-filling eviction allocation.
* **Op-level differential (200-seed fuzz)** — a 1-shard
  :class:`ShardedBuffer` must be decision-for-decision identical to
  the bare backend it wraps (victims, resident sets, priorities, after
  every op), for the exact and the clock backend alike; simultaneously
  an N>1 sharded buffer must keep the partition invariants after every
  op: every key routes to exactly one shard, per-shard residency
  bitmaps are pairwise disjoint, and their union equals the global
  ``contains_batch`` (spillover ids above the bitmap included).
* **Manager-level** — the bulk serving engine over a sharded buffer
  (``RecMGManager._serve_demand_bulk`` through
  ``ShardedBuffer.serve_segment``) must be
  decision-for-decision identical to the scalar audit loop over the
  same sharded buffer for exact shards (the clock engine is
  approximate by contract: totals conserved, capacity never exceeded),
  and a 1-shard sharded manager must reproduce the bare dense-fast
  manager exactly.
"""

import random

import numpy as np
import pytest

from repro.cache import (
    ClockBuffer,
    FastPriorityBuffer,
    ShardedBuffer,
    backend_for_key,
    make_buffer,
    make_router,
)
from repro.cache.sharding import _allocate_evictions

KEY_SPACE = 26
#: Sharded key_space deliberately smaller than the fuzzed key range:
#: keys >= DENSE_SPACE exercise the spillover routing (key mod N).
DENSE_SPACE = KEY_SPACE - 7
MAX_PRIORITY = 6
NUM_SEQUENCES = 200
OPS_PER_SEQUENCE = 90

#: Probe spanning below, inside, and above both the bitmap and the
#: fuzzed key range.
PROBE = np.arange(-4, KEY_SPACE + 9, dtype=np.int64)


# ---------------------------------------------------------------------------
# Routers.


@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
def test_router_total_and_batch_consistent(policy, num_shards):
    router = make_router(policy, num_shards, 40)
    keys = np.arange(-15, 120, dtype=np.int64)
    batch = router.route_batch(keys)
    assert batch.dtype == np.int64
    assert ((batch >= 0) & (batch < num_shards)).all()
    for key, shard in zip(keys.tolist(), batch.tolist()):
        assert router.route(key) == shard  # scalar == batch, per key


def test_contiguous_ranges_tile_universe():
    router = make_router("contiguous", 3, 10)
    covered = []
    for shard in range(3):
        lo, hi = router.range_of(shard)
        covered.extend(range(lo, hi))
        for key in range(lo, hi):
            assert router.route(key) == shard
    assert covered == list(range(10))  # disjoint, exhaustive, in order


def test_modulo_router_stripes():
    router = make_router("modulo", 4, 100)
    assert router.route(0) == 0 and router.route(7) == 3
    assert router.route(103) == 3  # spillover ids stripe identically


def test_make_router_rejects_unknown_policy():
    with pytest.raises(ValueError, match="shard_policy"):
        make_router("hash-ring", 2, 10)


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
    router = make_router(policy, num_shards, key_space)
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
    block = router.compress_routed(probe, routes)
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
    router = make_router(policy, 3, 12)
    spill = np.array([-9, -1, 12, 13, 40, 10**12], dtype=np.int64)
    for shard in range(3):
        owned = spill[router.route_batch(spill) == shard]
        assert np.array_equal(router.compress(shard, owned), owned)
        assert np.array_equal(router.decompress(shard, owned), owned)
        for key in owned.tolist():
            assert router.compress_key(shard, key) == key
            assert router.decompress_key(shard, key) == key


@pytest.mark.parametrize("impl", ["fast", "clock"])
@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
def test_sharded_per_id_memory_matches_single_shard(impl, policy):
    """Memory-footprint regression (the tentpole): a 4-shard dense
    buffer's summed per-id array bytes equal the single-shard
    footprint — per-id state is independent of ``num_shards``.  Before
    compression every shard spanned the full universe, costing 4×."""
    key_space, capacity = 4096, 512
    single = make_buffer(impl, capacity, key_space=key_space)
    sharded = make_buffer(impl, capacity, key_space=key_space,
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
    assert buffer.per_id_nbytes() == buffer.residency.nbytes + sum(
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
    buf = make_buffer("clock", 20, key_space=128, num_shards=4,
                      shard_weights=(0.85, 0.05, 0.05, 0.05))
    assert buf.shard_capacities == [17, 1, 1, 1]
    assert [s.capacity for s in buf.shards] == [17, 1, 1, 1]
    assert buf.shard_weights == (0.85, 0.05, 0.05, 0.05)
    # Fill each shard to its weighted capacity (contiguous routing:
    # shard i owns [32*i, 32*(i+1))) — the global contract holds.
    keys = np.concatenate([np.arange(17), [32, 64, 96]]).astype(np.int64)
    buf.put_batch(keys, 2)
    assert len(buf) == 20 and buf.is_full
    with pytest.raises(ValueError, match="num_shards > 1"):
        make_buffer("clock", 8, key_space=64, shard_weights=(1.0,))


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
# make_buffer validation (both error paths of the sharding knob).


def test_make_buffer_rejects_shards_without_key_space():
    """The routers partition [0, key_space); without it there is no id
    universe to shard — must raise, not silently build one shard."""
    with pytest.raises(ValueError, match="key_space"):
        make_buffer("clock", 8, num_shards=2)
    with pytest.raises(ValueError, match="key_space"):
        make_buffer("fast", 8, num_shards=4, shard_policy="modulo")


def test_make_buffer_shard_validation():
    with pytest.raises(ValueError, match="num_shards"):
        make_buffer("clock", 8, key_space=32, num_shards=0)
    with pytest.raises(ValueError, match="at least one slot"):
        make_buffer("clock", 3, key_space=32, num_shards=4)
    with pytest.raises(ValueError, match="shard_policy"):
        make_buffer("clock", 8, key_space=32, num_shards=2,
                    shard_policy="nope")
    with pytest.raises(ValueError, match="unknown buffer_impl"):
        make_buffer("nope", 8, key_space=32, num_shards=2)


def test_make_buffer_one_shard_returns_bare_backend():
    buf = make_buffer("clock", 8, key_space=32, num_shards=1)
    assert isinstance(buf, ClockBuffer)
    assert make_buffer("fast", 8, key_space=32).residency is not None


def test_make_buffer_sharded_partitions_capacity():
    buf = make_buffer("fast", 11, key_space=64, num_shards=4)
    assert isinstance(buf, ShardedBuffer)
    assert buf.shard_capacities == [3, 3, 3, 2]  # remainder to low ids
    assert sum(buf.shard_capacities) == buf.capacity == 11
    assert all(isinstance(s.backend, FastPriorityBuffer)
               for s in buf.shards)
    assert all(s.residency is not None for s in buf.shards)
    # Each backend runs over the router's compressed universe, not the
    # full [0, key_space) — this is the N×-memory fix.
    assert all(s.backend.key_space == buf.router.shard_key_space(i)
               for i, s in enumerate(buf.shards))
    assert sum(s.backend.key_space for s in buf.shards) == buf.key_space
    assert not buf.approximate
    assert make_buffer("clock", 8, key_space=64, num_shards=2).approximate


# ---------------------------------------------------------------------------
# Eviction allocation (water-filling).


def test_allocate_evictions_levels_fullest_shards():
    lengths = np.array([10, 3, 7, 3], dtype=np.int64)
    take = _allocate_evictions(lengths, 5)
    assert take.sum() == 5
    assert (take <= lengths).all()
    # Levelling: occupancies after eviction are as equal as possible,
    # fullest shards pay first.
    after = (lengths - take).tolist()
    assert after == [6, 3, 6, 3]


def test_allocate_evictions_deterministic_tiebreak():
    lengths = np.array([4, 4, 4], dtype=np.int64)
    assert _allocate_evictions(lengths, 2).tolist() == [1, 1, 0]
    assert _allocate_evictions(lengths, 3).tolist() == [1, 1, 1]
    assert _allocate_evictions(lengths, 12).tolist() == [4, 4, 4]


def test_allocate_evictions_rejects_overdraw():
    with pytest.raises(RuntimeError):
        _allocate_evictions(np.array([2, 1], dtype=np.int64), 4)


def test_sharded_evict_one_targets_fullest_shard():
    buf = ShardedBuffer("fast", 6, key_space=30, num_shards=3)
    # contiguous ranges over 30 ids / 3 shards: [0,10), [10,20), [20,30)
    buf.put_batch([1, 2, 11], 0)
    assert buf.shard_id_of(int(buf.evict_one())) == 0  # fullest shard
    assert len(buf) == 2


def _victim_order_fixture():
    """3 contiguous fast shards ([0,10), [10,20), [20,30)) whose global
    ``(effective_priority, seqno)`` eviction order would *interleave*
    shards: the minimum-priority entries all live in shard 2."""
    buf = ShardedBuffer("fast", 9, key_space=30, num_shards=3)
    for key, priority in [(0, 5), (1, 5), (2, 5),
                          (10, 3), (11, 3),
                          (20, 0), (21, 0), (22, 0)]:
        buf.insert(key, priority)
    return buf


def test_evict_batch_victim_order_is_per_shard():
    """Pins the documented :meth:`ShardedBuffer.evict_batch` victim
    contract (cross-referenced from the bulk-protocol docs in
    ``cache/buffer.py``): victims come out grouped per shard in
    shard-id order, the per-shard counts follow the water-filling
    allocation, and each group is exactly what that shard would have
    evicted standalone — NOT the global ``(effective_priority, seqno)``
    interleave a bare backend would produce."""
    buf = _victim_order_fixture()
    twin = _victim_order_fixture()
    lengths = np.array([len(shard) for shard in buf.shards],
                       dtype=np.int64)
    shares = _allocate_evictions(lengths, 4)
    expected = []
    for shard, share in zip(twin.shards, shares.tolist()):
        if share:
            expected.extend(shard.evict_batch(share))
    victims = buf.evict_batch(4)
    assert victims == expected
    # Grouped per shard, groups in shard-id order.
    shard_ids = [buf.shard_id_of(int(victim)) for victim in victims]
    assert shard_ids == sorted(shard_ids)
    # And decidedly not the global priority order: every priority-0
    # entry lives in shard 2, yet shard 0 (a fullest shard) pays first.
    assert shard_ids[0] == 0


@pytest.mark.parametrize("impl", ["reference", "fast", "clock"])
def test_sharded_serve_segment_serves_each_shard_whole(impl):
    """``ShardedBuffer.serve_segment`` serves the whole segment with
    one route: misses come back as ascending positions of the segment,
    victims grouped per shard in shard-id order.  On exact shards it
    equals the scalar serving loop over the sharded buffer, each miss
    evicting from its own shard; on clock shards, one view call per
    shard's sub-segment made by hand on a twin."""
    buf = ShardedBuffer(impl, 9, key_space=30, num_shards=3)
    twin = ShardedBuffer(impl, 9, key_space=30, num_shards=3)
    rng = np.random.default_rng(5)
    for _ in range(6):
        segment = rng.integers(-2, 34, size=int(rng.integers(1, 40)))
        served, misses, victims = buf.serve_segment(segment, 2)
        assert served == segment.size
        assert np.all(np.diff(misses) > 0)
        shard_ids = [buf.shard_id_of(int(key)) for key in victims]
        assert shard_ids == sorted(shard_ids)
        expected_misses, grouped = [], [[] for _ in twin.shards]
        if impl == "clock":
            for index, view, positions, sub in twin.iter_shard_segments(
                    segment):
                _, sub_misses, sub_victims = view.serve_segment(sub, 2)
                expected_misses += positions[sub_misses].tolist()
                grouped[index] = sub_victims.tolist()
        else:
            for position, key in enumerate(segment.tolist()):
                view = twin.shard_backend_for(key)
                if key in view:
                    view.set_priority(key, 2)
                    continue
                expected_misses.append(position)
                if view.is_full:
                    grouped[twin.shard_id_of(key)].append(view.evict_one())
                view.insert(key, 2)
        assert misses.tolist() == sorted(expected_misses)
        assert victims.tolist() == [key for group in grouped
                                    for key in group]
        assert sorted((key, buf.priority_of(key)) for key in buf.keys()) \
            == sorted((key, twin.priority_of(key)) for key in twin.keys())


# ---------------------------------------------------------------------------
# Op-level differential fuzz: 1-shard == bare; N-shard partition laws.

OP_WEIGHTS = [
    ("insert", 6),
    ("set_priority", 4),
    ("demote", 2),
    ("put_batch", 3),
    ("set_priority_batch", 2),
    ("demote_batch", 1),
    ("evict_one", 4),
    ("evict_batch", 3),
]


def _gen_ops(rng: random.Random):
    names = [name for name, _ in OP_WEIGHTS]
    weights = [weight for _, weight in OP_WEIGHTS]
    ops = []
    for _ in range(OPS_PER_SEQUENCE):
        ops.append((rng.choices(names, weights=weights)[0],
                    rng.randrange(KEY_SPACE),
                    rng.randrange(MAX_PRIORITY + 1),
                    [rng.randrange(KEY_SPACE)
                     for _ in range(rng.randint(1, 10))],
                    rng.randint(1, 6)))
    return ops


def _apply_op(buffer, op):
    """Apply one op to ``buffer`` when locally valid (validity judged
    from the buffer's own state, so bare and 1-shard wrappers see the
    same decisions); returns the victims of eviction ops, or None."""
    kind, key, priority, batch, count = op
    if kind == "insert":
        if key in buffer:
            buffer.set_priority(key, priority)
        elif not backend_for_key(buffer, key).is_full:
            buffer.insert(key, priority)
    elif kind == "set_priority":
        if key in buffer:
            buffer.set_priority(key, priority)
    elif kind == "demote":
        if key in buffer:
            buffer.demote(key)
    elif kind == "put_batch":
        before = sorted(buffer.keys())
        try:
            buffer.put_batch(batch, priority)
        except RuntimeError:
            # Raise-before-mutate: a rejected batch leaves the buffer
            # untouched (per-shard capacity pre-check on the wrapper).
            assert sorted(buffer.keys()) == before
            return "raised"
    elif kind == "set_priority_batch":
        buffer.set_priority_batch([k for k in batch if k in buffer],
                                  priority)
    elif kind == "demote_batch":
        buffer.demote_batch([k for k in batch if k in buffer])
    elif kind == "evict_one":
        if len(buffer):
            return [buffer.evict_one()]
    elif kind == "evict_batch":
        if len(buffer):
            return buffer.evict_batch(min(count, len(buffer)))
    return None


def _assert_partition_invariants(sharded: ShardedBuffer):
    """After any op: every key routes to exactly one shard, the
    per-shard resident sets are pairwise disjoint, their union is the
    global contains_batch, and each shard's compressed residency
    bitmap decompresses exactly onto the global ids it owns."""
    # Scatter the probe the way every bulk op does: a compressed shard
    # view only speaks for keys that route to it (the per-shard
    # bijections alias foreign keys by design), so per-shard answers
    # are only meaningful for the shard's own sub-segment.
    gathered = np.zeros(PROBE.size, dtype=bool)
    for _, shard, positions, sub in sharded.iter_shard_segments(PROBE):
        gathered[positions] = shard.contains_batch(sub)
    assert np.array_equal(gathered, sharded.contains_batch(PROBE))
    # Routing + disjointness: every resident (decompressed) key lives
    # in exactly its router shard, so the resident sets cannot overlap.
    seen = set()
    for index, shard in enumerate(sharded.shards):
        resident = list(shard.keys())
        for key in resident:
            assert sharded.shard_id_of(key) == index
            assert key not in seen  # a key lives in at most one shard
            seen.add(key)
        # The raw bitmap covers the *compressed* universe; its set bits
        # decompress exactly onto the shard's in-universe residents.
        bitmap_ids = np.flatnonzero(shard.residency.bitmap)
        decompressed = sharded.router.decompress(index, bitmap_ids)
        in_universe = sorted(key for key in resident
                             if 0 <= key < sharded.key_space)
        assert sorted(decompressed.tolist()) == in_universe
    assert len(seen) == len(sharded)
    assert len(sharded) == sum(len(shard) for shard in sharded.shards)
    assert len(sharded) <= sharded.capacity


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_sharding_differential_op_sequences(seed):
    rng = random.Random(9900 + seed)
    capacity = rng.randint(3, 16)
    policy = rng.choice(["contiguous", "modulo"])
    ops = _gen_ops(rng)

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
            bare_victims = _apply_op(bare, op)
            wrapped_victims = _apply_op(wrapped, op)
            # Decision-for-decision: same victims, same residents, same
            # priorities, same bulk residency answers.
            assert bare_victims == wrapped_victims
            assert len(bare) == len(wrapped)
            keys = sorted(bare.keys())
            assert sorted(wrapped.keys()) == keys
            for key in keys:
                assert wrapped.priority_of(key) == bare.priority_of(key)
            assert np.array_equal(bare.contains_batch(PROBE),
                                  wrapped.contains_batch(PROBE))
        for sharded in multi:
            _apply_op(sharded, op)
            _assert_partition_invariants(sharded)

    # Drain: remaining victim order still identical for the 1-shard
    # wrappers, and the N-shard buffers drain to empty cleanly.
    for bare, wrapped in pairs:
        remaining = len(bare)
        if remaining:
            assert wrapped.evict_batch(remaining) == \
                bare.evict_batch(remaining)
    for sharded in multi:
        remaining = len(sharded)
        if remaining:
            victims = sharded.evict_batch(remaining)
            assert len(victims) == len(set(victims)) == remaining
        assert len(sharded) == 0
        _assert_partition_invariants(sharded)


def test_protected_clock_eviction_with_spillover_avoid():
    """ClockBuffer.evict_batch(avoid=...) protects in-range and
    spillover ids alike, ages past protected zeros, and raises on
    overdraw."""
    buf = ClockBuffer(5, key_space=8)
    buf.put_batch([1, 2, 3, 100], 0)   # 100 spills over the bitmap
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
    buf.put_batch([1, 100, 101, 7], 2)  # 100 -> shard 0, 101 -> shard 1
    assert 100 in buf and 101 in buf
    assert buf.shard_id_of(100) == 0 and buf.shard_id_of(101) == 1
    assert np.array_equal(
        buf.contains_batch(np.array([1, 7, 100, 101, 102, -5])),
        np.array([True, True, True, True, False, False]))
    buf.demote_batch(np.array([100, 101]))
    assert buf.priority_of(100) == 0 and buf.priority_of(101) == 0
    victims = buf.evict_batch(4)
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
        manager = RecMGManager(capacity, encoder, config,
                               buffer_impl="fast", num_shards=num_shards,
                               shard_policy=policy)
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
    remaining = len(s_buf)
    if remaining:
        drain = s_buf.evict_batch(remaining)
        assert b_buf.evict_batch(remaining) == drain


@pytest.mark.parametrize("seed", range(0, MANAGER_SEEDS, 2))
def test_one_shard_manager_matches_bare_backend(seed):
    """A 1-shard sharded manager is the bare dense-fast manager:
    identical counters, decisions, and buffer state."""
    from repro.core.manager import RecMGManager

    trace, config, encoder, capacity, _, policy = _manager_setup(seed)

    bare = RecMGManager(capacity, encoder, config, buffer_impl="fast")
    bare_stats = bare.run(trace, record_decisions=True)
    one = RecMGManager(capacity, encoder, config, buffer_impl="fast",
                       num_shards=1, shard_policy=policy)
    one_stats = one.run(trace, record_decisions=True)
    # num_shards=1 never builds the wrapper: only real sharding pays
    # the routing layer.
    assert not isinstance(one.buffer, ShardedBuffer)
    assert one_stats == bare_stats
    assert np.array_equal(one.last_decisions, bare.last_decisions)
    assert sorted(one.buffer.keys()) == sorted(bare.buffer.keys())


@pytest.mark.parametrize("seed", range(0, MANAGER_SEEDS, 2))
def test_sharded_clock_serving_contract(seed):
    """Approximate sharded serving: counters conserve the trace total,
    capacity is never exceeded, and the final residency satisfies the
    partition invariants."""
    from repro.core.manager import RecMGManager

    trace, config, encoder, capacity, num_shards, policy = \
        _manager_setup(seed)
    manager = RecMGManager(capacity, encoder, config, buffer_impl="clock",
                           num_shards=num_shards, shard_policy=policy)
    stats = manager.run(trace)
    assert stats.breakdown.total == len(trace)
    assert stats.breakdown.prefetch_hits == 0
    buffer = manager.buffer
    assert len(buffer) <= capacity
    for shard in buffer.shards:
        assert len(shard) <= shard.capacity
    seen = buffer.contains_batch(encoder.dense_ids(trace))
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
        manager = RecMGManager(capacity, encoder, config,
                               buffer_impl="fast", num_shards=num_shards,
                               shard_policy=policy,
                               prefetch_model=_StubPrefetchModel())
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


def test_sharded_manager_requires_fitted_encoder():
    """num_shards > 1 with an unfitted encoder (no dense universe)
    surfaces make_buffer's key_space rejection."""
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.core.manager import RecMGManager

    config = RecMGConfig()
    with pytest.raises(ValueError, match="key_space"):
        RecMGManager(8, FeatureEncoder(config), config, num_shards=2)


def test_sharded_manager_via_config_knobs():
    """RecMGConfig.num_shards / shard_policy thread through without
    constructor arguments."""
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
    """_apply_caching_bits through the sharded bulk protocol lands the
    same priorities the bare dense backend gets."""
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
        manager = RecMGManager(12, encoder, config, buffer_impl="fast",
                               **kwargs)
        dense = encoder.dense_ids(trace)[:12]
        manager.buffer.put_batch(dense, config.eviction_speed)
        bits = rng.integers(0, 2, size=dense.size)
        manager._apply_caching_bits(dense, bits)
        return manager.buffer, dense

    rng = np.random.default_rng(3)
    bare_buf, dense = build()
    rng = np.random.default_rng(3)
    sharded_buf, _ = build(num_shards=3)
    for key in dense.tolist():
        assert sharded_buf.priority_of(key) == bare_buf.priority_of(key)


# ---------------------------------------------------------------------------
# Classifier and harness wiring.


def test_buffer_classifier_sharded_matches_scalar_totals():
    from repro.dlrm.inference import BufferClassifier
    from repro.traces import SyntheticTraceConfig, generate_trace
    from repro.traces.access import remap_to_dense

    trace = generate_trace(SyntheticTraceConfig(
        num_tables=2, rows_per_table=64, num_accesses=800, seed=5))
    keys, _ = remap_to_dense(trace)
    key_space = int(keys.max()) + 1
    for impl in ("fast", "clock"):
        batch = BufferClassifier(10, buffer_impl=impl,
                                 key_space=key_space, num_shards=2)
        scalar = BufferClassifier(10, buffer_impl=impl,
                                  key_space=key_space, num_shards=2)
        batched_hits = np.concatenate([
            batch.access_batch(keys[lo:lo + 96])
            for lo in range(0, len(keys), 96)])
        scalar_hits = np.array([scalar.access(int(k)) for k in keys])
        if impl == "fast":
            # Exact shards: batch classification is bit-identical.
            assert np.array_equal(batched_hits, scalar_hits)
        assert batched_hits.size == scalar_hits.size == len(keys)
        assert len(batch.buffer) <= 10


def test_lru_harness_sharded():
    from repro.prefetch import LRUBufferWithPrefetch, run_breakdown
    from repro.traces import SyntheticTraceConfig, generate_trace

    trace = generate_trace(SyntheticTraceConfig(
        num_tables=2, rows_per_table=64, num_accesses=700, seed=6))
    with pytest.raises(ValueError, match="cannot shard"):
        LRUBufferWithPrefetch(8, buffer_impl="ordered", num_shards=2)
    sharded = run_breakdown(trace, 12, buffer_impl="fast", num_shards=3)
    assert sharded.total == len(trace)
    # Sharded LRU is per-shard recency — close to, but not necessarily
    # equal to, global LRU; totals and class counts must still conserve.
    global_lru = run_breakdown(trace, 12, buffer_impl="fast")
    assert abs(sharded.hit_rate - global_lru.hit_rate) < 0.2
    clock = run_breakdown(trace, 12, buffer_impl="clock", num_shards=3,
                          shard_policy="modulo")
    assert clock.total == len(trace)

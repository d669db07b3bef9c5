"""Online elastic rebalancing: the migration-invariant test battery.

Three layers of checking for :meth:`repro.cache.sharding.ShardedBuffer.
rebalance` and the manager's online driver:

* **Migration-invariant fuzz (200 seeds)** — random op/rebalance
  interleavings (the op vocabulary of ``sharded_ops.py``) over fast
  and clock backends under both routers.  After *every* rebalance: the
  partition invariants hold (disjoint per-shard resident sets whose
  union is scalar membership, every resident routes to its shard,
  compressed residency bitmaps decompress exactly onto the owned
  residents), the resident union is
  preserved (``after ∪ evicted == before``, disjointly), every shard's
  occupancy respects its *new* capacity, and — when no donor-shrink
  eviction ran — every survivor keeps its exact effective priority.
* **Decision identity** — a rebalance onto the current target is a
  no-op, bit-identical to never calling it (checked by running an
  identical op suffix over a rebalanced twin); a real rebalance leaves
  the buffer decision-identical to a *fresh* :class:`ShardedBuffer`
  rebalanced-empty onto the same weights and pre-seeded with the same
  residents in canonical order (the module docstring's canonical-
  rebuild contract; the committed end-to-end counters live in
  ``tests/test_golden_backends.py``).
* **Capacity read-through** — a shard view once snapshotted
  ``capacity`` at construction, so a donor shard shrunk by a rebalance
  kept its stale larger capacity; a shard's slot in
  ``ShardedBuffer.shards`` holds the rebuilt backend, pinned here.

The manager's online driver is checked through ``serve_batch`` here and
end to end through ``run()`` by the committed counters of
``tests/test_golden_backends.py::test_rebalanced_manager_matches_golden``.
"""

import random

import numpy as np
import pytest

from repro.cache import ShardedBuffer
from repro.cache.sharding import split_capacity
from sharded_ops import (
    DENSE_SPACE,
    apply_op,
    assert_partition_invariants,
    drain,
    gen_ops,
)

NUM_SEQUENCES = 200
OPS_PER_SEQUENCE = 60


def _random_weights(rng: random.Random, num_shards: int):
    if rng.random() < 0.2:
        return None
    return tuple(rng.choice([0.5, 1.0, 2.0, 3.0, 5.0])
                 for _ in range(num_shards))


def _checked_rebalance(sharded: ShardedBuffer, weights):
    """Rebalance and assert the full migration-invariant battery."""
    before = {key: sharded.priority_of(key) for key in sharded.keys()}
    stats = sharded.rebalance(weights)
    after = set(sharded.keys())
    evicted = set(stats["evicted"])
    # Residency-union preservation: nothing appears, nothing silently
    # vanishes — every departed key is reported as a shrink victim.
    assert len(evicted) == len(stats["evicted"])  # no duplicate victims
    assert after.isdisjoint(evicted)
    assert after | evicted == set(before)
    # The new split partitions total capacity; occupancy respects it.
    assert stats["shard_capacities"] == sharded.shard_capacities
    assert sum(sharded.shard_capacities) == sharded.capacity
    assert all(cap >= 1 for cap in sharded.shard_capacities)
    assert_partition_invariants(sharded)
    if not evicted and not sharded.approximate:
        # No donor-shrink aging ran: exact survivors carry their
        # effective priorities bit-for-bit across the migration.
        for key in after:
            assert sharded.priority_of(key) == before[key]
    if not stats["changed"]:
        assert stats["migrated_keys"] == 0 and not evicted
    return stats


@pytest.mark.parametrize("seed", range(NUM_SEQUENCES))
def test_rebalance_fuzz_interleaved_ops(seed):
    """200-seed fuzz: random op streams with rebalances interleaved at
    random points, across fast+clock backends and both routers."""
    rng = random.Random(9900 + seed)
    policy = rng.choice(["contiguous", "modulo"])
    num_shards = rng.choice([2, 3, 4])
    capacity = rng.randint(num_shards, 16)
    ops = gen_ops(rng, OPS_PER_SEQUENCE)

    buffers = [
        ShardedBuffer("fast", capacity, key_space=DENSE_SPACE,
                      num_shards=num_shards, shard_policy=policy),
        ShardedBuffer("clock", capacity, key_space=DENSE_SPACE,
                      num_shards=num_shards, shard_policy=policy),
    ]
    for op in ops:
        for sharded in buffers:
            apply_op(sharded, op)
            if rng.random() < 0.15:
                _checked_rebalance(sharded,
                                   _random_weights(rng, num_shards))
    for sharded in buffers:
        # Always end on a rebalance, then prove the buffer still
        # drains cleanly under the final partition.
        _checked_rebalance(sharded, _random_weights(rng, num_shards))
        remaining = len(sharded)
        victims = drain(sharded)
        assert len(victims) == len(set(victims)) == remaining
        assert len(sharded) == 0
        assert_partition_invariants(sharded)


@pytest.mark.parametrize("impl", ["fast", "clock"])
@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
def test_noop_rebalance_is_bit_identical(impl, policy):
    """A rebalance whose target equals the current state returns
    ``changed=False`` before touching any backend: a twin that calls
    it stays decision-identical through an arbitrary op suffix."""
    rng = random.Random(77)
    prefix, suffix = gen_ops(rng, 30), gen_ops(rng, 40)

    def build():
        buf = ShardedBuffer(impl, 9, key_space=DENSE_SPACE,
                            num_shards=3, shard_policy=policy)
        for op in prefix:
            apply_op(buf, op)
        return buf

    plain, poked = build(), build()
    # Same-target forms of the no-op: construction defaults on a
    # never-rebalanced buffer, then the same weights twice in a row.
    assert not poked.rebalance(None)["changed"]
    weights = (2.0, 1.0, 1.0)
    first = poked.rebalance(weights)
    second = poked.rebalance(weights)
    assert first["changed"] and not second["changed"]
    plain.rebalance(weights)
    for op in suffix:
        assert apply_op(plain, op) == apply_op(poked, op)
        assert sorted(plain.keys()) == sorted(poked.keys())
        for key in plain.keys():
            assert plain.priority_of(key) == poked.priority_of(key)
    assert drain(plain) == drain(poked)


@pytest.mark.parametrize("impl", ["fast", "clock"])
@pytest.mark.parametrize("policy", ["contiguous", "modulo"])
@pytest.mark.parametrize("seed", range(12))
def test_rebalanced_matches_fresh_preseeded_buffer(impl, policy, seed):
    """Canonical-rebuild contract: after ``rebalance(w)`` the buffer is
    decision-identical to a *fresh* ShardedBuffer rebalanced-empty onto
    ``w`` and pre-seeded with the same residents in canonical order
    (shard asc, per-shard eviction order, exact priorities)."""
    rng = random.Random(4400 + seed)
    num_shards = rng.choice([2, 3, 4])
    # Enough headroom that a skewed split actually moves capacity.
    capacity = rng.randint(3 * num_shards, 24)
    # Deliberately skewed: the contract under test is the canonical
    # rebuild of a *real* rebalance (a no-op rebalance intentionally
    # leaves the non-canonical layout alone, see the no-op test).
    weights = tuple([3.0] + [1.0] * (num_shards - 1))

    lived = ShardedBuffer(impl, capacity, key_space=DENSE_SPACE,
                          num_shards=num_shards, shard_policy=policy)
    for op in gen_ops(rng, 50):
        apply_op(lived, op)
    assert lived.rebalance(weights)["changed"]

    fresh = ShardedBuffer(impl, capacity, key_space=DENSE_SPACE,
                          num_shards=num_shards, shard_policy=policy)
    fresh.rebalance(weights)
    assert fresh.shard_capacities == lived.shard_capacities
    # Pre-seed in canonical order.  export_state speaks the backend's
    # own eviction-order encoding: exact backends carry explicit
    # seqnos (rank = insertion order), the clock backend returns hand
    # order directly — either way inserting in that order reproduces
    # the post-migration packed state.
    for index, shard in enumerate(lived.shards):
        state = shard.backend.export_state()
        if lived.approximate:
            local, prio = state
        else:
            local, prio, seq = state
            order = np.argsort(seq, kind="stable")
            local, prio = local[order], prio[order]
        for key, priority in zip(
                lived.router.decompress(index, local).tolist(),
                prio.tolist()):
            fresh.insert(int(key), int(priority))

    suffix = gen_ops(rng, 40)
    for op in suffix:
        assert apply_op(lived, op) == apply_op(fresh, op)
    assert sorted(lived.keys()) == sorted(fresh.keys())
    for key in lived.keys():
        assert lived.priority_of(key) == fresh.priority_of(key)
    assert drain(lived) == drain(fresh)


# ---------------------------------------------------------------------------
# Shard slots read their capacity through the rebuilt backend.


def test_view_capacity_tracks_rebalanced_backend():
    buf = ShardedBuffer("fast", 8, key_space=16, num_shards=2)
    shard = buf.shards[1]
    assert shard.backend.capacity == 4
    buf.rebalance((3.0, 1.0))
    # The slot must hold the rebuilt backend, not its construction one.
    assert shard is buf.shards[1]
    assert shard.backend.capacity == 2
    assert buf.shard_capacities == [6, 2]


def test_rebalance_shrink_reports_every_victim():
    """Donor shrink picks overflow victims through the backend's own
    eviction order and reports them all."""
    buf = ShardedBuffer("fast", 8, key_space=16, num_shards=2)
    seeded = [0, 1, 2, 3, 8, 9, 10, 11]  # both shards at capacity
    for key in seeded:
        buf.insert(key, 0)
    assert [len(shard.backend) for shard in buf.shards] == [4, 4]
    stats = buf.rebalance((1.0, 3.0))
    # The shrunk donor's overflow left through evict_batch and the
    # union is preserved.
    assert stats["changed"]
    assert set(buf.keys()) | set(stats["evicted"]) == set(seeded)
    assert len(buf) + len(stats["evicted"]) == len(seeded)
    for shard in buf.shards:
        assert len(shard.backend) <= shard.backend.capacity


# ---------------------------------------------------------------------------
# Manager-level: the online driver.


def _drifting_setup():
    from repro.core import RecMGConfig
    from repro.core.features import FeatureEncoder
    from repro.traces.synthetic import (
        SyntheticTraceConfig,
        generate_drifting_hot_band_trace,
    )

    trace_config = SyntheticTraceConfig(
        num_accesses=4000, num_tables=4, rows_per_table=100, seed=5)
    trace = generate_drifting_hot_band_trace(trace_config, num_shards=4)
    config = RecMGConfig(num_shards=4)
    encoder = FeatureEncoder(config).fit(trace)
    return trace, config, encoder


def test_serve_batch_drives_online_rebalancer():
    """The admission front door participates: skewed batches through
    serve_batch trigger a rebalance and tilt the split toward the hot
    shard, with the pause accounted in the metrics."""
    from dataclasses import replace

    from repro.core.manager import RecMGManager

    trace, config, encoder = _drifting_setup()

    manager = RecMGManager(40, encoder, replace(
        config, rebalance_interval=256, rebalance_threshold=0.05))
    quarter = encoder.vocab_size // 4
    rng = np.random.default_rng(3)
    for _ in range(12):
        hot = rng.integers(0, quarter, size=256)  # all route to shard 0
        hits = manager.serve_batch(hot)
        assert hits.size == 256
    summary = manager.serving_metrics.summary()
    assert summary["rebalance_count"] >= 1
    assert summary["rebalance_pause_ms_total"] > 0.0
    assert summary["rebalance_pause_ms_max"] <= \
        summary["rebalance_pause_ms_total"]
    # Capacity followed the traffic: the hot shard outgrew the cold.
    caps = manager.buffer.shard_capacities
    assert caps[0] == max(caps) and caps[0] > caps[-1]
    manager.close()


def test_rebalance_knob_validation():
    """The config refuses rebalancing without shards, so every manager
    that rebalances serves a ShardedBuffer."""
    from repro.core import RecMGConfig

    with pytest.raises(ValueError, match="rebalance_interval"):
        RecMGConfig(rebalance_interval=-1)
    with pytest.raises(ValueError, match="num_shards"):
        RecMGConfig(rebalance_interval=100)  # single shard
    with pytest.raises(ValueError, match="rebalance_threshold"):
        RecMGConfig(num_shards=2, rebalance_interval=100,
                    rebalance_threshold=float("inf"))


def test_rebalance_weight_split_matches_largest_remainder():
    """The driver hands the buffer EWMA-share weights; the resulting
    split must be the documented largest-remainder apportionment."""
    buf = ShardedBuffer("fast", 10, key_space=30, num_shards=3)
    buf.rebalance((5.0, 3.0, 2.0))
    assert buf.shard_capacities == split_capacity(10, 3, (5.0, 3.0, 2.0))
    assert buf.shard_capacities == [5, 3, 2]

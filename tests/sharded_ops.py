"""The op vocabulary of the sharded-buffer fuzzes (``test_sharding.py``
and ``test_rebalancing.py``): what serving calls on a buffer — the
routed scalar writes, ``serve_segment``, the bulk priority writes split
per shard backend in local ids (as the manager's caching-bit applier
splits them) and
evictions from a key's own shard (as its eviction for space does) —
applied the same way to a bare backend, which is its own one shard,
and to a :class:`ShardedBuffer`, whose shards are reached through
their backends, in local ids.
"""

import random
from functools import partial

import numpy as np

from repro.cache import ShardedBuffer

KEY_SPACE = 26
#: Sharded key_space deliberately smaller than the fuzzed key range:
#: keys >= DENSE_SPACE exercise the spillover routing (key mod N), and
#: never migrate on a rebalance.
DENSE_SPACE = KEY_SPACE - 7
MAX_PRIORITY = 6

#: Probe spanning below, inside, and above both the bitmap and the
#: fuzzed key range.
PROBE = np.arange(-4, KEY_SPACE + 9, dtype=np.int64)

OP_WEIGHTS = [
    ("insert", 6),
    ("set_priority", 4),
    ("demote", 2),
    ("serve_segment", 3),
    ("set_priority_batch", 2),
    ("demote_batch", 1),
    ("evict", 7),
]


def gen_ops(rng: random.Random, count: int):
    """``count`` random ops ``(kind, key, priority, batch, count)``."""
    names = [name for name, _ in OP_WEIGHTS]
    weights = [weight for _, weight in OP_WEIGHTS]
    return [(rng.choices(names, weights=weights)[0],
             rng.randrange(KEY_SPACE),
             rng.randrange(MAX_PRIORITY + 1),
             [rng.randrange(KEY_SPACE) for _ in range(rng.randint(1, 10))],
             rng.randint(1, 6))
            for _ in range(count)]


def shards_of(buffer):
    """``(backend, to_global)`` per shard: each shard's backend and the
    map of its local ids back to global ids.  A bare backend is its own
    one shard, in global ids."""
    if not isinstance(buffer, ShardedBuffer):
        return [(buffer, int)]
    return [(shard.backend, partial(buffer.router.decompress_key, index))
            for index, shard in enumerate(buffer.shards)]


def home(buffer, key):
    """``(backend, to_global)`` of the shard that holds (or would hold)
    ``key``."""
    index = (buffer.router.route(key) if isinstance(buffer, ShardedBuffer)
             else 0)
    return shards_of(buffer)[index]


def per_shard(buffer, keys):
    """``keys`` split along the shard scatter: ``(backend, local_ids)``
    pairs, or the bare backend with all of them."""
    arr = np.asarray(keys, dtype=np.int64)
    if not isinstance(buffer, ShardedBuffer):
        return [(buffer, arr)]
    return [(backend, local)
            for _, backend, _, local in buffer.iter_shard_segments(arr)]


def resident(buffer, keys):
    """Bulk residency of ``keys``, gathered shard by shard."""
    if not isinstance(buffer, ShardedBuffer):
        return buffer.contains_batch(keys)
    out = np.zeros(len(keys), dtype=bool)
    for _, backend, positions, local in buffer.iter_shard_segments(keys):
        out[positions] = backend.contains_batch(local)
    return out


def evict(backend, to_global, count):
    """Up to ``count`` scalar ``evict_one`` victims of one shard, as
    global ids."""
    return [to_global(backend.evict_one())
            for _ in range(min(count, len(backend)))]


def drain(buffer):
    """Empty ``buffer`` shard by shard with scalar ``evict_one``; returns
    the victims."""
    return [victim for backend, to_global in shards_of(buffer)
            for victim in evict(backend, to_global, len(backend))]


def apply_op(buffer, op):
    """Apply one op to ``buffer`` when locally valid (validity judged
    from the buffer's own state, so two buffers in identical state make
    identical decisions); returns the victims of evicting ops, or None."""
    kind, key, priority, batch, count = op
    if kind == "insert":
        if key in buffer:
            buffer.set_priority(key, priority)
        elif not home(buffer, key)[0].is_full:
            buffer.insert(key, priority)
    elif kind == "set_priority":
        if key in buffer:
            buffer.set_priority(key, priority)
    elif kind == "demote":
        if key in buffer:
            buffer.demote(key)
    elif kind == "serve_segment":
        return buffer.serve_segment(np.asarray(batch, dtype=np.int64),
                                    priority)[2].tolist()
    elif kind in ("set_priority_batch", "demote_batch"):
        for target, sub in per_shard(buffer,
                                     [k for k in batch if k in buffer]):
            if kind == "demote_batch":
                target.demote_batch(sub)
            else:
                target.set_priority_batch(sub, priority)
    elif kind == "evict":
        return evict(*home(buffer, key), count)
    return None


def assert_partition_invariants(sharded: ShardedBuffer):
    """After any op (a rebalance included, under whatever partition is
    drawn now): every key routes to exactly one shard, the per-shard
    resident sets are pairwise disjoint and within their shard's
    capacity, their union is scalar membership, and each shard's
    membership over its compressed universe decompresses exactly onto
    the global ids it owns."""
    # The probe is scattered first (``resident``): a shard's local ids
    # only speak for keys that route to it (the per-shard bijections
    # alias foreign keys by design).
    assert np.array_equal(resident(sharded, PROBE),
                          [int(key) in sharded for key in PROBE])
    seen = set()
    for index, shard in enumerate(sharded.shards):
        backend = shard.backend
        keys = sharded.router.decompress(index, list(backend.keys())).tolist()
        assert len(keys) <= backend.capacity
        for key in keys:
            assert sharded.router.route(key) == index
            assert key not in seen  # a key lives in at most one shard
            seen.add(key)
        # The backend's universe is the *compressed* one; its members
        # there decompress exactly onto the shard's in-universe
        # residents.
        local_ids = np.flatnonzero(backend.contains_batch(
            np.arange(backend.key_space)))
        decompressed = sharded.router.decompress(index, local_ids)
        assert sorted(decompressed.tolist()) == sorted(
            key for key in keys if 0 <= key < sharded.key_space)
    assert len(seen) == len(sharded) <= sharded.capacity

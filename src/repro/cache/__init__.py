"""Cache substrate: policies, optimal baselines, and the GPU buffer."""

from .base import CacheStats, CachePolicy, simulate, capacity_from_fraction
from .lru import LRUCache
from .lfu import LFUCache
from .belady import simulate_belady, belady_hit_rate, next_use_indices, NEVER
from .optgen import (
    OptgenResult,
    run_optgen,
    run_optgen_reference,
)
from .set_assoc import SetAssociativeCache, PrefetchStats, mix64
from .replacement import (
    ReplacementPolicy,
    LRUReplacement,
    SRRIPReplacement,
    BRRIPReplacement,
    DRRIPReplacement,
    HawkeyeReplacement,
    MockingjayReplacement,
    PredictorReplacement,
)
from .buffer import (
    PriorityBuffer,
    FastPriorityBuffer,
    ClockBuffer,
    BUFFER_IMPLS,
    make_buffer,
)
from .sharding import (
    SHARD_POLICIES,
    ShardRouter,
    ShardedBuffer,
    split_capacity,
)

__all__ = [
    "CacheStats", "CachePolicy", "simulate", "capacity_from_fraction",
    "LRUCache", "LFUCache",
    "simulate_belady", "belady_hit_rate", "next_use_indices", "NEVER",
    "OptgenResult", "run_optgen", "run_optgen_reference",
    "SetAssociativeCache", "PrefetchStats", "mix64",
    "ReplacementPolicy", "LRUReplacement", "SRRIPReplacement",
    "BRRIPReplacement", "DRRIPReplacement", "HawkeyeReplacement",
    "MockingjayReplacement", "PredictorReplacement",
    "PriorityBuffer", "FastPriorityBuffer", "ClockBuffer",
    "BUFFER_IMPLS", "make_buffer",
    "SHARD_POLICIES", "ShardRouter",
    "ShardedBuffer", "split_capacity",
]

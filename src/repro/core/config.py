"""RecMG configuration (paper §VII-A default configuration)."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass
class RecMGConfig:
    """Hyperparameters for the RecMG caching + prefetch models.

    Defaults follow the paper: input sequences of 15 accesses, prefetch
    output sequences of 5, evaluation window 15 (3x the output length),
    one LSTM stack for the caching model, two for the prefetch model,
    Chamfer alpha 0.7, ``eviction_speed`` 4.

    The deployment fields are the one place serving is configured:
    :class:`repro.core.manager.RecMGManager` reads them and takes no
    argument that overrides one (derive a variant with
    ``dataclasses.replace``).
    """

    # Sequence geometry.
    input_len: int = 15
    output_len: int = 5
    window_ratio: int = 3

    # Model sizes (kept small: the paper's models are 37K/74K params and
    # must run on spare CPU cycles).
    embed_dim: int = 16
    hidden: int = 48
    hash_buckets: int = 2048
    caching_stacks: int = 1
    prefetch_stacks: int = 2

    # Training.
    alpha: float = 0.7
    learning_rate: float = 1e-2
    caching_epochs: int = 3
    prefetch_epochs: int = 6
    batch_size: int = 32
    max_train_chunks: int = 1500
    grad_clip: float = 5.0
    seed: int = 0

    # Deployment.
    eviction_speed: int = 4
    #: Fraction of the GPU buffer given to optgen when labeling, leaving
    #: headroom for prefetched vectors (paper: 80%).
    optgen_fraction: float = 0.8
    #: Cap on prefetch insertions per chunk.
    max_prefetch_per_chunk: int = 5
    #: GPU-buffer backend for the online manager: ``"fast"`` (exact;
    #: dense per-id vectors, a victim queue and a fixed-point
    #: ``serve_segment``),
    #: ``"reference"`` (exact, O(n) audit loop) or
    #: ``"clock"`` (approximate array-backed CLOCK with batched
    #: eviction — the throughput-serving choice).  See
    #: :mod:`repro.cache.buffer`.
    buffer_impl: str = "fast"
    #: Number of buffer shards the dense id universe is partitioned
    #: across (1 = the identity shard; > 1 requires a fitted encoder so
    #: the manager can hand the routers a ``key_space``).  See
    #: :mod:`repro.cache.sharding`.
    num_shards: int = 1
    #: Shard routing policy: ``"contiguous"`` (range partition) or
    #: ``"modulo"`` (striping).  See
    #: :data:`repro.cache.sharding.SHARD_POLICIES`.
    shard_policy: str = "contiguous"
    #: Per-shard capacity weights (``None`` = uniform split).  One
    #: positive weight per shard; capacity splits proportionally by
    #: largest-remainder apportionment with at least one slot per shard
    #: — the skew-matched split for hot-shard workloads.  Requires
    #: ``num_shards > 1``.  See
    #: :func:`repro.cache.sharding.split_capacity`.
    shard_weights: tuple[float, ...] | None = None
    #: How the caching model's priorities reach the serving engines:
    #: ``"none"`` (no priority provider: model-free serving, bit-
    #: identical to the provider-free code) or ``"sync"`` (a
    #: :class:`repro.serving.priorities.SyncModelProvider`: batched
    #: inference on the serving thread, deterministic, applied to
    #: every served block).
    priority_mode: str = "none"
    #: Elastic shard-rebalancing cadence in served accesses (0 = off;
    #: requires ``num_shards > 1`` when on).  Every ``interval``
    #: accesses the manager compares the per-shard traffic EWMAs it
    #: accumulates at the gather against the current capacity split
    #: and, past ``rebalance_threshold``, calls
    #: :meth:`repro.cache.sharding.ShardedBuffer.rebalance` with the
    #: EWMA weights — at a block boundary.
    rebalance_interval: int = 0
    #: Imbalance trigger for the online rebalancer: rebalance only when
    #: ``max_s |traffic_share_s - capacity_share_s|`` exceeds this.
    rebalance_threshold: float = 0.1

    @property
    def eval_window(self) -> int:
        """Evaluation window length |W| = ratio x |PO| (paper Fig. 12)."""
        return self.window_ratio * self.output_len

    def __post_init__(self) -> None:
        if self.input_len < 1 or self.output_len < 1:
            raise ValueError("sequence lengths must be positive")
        if self.output_len > self.input_len:
            raise ValueError("output length must not exceed input length")
        if self.window_ratio < 1:
            raise ValueError("window_ratio must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not 0.0 < self.optgen_fraction <= 1.0:
            raise ValueError("optgen_fraction must lie in (0, 1]")
        if self.eviction_speed < 1:
            raise ValueError("eviction_speed must be >= 1")
        from ..cache.buffer import BUFFER_IMPLS
        from ..cache.sharding import SHARD_POLICIES

        if self.buffer_impl not in BUFFER_IMPLS:
            raise ValueError(
                f"buffer_impl must be one of {sorted(BUFFER_IMPLS)}, "
                f"got {self.buffer_impl!r}")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.shard_policy not in SHARD_POLICIES:
            raise ValueError(
                f"shard_policy must be one of {sorted(SHARD_POLICIES)}, "
                f"got {self.shard_policy!r}")
        if self.shard_weights is not None:
            if self.num_shards < 2:
                raise ValueError(
                    "shard_weights requires num_shards > 1 (there is "
                    "nothing to weight on a single shard)")
            weights = tuple(float(w) for w in self.shard_weights)
            if len(weights) != self.num_shards:
                raise ValueError(
                    f"shard_weights must provide one weight per shard "
                    f"(expected {self.num_shards}, got {len(weights)})")
            if not all(math.isfinite(w) and w > 0.0 for w in weights):
                raise ValueError(
                    "shard_weights must be positive and finite")
        from ..serving.priorities import PRIORITY_MODES

        if self.priority_mode not in PRIORITY_MODES:
            raise ValueError(
                f"priority_mode must be one of {PRIORITY_MODES}, "
                f"got {self.priority_mode!r}")
        if self.rebalance_interval < 0:
            raise ValueError("rebalance_interval must be >= 0 "
                             "(0 disables online rebalancing)")
        if self.rebalance_interval and self.num_shards < 2:
            raise ValueError("rebalance_interval requires num_shards > 1 "
                             "(there is nothing to rebalance on a "
                             "single shard)")
        if not (math.isfinite(self.rebalance_threshold)
                and self.rebalance_threshold >= 0.0):
            raise ValueError(
                "rebalance_threshold must be finite and >= 0")

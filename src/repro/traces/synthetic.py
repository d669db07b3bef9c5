"""Synthetic DLRM embedding-access trace generator.

The paper evaluates on Meta production traces
(``facebookresearch/dlrm_datasets``); those are not redistributable, so
this generator synthesizes traces with the three properties the paper's
results depend on (see DESIGN.md):

1. **Power-law popularity** — a Zipf-distributed hot set so that roughly
   20% of vectors take roughly 80% of accesses (paper §I).
2. **Long reuse distances** — a small set of *periodic* vectors that
   recur with gaps far larger than any realistic GPU buffer (paper §III:
   20% of accesses reuse beyond 2^20).
3. **Learnable inter-access correlation** — user sessions walk a skewed
   Markov chain over latent *interest clusters*; each cluster maps to a
   contiguous block of rows per table, so consecutive queries touch
   correlated (and numerically nearby) indices.  This is the "implicit
   correlation in user access behaviors" RecMG's models learn.

Cluster blocks are contiguous index ranges on purpose: RecMG's prefetch
model regresses embedding indices (the paper's projection layer emits
index values scored by the Chamfer measure), which presumes nearby
indices are semantically related.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .access import Trace


@dataclass
class SyntheticTraceConfig:
    """Knobs for the synthetic trace generator.

    Defaults produce a small trace suitable for tests; the dataset
    presets in :mod:`repro.traces.datasets` scale them up.
    """

    num_tables: int = 8
    rows_per_table: int = 2048
    num_accesses: int = 50_000
    #: Zipf exponent for cluster popularity (higher = more skew).
    zipf_s: float = 1.1
    #: Number of latent interest clusters.
    num_clusters: int = 64
    #: Rows per cluster block inside each table.
    cluster_block: int = 16
    #: Queries per user session (consecutive correlated queries).
    session_length: int = 8
    #: Dirichlet concentration of the cluster transition matrix;
    #: smaller = more deterministic transitions = more learnable.
    transition_concentration: float = 0.05
    #: Number of candidate successor clusters per cluster.
    transition_fanout: int = 4
    #: Mean pooling factor (accesses per query); actual factor is
    #: lognormal-ish in [1, pooling_max].
    pooling_mean: float = 6.0
    pooling_max: int = 64
    #: Fraction of accesses replaced by uniform cold accesses (few-reuse).
    cold_fraction: float = 0.08
    #: Long-reuse population: a pool of ``periodic_items`` vectors cycled
    #: one injection every ``periodic_spacing`` accesses.  Each item then
    #: recurs every ``periodic_items * periodic_spacing`` accesses — far
    #: beyond typical buffer capacities, reproducing the paper's "20% of
    #: accesses have reuse distance larger than 2^20".  The cyclic order
    #: makes these accesses *predictable* (the prefetch model's target).
    periodic_items: int = 1000
    periodic_spacing: int = 6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_tables < 1 or self.rows_per_table < 1:
            raise ValueError("need at least one table and one row")
        if self.cluster_block * 1 > self.rows_per_table:
            raise ValueError("cluster_block larger than table")
        if not 0.0 <= self.cold_fraction < 1.0:
            raise ValueError("cold_fraction must lie in [0, 1)")
        if self.pooling_max < 1:
            raise ValueError("pooling_max must be >= 1")


class _ClusterSpace:
    """Maps clusters to contiguous row blocks inside every table."""

    def __init__(self, config: SyntheticTraceConfig, rng: np.random.Generator) -> None:
        self.config = config
        blocks_per_table = config.rows_per_table // config.cluster_block
        # Each cluster owns one block per table, chosen without
        # replacement where possible so clusters do not fully overlap.
        self.block_of = np.empty((config.num_clusters, config.num_tables), np.int64)
        for table in range(config.num_tables):
            if config.num_clusters <= blocks_per_table:
                choice = rng.choice(blocks_per_table, size=config.num_clusters,
                                    replace=False)
            else:
                choice = rng.integers(0, blocks_per_table, size=config.num_clusters)
            self.block_of[:, table] = choice

    def rows(self, cluster: int, table: int, count: int,
             rng: np.random.Generator) -> np.ndarray:
        base = self.block_of[cluster, table] * self.config.cluster_block
        # Zipf-ish skew inside the block: low offsets more popular.
        offsets = rng.zipf(1.8, size=count) - 1
        offsets = np.minimum(offsets, self.config.cluster_block - 1)
        return base + offsets


def _make_transition_matrix(config: SyntheticTraceConfig,
                            rng: np.random.Generator) -> np.ndarray:
    """Sparse, skewed Markov transition matrix over clusters."""
    n = config.num_clusters
    matrix = np.zeros((n, n))
    for c in range(n):
        successors = rng.choice(n, size=min(config.transition_fanout, n),
                                replace=False)
        weights = rng.dirichlet(
            np.full(len(successors), config.transition_concentration)
        )
        matrix[c, successors] = weights
    return matrix


def _zipf_popularity(n: int, s: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-s)
    return weights / weights.sum()


def generate_trace(config: SyntheticTraceConfig) -> Trace:
    """Generate a synthetic embedding-access trace per ``config``."""
    rng = np.random.default_rng(config.seed)
    space = _ClusterSpace(config, rng)
    transition = _make_transition_matrix(config, rng)
    popularity = _zipf_popularity(config.num_clusters, config.zipf_s)

    table_chunks: List[np.ndarray] = []
    row_chunks: List[np.ndarray] = []
    query_lengths: List[int] = []

    periodic_rows = rng.integers(0, config.rows_per_table,
                                 size=max(1, config.periodic_items))
    periodic_tables = rng.integers(0, config.num_tables,
                                   size=max(1, config.periodic_items))

    total = 0
    cluster = int(rng.choice(config.num_clusters, p=popularity))
    session_left = config.session_length
    next_periodic = config.periodic_spacing
    periodic_cursor = 0

    while total < config.num_accesses:
        if session_left == 0:
            cluster = int(rng.choice(config.num_clusters, p=popularity))
            session_left = config.session_length
        else:
            row_probs = transition[cluster]
            if row_probs.sum() > 0:
                cluster = int(rng.choice(config.num_clusters, p=row_probs))
        session_left -= 1

        pooling = int(np.clip(rng.poisson(config.pooling_mean) + 1,
                              1, config.pooling_max))
        tables = rng.integers(0, config.num_tables, size=pooling)
        rows = np.empty(pooling, np.int64)
        for i, table in enumerate(tables):
            rows[i] = space.rows(cluster, int(table), 1, rng)[0]

        # Replace a fraction with cold (few-reuse) uniform accesses.
        cold_mask = rng.random(pooling) < config.cold_fraction
        cold_count = int(cold_mask.sum())
        if cold_count:
            rows[cold_mask] = rng.integers(0, config.rows_per_table,
                                           size=cold_count)
            tables[cold_mask] = rng.integers(0, config.num_tables,
                                             size=cold_count)

        # Inject long-reuse-distance items, cycling the pool in order.
        while config.periodic_items and total + len(rows) >= next_periodic:
            idx = periodic_cursor % config.periodic_items
            tables = np.append(tables, periodic_tables[idx])
            rows = np.append(rows, periodic_rows[idx])
            periodic_cursor += 1
            next_periodic += config.periodic_spacing

        table_chunks.append(tables.astype(np.int64))
        row_chunks.append(rows)
        query_lengths.append(len(rows))
        total += len(rows)

    table_ids = np.concatenate(table_chunks)[: config.num_accesses]
    row_ids = np.concatenate(row_chunks)[: config.num_accesses]
    offsets = np.concatenate([[0], np.cumsum(query_lengths)])
    offsets = offsets[offsets <= config.num_accesses]
    if offsets[-1] != config.num_accesses:
        offsets = np.append(offsets, config.num_accesses)
    return Trace(table_ids, row_ids, query_offsets=offsets,
                 name=f"synthetic-seed{config.seed}")


# ---------------------------------------------------------------------------
# Scenario-diverse generators (sharded-serving workloads).
#
# The sharded serving stack (repro.cache.sharding) is only interesting
# under the traffic shapes real multi-tenant embedding caches see:
# varying popularity skew, one shard drawing most of the traffic, and
# tenants time-sharing the buffer from disjoint id regions.  The three
# generators below synthesize exactly those.  They draw (table, row)
# pairs from the *table-major flat grid* g = table * rows_per_table +
# row: packed keys sort in that same order, remap_to_dense assigns
# dense ids in sorted-key order, and the contiguous shard router
# partitions dense ids by ranges — so a contiguous band of the flat
# grid lands (up to ids that never appear) in a contiguous band of
# dense ids, i.e. on one contiguous-router shard.


def _grid_to_trace(flat: np.ndarray, rows_per_table: int,
                   name: str) -> Trace:
    """Flat table-major grid ids -> a Trace (one query per access)."""
    offsets = np.arange(flat.size + 1, dtype=np.int64)
    return Trace(flat // rows_per_table, flat % rows_per_table,
                 query_offsets=offsets, name=name)


def _band_draw(rng: np.random.Generator, lo: int, hi: int, count: int,
               zipf_s: float) -> np.ndarray:
    """``count`` Zipf-skewed draws from the flat-grid band [lo, hi)."""
    weights = _zipf_popularity(hi - lo, zipf_s)
    return lo + rng.choice(hi - lo, size=count, p=weights)


def generate_hot_shard_trace(config: SyntheticTraceConfig,
                             num_shards: int = 4,
                             hot_shard: int = 0,
                             hot_fraction: float = 0.8) -> Trace:
    """Hot-shard imbalance: ``hot_fraction`` of accesses concentrate on
    one contiguous band of the id space.

    The table-major flat grid ``[0, num_tables * rows_per_table)``
    splits into ``num_shards`` equal contiguous bands; a
    ``hot_fraction`` share of accesses draws (Zipf ``config.zipf_s``)
    from band ``hot_shard``, the rest Zipf-spread over the whole grid.
    Under the contiguous shard router one shard therefore absorbs
    ~``hot_fraction`` of the traffic (the worst case a static range
    partition can see), while the modulo router stripes the same hot
    band across every shard — the pair the sharded benchmarks compare.
    """
    if not 1 <= num_shards:
        raise ValueError("num_shards must be >= 1")
    if not 0 <= hot_shard < num_shards:
        raise ValueError("hot_shard must lie in [0, num_shards)")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must lie in [0, 1]")
    rng = np.random.default_rng(config.seed)
    universe = config.num_tables * config.rows_per_table
    if universe < num_shards:
        raise ValueError("id universe smaller than num_shards")
    lo = hot_shard * universe // num_shards
    hi = (hot_shard + 1) * universe // num_shards
    n = config.num_accesses
    hot_mask = rng.random(n) < hot_fraction
    flat = np.empty(n, dtype=np.int64)
    hot_count = int(hot_mask.sum())
    if hot_count:
        flat[hot_mask] = _band_draw(rng, lo, hi, hot_count, config.zipf_s)
    if n - hot_count:
        flat[~hot_mask] = _band_draw(rng, 0, universe, n - hot_count,
                                     config.zipf_s)
    return _grid_to_trace(
        flat, config.rows_per_table,
        name=(f"hot-shard{hot_shard}of{num_shards}"
              f"-f{hot_fraction:g}-seed{config.seed}"))


def generate_drifting_hot_band_trace(config: SyntheticTraceConfig,
                                     num_shards: int = 4,
                                     hot_fraction: float = 0.8,
                                     num_phases: int = 4) -> Trace:
    """Diurnal skew drift: the hot band *moves* across the id space.

    The trace is ``num_phases`` equal phases; phase ``p`` concentrates
    ``hot_fraction`` of its accesses (Zipf ``config.zipf_s``) on
    contiguous band ``p % num_shards`` of the flat grid, the rest
    Zipf-spread over the whole grid — each phase is one
    :func:`generate_hot_shard_trace` regime, with the hot band walking
    one shard to the right per phase.  This is the scenario static
    weighted splits cannot win: any fixed ``shard_weights`` choice
    matches at most one phase, so capacity is stranded on cold shards
    for the rest of the trace, while the online rebalancer
    (``rebalance_interval``) tracks the drift — the lift-gated
    drifting-hot-band bench compares exactly those three operating
    points (static / adaptive / per-phase oracle).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    if num_phases < 1:
        raise ValueError("num_phases must be >= 1")
    if not 0.0 <= hot_fraction <= 1.0:
        raise ValueError("hot_fraction must lie in [0, 1]")
    rng = np.random.default_rng(config.seed)
    universe = config.num_tables * config.rows_per_table
    if universe < num_shards:
        raise ValueError("id universe smaller than num_shards")
    n = config.num_accesses
    phase_length = -(-n // num_phases)
    flat = np.empty(num_phases * phase_length, dtype=np.int64)
    for phase in range(num_phases):
        band = phase % num_shards
        lo = band * universe // num_shards
        hi = (band + 1) * universe // num_shards
        hot_mask = rng.random(phase_length) < hot_fraction
        hot_count = int(hot_mask.sum())
        segment = np.empty(phase_length, dtype=np.int64)
        if hot_count:
            segment[hot_mask] = _band_draw(rng, lo, hi, hot_count,
                                           config.zipf_s)
        if phase_length - hot_count:
            segment[~hot_mask] = _band_draw(rng, 0, universe,
                                            phase_length - hot_count,
                                            config.zipf_s)
        flat[phase * phase_length:(phase + 1) * phase_length] = segment
    return _grid_to_trace(
        flat[:n], config.rows_per_table,
        name=(f"drifting-hot{num_shards}-f{hot_fraction:g}"
              f"-p{num_phases}-seed{config.seed}"))


def generate_multi_tenant_trace(config: SyntheticTraceConfig,
                                num_tenants: int = 4,
                                tenant_shares: Optional[Sequence[float]]
                                = None,
                                phase_length: int = 256) -> Trace:
    """Multi-tenant interleave: tenants with disjoint contiguous id
    bands time-share the buffer in phases.

    The flat grid splits into ``num_tenants`` equal contiguous bands
    (one per tenant).  The trace is a sequence of ``phase_length``
    -access phases; each phase belongs to one tenant drawn with
    probability ``tenant_shares`` (uniform when omitted), and its
    accesses are Zipf-skewed *within that tenant's band* — tenant-local
    hot sets with no cross-tenant reuse.  Under contiguous routing each
    tenant maps to a stable shard subset (per-tenant isolation); under
    modulo routing every tenant touches every shard.
    """
    if num_tenants < 1:
        raise ValueError("num_tenants must be >= 1")
    if phase_length < 1:
        raise ValueError("phase_length must be >= 1")
    if tenant_shares is None:
        shares = np.full(num_tenants, 1.0 / num_tenants)
    else:
        shares = np.asarray(tenant_shares, dtype=np.float64)
        if shares.size != num_tenants or (shares < 0).any():
            raise ValueError("tenant_shares must be num_tenants "
                             "non-negative weights")
        if shares.sum() <= 0:
            raise ValueError("tenant_shares must not sum to zero")
        shares = shares / shares.sum()
    rng = np.random.default_rng(config.seed)
    universe = config.num_tables * config.rows_per_table
    if universe < num_tenants:
        raise ValueError("id universe smaller than num_tenants")
    n = config.num_accesses
    num_phases = -(-n // phase_length)
    tenant_of_phase = rng.choice(num_tenants, size=num_phases, p=shares)
    flat = np.empty(num_phases * phase_length, dtype=np.int64)
    for tenant in range(num_tenants):
        phases = np.flatnonzero(tenant_of_phase == tenant)
        if not phases.size:
            continue
        lo = tenant * universe // num_tenants
        hi = (tenant + 1) * universe // num_tenants
        draws = _band_draw(rng, lo, hi, phases.size * phase_length,
                           config.zipf_s)
        positions = (phases[:, None] * phase_length
                     + np.arange(phase_length)[None, :]).ravel()
        flat[positions] = draws
    return _grid_to_trace(
        flat[:n], config.rows_per_table,
        name=f"multi-tenant{num_tenants}-seed{config.seed}")


def model_guided_scenarios(config: SyntheticTraceConfig,
                           num_shards: int = 4
                           ) -> List[tuple[str, Trace]]:
    """Named ``(scenario, trace)`` pairs the model-guided serving bench
    sweeps: the base correlated-Zipf trace, its hot-shard variant (85%
    of traffic on one contiguous band) and the multi-tenant phase
    interleave.  One shared config (seed included) so the hit-rate
    lifts in ``BENCH_hotpaths.json`` compare like against like across
    PRs; the three access shapes stress the caching model differently
    (global popularity skew, band-local skew, phase-local reuse)."""
    return [
        ("zipf", generate_trace(config)),
        ("hot_shard", generate_hot_shard_trace(
            config, num_shards=num_shards, hot_shard=0, hot_fraction=0.85)),
        ("multi_tenant", generate_multi_tenant_trace(
            config, num_tenants=num_shards)),
    ]

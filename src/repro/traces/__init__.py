"""Embedding-access trace substrate: datatypes, synthesis, analysis."""

from .access import Access, Trace, pack_key, unpack_key, remap_to_dense, ROW_BITS
from .synthetic import (
    SyntheticTraceConfig,
    generate_trace,
    generate_hot_shard_trace,
    generate_drifting_hot_band_trace,
    generate_multi_tenant_trace,
    model_guided_scenarios,
)
from .datasets import (
    DATASET_NAMES,
    TABLE1_CONFIGS,
    dataset_config,
    load_dataset,
    table1_trace,
)
from .reuse import (
    COLD_MISS,
    FenwickTree,
    count_left_leq,
    next_occurrence_indices,
    prev_occurrence_indices,
    reuse_distances,
    reuse_distances_fast,
    reuse_distances_from_keys,
    reuse_histogram,
    lru_hit_rate,
    lru_hit_rate_curve,
    long_reuse_fraction,
)
from .stats import (
    TraceSummary,
    access_frequencies,
    top_fraction_share,
    summarize,
)

__all__ = [
    "Access", "Trace", "pack_key", "unpack_key", "remap_to_dense", "ROW_BITS",
    "SyntheticTraceConfig", "generate_trace",
    "generate_hot_shard_trace", "generate_drifting_hot_band_trace",
    "generate_multi_tenant_trace",
    "model_guided_scenarios",
    "DATASET_NAMES", "TABLE1_CONFIGS", "dataset_config", "load_dataset",
    "table1_trace",
    "COLD_MISS", "FenwickTree", "count_left_leq",
    "prev_occurrence_indices", "next_occurrence_indices",
    "reuse_distances", "reuse_distances_fast", "reuse_distances_from_keys",
    "reuse_histogram",
    "lru_hit_rate", "lru_hit_rate_curve", "long_reuse_fraction",
    "TraceSummary", "access_frequencies", "top_fraction_share", "summarize",
]

"""Dataset presets standing in for the paper's production traces.

The paper evaluates on five Meta datasets (``dataset0..dataset4``, §VII)
that "differ in terms of embedding table IDs and row IDs which are most
frequently accessed", plus four configurations DS1–DS4 for the
Table I overhead study.  These presets configure the synthetic generator
(:mod:`repro.traces.synthetic`) with different seeds, skews and
correlation structures so datasets differ the same way: popularity and
transition structure vary, scale stays comparable.

Scale note: the paper's traces have 400M+ accesses over 62M unique
vectors; we default to tens of thousands of accesses over thousands of
vectors so that pure-Python experiments finish in seconds.  All
evaluation logic is scale-free (ratios of hits/misses).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from .access import Trace
from .synthetic import SyntheticTraceConfig, generate_trace

#: Names of the five main evaluation datasets (paper Fig. 8-10, 14, 16).
DATASET_NAMES = [f"dataset{i}" for i in range(5)]

_BASE = SyntheticTraceConfig(
    num_tables=12,
    rows_per_table=4096,
    num_accesses=60_000,
    num_clusters=96,
    cluster_block=16,
    session_length=10,
    pooling_mean=6.0,
    # Long-reuse pool deliberately larger than a 20%-of-unique buffer so
    # these accesses *recur as capacity misses* (the paper's "20% of
    # accesses have reuse distance larger than 2^20").
    periodic_items=3000,
    periodic_spacing=5,
)

#: Per-dataset variations: different hot tables/rows via seed, plus
#: different skew and correlation strength.
_DATASET_OVERRIDES: Dict[str, dict] = {
    "dataset0": dict(seed=10, zipf_s=1.10, transition_concentration=0.05),
    "dataset1": dict(seed=11, zipf_s=1.25, transition_concentration=0.08),
    "dataset2": dict(seed=12, zipf_s=0.95, transition_concentration=0.04),
    "dataset3": dict(seed=13, zipf_s=1.10, transition_concentration=0.12,
                     session_length=6),
    "dataset4": dict(seed=14, zipf_s=1.40, transition_concentration=0.06,
                     pooling_mean=9.0),
}

#: Table I configurations (scaled-down shape: DS3/DS4 have 8x the tables
#: and accesses of DS1/DS2; DS4 triples the batch size).
TABLE1_CONFIGS: Dict[str, dict] = {
    "DS1": dict(num_tables=6, num_accesses=20_000, caching_ratio=1.00,
                batch_size=64),
    "DS2": dict(num_tables=6, num_accesses=20_000, caching_ratio=0.20,
                batch_size=64),
    "DS3": dict(num_tables=48, num_accesses=60_000, caching_ratio=0.07,
                batch_size=64),
    "DS4": dict(num_tables=48, num_accesses=60_000, caching_ratio=0.07,
                batch_size=192),
}


def dataset_config(name: str, scale: float = 1.0) -> SyntheticTraceConfig:
    """Config for one of the five named datasets; ``scale`` multiplies
    the access count (tests use scale < 1 for speed)."""
    if name not in _DATASET_OVERRIDES:
        raise KeyError(f"unknown dataset {name!r}; choose from {DATASET_NAMES}")
    config = replace(_BASE, **_DATASET_OVERRIDES[name])
    if scale != 1.0:
        config = replace(config, num_accesses=max(1000, int(config.num_accesses * scale)))
    return config


def load_dataset(name: str, scale: float = 1.0) -> Trace:
    """Generate (deterministically) one of the five evaluation datasets."""
    trace = generate_trace(dataset_config(name, scale=scale))
    trace.name = name
    return trace


def table1_trace(name: str, scale: float = 1.0) -> Trace:
    """Trace for one of the Table I configurations DS1-DS4."""
    if name not in TABLE1_CONFIGS:
        raise KeyError(f"unknown Table I config {name!r}")
    spec = TABLE1_CONFIGS[name]
    config = replace(
        _BASE,
        num_tables=spec["num_tables"],
        num_accesses=max(1000, int(spec["num_accesses"] * scale)),
        seed=100 + list(TABLE1_CONFIGS).index(name),
    )
    trace = generate_trace(config)
    trace.name = name
    return trace

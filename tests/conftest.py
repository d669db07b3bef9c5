"""Shared fixtures: small traces and a tiny trained RecMG system.

Session-scoped so expensive artifacts (trace generation, model training)
are built once for the whole suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache import capacity_from_fraction
from repro.core import RecMG, RecMGConfig
from repro.traces import SyntheticTraceConfig, generate_trace


def pytest_configure(config):
    if not config.pluginmanager.hasplugin("timeout"):
        # pytest-timeout is a CI dependency (requirements-ci.txt); when
        # it is absent locally the marker must still be known so the
        # threaded tests (admission queue, shared-model inference) run
        # warning-free (the limit is then simply not enforced).
        config.addinivalue_line(
            "markers",
            "timeout(seconds): per-test wall-clock limit, enforced by "
            "pytest-timeout where installed (a hung queue/thread test "
            "fails instead of wedging CI)")


TINY_CONFIG = SyntheticTraceConfig(
    num_tables=4,
    rows_per_table=512,
    num_accesses=6000,
    num_clusters=24,
    cluster_block=8,
    periodic_items=200,
    periodic_spacing=6,
    seed=3,
)


@pytest.fixture(scope="session")
def tiny_trace():
    return generate_trace(TINY_CONFIG)


@pytest.fixture(scope="session")
def tiny_capacity(tiny_trace):
    return capacity_from_fraction(tiny_trace, 0.20)


@pytest.fixture(scope="session")
def tiny_recmg_config():
    return RecMGConfig(
        input_len=10,
        output_len=4,
        window_ratio=3,
        embed_dim=8,
        hidden=16,
        hash_buckets=256,
        caching_epochs=1,
        prefetch_epochs=1,
        max_train_chunks=120,
        batch_size=16,
    )


@pytest.fixture(scope="session")
def trained_recmg(tiny_trace, tiny_capacity, tiny_recmg_config):
    """A RecMG system trained briefly on the tiny trace's first half."""
    train, _ = tiny_trace.split(0.6)
    system = RecMG(tiny_recmg_config)
    system.fit(train, buffer_capacity=tiny_capacity)
    return system


@pytest.fixture()
def rng():
    return np.random.default_rng(0)

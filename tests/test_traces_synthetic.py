"""Synthetic generator: determinism, paper-motivated trace properties."""

import numpy as np
import pytest

from repro.traces import (
    DATASET_NAMES, SyntheticTraceConfig, dataset_config,
    generate_hot_shard_trace, generate_multi_tenant_trace,
    generate_trace, load_dataset, long_reuse_fraction, reuse_distances,
    table1_trace, top_fraction_share,
)


class TestGenerator:
    def test_deterministic(self):
        config = SyntheticTraceConfig(num_accesses=2000, seed=5)
        a = generate_trace(config)
        b = generate_trace(config)
        assert np.array_equal(a.keys(), b.keys())

    def test_seed_changes_trace(self):
        a = generate_trace(SyntheticTraceConfig(num_accesses=2000, seed=5))
        b = generate_trace(SyntheticTraceConfig(num_accesses=2000, seed=6))
        assert not np.array_equal(a.keys(), b.keys())

    def test_exact_length(self):
        trace = generate_trace(SyntheticTraceConfig(num_accesses=3123))
        assert len(trace) == 3123

    def test_rows_within_tables(self):
        config = SyntheticTraceConfig(num_accesses=2000, rows_per_table=256)
        trace = generate_trace(config)
        assert trace.row_ids.max() < 256
        assert trace.table_ids.max() < config.num_tables

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(num_tables=0)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(cold_fraction=1.5)
        with pytest.raises(ValueError):
            SyntheticTraceConfig(cluster_block=999, rows_per_table=10)


class TestPaperProperties:
    """The three trace properties the paper's analysis depends on."""

    def test_power_law_popularity(self, tiny_trace):
        # ~20% of vectors should take well over half the accesses.
        assert top_fraction_share(tiny_trace, 0.2) > 0.55

    def test_long_reuse_distances_present(self, tiny_trace):
        distances = reuse_distances(tiny_trace)
        cap = int(tiny_trace.num_unique * 0.2)
        assert long_reuse_fraction(distances, cap) > 0.05

    def test_session_correlation(self, tiny_trace):
        # Consecutive accesses repeat tables/clusters far more often than
        # a shuffled trace would.
        keys = tiny_trace.keys()
        rng = np.random.default_rng(0)
        shuffled = keys.copy()
        rng.shuffle(shuffled)
        # Not a strong statement about equality-adjacency, so compare
        # block reuse: distinct keys per window.
        def window_distinct(arr, w=50):
            return np.mean([len(set(arr[i:i + w].tolist()))
                            for i in range(0, len(arr) - w, w)])
        assert window_distinct(keys) < window_distinct(shuffled)


class TestScenarioGenerators:
    """Sharded-serving workloads: skew sweep, hot-shard, multi-tenant."""

    BASE = SyntheticTraceConfig(num_tables=4, rows_per_table=256,
                                num_accesses=8000, seed=12)

    @staticmethod
    def _flat(trace, rows_per_table=256):
        return trace.table_ids * rows_per_table + trace.row_ids

    def test_hot_shard_band_concentration(self):
        trace = generate_hot_shard_trace(self.BASE, num_shards=4,
                                         hot_shard=2, hot_fraction=0.8)
        assert len(trace) == self.BASE.num_accesses
        universe = 4 * 256
        flat = self._flat(trace)
        band = (flat >= 2 * universe // 4) & (flat < 3 * universe // 4)
        # The hot band holds its own share plus its slice of the cold
        # remainder.
        assert band.mean() > 0.75
        # Deterministic per seed.
        again = generate_hot_shard_trace(self.BASE, num_shards=4,
                                         hot_shard=2, hot_fraction=0.8)
        assert np.array_equal(trace.keys(), again.keys())

    def test_hot_shard_maps_to_one_contiguous_router_shard(self):
        """The point of the generator: under contiguous routing of the
        dense-remapped universe, one shard absorbs the hot traffic."""
        from repro.cache import ShardRouter
        from repro.traces.access import remap_to_dense

        trace = generate_hot_shard_trace(self.BASE, num_shards=4,
                                         hot_shard=1, hot_fraction=0.85)
        dense, _ = remap_to_dense(trace)
        router = ShardRouter("contiguous", 4, int(dense.max()) + 1)
        shares = np.bincount(router.route_batch(dense), minlength=4) \
            / dense.size
        assert shares.max() > 0.6  # one shard dominates
        modulo = ShardRouter("modulo", 4, int(dense.max()) + 1)
        mod_shares = np.bincount(modulo.route_batch(dense), minlength=4) \
            / dense.size
        assert mod_shares.max() < shares.max()  # striping spreads it

    def test_hot_shard_validation(self):
        with pytest.raises(ValueError):
            generate_hot_shard_trace(self.BASE, num_shards=4, hot_shard=4)
        with pytest.raises(ValueError):
            generate_hot_shard_trace(self.BASE, hot_fraction=1.5)

    def test_multi_tenant_phases_and_shares(self):
        trace = generate_multi_tenant_trace(self.BASE, num_tenants=4,
                                            tenant_shares=[4, 2, 1, 1],
                                            phase_length=200)
        assert len(trace) == self.BASE.num_accesses
        universe = 4 * 256
        tenant = self._flat(trace) * 4 // universe
        # Phases are single-tenant (tenant bands are disjoint).
        whole = tenant[: (len(trace) // 200) * 200].reshape(-1, 200)
        assert (whole == whole[:, :1]).all()
        # Shares are respected within sampling noise.
        shares = np.bincount(tenant, minlength=4) / tenant.size
        assert shares[0] > shares[2] and shares[0] > shares[3]

    def test_multi_tenant_validation(self):
        with pytest.raises(ValueError):
            generate_multi_tenant_trace(self.BASE, num_tenants=0)
        with pytest.raises(ValueError):
            generate_multi_tenant_trace(self.BASE, tenant_shares=[1, 2])
        with pytest.raises(ValueError):
            generate_multi_tenant_trace(self.BASE,
                                        tenant_shares=[0, 0, 0, 0])
        with pytest.raises(ValueError):
            generate_multi_tenant_trace(self.BASE, phase_length=0)


class TestDatasets:
    def test_all_presets_load(self):
        for name in DATASET_NAMES:
            trace = load_dataset(name, scale=0.05)
            assert len(trace) >= 1000
            assert trace.name == name

    def test_presets_differ(self):
        a = load_dataset("dataset0", scale=0.05)
        b = load_dataset("dataset1", scale=0.05)
        assert not np.array_equal(a.keys(), b.keys())

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            dataset_config("dataset9")

    def test_table1_shapes(self):
        small = table1_trace("DS1", scale=0.1)
        large = table1_trace("DS3", scale=0.1)
        assert large.num_tables > small.num_tables

    def test_table1_unknown(self):
        with pytest.raises(KeyError):
            table1_trace("DS9")

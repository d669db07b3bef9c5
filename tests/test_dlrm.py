"""DLRM substrate: model, queries, tiered memory, inference timing."""

import numpy as np
import pytest

from repro.cache import LRUCache
from repro.dlrm import (
    ControlledHitRateCache, DLRM, DLRMConfig, EmbeddingBagCollection,
    EmbeddingTable, InferenceEngine, LinearPerformanceModel,
    ManagerClassifier, TieredMemoryConfig, batched, calibrate,
    queries_from_trace,
)


class TestEmbeddings:
    def test_pooled_is_sum(self, rng):
        table = EmbeddingTable(10, 4, rng=rng)
        rows = np.array([1, 3])
        assert np.allclose(table.pooled(rows),
                           table.weights[1] + table.weights[3])

    def test_empty_pool_is_zero(self, rng):
        table = EmbeddingTable(10, 4, rng=rng)
        assert np.allclose(table.pooled(np.array([], dtype=np.int64)), 0.0)

    def test_out_of_range(self, rng):
        with pytest.raises(IndexError):
            EmbeddingTable(10, 4, rng=rng).lookup(np.array([10]))

    def test_collection_memory(self):
        bags = EmbeddingBagCollection(3, 100, 8)
        assert len(bags) == 3
        assert sum(t.weights.nbytes for t in bags.tables) == 3 * 100 * 8 * 8


class TestDLRM:
    def test_ctr_in_unit_interval(self, rng):
        dlrm = DLRM(DLRMConfig(num_tables=4, rows_per_table=64,
                               embedding_dim=8))
        ctr = dlrm.forward_one(
            rng.normal(size=8), {0: np.array([1, 2]), 2: np.array([5])}
        )
        assert 0.0 < ctr < 1.0

    def test_batch_matches_single(self, rng):
        dlrm = DLRM(DLRMConfig(num_tables=4, rows_per_table=64,
                               embedding_dim=8))
        dense = rng.normal(size=(2, 8))
        sparse = [{0: np.array([1])}, {1: np.array([3, 4])}]
        batch = dlrm.forward_batch(dense, sparse)
        assert batch[0] == pytest.approx(dlrm.forward_one(dense[0], sparse[0]))

    def test_flops_positive(self):
        assert DLRM().flops_per_query > 0


class TestQueries:
    def test_reconstruction_matches_pooling(self, tiny_trace):
        queries = queries_from_trace(tiny_trace)
        factors = tiny_trace.pooling_factors()
        assert [sum(len(rows) for rows in q.sparse.values())
                for q in queries] == factors.tolist()
        assert factors.sum() == len(tiny_trace)

    def test_batched_covers_all(self, tiny_trace):
        queries = queries_from_trace(tiny_trace)
        batches = list(batched(queries, 32))
        assert sum(len(b) for b in batches) == len(queries)


class TestTieredMemory:
    def test_on_demand_cost_dominates(self):
        memory = TieredMemoryConfig()
        assert memory.on_demand_time_ms(100) > memory.hit_time_ms(100)

    def test_copy_time_scales(self):
        memory = TieredMemoryConfig()
        assert memory.copy_time_ms(2000, 16) > memory.copy_time_ms(100, 16)


class TestInferenceEngine:
    def test_breakdown_totals(self, tiny_trace):
        engine = InferenceEngine(accesses_per_batch=512)
        report = engine.run(tiny_trace.head(2000), LRUCache(300))
        assert report.total_accesses == 2000
        assert len(report.batches) == 4
        breakdown = report.mean_breakdown()
        assert breakdown.total_ms == pytest.approx(report.mean_batch_ms)

    def test_higher_hit_rate_is_faster(self, tiny_trace):
        engine = InferenceEngine(accesses_per_batch=512)
        slow = engine.run(tiny_trace.head(2000), ControlledHitRateCache(0.1))
        fast = engine.run(tiny_trace.head(2000), ControlledHitRateCache(0.9))
        assert fast.mean_batch_ms < slow.mean_batch_ms
        assert fast.hit_rate > slow.hit_rate

    def test_manager_classifier_replays(self, trained_recmg, tiny_trace,
                                        tiny_capacity):
        _, test = tiny_trace.split(0.6)
        manager = trained_recmg.deploy(tiny_capacity)
        classifier = ManagerClassifier(manager, test)
        engine = InferenceEngine(accesses_per_batch=512)
        report = engine.run(test, classifier)
        assert report.total_accesses == len(test)
        assert report.hit_rate == pytest.approx(manager.breakdown.hit_rate)

    def test_manager_classifier_exhaustion_fails_loudly(self, trained_recmg,
                                                        tiny_trace,
                                                        tiny_capacity):
        """Serving more accesses than the wrapped run recorded must
        raise (batched replay must not silently under-count)."""
        _, test = tiny_trace.split(0.6)
        classifier = ManagerClassifier(trained_recmg.deploy(tiny_capacity),
                                       test.head(100))
        engine = InferenceEngine(accesses_per_batch=64)
        with pytest.raises(IndexError):
            engine.run(test.head(200), classifier)

    @pytest.mark.parametrize("impl", ["reference", "fast", "clock"])
    def test_buffer_classifier_serves_every_backend(self, tiny_trace, impl):
        from repro.dlrm import BufferClassifier

        head = tiny_trace.head(2000)
        engine = InferenceEngine(accesses_per_batch=512)
        classifier = BufferClassifier(300, buffer_impl=impl)
        report = engine.run(head, classifier)
        assert report.total_accesses == len(head)
        assert 0.0 < report.hit_rate < 1.0
        assert len(classifier.buffer) <= 300

    def test_buffer_classifier_dense_fast_matches_scalar(self, tiny_trace):
        """The exact ``"fast"`` classifier with its dense universe
        (``key_space``) serves batches through ``serve_segment`` — the
        per-batch hit masks, report, and final buffer state must be
        bit-identical to the ``reference`` backend's scalar replay."""
        from repro.dlrm import BufferClassifier
        from repro.traces.access import Trace, remap_to_dense

        head = tiny_trace.head(2000)
        dense_keys, _ = remap_to_dense(head)
        dense_trace = Trace(table_ids=np.zeros(len(dense_keys),
                                               dtype=np.int64),
                            row_ids=dense_keys)
        key_space = int(dense_keys.max()) + 1
        engine = InferenceEngine(accesses_per_batch=512)
        batched = BufferClassifier(300, buffer_impl="fast",
                                   key_space=key_space)
        scalar = BufferClassifier(300, buffer_impl="reference")
        assert batched.buffer.key_space == key_space
        report_batched = engine.run(dense_trace, batched)
        report_scalar = engine.run(dense_trace, scalar)
        assert report_batched.hits == report_scalar.hits
        assert report_batched.misses == report_scalar.misses
        assert (sorted(batched.buffer.keys())
                == sorted(scalar.buffer.keys()))
        for key in scalar.buffer.keys():
            assert (batched.buffer.priority_of(key)
                    == scalar.buffer.priority_of(key))
        remaining = len(scalar.buffer)
        assert (batched.buffer.evict_batch(remaining)
                == scalar.buffer.evict_batch(remaining))


class TestPerformanceModel:
    def test_controlled_cache_hits_target(self, tiny_trace):
        cache = ControlledHitRateCache(0.25)
        hits = sum(cache.access(int(k)) for k in tiny_trace.head(2000).keys())
        assert hits == pytest.approx(500, abs=2)

    def test_fit_slope_negative(self, tiny_trace):
        engine = InferenceEngine(accesses_per_batch=512)
        model, reports = calibrate(engine, tiny_trace.head(2000),
                                   hit_rates=(0.0, 0.5, 1.0))
        assert model.slope < 0
        assert model.rmse_ms >= 0
        assert len(reports) == 3

    def test_predict_interpolates(self):
        model = LinearPerformanceModel.fit([0.0, 1.0], [10.0, 2.0])
        assert model.predict(0.5) == pytest.approx(6.0)

    def test_fit_needs_points(self):
        with pytest.raises(ValueError):
            LinearPerformanceModel.fit([0.5], [3.0])

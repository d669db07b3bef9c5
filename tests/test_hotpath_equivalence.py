"""Fast hot-path engines must be trace-level identical to the audit
references: OPTgen labeling, bulk manager serving, the vectorized LRU
breakdown, and the reuse-distance kernel they share."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import FastPriorityBuffer, PriorityBuffer, run_optgen, \
    run_optgen_reference
from repro.cache.buffer import SCALAR_FALLBACK
from repro.core import RecMGConfig, RecMGManager
from repro.core.features import FeatureEncoder
from repro.prefetch import run_breakdown
from repro.traces import Trace, count_left_leq, reuse_distances, \
    reuse_distances_fast

KEY_LISTS = st.lists(st.integers(0, 25), min_size=1, max_size=200)


def trace_of(keys):
    return Trace.from_pairs([(0, k) for k in keys])


class TestOptgenEngines:
    @pytest.mark.parametrize("engine", ["fast", "slices", "tree"])
    @given(keys=KEY_LISTS, capacity=st.integers(1, 20))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_reference(self, engine, keys, capacity):
        trace = trace_of(keys)
        ref = run_optgen_reference(trace, capacity)
        fast = run_optgen(trace, capacity, engine=engine)
        assert np.array_equal(fast.opt_hits, ref.opt_hits)
        assert np.array_equal(fast.cache_friendly, ref.cache_friendly)
        assert fast.stats.hits == ref.stats.hits
        assert fast.stats.misses == ref.stats.misses

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_optgen(trace_of([1, 2]), 2, engine="warp-drive")


class TestReuseDistanceKernel:
    @given(KEY_LISTS)
    @settings(max_examples=40, deadline=None)
    def test_fast_matches_fenwick(self, keys):
        trace = trace_of(keys)
        assert np.array_equal(reuse_distances_fast(trace),
                              reuse_distances(trace))

    @given(st.lists(st.integers(-5, 30), max_size=120))
    @settings(max_examples=40, deadline=None)
    def test_count_left_leq_matches_bruteforce(self, values):
        arr = np.asarray(values, dtype=np.int64)
        expected = np.array(
            [int((arr[:i] <= arr[i]).sum()) for i in range(arr.size)],
            dtype=np.int64,
        )
        assert np.array_equal(count_left_leq(arr), expected.reshape(arr.shape))


class TestBreakdownEngines:
    @given(keys=KEY_LISTS, capacity=st.integers(1, 24),
           metadata=st.sampled_from([0.0, 0.25, 0.5]))
    @settings(max_examples=40, deadline=None)
    def test_lru_breakdown_identical(self, keys, capacity, metadata):
        trace = trace_of(keys)
        fast = run_breakdown(trace, capacity, metadata_fraction=metadata)
        ref = run_breakdown(trace, capacity, metadata_fraction=metadata,
                            engine="reference")
        assert fast == ref
        assert fast.total == len(trace)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            run_breakdown(trace_of([1]), 2, engine="warp-drive")

    @given(keys=KEY_LISTS, metadata=st.sampled_from([0.0, 0.3]))
    @settings(max_examples=25, deadline=None)
    def test_sweep_matches_per_capacity_runs(self, keys, metadata):
        from repro.prefetch import run_breakdown_sweep

        trace = trace_of(keys)
        capacities = [1, 2, 5, 13, 40]
        swept = run_breakdown_sweep(trace, capacities,
                                    metadata_fraction=metadata)
        singles = [run_breakdown(trace, capacity, metadata_fraction=metadata,
                                 engine="reference")
                   for capacity in capacities]
        assert swept == singles


class _StubCachingModel:
    """Deterministic pseudo-random keep bits keyed on dense ids."""

    def predict(self, chunks, sel=None):
        dense = chunks.dense_ids[sel]
        return ((dense * 2654435761) % 3 == 0).astype(np.int8)


class _StubPrefetchModel:
    """Deterministic dense-id predictions (some resident, some not)."""

    def __init__(self, vocab_size):
        self.vocab_size = vocab_size

    def predict_indices(self, chunks, encoder, sel=None):
        dense = chunks.dense_ids[sel]
        width = min(7, dense.shape[1])
        return (dense[:, :width] * 31 + 3) % self.vocab_size


MANAGER_CASES = st.tuples(
    st.lists(st.integers(0, 40), min_size=1, max_size=260),  # row ids
    st.integers(1, 24),                                      # capacity
    st.integers(2, 12),                                      # input_len
    st.integers(1, 5),                                       # eviction speed
    st.booleans(),                                           # caching model
    st.booleans(),                                           # prefetch model
)


class TestManagerServingEngines:
    @given(MANAGER_CASES)
    @settings(max_examples=30, deadline=None)
    def test_fast_serve_identical(self, case):
        rows, capacity, input_len, speed, use_cm, use_pm = case
        trace = trace_of(rows)
        config = RecMGConfig(input_len=input_len, output_len=1,
                             eviction_speed=speed)
        encoder = FeatureEncoder(config).fit(trace)
        caching = _StubCachingModel() if use_cm else None
        prefetch = _StubPrefetchModel(encoder.vocab_size) if use_pm else None

        results = []
        for fast_serve in (True, False):
            manager = RecMGManager(capacity, encoder, config,
                                   caching_model=caching,
                                   prefetch_model=prefetch)
            stats = manager.run(trace, fast_serve=fast_serve,
                                record_decisions=True)
            results.append((stats, {key: manager.buffer.priority_of(key)
                                    for key in manager.buffer.keys()},
                            manager.last_decisions))
        (fast_stats, fast_buffer, fast_dec), \
            (ref_stats, ref_buffer, ref_dec) = results
        assert fast_stats == ref_stats
        assert fast_buffer == ref_buffer
        assert fast_stats.breakdown.total == len(trace)
        assert np.array_equal(fast_dec, ref_dec)
        assert len(fast_dec) == len(trace)
        assert (int(fast_dec.sum())
                == fast_stats.breakdown.cache_hits
                + fast_stats.breakdown.prefetch_hits)

    @pytest.mark.parametrize("share", [0.05, 0.2])
    def test_model_chunk_loop_identical_across_exact_backends(
            self, trained_recmg, tiny_trace, share, monkeypatch):
        """Both trained models in the loop on the held-out tail (unseen
        keys spill above the vocabulary): ``input_len``-key chunks put
        the dense ``fast`` engine on its scalar-eviction side and the
        caching-bit applier on its scalar loop, where they must decide
        exactly like the empty universe (every id spilled), the
        reference backend — and the bulk applier the same chunks took
        before the crossover existed."""
        from repro.serving import priorities

        _, tail = tiny_trace.split(0.6)
        capacity = max(1, int(tiny_trace.num_unique * share))
        runs = []
        for buffer_impl, key_space, bulk_applier in (
                ("fast", "auto", False), ("fast", None, False),
                ("reference", "auto", False), ("fast", "auto", True)):
            manager = RecMGManager(
                capacity, trained_recmg.encoder, trained_recmg.config,
                caching_model=trained_recmg.caching_model,
                prefetch_model=trained_recmg.prefetch_model,
                buffer_impl=buffer_impl, key_space=key_space)
            with monkeypatch.context() as patch:
                if bulk_applier:
                    patch.setattr(priorities, "SCALAR_FALLBACK", -1)
                stats = manager.run(tail, record_decisions=True)
            runs.append((stats, manager.last_decisions.tolist(),
                         {key: manager.buffer.priority_of(key)
                          for key in manager.buffer.keys()}))
        assert trained_recmg.config.input_len <= SCALAR_FALLBACK
        assert SCALAR_FALLBACK == priorities.SCALAR_FALLBACK
        assert runs[0][0].evictions > 0 and runs[0][0].prefetches_issued > 0
        assert runs[0] == runs[1] == runs[2] == runs[3]


BATCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("batch"),
                  st.lists(st.integers(0, 20), min_size=1, max_size=12),
                  st.integers(0, 6)),
        st.tuples(st.just("evict"), st.just([]), st.just(0)),
        st.tuples(st.just("demote"), st.lists(st.integers(0, 20),
                                              min_size=1, max_size=1),
                  st.just(0)),
    ),
    min_size=1, max_size=60,
)


class TestPutBatchParity:
    @given(BATCH_OPS)
    @settings(max_examples=50, deadline=None)
    def test_batch_equals_scalar_sequence(self, ops):
        """``FastPriorityBuffer.put_batch`` must be indistinguishable
        from the scalar insert-or-set loop the reference buffer runs."""
        ref = PriorityBuffer(10)
        fast = FastPriorityBuffer(10)
        for op, keys, priority in ops:
            if op == "batch":
                new = set(k for k in keys if k not in ref)
                if len(ref) + len(new) > ref.capacity:
                    with pytest.raises(RuntimeError):
                        fast.put_batch(keys, priority)
                    continue
                ref.put_batch(keys, priority)
                fast.put_batch(keys, priority)
            elif op == "demote" and keys[0] in ref:
                ref.demote(keys[0])
                fast.demote(keys[0])
            elif op == "evict" and len(ref):
                assert ref.evict_one() == fast.evict_one()
            assert len(ref) == len(fast)
        assert sorted(ref.keys()) == sorted(fast.keys())
        for key in ref.keys():
            assert ref.priority_of(key) == fast.priority_of(key)
        while len(ref):
            assert ref.evict_one() == fast.evict_one()

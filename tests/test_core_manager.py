"""Online manager (Algorithms 1-2 runtime) and the model adapter."""

import copy
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core import ModelPrefetcher, RecMG, RecMGConfig, RecMGManager


def _with_config(system, **changes):
    """A view of the fitted ``system`` whose config has ``changes`` —
    models and encoder shared, so it deploys the same trained system
    under another serving configuration."""
    twin = copy.copy(system)
    twin.config = replace(system.config, **changes)
    return twin


class TestManagerNoModels:
    def test_access_conservation(self, trained_recmg, tiny_trace,
                                 tiny_capacity):
        _, test = tiny_trace.split(0.6)
        manager = RecMGManager(tiny_capacity, trained_recmg.encoder,
                               trained_recmg.config)
        stats = manager.run(test)
        assert stats.breakdown.total == len(test)
        assert stats.prefetches_issued == 0

    def test_buffer_capacity_respected(self, trained_recmg, tiny_trace,
                                       tiny_capacity):
        _, test = tiny_trace.split(0.6)
        manager = RecMGManager(tiny_capacity, trained_recmg.encoder,
                               trained_recmg.config)
        manager.run(test)
        assert len(manager.buffer) <= tiny_capacity

    def test_rejects_bad_capacity(self, trained_recmg):
        with pytest.raises(ValueError):
            RecMGManager(0, trained_recmg.encoder, trained_recmg.config)


class TestManagerWithModels:
    def test_full_system_conserves(self, trained_recmg, tiny_trace,
                                   tiny_capacity):
        _, test = tiny_trace.split(0.6)
        stats = trained_recmg.evaluate(test, capacity=tiny_capacity)
        assert stats.breakdown.total == len(test)
        assert stats.prefetches_useful <= stats.prefetches_issued
        assert 0.0 <= stats.prefetch_accuracy <= 1.0

    def test_fast_serve_matches_reference_end_to_end(self, trained_recmg,
                                                     tiny_trace,
                                                     tiny_capacity):
        """The bulk serving pre-pass must be invisible: identical
        ManagerStats with the real trained models in the loop."""
        _, test = tiny_trace.split(0.6)
        fast = trained_recmg.evaluate(test, capacity=tiny_capacity)
        reference = trained_recmg.deploy(tiny_capacity).run(
            test, fast_serve=False)
        assert fast == reference

    def test_trace_shorter_than_a_chunk_is_served_model_free(
            self, trained_recmg, tiny_trace, tiny_capacity):
        """``run()`` cuts chunks through ``encode_chunks``, which refuses
        a trace with no whole chunk; the manager must not ask it to."""
        short = tiny_trace.head(trained_recmg.config.input_len - 1)
        stats = trained_recmg.deploy(tiny_capacity).run(short)
        assert stats.breakdown.total == len(short)
        assert stats.prefetches_issued == 0

    def test_prefetch_hits_only_with_prefetch_model(self, trained_recmg,
                                                    tiny_trace,
                                                    tiny_capacity):
        _, test = tiny_trace.split(0.6)
        cm_only = trained_recmg.evaluate(test, capacity=tiny_capacity,
                                         use_prefetch_model=False)
        assert cm_only.breakdown.prefetch_hits == 0
        assert cm_only.prefetches_issued == 0

    def test_oracle_caching_bits_beat_plain_buffer(self, trained_recmg,
                                                   tiny_trace,
                                                   tiny_capacity):
        """Feeding OPTgen's own bits through Algorithm 1 must beat the
        model-free buffer — validates the priority plumbing."""
        from repro.core import build_labels

        _, test = tiny_trace.split(0.6)
        labels = build_labels(test, tiny_capacity, trained_recmg.config,
                              trained_recmg.encoder)

        class OracleCachingModel:
            def __init__(self, bits, length):
                self.bits = bits
                self.length = length
                self.cursor = 0

            def predict(self, chunks, sel=None):
                out = np.stack([
                    self.bits[chunks.starts[i]:chunks.starts[i] + self.length]
                    for i in sel
                ])
                return out.astype(np.int8)

        manager = RecMGManager(
            tiny_capacity, trained_recmg.encoder, trained_recmg.config,
            caching_model=OracleCachingModel(
                labels.cache_friendly, trained_recmg.config.input_len),
        )
        oracle_stats = manager.run(test)

        plain = RecMGManager(tiny_capacity, trained_recmg.encoder,
                             trained_recmg.config)
        plain_stats = plain.run(test)
        assert oracle_stats.hit_rate > plain_stats.hit_rate


class TestBufferImplKnob:
    """Backend selection (the config knob) and the clock backend's
    batched-reclaim serving engine."""

    def test_config_knob_selects_backend(self, trained_recmg,
                                         tiny_capacity):
        from repro.cache import ClockBuffer

        config = replace(trained_recmg.config, buffer_impl="clock")
        manager = RecMGManager(tiny_capacity, trained_recmg.encoder, config)
        assert isinstance(manager.buffer.shards[0].backend, ClockBuffer)
        with pytest.raises(ValueError):
            replace(trained_recmg.config, buffer_impl="nope")

    @pytest.mark.parametrize("impl", ["reference", "fast", "clock"])
    def test_every_backend_conserves(self, trained_recmg, tiny_trace,
                                     tiny_capacity, impl):
        _, test = tiny_trace.split(0.6)
        manager = _with_config(trained_recmg,
                               buffer_impl=impl).deploy(tiny_capacity)
        stats = manager.run(test)
        assert stats.breakdown.total == len(test)
        assert len(manager.buffer) <= tiny_capacity
        assert stats.prefetches_useful <= stats.prefetches_issued

    def test_reference_backend_matches_fast_backend(self, trained_recmg,
                                                    tiny_trace,
                                                    tiny_capacity):
        """Both exact backends run different serving engines (scalar
        audit loop vs bulk pre-pass) but share Algorithm 2 semantics —
        identical ManagerStats end to end."""
        _, test = tiny_trace.split(0.6)
        fast = _with_config(trained_recmg, buffer_impl="fast").evaluate(
            test, capacity=tiny_capacity)
        reference = _with_config(
            trained_recmg, buffer_impl="reference").evaluate(
                test, capacity=tiny_capacity)
        assert fast == reference

    def test_clock_backend_close_to_exact(self, trained_recmg, tiny_trace,
                                          tiny_capacity):
        """Approximate victim order must not wreck the hit rate."""
        _, test = tiny_trace.split(0.6)
        exact = trained_recmg.evaluate(test, capacity=tiny_capacity)
        clock = _with_config(trained_recmg, buffer_impl="clock").evaluate(
            test, capacity=tiny_capacity)
        assert clock.breakdown.total == exact.breakdown.total
        assert abs(clock.hit_rate - exact.hit_rate) < 0.08

    def test_clock_record_decisions_consistent(self, trained_recmg,
                                               tiny_trace, tiny_capacity):
        """The batched-reclaim engine's recorded hit stream must agree
        with its own counters."""
        _, test = tiny_trace.split(0.6)
        manager = _with_config(trained_recmg,
                               buffer_impl="clock").deploy(tiny_capacity)
        stats = manager.run(test, record_decisions=True)
        assert len(manager.last_decisions) == len(test)
        hits = int(manager.last_decisions.sum())
        assert hits == (stats.breakdown.cache_hits
                        + stats.breakdown.prefetch_hits)

    def test_clock_record_decisions_counters_conserved(self, trained_recmg,
                                                       tiny_trace,
                                                       tiny_capacity):
        """Recording must not perturb the batched-reclaim engine, and
        every counter must stay conserved across the reclaim loop."""
        _, test = tiny_trace.split(0.6)
        manager = _with_config(trained_recmg,
                               buffer_impl="clock").deploy(tiny_capacity)
        stats = manager.run(test, record_decisions=True)
        decisions = manager.last_decisions
        assert len(decisions) == len(test)
        hits = int(decisions.sum())
        assert hits == (stats.breakdown.cache_hits
                        + stats.breakdown.prefetch_hits)
        assert stats.breakdown.total == len(test)
        assert stats.breakdown.on_demand == len(test) - hits
        assert stats.prefetches_useful <= stats.prefetches_issued
        assert len(manager.buffer) <= tiny_capacity
        # Same run without recording: identical stats (recording is
        # observation only, never policy).
        silent = _with_config(trained_recmg, buffer_impl="clock").deploy(
            tiny_capacity).run(test)
        assert silent == stats

    def test_apply_caching_bits_matches_scalar_loop(self, trained_recmg):
        """The vectorized chunk-boundary write (contains_batch +
        set_priority_batch/demote_batch) must be indistinguishable from
        the per-key loop: last occurrence wins for duplicate keys, and
        eviction order is preserved on the exact backends."""
        speed = trained_recmg.config.eviction_speed
        resident = [1, 2, 3, 4, 5]
        # Duplicates with conflicting bits: key 1 flips 0 -> 1
        # (friendly wins), key 2 flips 1 -> 0 (averse wins); key 6 is
        # not resident and must be ignored.
        keys = np.array([1, 6, 2, 3, 1, 4, 2])
        bits = np.array([0, 1, 1, 0, 1, 1, 0])
        for impl in ("reference", "fast", "clock"):
            config = replace(trained_recmg.config, buffer_impl=impl)
            bulk = RecMGManager(8, trained_recmg.encoder, config)
            scalar = RecMGManager(8, trained_recmg.encoder, config)
            for manager in (bulk, scalar):
                for key in resident:
                    manager._demand_access(key)
            bulk._apply_caching_bits(keys, bits)
            buf = scalar.buffer
            for key, bit in zip(keys.tolist(), bits.tolist()):
                if key in buf:
                    if bit:
                        buf.set_priority(key, speed + 1)
                    else:
                        buf.demote(key)
            for key in resident:
                assert (bulk.buffer.priority_of(key)
                        == scalar.buffer.priority_of(key))
            assert (bulk.buffer.shards[0].backend.evict_batch(len(resident))
                    == scalar.buffer.shards[0].backend.evict_batch(
                        len(resident)))

    def test_clock_degenerate_segment_wider_than_buffer(self, trained_recmg,
                                                        tiny_trace):
        """Segments with more distinct keys than the whole buffer cannot
        be made eviction-free; the scalar fallback must still conserve."""
        _, test = tiny_trace.split(0.6)
        manager = RecMGManager(3, trained_recmg.encoder,
                               replace(trained_recmg.config,
                                       buffer_impl="clock"))
        stats = manager.run(test, record_decisions=True)
        assert stats.breakdown.total == len(test)
        assert len(manager.buffer) <= 3
        assert len(manager.last_decisions) == len(test)


class TestHitRecords:
    """Hit records are arrays end to end: whichever engine serves —
    bulk, scalar fallback, wider-than-capacity — ``serve_batch`` hands
    back one ``bool`` per key, and a recording ``run`` the same
    stream."""

    #: (buffer_impl, key_space, num_shards); ``None`` is no universe
    #: (every id spills), which cannot shard.
    BACKENDS = [(impl, key_space, num_shards)
                for impl in ("reference", "fast", "clock")
                for key_space, num_shards in (("auto", 1), ("auto", 4),
                                              (None, 1))]
    #: regime -> (capacity, batch size): 15 keys is under every scalar
    #: fallback, 4 slots (1 per shard) under any batch's distinct keys.
    REGIMES = {"bulk": (None, 512), "scalar-fallback": (None, 15),
               "wider-than-capacity": (4, 512)}

    @staticmethod
    def _manager(system, capacity, backend):
        impl, key_space, num_shards = backend
        config = replace(system.config, buffer_impl=impl,
                         num_shards=num_shards)
        return RecMGManager(capacity, system.encoder, config,
                            key_space=key_space)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_serve_batch_returns_one_bool_per_key(self, trained_recmg,
                                                  tiny_trace, tiny_capacity,
                                                  backend, regime):
        capacity, batch = self.REGIMES[regime]
        manager = self._manager(trained_recmg, capacity or tiny_capacity,
                                backend)
        dense = trained_recmg.encoder.dense_ids(tiny_trace)[:2500]
        hit_count = 0
        for start in [*range(0, dense.size, batch), dense.size]:  # + empty
            keys = dense[start:start + batch]
            hits = manager.serve_batch(keys)
            assert hits.dtype == np.bool_ and hits.shape == keys.shape
            hit_count += int(hits.sum())
            assert manager._record_hits is None
        assert manager.breakdown.total == dense.size
        assert manager.breakdown.cache_hits == hit_count

    @pytest.mark.parametrize("capacity", [None, 4])
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_recorded_run_equals_serve_batch_returns(self, trained_recmg,
                                                     tiny_trace,
                                                     tiny_capacity, backend,
                                                     capacity):
        capacity = capacity or tiny_capacity
        _, test = tiny_trace.split(0.6)
        recorded = self._manager(trained_recmg, capacity, backend)
        stats = recorded.run(test, record_decisions=True)
        twin = self._manager(trained_recmg, capacity, backend)
        dense = trained_recmg.encoder.dense_ids(test)
        block = twin._SERVE_BLOCK * backend[2]      # run()'s own blocks
        returns = [twin.serve_batch(dense[start:start + block])
                   for start in range(0, dense.size, block)]
        assert recorded.last_decisions.dtype == np.bool_
        np.testing.assert_array_equal(recorded.last_decisions,
                                      np.concatenate(returns))
        assert twin.breakdown == stats.breakdown


class TestConfigIsTheOnePlace:
    """``RecMGConfig`` is the one place serving is configured, and the
    manager the one front end that shards or applies model bits."""

    def test_no_front_end_argument_shadows_a_config_field(self):
        config_fields = {field.name for field in fields(RecMGConfig)}
        for front in (RecMGManager.__init__, RecMG.deploy, RecMG.evaluate):
            shadowed = (set(inspect.signature(front).parameters)
                        & config_fields)
            assert not shadowed, (front.__qualname__, shadowed)

    def test_only_the_manager_shards_or_takes_a_provider(self):
        from repro.dlrm.inference import BufferClassifier
        from repro.prefetch.harness import LRUBufferWithPrefetch, run_breakdown

        manager_only = {"num_shards", "shard_policy", "shard_weights",
                        "priority_provider"}
        for front in (BufferClassifier.__init__,
                      LRUBufferWithPrefetch.__init__, run_breakdown):
            taken = set(inspect.signature(front).parameters) & manager_only
            assert not taken, (front.__qualname__, taken)


class TestPrefetchBudget:
    def test_resident_keys_do_not_consume_budget(self, trained_recmg,
                                                 tiny_capacity):
        """Regression: ``predicted[:budget]`` used to be sliced before
        filtering resident keys, so residents ate the budget and fewer
        real prefetches issued than ``max_prefetch_per_chunk`` allows."""
        config = trained_recmg.config
        budget = config.max_prefetch_per_chunk
        capacity = max(tiny_capacity, 3 * budget)
        manager = RecMGManager(capacity, trained_recmg.encoder, config)
        resident = list(range(budget))
        for key in resident:
            manager._demand_access(key)
        fresh = list(range(1000, 1000 + 2 * budget))
        manager._apply_prefetches(np.asarray(resident + fresh))
        assert manager.prefetches_issued == budget
        assert all(key in manager.buffer for key in fresh[:budget])

    def test_budget_still_caps_real_fills(self, trained_recmg,
                                          tiny_capacity):
        config = trained_recmg.config
        budget = config.max_prefetch_per_chunk
        capacity = max(tiny_capacity, 3 * budget)
        manager = RecMGManager(capacity, trained_recmg.encoder, config)
        fresh = list(range(1000, 1000 + 2 * budget))
        manager._apply_prefetches(np.asarray(fresh))
        assert manager.prefetches_issued == budget
        assert len(manager.buffer) == budget


class TestModelPrefetcherAdapter:
    def test_emits_on_chunk_boundary(self, trained_recmg):
        config = trained_recmg.config
        adapter = ModelPrefetcher(trained_recmg.prefetch_model,
                                  trained_recmg.encoder, config)
        outputs = []
        for i in range(config.input_len * 3):
            outputs.append(adapter.observe(i % 50, pc=0))
        emitted = [o for o in outputs if o]
        assert len(emitted) >= 2
        assert all(len(o) <= config.max_prefetch_per_chunk for o in emitted)

    def test_reset_clears_state(self, trained_recmg):
        adapter = ModelPrefetcher(trained_recmg.prefetch_model,
                                  trained_recmg.encoder, trained_recmg.config)
        for i in range(5):
            adapter.observe(i)
        adapter.reset()
        assert adapter._step == 0
        assert len(adapter._dense) == 0

    def test_fires_exactly_every_input_len(self, trained_recmg):
        """Chunk alignment: predictions fire at steps input_len,
        2*input_len, ... and nowhere else."""
        config = trained_recmg.config
        adapter = ModelPrefetcher(trained_recmg.prefetch_model,
                                  trained_recmg.encoder, config)
        fired = []
        for step in range(1, 4 * config.input_len + 3):
            out = adapter.observe(step % 50, pc=0)
            if out:
                fired.append(step)
        assert fired == [config.input_len * k for k in range(1, 5)]

    def test_alignment_restarts_after_reset(self, trained_recmg):
        """A mid-chunk reset() must realign: the next prediction fires
        exactly input_len observations later, not on the stale phase."""
        config = trained_recmg.config
        adapter = ModelPrefetcher(trained_recmg.prefetch_model,
                                  trained_recmg.encoder, config)
        for i in range(config.input_len // 2 + 1):  # partial chunk
            assert adapter.observe(i) == []
        adapter.reset()
        fired = []
        for step in range(1, 2 * config.input_len + 1):
            if adapter.observe(step % 50, pc=0):
                fired.append(step)
        assert fired == [config.input_len, 2 * config.input_len]

    def test_streaming_matches_direct_chunk_inference(self, trained_recmg,
                                                      tiny_trace):
        """Equivalence: feeding the adapter a trace's dense ids one at
        a time must reproduce ``predict_indices`` over the trace's
        ``encode_chunks``, chunk by chunk — the adapter's input is the
        encoder's."""
        config = trained_recmg.config
        encoder = trained_recmg.encoder
        model = trained_recmg.prefetch_model
        adapter = ModelPrefetcher(model, encoder, config)
        _, held_out = tiny_trace.split(0.6)
        trace = held_out.head(5 * config.input_len + 3)
        streamed = []
        for key in encoder.dense_ids(trace).tolist():
            out = adapter.observe(key, pc=12345)
            if out:
                streamed.append(out)
        predicted = model.predict_indices(encoder.encode_chunks(trace),
                                          encoder)
        expected = predicted[:, :config.max_prefetch_per_chunk].tolist()
        assert len(expected) == 5
        assert streamed == expected

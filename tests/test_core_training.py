"""Training pipelines: labeling, losses, metrics."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.cache import capacity_from_fraction
from repro.core import (
    CachingModel, FeatureEncoder, PrefetchModel, RecMG, build_labels,
    caching_accuracy, caching_targets, prefetch_metrics, prefetch_targets,
    train_caching_model, train_prefetch_model, output_collapse_ratio,
)
from repro.core import training
from repro.core.prefetch_model import BucketDecoder
from repro.nn import Adam, Linear, Tensor, softmax
from test_nn_modules import primitive_linear
from test_nn_tensor import primitive_log_softmax


@pytest.fixture(scope="module")
def pipeline(tiny_trace, tiny_recmg_config):
    config = tiny_recmg_config
    train, _ = tiny_trace.split(0.6)
    capacity = capacity_from_fraction(tiny_trace, 0.2)
    encoder = FeatureEncoder(config).fit(train)
    labels = build_labels(train, capacity, config, encoder)
    chunks = encoder.encode_chunks(train)
    return config, encoder, labels, chunks


class TestLabeling:
    def test_labels_aligned(self, pipeline):
        config, encoder, labels, chunks = pipeline
        targets = caching_targets(chunks, labels)
        assert targets.shape == (len(chunks), config.input_len)
        assert set(np.unique(targets)).issubset({0.0, 1.0})

    def test_miss_positions_sorted(self, pipeline):
        _, _, labels, _ = pipeline
        assert np.all(np.diff(labels.miss_positions) > 0)

    def test_prefetch_windows(self, pipeline):
        """One row of OPT-miss dense ids per selected chunk; a shorter
        window selects more chunks and is the longer one's prefix."""
        config, encoder, labels, chunks = pipeline
        sel, dense = prefetch_targets(chunks, labels, config)
        assert dense.shape == (len(sel), config.eval_window)
        assert dense.dtype == np.int64
        assert np.all(np.diff(sel) > 0)
        assert np.isin(dense, labels.dense_ids[labels.miss_positions]).all()
        short_sel, short = prefetch_targets(chunks, labels, config, window=3)
        assert short.shape == (len(short_sel), 3)
        rows = np.searchsorted(short_sel, sel)
        assert np.array_equal(short_sel[rows], sel)
        assert np.array_equal(short[rows], dense[:, :3])

    def test_windows_are_future_misses(self, pipeline):
        config, encoder, labels, chunks = pipeline
        sel, dense = prefetch_targets(chunks, labels, config)
        # First window entry must be a miss occurring after the chunk.
        first_chunk_end = chunks.starts[sel[0]] + config.input_len
        miss_after = labels.miss_positions[
            labels.miss_positions >= first_chunk_end
        ][: config.eval_window]
        assert np.array_equal(dense[0], labels.dense_ids[miss_after])


class TestCachingTraining:
    def test_loss_decreases_and_accuracy(self, pipeline, rng):
        config, encoder, labels, chunks = pipeline
        config = replace(config, caching_epochs=3)
        model = CachingModel(config, encoder.num_tables, rng=rng)
        targets = caching_targets(chunks, labels)
        result = train_caching_model(model, chunks, targets, config)
        third = max(1, len(result.losses) // 3)
        assert (np.mean(result.losses[-third:])
                < np.mean(result.losses[:third]))
        assert 0.0 <= result.final_metric <= 1.0
        assert result.num_parameters == model.num_parameters()

    def test_accuracy_range(self, pipeline, rng):
        config, encoder, labels, chunks = pipeline
        model = CachingModel(config, encoder.num_tables, rng=rng)
        value = caching_accuracy(model, chunks, caching_targets(chunks, labels),
                                 sel=np.arange(10))
        assert 0.0 <= value <= 1.0


class TestPrefetchTraining:
    @pytest.mark.parametrize("loss_kind", ["chamfer", "chamfer_forward", "l2"])
    def test_all_losses_run(self, pipeline, rng, loss_kind):
        config, encoder, labels, chunks = pipeline
        model = PrefetchModel(config, encoder.num_tables, rng=rng)
        miss_dense = labels.dense_ids[labels.miss_positions]
        model.set_decoder(BucketDecoder.from_miss_ids(miss_dense,
                                                      config.hash_buckets))
        sel, dense = prefetch_targets(chunks, labels, config)
        result = train_prefetch_model(model, chunks, sel, dense,
                                      encoder, config, loss_kind=loss_kind)
        assert len(result.losses) > 0
        assert np.isfinite(result.losses).all()

    def test_unknown_loss_rejected(self, pipeline, rng):
        config, encoder, labels, chunks = pipeline
        model = PrefetchModel(config, encoder.num_tables, rng=rng)
        sel, dense = prefetch_targets(chunks, labels, config)
        with pytest.raises(ValueError):
            train_prefetch_model(model, chunks, sel, dense, encoder,
                                 config, loss_kind="huber")

    def test_training_peak_holds_ten_logits(self, pipeline):
        """At the default 2048 hash buckets, ``train_prefetch_model``
        peaks under ten logits arrays (batch x output_len x buckets
        float32) above its start, model and Adam moments included:
        one step's graph is alive at a time, and it keeps two of them
        (the head's output and the log-softmax).  Measured after a
        warm-up run, so one-time allocations are not billed to it."""
        config, encoder, labels, chunks = pipeline
        config = replace(config, hash_buckets=2048)
        sel, dense = prefetch_targets(chunks, labels, config)
        decoder = BucketDecoder.from_miss_ids(
            labels.dense_ids[labels.miss_positions], config.hash_buckets)

        def train():
            model = PrefetchModel(config, encoder.num_tables,
                                  rng=np.random.default_rng(0))
            model.set_decoder(decoder)
            return train_prefetch_model(model, chunks, sel, dense, encoder,
                                        config)

        train()
        started = not tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = train()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if started:
                tracemalloc.stop()
        logits = config.batch_size * config.output_len * config.hash_buckets * 4
        assert len(result.losses) >= 2
        assert peak < 10 * logits, peak / logits


class TestFusedNodes:
    def test_fit_trains_the_primitive_nodes_weights(
            self, tiny_trace, tiny_capacity, tiny_recmg_config, monkeypatch):
        """``RecMG.fit`` with every ``Linear`` and ``log_softmax`` one
        tape node and the Chamfer matching on the tape-free softmax
        trains both models' weights bit for bit as the primitive ops
        do, loss curve included."""
        train, _ = tiny_trace.split(0.6)

        def fit():
            system = RecMG(tiny_recmg_config)
            report = system.fit(train, buffer_capacity=tiny_capacity)
            return ([report.caching.losses, report.prefetch.losses],
                    [system.caching_model.state_dict(),
                     system.prefetch_model.state_dict()])

        fused_losses, fused = fit()
        primitive_calls = []

        def linear_forward(layer, x):
            primitive_calls.append(layer)
            return primitive_linear(layer, x)

        monkeypatch.setattr(Linear, "forward", linear_forward)
        monkeypatch.setattr(training, "log_softmax", primitive_log_softmax)
        monkeypatch.setattr(training, "softmax_",
                            lambda a: softmax(Tensor(a), axis=-1).data)
        primitive_losses, primitive = fit()
        assert primitive_calls
        assert fused_losses == primitive_losses
        for got, want in zip(fused, primitive):
            assert got.keys() == want.keys()
            for name in got:
                assert got[name].dtype == want[name].dtype == np.float32
                assert np.array_equal(got[name], want[name]), name


class TestFloat32Training:
    def test_one_step_of_each_trainer_stays_float32(self, pipeline,
                                                     monkeypatch):
        """The models train in float32 end to end: after one step of
        each trainer the loss and every parameter's data, grad and
        Adam moments are float32.  A float64 constant or label array
        anywhere on the way would widen them (numpy promotes)."""
        config, encoder, labels, chunks = pipeline
        config = replace(config, max_train_chunks=config.batch_size)
        losses, optimizers = [], []
        backward = Tensor.backward

        def spy_backward(self, grad=None):
            losses.append(self.data.dtype)
            backward(self, grad)

        class RecordingAdam(Adam):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                optimizers.append(self)

        monkeypatch.setattr(Tensor, "backward", spy_backward)
        monkeypatch.setattr(training, "Adam", RecordingAdam)
        targets = caching_targets(chunks, labels)
        assert targets.dtype == np.float64  # the trainer narrows them
        train_caching_model(CachingModel(config, encoder.num_tables), chunks,
                            targets, config)
        sel, dense = prefetch_targets(chunks, labels, config)
        loss_kinds = ("chamfer", "chamfer_forward", "l2")
        for loss_kind in loss_kinds:
            model = PrefetchModel(config, encoder.num_tables)
            model.set_decoder(BucketDecoder.from_miss_ids(
                labels.dense_ids[labels.miss_positions], config.hash_buckets))
            train_prefetch_model(model, chunks, sel, dense, encoder,
                                 config, loss_kind=loss_kind)
        assert losses == [np.float32] * (1 + len(loss_kinds))
        assert len(optimizers) == 1 + len(loss_kinds)
        for optimizer in optimizers:
            assert optimizer._t == 1
            for param, m, v in zip(optimizer.params, optimizer._m,
                                   optimizer._v):
                assert param.grad is not None
                assert (param.data.dtype == param.grad.dtype == m.dtype
                        == v.dtype == np.float32)


class TestPrefetchMetrics:
    def test_oracle_predictions_score_one(self, pipeline, rng):
        config, encoder, labels, chunks = pipeline
        sel, dense = prefetch_targets(chunks, labels, config)

        class Oracle:
            def predict_indices(self, chunks_, encoder_, sel=None):
                rows = np.searchsorted(np.asarray(globals_sel), sel)
                return dense[rows][:, : config.output_len]

        globals_sel = sel
        correctness, coverage = prefetch_metrics(
            Oracle(), chunks, sel[:20], dense[:20], encoder
        )
        assert correctness == pytest.approx(1.0)
        assert coverage > 0.0

    def test_collapse_ratio_detects_constant(self, pipeline, rng):
        config, encoder, labels, chunks = pipeline
        sel, dense = prefetch_targets(chunks, labels, config)

        class Constant:
            def predict_indices(self, chunks_, encoder_, sel=None):
                return np.full((len(sel), config.output_len), 7)

        assert output_collapse_ratio(Constant(), chunks, sel[:10],
                                     encoder) == 1.0

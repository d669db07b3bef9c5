"""Training pipelines: labeling, losses, metrics."""

from dataclasses import replace

import numpy as np
import pytest

from repro.cache import capacity_from_fraction
from repro.core import (
    CachingModel, FeatureEncoder, PrefetchModel, build_labels,
    caching_accuracy, caching_targets, prefetch_metrics, prefetch_targets,
    train_caching_model, train_prefetch_model, output_collapse_ratio,
)
from repro.core import training
from repro.core.prefetch_model import BucketDecoder
from repro.nn import Adam, Tensor


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
        config, encoder, labels, chunks = pipeline
        sel, norm, dense = prefetch_targets(chunks, labels, config, encoder)
        assert norm.shape == (len(sel), config.eval_window)
        assert dense.shape == norm.shape
        assert norm.min() >= 0.0 and norm.max() <= 1.0

    def test_windows_are_future_misses(self, pipeline):
        config, encoder, labels, chunks = pipeline
        sel, _, dense = prefetch_targets(chunks, labels, config, encoder)
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
        sel, norm, dense = prefetch_targets(chunks, labels, config, encoder)
        result = train_prefetch_model(model, chunks, sel, norm, dense,
                                      encoder, config, loss_kind=loss_kind)
        assert len(result.losses) > 0
        assert np.isfinite(result.losses).all()

    def test_unknown_loss_rejected(self, pipeline, rng):
        config, encoder, labels, chunks = pipeline
        model = PrefetchModel(config, encoder.num_tables, rng=rng)
        sel, norm, dense = prefetch_targets(chunks, labels, config, encoder)
        with pytest.raises(ValueError):
            train_prefetch_model(model, chunks, sel, norm, dense, encoder,
                                 config, loss_kind="huber")


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
        sel, norm, dense = prefetch_targets(chunks, labels, config, encoder)
        loss_kinds = ("chamfer", "chamfer_forward", "l2")
        for loss_kind in loss_kinds:
            model = PrefetchModel(config, encoder.num_tables)
            model.set_decoder(BucketDecoder.from_miss_ids(
                labels.dense_ids[labels.miss_positions], config.hash_buckets))
            train_prefetch_model(model, chunks, sel, norm, dense, encoder,
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
        sel, _, dense = prefetch_targets(chunks, labels, config, encoder)

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
        sel, _, dense = prefetch_targets(chunks, labels, config, encoder)

        class Constant:
            def predict_indices(self, chunks_, encoder_, sel=None):
                return np.full((len(sel), config.output_len), 7)

        assert output_collapse_ratio(Constant(), chunks, sel[:10],
                                     encoder) == 1.0

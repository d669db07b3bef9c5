"""Inference without the tape, and float32 decisions.

(i) Values.  Every layer's ``infer`` twin, ``CachingModel.infer`` and
``PrefetchModel.infer_logits`` give the taped ``forward``'s values
without building the tape: they are the same operations in the same
order, so within 1e-12 in float64 and bit for bit at the default sizes,
and bit for bit in float32, the dtype the models train and serve in.

(ii) Decisions.  ``predict`` / ``predict_indices`` run ``infer`` on
the float32 model itself, so their *decisions* must be those of the
model's float64 copy wherever float64 was not a near-tie
(``float64_copy`` / ``bits_agree`` / ``indices_agree`` in
``decisions.py``, shared with the benchmark gate), and every way the
repo replaces weights must show in the next ``predict``.
"""

import copy
import sys
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decisions import bits_agree, float64_copy, indices_agree
from repro.core import CachingModel, PrefetchModel, RecMGConfig
from repro.core.features import EncodedChunks, chunk_inputs
from repro.core.persistence import load_recmg, save_recmg
from repro.core.prefetch_model import BucketDecoder
from repro.core.training import clone_caching_model, finetune_caching_model
from repro.nn import (
    Adam, Embedding, LSTM, Linear, StackedSeq2Seq, Tensor, bce_with_logits,
    softmax,
)
from repro.nn.attention import LuongAttention
from repro.nn.functional import row_max, sigmoid_, softmax_
from repro.nn.rnn import LSTMCell, Seq2SeqStack

NUM_TABLES = 5
BATCHES = (1, 7, 64, 128)
DTYPES = (np.float32, np.float64)


def close(tape_free: np.ndarray, taped: Tensor) -> bool:
    """Of one dtype, and equal: exactly in float32, within 1e-12 in
    float64."""
    if tape_free.dtype != taped.data.dtype:
        return False
    if tape_free.dtype == np.float32:
        return np.array_equal(tape_free, taped.data)
    return np.allclose(tape_free, taped.data, atol=1e-12, rtol=0)


def in_dtype(module, dtype):
    """``module`` itself in float32, its float64 copy in float64."""
    return module if dtype == np.float32 else float64_copy(module)


def normal(rng, size, dtype):
    return rng.normal(size=size).astype(dtype)


def random_chunks(rng, config, count=160) -> EncodedChunks:
    shape = (count, config.input_len)
    return EncodedChunks(
        table_ids=rng.integers(0, NUM_TABLES, size=shape),
        hashed_rows=rng.integers(0, config.hash_buckets, size=shape),
        norm_index=rng.random(shape),
        freq=rng.random(shape),
        dense_ids=rng.integers(0, 1000, size=shape),
        starts=np.arange(count) * config.input_len,
    )


def perturb(model, rng, scale=0.3) -> None:
    """Move the weights off their initialisation so logits spread,
    keeping their dtype."""
    for param in model.parameters():
        noise = rng.normal(0.0, scale, size=param.shape)
        param.data = (param.data + noise).astype(param.data.dtype)


def selections(rng, count, batch):
    """Contiguous, strided (non-contiguous) and repeated row choices."""
    yield np.arange(batch)
    yield np.arange(count)[::-1][:batch]
    yield rng.integers(0, count, size=batch)
    yield np.full(batch, count - 1)


def caching_model(config, rng) -> CachingModel:
    model = CachingModel(config, NUM_TABLES, rng=rng)
    perturb(model, rng)
    return model


def prefetch_model(config, rng) -> PrefetchModel:
    model = PrefetchModel(config, NUM_TABLES, rng=rng)
    perturb(model, rng)
    miss_ids = rng.integers(0, 3 * config.hash_buckets,
                            size=config.hash_buckets)
    model.set_decoder(BucketDecoder.from_miss_ids(miss_ids,
                                                  config.hash_buckets))
    return model


SMALL = RecMGConfig(input_len=10, output_len=4, embed_dim=8, hidden=16,
                    hash_buckets=256)


class TestLayers:
    def test_activations(self, rng):
        for dtype in DTYPES:
            x = normal(rng, (9, 13), dtype) * 4.0
            sig, soft = Tensor(x).sigmoid().data, softmax(Tensor(x)).data
            assert sig.dtype == soft.dtype == dtype
            assert np.array_equal(sigmoid_(x.copy()), sig)
            assert np.array_equal(softmax_(x.copy()), soft)

    @pytest.mark.parametrize("length", (1, 2, 15, 32, 33, 64))
    def test_row_max_by_columns_is_exact(self, rng, length):
        """Column maxima (axes up to ``COLUMN_MAX_LEN``) and ``max`` give
        the same row maxima, NaN, infinities and signed zeros included,
        and ``softmax_`` stays the tape's softmax bit for bit."""
        x = normal(rng, (6, 5, length), np.float32) * 4.0
        x[0, 0, -1] = np.nan
        x[1, 1, :] = 0.0
        x[1, 1, ::2] = -0.0
        x[2, 2, 0] = np.inf
        x[3, 3, :] = -np.inf
        assert np.array_equal(row_max(x), x.max(axis=-1, keepdims=True),
                              equal_nan=True)
        finite = x[4:]
        assert np.array_equal(softmax_(finite.copy()),
                              softmax(Tensor(finite)).data)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid_saturates_without_warning(self, dtype):
        """``exp(-x)`` overflows below -88 in float32 (float64: -709);
        the gate must still read exactly 0 there, silently, taped or
        not."""
        x = np.array([-1e4, -800.0, -100.0, 0.0, 100.0, 1e4], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid_(x.copy())
            assert np.array_equal(Tensor(x).sigmoid().data, out)
            cell = LSTMCell(3, 4)
            for param in cell.parameters():
                param.data = (param.data * 400.0).astype(dtype)
            x, h, c = (np.ones((2, n), dtype=dtype) for n in (3, 4, 4))
            h_taped, _ = cell(Tensor(x), (Tensor(h), Tensor(c.copy())))
            h = cell.infer(x, h, c, np.empty((2, 2, 16), dtype=dtype))
        assert out.dtype == dtype and h.dtype == dtype
        assert np.array_equal(out[[0, 1, 3, 4, 5]], [0, 0, 0.5, 1, 1])
        assert 0.0 <= out[2] < 1e-40  # float64 has not saturated yet
        assert np.isfinite(h).all()
        assert np.array_equal(h, h_taped.data)

    def test_linear_and_embedding(self, rng):
        for dtype in DTYPES:
            linear = in_dtype(Linear(6, 4, rng=rng), dtype)
            x = normal(rng, (11, 6), dtype)
            assert close(linear.infer(x), linear(Tensor(x)))
            no_bias = in_dtype(Linear(6, 4, rng=rng, bias=False), dtype)
            assert close(no_bias.infer(x), no_bias(Tensor(x)))
            table = in_dtype(Embedding(12, 5, rng=rng), dtype)
            idx = rng.integers(0, 12, size=(3, 7))
            assert table.infer(idx).dtype == dtype
            assert np.array_equal(table.infer(idx), table(idx).data)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_lstm(self, rng, batch):
        for dtype in DTYPES:
            cell = in_dtype(LSTMCell(5, 7, rng=rng), dtype)
            x, h, c = (normal(rng, s, dtype)
                       for s in ((batch, 5), (batch, 7), (batch, 7)))
            h_taped, c_taped = cell(Tensor(x), (Tensor(h), Tensor(c)))
            c_free = c.copy()
            h_free = cell.infer(x, h, c_free,
                                np.empty((2, batch, 28), dtype=dtype))
            assert close(h_free, h_taped) and close(c_free, c_taped)

            lstm = in_dtype(LSTM(5, 7, rng=rng), dtype)
            seq = normal(rng, (batch, 9, 5), dtype)
            out_taped, (h_taped, c_taped) = lstm(Tensor(seq))
            out_free, (h_free, c_free) = lstm.infer(seq)
            assert close(out_free, out_taped)
            assert close(h_free, h_taped) and close(c_free, c_taped)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_attention_and_stacks(self, rng, batch):
        for dtype in DTYPES:
            attention = in_dtype(LuongAttention(6, rng=rng), dtype)
            h = normal(rng, (batch, 6), dtype)
            states = normal(rng, (batch, 8, 6), dtype)
            assert close(attention.infer(h, states),
                         attention(Tensor(h), Tensor(states)))

            x = normal(rng, (batch, 8, 4), dtype)
            one = in_dtype(Seq2SeqStack(4, 6, out_steps=3, rng=rng), dtype)
            assert close(one.infer(x), one(Tensor(x)))
            for num_stacks in (1, 2, 3):
                stacked = in_dtype(StackedSeq2Seq(
                    4, 6, out_steps=3, num_stacks=num_stacks, rng=rng), dtype)
                assert close(stacked.infer(x), stacked(Tensor(x)))

    def test_in_place_work_stays_in_scratch(self, rng):
        """Only ``c`` (documented) and the scratch are written to."""
        seq, h, states = (normal(rng, s, np.float32)
                          for s in ((3, 9, 5), (3, 7), (3, 9, 7)))
        kept = [a.copy() for a in (seq, h, states)]
        LSTM(5, 7, rng=rng).infer(seq)
        LSTMCell(5, 7, rng=rng).infer(seq[:, 0, :], h,
                                      np.zeros((3, 7), dtype=np.float32),
                                      np.empty((2, 3, 28), dtype=np.float32))
        LuongAttention(7, rng=rng).infer(h, states)
        Seq2SeqStack(5, 7, out_steps=3, rng=rng).infer(seq)
        for array, before in zip((seq, h, states), kept):
            assert np.array_equal(array, before)


class TestFeatureAssembly:
    def test_array_and_taped_agree(self, rng):
        chunks = random_chunks(rng, SMALL)
        model = caching_model(SMALL, rng)
        for sel in selections(rng, len(chunks), 7):
            args = (chunks, sel, model.table_embedding, model.row_embedding)
            free = chunk_inputs(*args)
            assert free.shape == (7, SMALL.input_len, 2 * SMALL.embed_dim + 2)
            assert np.array_equal(free, chunk_inputs(*args, taped=True).data)

    def test_taped_inputs_carry_embedding_gradients(self, rng):
        chunks = random_chunks(rng, SMALL)
        model = caching_model(SMALL, rng)
        chunk_inputs(chunks, np.arange(4), model.table_embedding,
                     model.row_embedding, taped=True).sum().backward()
        assert model.table_embedding.weight.grad is not None
        assert model.row_embedding.weight.grad is not None

    @pytest.mark.parametrize("field,bad", [
        ("table_ids", NUM_TABLES), ("table_ids", -1),
        ("hashed_rows", SMALL.hash_buckets), ("hashed_rows", -1),
    ])
    def test_out_of_range_id_raises(self, rng, field, bad):
        chunks = random_chunks(rng, SMALL, count=4)
        getattr(chunks, field)[2, 3] = bad
        caching = caching_model(SMALL, rng)
        prefetch = prefetch_model(SMALL, rng)
        with pytest.raises(IndexError):
            caching.predict(chunks)
        with pytest.raises(IndexError):
            prefetch.predict_indices(chunks, None)
        # Rows that do not touch the bad id still predict.
        assert caching.predict(chunks, sel=np.array([0, 1])).shape == (2, 10)


class TestModels:
    """Each float32 model is checked twice: its ``infer`` against its
    taped forward (exact), and its decisions against its float64
    copy's logits — whose ``infer`` is checked against its own taped
    forward too."""

    @pytest.mark.parametrize("stacks", (1, 2))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_caching_model(self, rng, stacks, batch):
        config = replace(SMALL, caching_stacks=stacks)
        chunks = random_chunks(rng, config)
        model = caching_model(config, rng)
        wide = float64_copy(model)
        for sel in selections(rng, len(chunks), batch):
            assert close(model.infer(chunks, sel=sel),
                         model.forward(chunks, sel=sel))
            logits64 = wide.infer(chunks, sel=sel)
            assert close(logits64, wide.forward(chunks, sel=sel))
            bits_agree(model.predict(chunks, sel=sel), logits64)
        bits_agree(model.predict(chunks), wide.forward(chunks).data)

    @pytest.mark.parametrize("input_len", (1, 2, 7, 8, 15, 16))
    @pytest.mark.parametrize("batch", (1, 64))
    def test_caching_model_input_lengths(self, rng, input_len, batch):
        """Score axes 1 to 16 wide (the column-max softmax runs them all)
        and as many LSTM steps, a batch of one included: ``infer`` is
        the tape's logits bit for bit, on one and two stacks."""
        for stacks in (1, 2):
            config = replace(SMALL, input_len=input_len, output_len=1,
                             caching_stacks=stacks)
            chunks = random_chunks(rng, config, count=64)
            model = caching_model(config, rng)
            for sel in selections(rng, len(chunks), batch):
                assert close(model.infer(chunks, sel=sel),
                             model.forward(chunks, sel=sel))

    @pytest.mark.parametrize("stacks", (1, 2))
    def test_predict_returns_fresh_arrays(self, rng, stacks):
        """A second ``predict`` leaves the first one's result as it was
        (no buffer outlives a call), and ``predict`` leaves ``chunks``
        untouched."""
        config = replace(SMALL, caching_stacks=stacks)
        chunks = random_chunks(rng, config)
        before = copy.deepcopy(chunks)
        model = caching_model(config, rng)
        first_sel, second_sel = np.arange(64), np.arange(64, 128)
        first = model.predict(chunks, sel=first_sel)
        logits = model.infer(chunks, sel=first_sel)
        kept = first.copy(), logits.copy()
        model.predict(chunks, sel=second_sel)
        model.infer(chunks, sel=second_sel)
        assert np.array_equal(first, kept[0])
        assert np.array_equal(logits, kept[1])
        assert not np.array_equal(first, model.predict(chunks,
                                                       sel=second_sel))
        for field in ("table_ids", "hashed_rows", "norm_index", "freq",
                      "dense_ids", "starts"):
            assert np.array_equal(getattr(chunks, field),
                                  getattr(before, field)), field

    @pytest.mark.parametrize("stacks", (1, 2, 3))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_prefetch_model(self, rng, stacks, batch):
        config = replace(SMALL, prefetch_stacks=stacks)
        chunks = random_chunks(rng, config)
        model = prefetch_model(config, rng)
        wide = float64_copy(model)
        for sel in selections(rng, len(chunks), batch):
            assert close(model.infer_logits(chunks, sel=sel),
                         model.forward_logits(chunks, sel=sel))
            logits64 = wide.infer_logits(chunks, sel=sel)
            assert close(logits64, wide.forward_logits(chunks, sel=sel))
            indices_agree(model.predict_indices(chunks, None, sel=sel),
                          logits64, model.decoder)

    def test_default_config_sizes(self, rng):
        config = RecMGConfig()
        chunks = random_chunks(rng, config, count=128)
        caching = caching_model(config, rng)
        prefetch = prefetch_model(config, rng)
        for dtype in DTYPES:
            model = in_dtype(caching, dtype)
            logits = model.infer(chunks)
            assert logits.dtype == dtype
            assert np.array_equal(logits, model.forward(chunks).data)
            model = in_dtype(prefetch, dtype)
            logits = model.infer_logits(chunks)
            assert logits.dtype == dtype
            assert np.array_equal(logits, model.forward_logits(chunks).data)

    @given(hidden=st.integers(1, 20), embed_dim=st.integers(1, 9),
           input_len=st.integers(1, 9), output_frac=st.floats(0.0, 1.0),
           batch=st.integers(1, 9), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_shape_sweep(self, hidden, embed_dim, input_len, output_frac,
                         batch, seed):
        self._shape_case(hidden, embed_dim, input_len, output_frac, batch,
                         seed)

    def test_shape_with_one_repeated_near_tie(self):
        """A shape the sweep found: with one hidden unit every prefetch
        position shares the same two leading buckets, and 13 of the 28
        sit inside the near-tie margin.  That is one tie repeated, not
        13 near-ties, and every decision outside it agrees."""
        self._shape_case(hidden=1, embed_dim=1, input_len=7,
                         output_frac=0.5, batch=7, seed=8192)

    @staticmethod
    def _shape_case(hidden, embed_dim, input_len, output_frac, batch,
                    seed):
        rng = np.random.default_rng(seed)
        config = RecMGConfig(
            input_len=input_len, hidden=hidden, embed_dim=embed_dim,
            output_len=1 + int(output_frac * (input_len - 1)),
            hash_buckets=32, caching_stacks=1 + seed % 2,
            prefetch_stacks=1 + seed % 3)
        chunks = random_chunks(rng, config, count=batch)
        caching = caching_model(config, rng)
        assert close(caching.infer(chunks), caching.forward(chunks))
        wide = float64_copy(caching)
        taped = wide.forward(chunks)
        assert close(wide.infer(chunks), taped)
        bits_agree(caching.predict(chunks), taped.data)
        prefetch = prefetch_model(config, rng)
        assert close(prefetch.infer_logits(chunks),
                     prefetch.forward_logits(chunks))
        wide = float64_copy(prefetch)
        taped = wide.forward_logits(chunks)
        assert close(wide.infer_logits(chunks), taped)
        indices_agree(prefetch.predict_indices(chunks, None), taped.data,
                      prefetch.decoder)


class TestFloat32Decisions:
    def test_predict_runs_infer_in_float32(self, rng):
        chunks = random_chunks(rng, SMALL, count=8)
        caching, prefetch = caching_model(SMALL, rng), prefetch_model(SMALL, rng)
        for model in (caching, prefetch):
            assert all(p.data.dtype == np.float32 for p in model.parameters())
        logits = caching.infer(chunks)
        assert logits.dtype == np.float32
        assert np.array_equal(caching.predict(chunks), logits > 0.0)
        logits = prefetch.infer_logits(chunks)
        assert logits.dtype == np.float32
        assert np.array_equal(prefetch.predict_indices(chunks, None),
                              prefetch.decoder.decode_buckets(logits))

    def test_trained_system_decides_identically_on_held_out_trace(
            self, trained_recmg, tiny_trace):
        """Seeded, so exact: on real (trained) weights float32 changes
        no decision of the float64 copy on any chunk of the held-out
        tail."""
        _, held_out = tiny_trace.split(0.6)
        encoder = trained_recmg.encoder
        chunks = encoder.encode_chunks(held_out)
        caching = trained_recmg.caching_model
        prefetch = trained_recmg.prefetch_model
        wide_caching, wide_prefetch = map(float64_copy, (caching, prefetch))
        assert len(chunks) == 240
        assert all(p.data.dtype == np.float32
                   for p in caching.parameters() + prefetch.parameters())
        assert np.array_equal(caching.predict(chunks),
                              wide_caching.infer(chunks) > 0.0)
        assert np.array_equal(
            prefetch.predict_indices(chunks, encoder),
            prefetch.decoder.decode_buckets(wide_prefetch.infer_logits(chunks)))
        first = encoder.encode_dense_chunks(chunks.dense_ids[0])
        assert np.array_equal(
            prefetch.predict_indices(first, encoder)[0],
            prefetch.predict_indices(chunks, encoder)[0])


class TestTwinLifecycle:
    """Every way the repo replaces weights shows in the *next*
    ``predict``: each test predicts first, so a cache in front of the
    weights would go stale."""

    def test_after_optimizer_step(self, rng):
        chunks = random_chunks(rng, SMALL, count=32)
        model = caching_model(SMALL, rng)
        before = model.infer(chunks)
        stale_bits = model.predict(chunks)
        optimizer = Adam(model.parameters(), lr=0.05)
        targets = Tensor(rng.integers(0, 2, size=before.shape))
        for _ in range(3):
            optimizer.zero_grad()
            bce_with_logits(model.forward(chunks), targets).backward()
            optimizer.step()
        assert not np.allclose(model.infer(chunks), before)
        bits = model.predict(chunks)
        bits_agree(bits, float64_copy(model).infer(chunks))
        assert not np.array_equal(bits, stale_bits)

    def test_after_load_state_dict_and_on_a_clone(self, rng):
        chunks = random_chunks(rng, SMALL, count=32)
        model = caching_model(SMALL, rng)
        other = caching_model(SMALL, rng)
        assert not np.allclose(model.infer(chunks), other.infer(chunks))
        assert not np.array_equal(model.predict(chunks),
                                  other.predict(chunks))
        clone = clone_caching_model(other)
        assert np.array_equal(clone.infer(chunks), other.infer(chunks))
        assert np.array_equal(clone.predict(chunks), other.predict(chunks))
        model.load_state_dict(other.state_dict())
        assert np.array_equal(model.infer(chunks), other.infer(chunks))
        assert np.array_equal(model.predict(chunks), other.predict(chunks))
        # The clone shares no storage: tuning it leaves the source alone.
        kept, kept_bits = other.infer(chunks), other.predict(chunks)
        targets = rng.integers(0, 2, size=kept.shape).astype(float)
        finetune_caching_model(clone, chunks, targets, SMALL, epochs=2,
                               lr=0.05)
        assert np.array_equal(other.infer(chunks), kept)
        assert np.array_equal(other.predict(chunks), kept_bits)
        bits = clone.predict(chunks)
        bits_agree(bits, float64_copy(clone).infer(chunks))
        assert not np.array_equal(bits, kept_bits)

    def test_save_load_round_trip(self, trained_recmg, tiny_trace, tmp_path):
        chunks = trained_recmg.encoder.encode_chunks(tiny_trace.head(300))
        models = (trained_recmg.caching_model, trained_recmg.prefetch_model)
        bits = models[0].predict(chunks)
        indices = models[1].predict_indices(chunks, trained_recmg.encoder)
        save_recmg(trained_recmg, tmp_path / "recmg.npz")
        with np.load(tmp_path / "recmg.npz") as archive:
            saved = {name: archive[name].dtype for name in archive.files
                     if name.startswith(("caching.", "prefetch."))}
        assert sorted(saved) == sorted(
            [f"caching.{name}" for name in models[0].state_dict()]
            + [f"prefetch.{name}" for name in models[1].state_dict()])
        assert set(saved.values()) == {np.dtype(np.float32)}
        restored = load_recmg(tmp_path / "recmg.npz")
        assert np.array_equal(restored.caching_model.predict(chunks), bits)
        assert np.array_equal(restored.prefetch_model.predict_indices(
            chunks, restored.encoder), indices)

    def test_archived_float64_checkpoint_loads_as_float32(
            self, trained_recmg, tiny_trace, tmp_path):
        """An archive saved from float64 weights (as every archive was
        before the models moved to float32) loads into float32 models,
        whose decisions are the float64 weights' but for near-ties."""
        wide = copy.copy(trained_recmg)
        wide.caching_model = float64_copy(trained_recmg.caching_model)
        wide.prefetch_model = float64_copy(trained_recmg.prefetch_model)
        codebook = wide.prefetch_model.target_table
        codebook.data = codebook.data.astype(np.float64)
        save_recmg(wide, tmp_path / "recmg64.npz")
        with np.load(tmp_path / "recmg64.npz") as archive:
            assert {archive[name].dtype for name in archive.files
                    if name.startswith(("caching.", "prefetch."))
                    } == {np.dtype(np.float64)}
            assert archive["prefetch_codebook"].dtype == np.float64
        restored = load_recmg(tmp_path / "recmg64.npz")
        models = (restored.caching_model, restored.prefetch_model)
        assert all(p.data.dtype == np.float32 for model in models
                   for p in model.parameters())
        assert restored.prefetch_model.target_table.data.dtype == np.float32
        chunks = restored.encoder.encode_chunks(tiny_trace)
        bits_agree(models[0].predict(chunks), wide.caching_model.infer(chunks))
        indices_agree(models[1].predict_indices(chunks, restored.encoder),
                      wide.prefetch_model.infer_logits(chunks),
                      models[1].decoder)


class TestNoTape:
    def test_predict_builds_no_tensor_and_touches_no_grad(self, rng,
                                                          monkeypatch):
        chunks = random_chunks(rng, SMALL, count=16)
        caching = caching_model(SMALL, rng)
        prefetch = prefetch_model(SMALL, rng)
        for model in (caching, prefetch):
            for param in model.parameters():
                param.grad = np.full(param.shape, 7.0)
        created = []
        init = Tensor.__init__

        def spy(self, *args, **kwargs):
            created.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", spy)
        caching.predict(chunks)
        prefetch.predict_indices(chunks, None)
        assert created == []
        caching.forward(chunks)
        assert created  # the spy does see the taped path
        for model in (caching, prefetch):
            for param in model.parameters():
                assert np.array_equal(param.grad, np.full(param.shape, 7.0))

    def test_attention_keeps_no_state_between_calls(self, rng):
        attention = LuongAttention(6, rng=rng)
        before = set(vars(attention))
        attention(Tensor(rng.normal(size=(2, 6))),
                  Tensor(rng.normal(size=(2, 5, 6))))
        attention.infer(rng.normal(size=(2, 6)), rng.normal(size=(2, 5, 6)))
        assert set(vars(attention)) == before


class TestConcurrentPredict:
    @pytest.mark.timeout(120)
    def test_threads_share_one_model(self, rng):
        """Threads may predict on the same model at once: ``predict``
        stores nothing on it, so every thread gets the single-thread
        answer."""
        chunks = random_chunks(rng, SMALL, count=96)
        caching = caching_model(SMALL, rng)
        prefetch = prefetch_model(SMALL, rng)
        sels = [np.arange(lo, lo + 48) for lo in (0, 16, 32, 48)]
        expected = [(caching.predict(chunks, sel=sel),
                     prefetch.predict_indices(chunks, None, sel=sel))
                    for sel in sels]
        wrong = []
        start = threading.Barrier(len(sels))

        def work(sel, want):
            start.wait(timeout=30)
            for _ in range(20):
                got = (caching.predict(chunks, sel=sel),
                       prefetch.predict_indices(chunks, None, sel=sel))
                if not (np.array_equal(got[0], want[0])
                        and np.array_equal(got[1], want[1])):
                    wrong.append(int(sel[0]))

        threads = [threading.Thread(target=work, args=pair)
                   for pair in zip(sels, expected)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    @pytest.mark.timeout(120)
    def test_threads_predict_while_the_model_is_retrained_and_swapped(
            self, rng):
        """Readers take whatever model is published while a trainer
        tunes a clone and swaps it in by reference, and each must get
        *that* model's decisions."""
        chunks = random_chunks(rng, SMALL, count=24)
        served = [caching_model(SMALL, rng)]
        wrong, seen, done = [], set(), threading.Event()

        def read():
            while not done.is_set():
                model = served[-1]
                seen.add(id(model))
                try:
                    assert np.array_equal(model.predict(chunks),
                                          model.infer(chunks) > 0.0)
                except Exception as error:  # a reader dying is a failure
                    wrong.append(error)

        def retrain():
            for _ in range(60):
                clone = clone_caching_model(served[-1])
                perturb(clone, rng, scale=0.1)
                served.append(clone)
                time.sleep(0.001)  # let the readers at this model
            done.set()

        threads = [threading.Thread(target=read) for _ in range(3)]
        threads.append(threading.Thread(target=retrain))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == [] and len(seen) >= 3

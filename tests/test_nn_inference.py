"""Tape-free inference twins (``infer``) against the taped ``forward``.

Every layer the two models use, and the models themselves, must give
the tape's values without building the tape: outputs within 1e-12 of
the taped forward (they are the same float64 operations in the same
order) and thresholded bits / decoded indices exactly equal.
"""

import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CachingModel, PrefetchModel, RecMGConfig
from repro.core.features import EncodedChunks, chunk_inputs
from repro.core.prefetch_model import BucketDecoder
from repro.core.training import clone_caching_model
from repro.nn import (
    Adam, Embedding, LSTM, LSTMCell, Linear, LuongAttention, Seq2SeqStack,
    StackedSeq2Seq, Tensor, bce_with_logits, softmax,
)
from repro.nn.functional import sigmoid_, softmax_

NUM_TABLES = 5
BATCHES = (1, 7, 64, 128)


def close(tape_free: np.ndarray, taped: Tensor) -> bool:
    return np.allclose(tape_free, taped.data, atol=1e-12, rtol=0)


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
    """Move the weights off their initialisation so logits spread."""
    for param in model.parameters():
        param.data = param.data + rng.normal(0.0, scale, size=param.shape)


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
        x = rng.normal(size=(9, 13)) * 4.0
        assert np.array_equal(sigmoid_(x.copy()), Tensor(x).sigmoid().data)
        assert np.array_equal(softmax_(x.copy()), softmax(Tensor(x)).data)

    def test_linear_and_embedding(self, rng):
        linear = Linear(6, 4, rng=rng)
        x = rng.normal(size=(11, 6))
        assert close(linear.infer(x), linear(Tensor(x)))
        no_bias = Linear(6, 4, rng=rng, bias=False)
        assert close(no_bias.infer(x), no_bias(Tensor(x)))
        table = Embedding(12, 5, rng=rng)
        idx = rng.integers(0, 12, size=(3, 7))
        assert np.array_equal(table.infer(idx), table(idx).data)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_lstm(self, rng, batch):
        cell = LSTMCell(5, 7, rng=rng)
        x, h, c = (rng.normal(size=s) for s in ((batch, 5), (batch, 7),
                                                 (batch, 7)))
        h_taped, c_taped = cell(Tensor(x), (Tensor(h), Tensor(c)))
        c_free = c.copy()
        h_free = cell.infer(x, h, c_free, np.empty((2, batch, 28)))
        assert close(h_free, h_taped) and close(c_free, c_taped)

        lstm = LSTM(5, 7, rng=rng)
        seq = rng.normal(size=(batch, 9, 5))
        out_taped, (h_taped, c_taped) = lstm(Tensor(seq))
        out_free, (h_free, c_free) = lstm.infer(seq)
        assert close(out_free, out_taped)
        assert close(h_free, h_taped) and close(c_free, c_taped)

    @pytest.mark.parametrize("batch", BATCHES)
    def test_attention_and_stacks(self, rng, batch):
        attention = LuongAttention(6, rng=rng)
        h = rng.normal(size=(batch, 6))
        states = rng.normal(size=(batch, 8, 6))
        assert close(attention.infer(h, states),
                     attention(Tensor(h), Tensor(states)))

        x = rng.normal(size=(batch, 8, 4))
        one = Seq2SeqStack(4, 6, out_steps=3, rng=rng)
        assert close(one.infer(x), one(Tensor(x)))
        for num_stacks in (1, 2, 3):
            stacked = StackedSeq2Seq(4, 6, out_steps=3,
                                     num_stacks=num_stacks, rng=rng)
            assert close(stacked.infer(x), stacked(Tensor(x)))

    def test_in_place_work_stays_in_scratch(self, rng):
        """Only ``c`` (documented) and the scratch are written to."""
        seq, h, states = (rng.normal(size=s) for s in ((3, 9, 5), (3, 7),
                                                        (3, 9, 7)))
        kept = [a.copy() for a in (seq, h, states)]
        LSTM(5, 7, rng=rng).infer(seq)
        LSTMCell(5, 7, rng=rng).infer(seq[:, 0, :], h, np.zeros((3, 7)),
                                      np.empty((2, 3, 28)))
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
    @pytest.mark.parametrize("stacks", (1, 2))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_caching_model(self, rng, stacks, batch):
        config = replace(SMALL, caching_stacks=stacks)
        chunks = random_chunks(rng, config)
        model = caching_model(config, rng)
        for sel in selections(rng, len(chunks), batch):
            taped = model.forward(chunks, sel=sel)
            assert close(model.infer(chunks, sel=sel), taped)
            assert np.array_equal(model.predict(chunks, sel=sel),
                                  (taped.data > 0.0).astype(np.int8))
        assert np.array_equal(model.predict(chunks),
                              model.forward(chunks).data > 0.0)

    @pytest.mark.parametrize("stacks", (1, 2, 3))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_prefetch_model(self, rng, stacks, batch):
        config = replace(SMALL, prefetch_stacks=stacks)
        chunks = random_chunks(rng, config)
        model = prefetch_model(config, rng)
        for sel in selections(rng, len(chunks), batch):
            taped = model.forward_logits(chunks, sel=sel)
            assert close(model.infer_logits(chunks, sel=sel), taped)
            assert np.array_equal(
                model.predict_indices(chunks, None, sel=sel),
                model.decoder.decode_buckets(taped.data))

    def test_default_config_sizes(self, rng):
        config = RecMGConfig()
        chunks = random_chunks(rng, config, count=128)
        caching = caching_model(config, rng)
        assert np.array_equal(caching.infer(chunks),
                              caching.forward(chunks).data)
        prefetch = prefetch_model(config, rng)
        assert np.array_equal(prefetch.infer_logits(chunks),
                              prefetch.forward_logits(chunks).data)

    @given(hidden=st.integers(1, 20), embed_dim=st.integers(1, 9),
           input_len=st.integers(1, 9), output_frac=st.floats(0.0, 1.0),
           batch=st.integers(1, 9), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40, deadline=None)
    def test_shape_sweep(self, hidden, embed_dim, input_len, output_frac,
                         batch, seed):
        rng = np.random.default_rng(seed)
        config = RecMGConfig(
            input_len=input_len, hidden=hidden, embed_dim=embed_dim,
            output_len=1 + int(output_frac * (input_len - 1)),
            hash_buckets=32, caching_stacks=1 + seed % 2,
            prefetch_stacks=1 + seed % 3)
        chunks = random_chunks(rng, config, count=batch)
        caching = caching_model(config, rng)
        taped = caching.forward(chunks)
        assert close(caching.infer(chunks), taped)
        assert np.array_equal(caching.predict(chunks), taped.data > 0.0)
        prefetch = prefetch_model(config, rng)
        taped = prefetch.forward_logits(chunks)
        assert close(prefetch.infer_logits(chunks), taped)
        assert np.array_equal(prefetch.predict_indices(chunks, None),
                              prefetch.decoder.decode_buckets(taped.data))


class TestWeightsAreReadAtCallTime:
    """No derived copy of a weight outlives a call, so every way the
    repo replaces weights shows up in the next ``predict``."""

    def taped_bits(self, model, chunks):
        return (model.forward(chunks).data > 0.0).astype(np.int8)

    def test_after_optimizer_step(self, rng):
        chunks = random_chunks(rng, SMALL, count=32)
        model = caching_model(SMALL, rng)
        before = model.infer(chunks)
        optimizer = Adam(model.parameters(), lr=0.05)
        targets = Tensor(rng.integers(0, 2, size=before.shape).astype(float))
        for _ in range(3):
            optimizer.zero_grad()
            bce_with_logits(model.forward(chunks), targets).backward()
            optimizer.step()
        assert not np.allclose(model.infer(chunks), before)
        assert np.array_equal(model.predict(chunks),
                              self.taped_bits(model, chunks))

    def test_after_load_state_dict_and_on_a_clone(self, rng):
        chunks = random_chunks(rng, SMALL, count=32)
        model = caching_model(SMALL, rng)
        other = caching_model(SMALL, rng)
        assert not np.allclose(model.infer(chunks), other.infer(chunks))
        clone = clone_caching_model(other)
        assert np.array_equal(clone.infer(chunks), other.infer(chunks))
        model.load_state_dict(other.state_dict())
        assert np.array_equal(model.infer(chunks), other.infer(chunks))
        # The clone shares no storage: tuning it leaves the source alone.
        kept = other.infer(chunks)
        perturb(clone, rng)
        assert np.array_equal(other.infer(chunks), kept)
        assert np.array_equal(clone.predict(chunks),
                              self.taped_bits(clone, chunks))


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
        caching.predict_single(chunks.table_ids[0], chunks.hashed_rows[0],
                               chunks.norm_index[0], chunks.freq[0])
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
        """The async refresh worker and the serving thread may predict
        on the same model at once: nothing is stored on it, so every
        thread gets the single-thread answer."""
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

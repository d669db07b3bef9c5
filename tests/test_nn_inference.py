"""Inference without the tape, in two tiers.

(i) float64.  Every layer's ``infer`` twin, ``CachingModel.infer`` and
``PrefetchModel.infer_logits`` called on the model itself give the taped
``forward``'s values without building the tape: within 1e-12 (they are
the same float64 operations in the same order), bit for bit at the
default sizes.  This is all the float64 form is kept for.

(ii) float32.  ``predict`` / ``predict_indices`` / ``predict_single``
run the same methods on the module's float32 twin, so their *decisions*
must be the float64 ones wherever float64 was not a near-tie
(``bits_agree`` / ``indices_agree`` in ``decisions.py``, shared with
the benchmark gate), the twin must track every
way the repo replaces weights, and it must stay invisible to everything
that enumerates parameters.
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

from decisions import bits_agree, indices_agree
from repro.core import CachingModel, PrefetchModel, RecMGConfig
from repro.core.features import EncodedChunks, chunk_inputs
from repro.core.persistence import load_recmg, save_recmg
from repro.core.prefetch_model import BucketDecoder
from repro.core.training import clone_caching_model, finetune_caching_model
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

    @pytest.mark.parametrize("dtype", (np.float32, np.float64))
    def test_sigmoid_saturates_without_warning(self, dtype):
        """``exp(-x)`` overflows below -88 in float32 (float64: -709);
        the gate must still read exactly 0 there, silently."""
        x = np.array([-1e4, -800.0, -100.0, 0.0, 100.0, 1e4], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid_(x.copy())
            cell = LSTMCell(3, 4)
            for param in cell.parameters():
                param.data = (param.data * 400.0).astype(dtype)
            h = cell.infer(np.ones((2, 3), dtype=dtype),
                           np.ones((2, 4), dtype=dtype),
                           np.ones((2, 4), dtype=dtype),
                           np.empty((2, 2, 16), dtype=dtype))
        assert out.dtype == dtype and h.dtype == dtype
        assert np.array_equal(out[[0, 1, 3, 4, 5]], [0, 0, 0.5, 1, 1])
        assert 0.0 <= out[2] < 1e-40  # float64 has not saturated yet
        assert np.isfinite(h).all()

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
            bits_agree(model.predict(chunks, sel=sel), taped.data)
        bits_agree(model.predict(chunks), model.forward(chunks).data)

    @pytest.mark.parametrize("stacks", (1, 2, 3))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_prefetch_model(self, rng, stacks, batch):
        config = replace(SMALL, prefetch_stacks=stacks)
        chunks = random_chunks(rng, config)
        model = prefetch_model(config, rng)
        for sel in selections(rng, len(chunks), batch):
            taped = model.forward_logits(chunks, sel=sel)
            assert close(model.infer_logits(chunks, sel=sel), taped)
            indices_agree(model.predict_indices(chunks, None, sel=sel),
                          taped.data, model.decoder)

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
        taped = caching.forward(chunks)
        assert close(caching.infer(chunks), taped)
        bits_agree(caching.predict(chunks), taped.data)
        prefetch = prefetch_model(config, rng)
        taped = prefetch.forward_logits(chunks)
        assert close(prefetch.infer_logits(chunks), taped)
        indices_agree(prefetch.predict_indices(chunks, None), taped.data,
                      prefetch.decoder)


class TestFloat32Decisions:
    def test_predict_runs_on_a_float32_twin(self, rng):
        chunks = random_chunks(rng, SMALL, count=8)
        for model in (caching_model(SMALL, rng), prefetch_model(SMALL, rng)):
            twin = model.float32_twin()
            assert twin is not model and type(twin) is type(model)
            assert twin is model.float32_twin()  # kept while current
            assert all(p.data.dtype == np.float32 for p in twin.parameters())
            assert all(p.data.dtype == np.float64
                       for p in model.parameters())
        assert model.float32_twin().infer_logits(chunks).dtype == np.float32
        assert model.infer_logits(chunks).dtype == np.float64

    def test_trained_system_decides_identically_on_held_out_trace(
            self, trained_recmg, tiny_trace):
        """Seeded, so exact: on real (trained) weights float32 changes
        no decision on any chunk of the held-out tail."""
        _, held_out = tiny_trace.split(0.6)
        encoder = trained_recmg.encoder
        chunks = encoder.encode_chunks(held_out)
        caching = trained_recmg.caching_model
        prefetch = trained_recmg.prefetch_model
        assert len(chunks) == 240
        assert np.array_equal(caching.predict(chunks),
                              caching.infer(chunks) > 0.0)
        assert np.array_equal(
            prefetch.predict_indices(chunks, encoder),
            prefetch.decoder.decode_buckets(prefetch.infer_logits(chunks)))
        first = (chunks.table_ids[0], chunks.hashed_rows[0],
                 chunks.norm_index[0], chunks.freq[0])
        assert np.array_equal(caching.predict_single(*first),
                              caching.infer(chunks)[0] > 0.0)
        assert np.array_equal(
            prefetch.predict_single(*first, encoder),
            prefetch.predict_indices(chunks, encoder)[0])


class TestTwinLifecycle:
    """The float32 twin is kept on the model between calls, so every
    way the repo replaces weights must show in the *next* ``predict``
    — each test predicts first, so a twin exists to go stale."""

    def test_after_optimizer_step(self, rng):
        chunks = random_chunks(rng, SMALL, count=32)
        model = caching_model(SMALL, rng)
        before = model.infer(chunks)
        stale_bits, stale_twin = model.predict(chunks), model.float32_twin()
        optimizer = Adam(model.parameters(), lr=0.05)
        targets = Tensor(rng.integers(0, 2, size=before.shape).astype(float))
        for _ in range(3):
            optimizer.zero_grad()
            bce_with_logits(model.forward(chunks), targets).backward()
            optimizer.step()
        assert not np.allclose(model.infer(chunks), before)
        bits = model.predict(chunks)
        bits_agree(bits, model.forward(chunks).data)
        assert not np.array_equal(bits, stale_bits)
        assert model.float32_twin() is not stale_twin

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
        bits_agree(bits, clone.forward(chunks).data)
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
        assert set(saved.values()) == {np.dtype(np.float64)}
        restored = load_recmg(tmp_path / "recmg.npz")
        assert np.array_equal(restored.caching_model.predict(chunks), bits)
        assert np.array_equal(restored.prefetch_model.predict_indices(
            chunks, restored.encoder), indices)

    def test_in_place_write_to_a_snapshotted_parameter_raises(self, rng):
        """The identity check cannot see an in-place write, so the
        source arrays are read-only once a twin was cast from them."""
        chunks = random_chunks(rng, SMALL, count=4)
        model = caching_model(SMALL, rng)
        model.head.bias.data[...] = 0.25  # never predicted: writable
        model.predict(chunks)
        for param in model.parameters():
            with pytest.raises(ValueError, match="read-only"):
                param.data[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                param.data += 1.0
        # Rebinding is how weights change, and it still works.
        assert model.predict(chunks).any()
        model.head.bias.data = model.head.bias.data - 100.0
        assert not model.predict(chunks).any()

    def test_twin_is_invisible_to_parameter_enumeration(self, rng):
        chunks = random_chunks(rng, SMALL, count=4)
        for model in (caching_model(SMALL, rng), prefetch_model(SMALL, rng)):
            def census():
                return ([name for name, _ in model.named_parameters()],
                        list(model.state_dict()), model.num_parameters(),
                        [id(param) for param in model.parameters()])

            before, attributes = census(), set(vars(copy.deepcopy(model)))
            twin = model.float32_twin()
            assert census() == before
            assert set(vars(twin)) == attributes
            assert all(array.flags.writeable and array.dtype == np.float64
                       for array in model.state_dict().values())
            dup = copy.deepcopy(model)
            assert set(vars(dup)) == attributes
            for (name, ours), (_, theirs) in zip(model.named_parameters(),
                                                 dup.named_parameters()):
                assert np.array_equal(ours.data, theirs.data), name
                assert theirs.data.flags.writeable
                assert not np.shares_memory(ours.data, theirs.data)
        assert np.array_equal(dup.predict_indices(chunks, None),
                              model.predict_indices(chunks, None))
        source = caching_model(SMALL, rng)
        source.predict(chunks)
        clone = clone_caching_model(source)
        assert set(vars(clone)) == set(vars(copy.deepcopy(source)))
        assert all(p.data.flags.writeable for p in clone.parameters())


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
        """Threads may predict on the same model at once: the one
        thing stored on it, the float32 twin, is read-only once
        published, so every thread gets the single-thread answer."""
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
        tunes a clone and swaps it in by reference.
        Every swap hands the readers a model with no twin yet, which
        they race to build — and each must still get *that* model's
        decisions, never a half-cast twin's."""
        chunks = random_chunks(rng, SMALL, count=24)
        served = [caching_model(SMALL, rng)]
        wrong, seen, done = [], set(), threading.Event()

        def read():
            while not done.is_set():
                model = served[-1]
                seen.add(id(model))
                try:
                    bits_agree(model.predict(chunks), model.infer(chunks))
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

"""LSTM, seq2seq stacks and attention."""

import numpy as np
import pytest

from repro.nn import (
    Adam, LSTM, LSTMCell, Linear, LuongAttention, SelfAttention,
    Seq2SeqStack, StackedSeq2Seq, Tensor,
)


class TestLSTM:
    def test_cell_shapes(self, rng):
        cell = LSTMCell(5, 7, rng=rng)
        h, c = cell.zero_state(3)
        h2, c2 = cell(Tensor(rng.normal(size=(3, 5))), (h, c))
        assert h2.shape == (3, 7) and c2.shape == (3, 7)

    def test_unroll_shapes(self, rng):
        lstm = LSTM(5, 7, rng=rng)
        out, (h, c) = lstm(Tensor(rng.normal(size=(2, 9, 5))))
        assert out.shape == (2, 9, 7)
        assert h.shape == (2, 7)

    def test_state_carries_information(self, rng):
        lstm = LSTM(2, 4, rng=rng)
        x1 = Tensor(rng.normal(size=(1, 3, 2)))
        x2 = Tensor(rng.normal(size=(1, 3, 2)))
        _, (h1, _) = lstm(x1)
        _, (h2, _) = lstm(x2)
        assert not np.allclose(h1.data, h2.data)

    def test_gradients_flow_through_time(self, rng):
        lstm = LSTM(2, 4, rng=rng)
        x = Tensor(rng.normal(size=(1, 6, 2)))
        out, _ = lstm(x)
        out.sum().backward()
        assert lstm.cell.w_x.grad is not None
        assert np.abs(lstm.cell.w_x.grad).sum() > 0


class TestSeq2Seq:
    def test_stack_output_shape(self, rng):
        stack = Seq2SeqStack(input_size=4, hidden_size=6, out_steps=3, rng=rng)
        out = stack(Tensor(rng.normal(size=(2, 8, 4))))
        assert out.shape == (2, 3, 6)

    def test_stacked_chaining(self, rng):
        model = StackedSeq2Seq(4, 6, out_steps=3, num_stacks=2, rng=rng)
        out = model(Tensor(rng.normal(size=(2, 8, 4))))
        assert out.shape == (2, 3, 6)

    def test_num_stacks_validated(self, rng):
        with pytest.raises(ValueError):
            StackedSeq2Seq(4, 6, out_steps=3, num_stacks=0, rng=rng)

    def test_parameters_grow_with_stacks(self, rng):
        one = StackedSeq2Seq(4, 6, 3, num_stacks=1, rng=rng)
        two = StackedSeq2Seq(4, 6, 3, num_stacks=2, rng=rng)
        assert two.num_parameters() > one.num_parameters()

    def test_trainable_end_to_end(self, rng):
        model = StackedSeq2Seq(3, 8, out_steps=2, num_stacks=1, rng=rng)
        head = Linear(8, 1, rng=rng)
        opt = Adam(model.parameters() + head.parameters(), lr=1e-2)
        x = Tensor(rng.normal(size=(4, 5, 3)))
        target = Tensor(rng.normal(size=(4, 2)))
        losses = []
        for _ in range(25):
            out = model(x)
            b, t, h = out.shape
            pred = head(out.reshape(b * t, h)).reshape(b, t)
            loss = ((pred - target) ** 2.0).mean()
            opt.zero_grad()
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.6


class TestAttention:
    def test_luong_weights_sum_to_one(self, rng):
        att = LuongAttention(6, rng=rng)
        out, weights = att(Tensor(rng.normal(size=(3, 6))),
                           Tensor(rng.normal(size=(3, 7, 6))),
                           return_weights=True)
        assert out.shape == (3, 6)
        assert np.allclose(weights.sum(axis=1), 1.0)

    def test_self_attention_shape(self, rng):
        att = SelfAttention(6, rng=rng)
        out = att(Tensor(rng.normal(size=(2, 5, 6))))
        assert out.shape == (2, 5, 6)

    def test_self_attention_differentiable(self, rng):
        att = SelfAttention(4, rng=rng)
        x = Tensor(rng.normal(size=(1, 3, 4)), requires_grad=True)
        att(x).sum().backward()
        assert x.grad is not None and np.abs(x.grad).sum() > 0

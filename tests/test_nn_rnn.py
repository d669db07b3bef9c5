"""LSTM, seq2seq stacks and attention.

Gradient checks run on float64 copies of the layers (``float64_copy``)
with float64 inputs; the fused-vs-primitive parity holds bit for bit in
float64 and in float32, the dtype the models train in.
"""

import numpy as np
import pytest

from decisions import float64_copy
from repro.nn import (
    Adam, LSTM, Linear, SelfAttention, StackedSeq2Seq, Tensor, softmax,
)
from repro.nn.attention import LuongAttention
from repro.nn.rnn import LSTMCell, Seq2SeqStack
from repro.nn.tensor import stack
from test_nn_tensor import check_gradient


def primitive_step(cell, x, h, c):
    """The oracle: one LSTM step over primitive ``Tensor`` ops, as
    ``LSTMCell.forward`` taped it before it became one node."""
    hs = cell.hidden_size
    gates = x @ cell.w_x + h @ cell.w_h + cell.bias
    i_gate = gates[:, 0 * hs:1 * hs].sigmoid()
    f_gate = gates[:, 1 * hs:2 * hs].sigmoid()
    g_gate = gates[:, 2 * hs:3 * hs].tanh()
    o_gate = gates[:, 3 * hs:4 * hs].sigmoid()
    c_new = f_gate * c + i_gate * g_gate
    return o_gate * c_new.tanh(), c_new


def primitive_lstm(lstm, x):
    batch, steps, _ = x.shape
    h = c = Tensor(np.zeros((batch, lstm.hidden_size), dtype=x.data.dtype))
    outputs = []
    for t in range(steps):
        h, c = primitive_step(lstm.cell, x[:, t, :], h, c)
        outputs.append(h)
    return stack(outputs, axis=1), (h, c)


def attend(states, weight):
    """Position-aligned attention as the caching model's: ``states``
    reaches the loss through four consumers."""
    scores = (states @ weight) @ states.transpose(0, 2, 1)
    context = softmax(scores, axis=-1) @ states
    return (states * context).tanh()


def lstm_grads(lstm, run, x0, weight):
    """Output and the grads of ``x`` and the cell's weights after one
    backward of ``attend`` plus the final ``(h, c)`` through ``run``."""
    cell = lstm.cell
    for param in (cell.w_x, cell.w_h, cell.bias):
        param.zero_grad()
    x = Tensor(x0, requires_grad=True)
    out, (h, c) = run(lstm, x)
    (attend(out, weight).sum() + (h * c).sum()).backward()
    return [out.data, x.grad, cell.w_x.grad, cell.w_h.grad, cell.bias.grad]


class TestLSTM:
    def test_cell_shapes(self, rng):
        cell = LSTMCell(5, 7, rng=rng)
        zeros = Tensor(np.zeros((3, 7)))
        h2, c2 = cell(Tensor(rng.normal(size=(3, 5))), (zeros, zeros))
        assert h2.shape == (3, 7) and c2.shape == (3, 7)

    def test_fused_lstm_is_the_primitive_unroll_bit_for_bit(self, rng):
        lstm32 = LSTM(5, 6, rng=rng)
        x0 = rng.normal(size=(4, 9, 5))
        weight = rng.normal(size=(6, 6))
        for lstm, dtype in ((float64_copy(lstm32), np.float64),
                            (lstm32, np.float32)):
            args = (x0.astype(dtype), Tensor(weight.astype(dtype)))
            fused = lstm_grads(lstm, lambda m, x: m(x), *args)
            oracle = lstm_grads(lstm, primitive_lstm, *args)
            for got, want in zip(fused, oracle):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)

    def test_fused_cell_is_the_primitive_step_bit_for_bit(self, rng):
        cell32 = LSTMCell(5, 6, rng=rng)
        arrays = [rng.normal(size=(4, n)) for n in (5, 6, 6)]
        for cell, dtype in ((float64_copy(cell32), np.float64),
                            (cell32, np.float32)):
            results = []
            for step in (lambda x, h, c: cell(x, (h, c)),
                         lambda x, h, c: primitive_step(cell, x, h, c)):
                for param in (cell.w_x, cell.w_h, cell.bias):
                    param.zero_grad()
                inputs = [Tensor(a.astype(dtype), requires_grad=True)
                          for a in arrays]
                h, c = step(*inputs)
                ((h * c).sum() + h.tanh().sum()).backward()
                results.append([h.data, c.data] + [t.grad for t in inputs]
                               + [cell.w_x.grad, cell.w_h.grad,
                                  cell.bias.grad])
            for got, want in zip(*results):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)

    def test_lstm_gradient_wrt_input(self, rng):
        lstm = float64_copy(LSTM(3, 4, rng=rng))
        ro, rc = rng.normal(size=(2, 5, 4)), rng.normal(size=(2, 4))

        def loss(x):
            out, (_, c) = lstm(x)
            return (out * Tensor(ro)).sum() + (c * Tensor(rc)).sum()
        check_gradient(loss, rng.normal(size=(2, 5, 3)))

    def test_lstm_gradient_wrt_recurrent_weight(self, rng):
        lstm = float64_copy(LSTM(3, 4, rng=rng))
        x = Tensor(rng.normal(size=(2, 5, 3)))
        ro = rng.normal(size=(2, 5, 4))

        def loss(w_h):
            lstm.cell.w_h = w_h
            return (lstm(x)[0] * Tensor(ro)).sum()
        check_gradient(loss, lstm.cell.w_h.data.copy())

    @pytest.mark.parametrize("wrt", ["h_prev", "c_prev"])
    def test_cell_gradient_wrt_state(self, rng, wrt):
        cell = float64_copy(LSTMCell(3, 4, rng=rng))
        x = Tensor(rng.normal(size=(2, 3)))
        state = {"h_prev": rng.normal(size=(2, 4)),
                 "c_prev": rng.normal(size=(2, 4))}
        rh, rc = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))

        def loss(t):
            inputs = {k: Tensor(v) for k, v in state.items()}
            inputs[wrt] = t
            h, c = cell(x, (inputs["h_prev"], inputs["c_prev"]))
            return (h * Tensor(rh)).sum() + (c * Tensor(rc)).sum()
        check_gradient(loss, state[wrt])

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

    def test_stack_gradient_wrt_input(self, rng):
        stack_module = float64_copy(Seq2SeqStack(3, 4, out_steps=2, rng=rng))
        ro = rng.normal(size=(2, 2, 4))
        check_gradient(lambda x: (stack_module(x) * Tensor(ro)).sum(),
                       rng.normal(size=(2, 5, 3)))

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

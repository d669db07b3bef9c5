"""LSTM layers and the seq2seq encoder/decoder stacks used by RecMG.

The paper's caching and prefetch models are sequence-to-sequence LSTMs
with attention ("Each LSTM stack includes a pair of an encoder and a
decoder", Fig. 5).  This module provides:

* :class:`LSTMCell` / :class:`LSTM` — standard gated recurrence,
* :class:`Seq2SeqStack` — one encoder/decoder pair with Luong attention,
* :class:`StackedSeq2Seq` — N chained stacks (Table III varies N).

The recurrence is taped as one node per :class:`LSTM` sequence or
:class:`LSTMCell` step, with a hand-written backward that keeps the
primitive per-step ops and grad order: values are the primitive
graph's bit for bit in any dtype, and grads too where no state has more
than two grad consumers.  Every buffer takes the dtype of the step's
arithmetic, so float32 weights and inputs train in float32.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import init as initializers
from .attention import LuongAttention
from .functional import sigmoid_, sigmoid_saturating_
from .modules import Module
from .tensor import DTYPE, Tensor, stack


def _step(x, h, c, w_x, w_h, bias):
    """One LSTM step on arrays: new ``h``, ``c`` and saved activations.
    One sigmoid over all four gate blocks, as ``infer`` (elementwise)."""
    hs = h.shape[1]
    gates = x @ w_x + h @ w_h + bias
    g = np.tanh(gates[:, 2 * hs:3 * hs])
    sig = sigmoid_(gates)
    c_new = sig[:, hs:2 * hs] * c + sig[:, :hs] * g
    tanh_c = np.tanh(c_new)
    return sig[:, 3 * hs:] * tanh_c, c_new, (sig, g, tanh_c)


def _step_grads(dh, dc, x, h, c, acts, w_x, w_h):
    """Backward of :func:`_step` from the grads of its ``h`` and ``c``
    (``dc`` from consumers other than the step's own ``tanh``): the
    grads of ``x``, ``h``, ``c``, ``w_x``, ``w_h`` and ``bias``."""
    sig, g, tanh_c = acts
    hs = g.shape[1]
    dc = (1.0 - tanh_c ** 2) * (dh * sig[:, 3 * hs:]) + dc
    dgates = sig * (1.0 - sig)
    dgates[:, :hs] *= dc * g
    dgates[:, hs:2 * hs] *= dc * c
    np.multiply(1.0 - g ** 2, dc * sig[:, :hs], out=dgates[:, 2 * hs:3 * hs])
    dgates[:, 3 * hs:] *= dh * tanh_c
    return (dgates @ w_x.T, dgates @ w_h.T, dc * sig[:, hs:2 * hs],
            x.T @ dgates, h.T @ dgates, dgates.sum(axis=0))


def _accumulate(tensors, grads) -> None:
    for tensor, grad in zip(tensors, grads):
        if tensor.requires_grad:
            tensor._accumulate(grad)


class LSTMCell(Module):
    """Single LSTM step with fused gate weights.

    Gate layout along the last axis: input, forget, cell, output.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.w_x = Tensor(
            initializers.xavier_uniform((input_size, 4 * hidden_size), rng),
            requires_grad=True,
        )
        self.w_h = Tensor(
            initializers.orthogonal((hidden_size, 4 * hidden_size), rng),
            requires_grad=True,
        )
        bias = np.zeros(4 * hidden_size, dtype=DTYPE)
        # Forget-gate bias of 1.0 helps gradient flow early in training.
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        """One tape node holding the new ``h`` and ``c`` stacked; the
        pair returned are getitem views of it."""
        h_prev, c_prev = state
        w_x, w_h, bias = self.w_x, self.w_h, self.bias
        xs, hs, cs = x.data, h_prev.data, c_prev.data
        h, c, acts = _step(xs, hs, cs, w_x.data, w_h.data, bias.data)
        out = x._make_child(np.stack([h, c]),
                            (x, h_prev, c_prev, w_x, w_h, bias))

        def backward(grad: np.ndarray) -> None:
            _accumulate((x, h_prev, c_prev, w_x, w_h, bias), _step_grads(
                grad[0], grad[1], xs, hs, cs, acts, w_x.data, w_h.data))

        out._backward = backward
        return out[0], out[1]

    def infer(self, x: np.ndarray, h: np.ndarray, c: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward`: the same operations in the same
        order on plain arrays, activations in place — the tape's values
        bit for bit.  ``c`` is advanced in place, the new ``h`` is a
        fresh array; ``scratch`` is a caller-owned ``(2, batch, 4 *
        hidden)`` buffer, ``x``'s dtype."""
        with np.errstate(over="ignore"):
            return self.step_(x, h, c, scratch, np.empty_like(c))

    def step_(self, x: np.ndarray, h: np.ndarray, c: np.ndarray,
              scratch: np.ndarray, h_out: np.ndarray) -> np.ndarray:
        """:meth:`infer` writing the new ``h`` into ``h_out`` (any
        ``(batch, hidden)`` view; it may be ``h``, which the step has
        read by then), for a loop that holds ``np.errstate(over=
        "ignore")`` around all its steps."""
        hs = self.hidden_size
        gates = np.matmul(x, self.w_x.data, out=scratch[0])
        gates += np.matmul(h, self.w_h.data, out=scratch[1])
        gates += self.bias.data
        g_gate = np.tanh(gates[:, 2 * hs:3 * hs], out=h_out)
        # One contiguous pass over all four blocks beats two strided
        # ones even though the cell block's sigmoid is never read.
        sigmoid_saturating_(gates)
        c *= gates[:, hs:2 * hs]                      # forget
        g_gate *= gates[:, :hs]                       # input
        c += g_gate
        np.tanh(c, out=h_out)
        h_out *= gates[:, 3 * hs:]                    # output
        return h_out


class LSTM(Module):
    """Unrolls an :class:`LSTMCell` over a (batch, time, feat) input."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """The states of every step and the final ``(h, c)``, from the
        zero state: getitem views of one tape node (batch, time + 1,
        hidden) holding each step's ``h``, then the final ``c``."""
        w_x, w_h, bias = self.cell.w_x, self.cell.w_h, self.cell.bias
        xs = x.data
        batch, steps, _ = xs.shape
        dtype = np.result_type(xs, w_x.data)
        data = np.empty((batch, steps + 1, self.hidden_size), dtype=dtype)
        h = c = np.zeros((batch, self.hidden_size), dtype=dtype)
        saved = []
        for t in range(steps):
            h_prev, c_prev = h, c
            h, c, acts = _step(xs[:, t, :], h_prev, c_prev, w_x.data,
                               w_h.data, bias.data)
            data[:, t] = h
            saved.append((h_prev, c_prev, acts))
        data[:, steps] = c
        out = x._make_child(data, (x, w_x, w_h, bias))

        def backward(grad: np.ndarray) -> None:
            dx = np.zeros_like(xs)
            dh, dc = grad[:, steps - 1], grad[:, steps]
            for t in range(steps - 1, -1, -1):
                dx[:, t], dh_prev, dc, *step_grads = _step_grads(
                    dh, dc, xs[:, t, :], *saved[t], w_x.data, w_h.data)
                sums = step_grads if t == steps - 1 else [
                    total + term for total, term in zip(sums, step_grads)]
                dh = grad[:, t - 1] + dh_prev if t else None
            _accumulate((x, w_x, w_h, bias), [dx] + sums)

        out._backward = backward
        return out[:, :steps], (out[:, steps - 1], out[:, steps])

    def infer(self, x: np.ndarray
              ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Tape-free :meth:`forward` from the zero state: the states of
        every step, ``(batch, time, hidden)``, and the final ``(h, c)``.

        Layout: the steps run over a time-major copy of ``x`` (free when
        ``x`` is a time-major array transposed, as ``chunk_inputs`` and
        this method return), so each step's GEMM reads one contiguous
        ``(batch, features)`` block, and each step writes its ``h`` into
        one contiguous block of a time-major buffer, which the next step
        reads.  The states returned are that buffer transposed, a view.
        """
        batch, steps, _ = x.shape
        hs = self.hidden_size
        x_steps = np.ascontiguousarray(x.transpose(1, 0, 2))
        states = np.empty((steps, batch, hs), dtype=x.dtype)
        h, c = np.zeros((2, batch, hs), dtype=x.dtype)
        scratch = np.empty((2, batch, 4 * hs), dtype=x.dtype)
        with np.errstate(over="ignore"):
            for t in range(steps):
                h = self.cell.step_(x_steps[t], h, c, scratch, states[t])
        return states.transpose(1, 0, 2), (h, c)


class Seq2SeqStack(Module):
    """One encoder/decoder LSTM pair with Luong attention (paper Fig. 5).

    The encoder consumes the input sequence; the decoder unrolls
    ``out_steps`` times, attending over encoder states at each step, and
    emits the attended hidden state per step.
    """

    def __init__(self, input_size: int, hidden_size: int, out_steps: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.encoder = LSTM(input_size, hidden_size, rng=rng)
        self.decoder_cell = LSTMCell(hidden_size, hidden_size, rng=rng)
        self.attention = LuongAttention(hidden_size, rng=rng)
        self.out_steps = out_steps
        self.hidden_size = hidden_size

    def forward(self, x: Tensor) -> Tensor:
        enc_states, (h, c) = self.encoder(x)
        outputs: List[Tensor] = []
        step_input = h
        for _ in range(self.out_steps):
            h, c = self.decoder_cell(step_input, (h, c))
            attended = self.attention(h, enc_states)
            outputs.append(attended)
            step_input = attended
        return stack(outputs, axis=1)

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward` on a plain array.  The attention
        reads the encoder states batch-major, as the tape lays them out:
        its batched matrix-vector products are not bit-stable across
        layouts (at 7 x 8 x 6 a time-major view rounds differently)."""
        enc_states, (h, c) = self.encoder.infer(x)
        enc_states = np.ascontiguousarray(enc_states)
        batch, hs = x.shape[0], self.hidden_size
        outputs = np.empty((batch, self.out_steps, hs), dtype=x.dtype)
        scratch = np.empty((2, batch, 4 * hs), dtype=x.dtype)
        step_input = h
        with np.errstate(over="ignore"):
            for t in range(self.out_steps):
                h = self.decoder_cell.step_(step_input, h, c, scratch,
                                            np.empty_like(c))
                step_input = outputs[:, t, :] = self.attention.infer(
                    h, enc_states)
        return outputs


class StackedSeq2Seq(Module):
    """Chains ``num_stacks`` encoder/decoder pairs (Table III sweeps this).

    Stack ``k+1`` consumes the attended output sequence of stack ``k``.
    """

    def __init__(self, input_size: int, hidden_size: int, out_steps: int,
                 num_stacks: int = 1,
                 rng: Optional[np.random.Generator] = None) -> None:
        if num_stacks < 1:
            raise ValueError("num_stacks must be >= 1")
        rng = rng or np.random.default_rng(0)
        self.stacks = [
            Seq2SeqStack(
                input_size if i == 0 else hidden_size,
                hidden_size,
                out_steps,
                rng=rng,
            )
            for i in range(num_stacks)
        ]

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for stack_module in self.stacks:
            out = stack_module(out)
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward` on a plain array."""
        for stack_module in self.stacks:
            x = stack_module.infer(x)
        return x

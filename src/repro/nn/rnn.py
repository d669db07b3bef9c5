"""LSTM layers and the seq2seq encoder/decoder stacks used by RecMG.

The paper's caching and prefetch models are sequence-to-sequence LSTMs
with attention ("Each LSTM stack includes a pair of an encoder and a
decoder", Fig. 5).  This module provides:

* :class:`LSTMCell` / :class:`LSTM` — standard gated recurrence,
* :class:`Seq2SeqStack` — one encoder/decoder pair with Luong attention,
* :class:`StackedSeq2Seq` — N chained stacks (Table III varies N).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from . import init as initializers
from .attention import LuongAttention
from .functional import sigmoid_
from .modules import Module
from .tensor import Tensor, stack


class LSTMCell(Module):
    """Single LSTM step with fused gate weights.

    Gate layout along the last axis: input, forget, cell, output.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.w_x = Tensor(
            initializers.xavier_uniform((input_size, 4 * hidden_size), rng),
            requires_grad=True,
        )
        self.w_h = Tensor(
            initializers.orthogonal((hidden_size, 4 * hidden_size), rng),
            requires_grad=True,
        )
        bias = np.zeros(4 * hidden_size)
        # Forget-gate bias of 1.0 helps gradient flow early in training.
        bias[hidden_size:2 * hidden_size] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:
        h_prev, c_prev = state
        gates = x @ self.w_x + h_prev @ self.w_h + self.bias
        hs = self.hidden_size
        i_gate = gates[:, 0 * hs:1 * hs].sigmoid()
        f_gate = gates[:, 1 * hs:2 * hs].sigmoid()
        g_gate = gates[:, 2 * hs:3 * hs].tanh()
        o_gate = gates[:, 3 * hs:4 * hs].sigmoid()
        c_new = f_gate * c_prev + i_gate * g_gate
        h_new = o_gate * c_new.tanh()
        return h_new, c_new

    def infer(self, x: np.ndarray, h: np.ndarray, c: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward`: the same operations in the same
        order on plain arrays, activations in place — the tape's values
        bit for bit in float64, the same code on a float32 twin.  ``c``
        is advanced in place, the new ``h`` is a fresh array; ``scratch``
        is a caller-owned ``(2, batch, 4 * hidden)`` buffer, ``x``'s dtype."""
        hs = self.hidden_size
        gates = np.matmul(x, self.w_x.data, out=scratch[0])
        gates += np.matmul(h, self.w_h.data, out=scratch[1])
        gates += self.bias.data
        g_gate = np.tanh(gates[:, 2 * hs:3 * hs])
        # One contiguous pass over all four blocks beats two strided
        # ones even though the cell block's sigmoid is never read.
        sigmoid_(gates)
        c *= gates[:, hs:2 * hs]                      # forget
        g_gate *= gates[:, :hs]                       # input
        c += g_gate
        h_new = np.tanh(c, out=g_gate)
        h_new *= gates[:, 3 * hs:]                    # output
        return h_new

    def zero_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        return (
            Tensor(np.zeros((batch, self.hidden_size))),
            Tensor(np.zeros((batch, self.hidden_size))),
        )


class LSTM(Module):
    """Unrolls an :class:`LSTMCell` over a (batch, time, feat) input."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, x: Tensor,
                state: Optional[Tuple[Tensor, Tensor]] = None
                ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        batch, steps, _ = x.shape
        if state is None:
            state = self.cell.zero_state(batch)
        outputs: List[Tensor] = []
        for t in range(steps):
            step_in = x[:, t, :]
            h, c = self.cell(step_in, state)
            state = (h, c)
            outputs.append(h)
        return stack(outputs, axis=1), state

    def infer(self, x: np.ndarray
              ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Tape-free :meth:`forward` from the zero state."""
        batch, steps, _ = x.shape
        hs = self.hidden_size
        outputs = np.empty((batch, steps, hs), dtype=x.dtype)
        h, c = np.zeros((2, batch, hs), dtype=x.dtype)
        scratch = np.empty((2, batch, 4 * hs), dtype=x.dtype)
        for t in range(steps):
            h = outputs[:, t, :] = self.cell.infer(x[:, t, :], h, c, scratch)
        return outputs, (h, c)


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
        """Tape-free :meth:`forward` on a plain array."""
        enc_states, (h, c) = self.encoder.infer(x)
        batch, hs = x.shape[0], self.hidden_size
        outputs = np.empty((batch, self.out_steps, hs), dtype=x.dtype)
        scratch = np.empty((2, batch, 4 * hs), dtype=x.dtype)
        step_input = h
        for t in range(self.out_steps):
            h = self.decoder_cell.infer(step_input, h, c, scratch)
            step_input = outputs[:, t, :] = self.attention.infer(h, enc_states)
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

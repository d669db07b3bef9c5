"""RecMG caching model (paper §V-A, Fig. 5a).

An LSTM encoder with attention reads a chunk of accesses and emits, per
input position, a 1-bit priority: should this vector stay in the GPU
buffer?  The output sequence has the same length as the input, so each
position classifies *its own* access — we therefore align outputs with
encoder states by construction (position ``t``'s logit is computed from
encoder state ``t`` attending over the whole chunk), instead of asking
a free-running decoder to learn the alignment.  Trained as binary
classification (cross-entropy / sigmoid) against OPTgen's cache-friendly
labels, which lets the model approximate Belady's policy online.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Embedding, LSTM, Linear, Module, Tensor, concat, softmax
from ..nn import init as initializers
from ..nn.functional import softmax_
from .config import RecMGConfig
from .features import EncodedChunks, chunk_inputs


class CachingModel(Module):
    """Binary keep-in-buffer classifier over access chunks."""

    def __init__(self, config: RecMGConfig, num_tables: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(config.seed)
        self.config = config
        self.table_embedding = Embedding(max(1, num_tables), config.embed_dim,
                                         rng=rng)
        self.row_embedding = Embedding(config.hash_buckets, config.embed_dim,
                                       rng=rng)
        input_size = 2 * config.embed_dim + 2
        self.lstm_layers = [
            LSTM(input_size if i == 0 else config.hidden, config.hidden,
                 rng=rng)
            for i in range(config.caching_stacks)
        ]
        self.att_weight = Tensor(
            initializers.xavier_uniform((config.hidden, config.hidden), rng),
            requires_grad=True,
        )
        self.combine = Linear(2 * config.hidden, config.hidden, rng=rng)
        self.head = Linear(config.hidden, 1, rng=rng)

    # ------------------------------------------------------------------
    def forward(self, chunks: EncodedChunks,
                sel: Optional[np.ndarray] = None) -> Tensor:
        """Logits of shape (batch, input_len)."""
        states = chunk_inputs(chunks, sel, self.table_embedding,
                              self.row_embedding, taped=True)
        for layer in self.lstm_layers:
            states, _ = layer(states)                 # (B, L, H)
        batch, length, hidden = states.shape
        # Position-aligned attention: every position attends over the
        # full chunk ("even when accesses ... are far apart", §V).
        projected = states @ self.att_weight          # (B, L, H)
        scores = projected @ states.transpose(0, 2, 1)  # (B, L, L)
        weights = softmax(scores, axis=-1)
        context = weights @ states                    # (B, L, H)
        combined = concat([states, context], axis=2)  # (B, L, 2H)
        combined = combined.reshape(batch * length, 2 * hidden)
        hidden_out = self.combine(combined).tanh()
        logits = self.head(hidden_out)
        return logits.reshape(batch, length)

    # ------------------------------------------------------------------
    def infer(self, chunks: EncodedChunks,
              sel: Optional[np.ndarray] = None) -> np.ndarray:
        """Tape-free twin of :meth:`forward` (which stays the training
        path): the same operations in the same order on plain arrays in
        the weights' dtype, with no autograd graph, so the logits are
        the tape's bit for bit.  :meth:`predict` thresholds them.

        Layout: each LSTM layer steps over time-major blocks and
        returns its states as a transposed time-major buffer
        (:meth:`LSTM.infer`); per-step ``h`` writes into a strided
        ``[states | context]`` row cost more than this one copy.  The
        states are copied once into the first half of a ``(batch, len,
        2 * hidden)`` buffer; the attention reads that half and writes
        its context straight into the second, and ``combine`` reads the
        whole buffer, so nothing is concatenated.  The attention softmax
        takes its row maxima from column maxima while the score axis is
        short (:func:`~repro.nn.functional.row_max`; ``len`` is 15 by
        default), which is exact in any order.
        """
        states = chunk_inputs(chunks, sel, self.table_embedding,
                              self.row_embedding)
        for layer in self.lstm_layers:
            states, _ = layer.infer(states)           # (B, L, H)
        batch, length, hidden = states.shape
        combined = np.empty((batch, length, 2 * hidden), dtype=states.dtype)
        combined[:, :, :hidden] = states
        states = combined[:, :, :hidden]
        projected = states @ self.att_weight.data
        weights = softmax_(projected @ states.transpose(0, 2, 1))
        np.matmul(weights, states, out=combined[:, :, hidden:])
        hidden_out = self.combine.infer(
            combined.reshape(batch * length, 2 * hidden))
        logits = self.head.infer(np.tanh(hidden_out, out=hidden_out))
        return logits.reshape(batch, length)

    def predict(self, chunks: EncodedChunks,
                sel: Optional[np.ndarray] = None) -> np.ndarray:
        """Binary keep/evict decisions, shape (batch, input_len), from
        :meth:`infer`."""
        logits = self.infer(chunks, sel=sel)
        return (logits > 0.0).astype(np.int8)

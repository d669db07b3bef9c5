"""Attention mechanisms for the RecMG sequence models.

The paper uses attention so the models can "capture long-range
dependencies" between embedding-vector accesses that are far apart in the
input sequence (Section V).  We implement Luong-style (multiplicative)
attention, which is cheap on CPU — matching the paper's constraint that
the models run on spare CPU cycles.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import init as initializers
from .functional import softmax, softmax_
from .modules import Linear, Module
from .tensor import Tensor, concat


class LuongAttention(Module):
    """General Luong attention.

    Given a decoder state ``h`` (batch, hidden) and encoder states
    ``states`` (batch, time, hidden), computes scores
    ``h W states_t``, a softmax over time, a context vector, and returns
    ``tanh(W_c [h; context])``.
    """

    def __init__(self, hidden_size: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.score_weight = Tensor(
            initializers.xavier_uniform((hidden_size, hidden_size), rng),
            requires_grad=True,
        )
        self.combine = Linear(2 * hidden_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, h: Tensor, states: Tensor,
                return_weights: bool = False):
        """Attended state (batch, hidden); with ``return_weights`` also
        the attention weights (batch, time) as a plain array."""
        # scores: (batch, time) = sum_k (h W)[b, k] * states[b, t, k]
        projected = h @ self.score_weight                       # (B, H)
        batch, time, hidden = states.shape
        # (B, T, H) @ (B, H, 1) -> (B, T, 1)
        scores = states @ projected.reshape(batch, hidden, 1)
        scores = scores.reshape(batch, time)
        weights = softmax(scores, axis=-1)                      # (B, T)
        # context: (B, H) = sum_t weights[b, t] * states[b, t, :]
        context = (states * weights.reshape(batch, time, 1)).sum(axis=1)
        combined = concat([h, context], axis=1)                 # (B, 2H)
        out = self.combine(combined).tanh()
        return (out, weights.data) if return_weights else out

    def infer(self, h: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward` on plain arrays (same op order)."""
        batch, time, hidden = states.shape
        projected = h @ self.score_weight.data
        scores = (states @ projected.reshape(batch, hidden, 1)
                  ).reshape(batch, time)
        weights = softmax_(scores)
        context = (states * weights.reshape(batch, time, 1)).sum(axis=1)
        out = self.combine.infer(np.concatenate([h, context], axis=1))
        return np.tanh(out, out=out)


class SelfAttention(Module):
    """Single-head scaled dot-product self-attention.

    Used by the TransFetch-style baseline prefetcher
    (:mod:`repro.prefetch.transfetch`).
    """

    def __init__(self, dim: int, rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.query = Linear(dim, dim, rng=rng, bias=False)
        self.key = Linear(dim, dim, rng=rng, bias=False)
        self.value = Linear(dim, dim, rng=rng, bias=False)
        self.dim = dim

    def forward(self, x: Tensor) -> Tensor:
        # x: (B, T, D)
        batch, time, dim = x.shape
        q = self.query(x.reshape(batch * time, dim)).reshape(batch, time, dim)
        k = self.key(x.reshape(batch * time, dim)).reshape(batch, time, dim)
        v = self.value(x.reshape(batch * time, dim)).reshape(batch, time, dim)
        scores = (q @ k.transpose(0, 2, 1)) * dim ** -0.5  # (B, T, T)
        weights = softmax(scores, axis=-1)
        return weights @ v

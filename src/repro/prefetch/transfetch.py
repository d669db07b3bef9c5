"""TransFetch-style attention prefetcher (Zhang et al., CF'22), adapted.

TransFetch segments each address into bit fields, embeds the segments,
runs self-attention over the last ``k`` accesses, and predicts future
*deltas* as multi-label classification over a bounded delta bitmap.

The bounded delta range is exactly why the paper finds TransFetch caps
out near 10% correctness on DLRM traces: it "cannot handle a large
amount of embedding vectors within one embedding table" — any future
access whose delta falls outside the bitmap is unpredictable.  The
default range here is deliberately comparable (± ``delta_range``).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

import numpy as np

from ..nn import (Adam, Linear, Module, SelfAttention, Tensor, bce_with_logits,
                  train_minibatches)
from ..traces.access import Trace
from .base import Prefetcher


class _TransFetchModel(Module):
    """Segment embeddings -> self-attention -> multi-label delta logits."""

    def __init__(self, num_segments: int, segment_bits: int, dim: int,
                 num_deltas: int, rng: np.random.Generator) -> None:
        from ..nn import Embedding

        self.num_segments = num_segments
        self.segment_bits = segment_bits
        self.segments = [
            Embedding(1 << segment_bits, dim, rng=rng)
            for _ in range(num_segments)
        ]
        self.attention = SelfAttention(dim, rng=rng)
        self.head = Linear(dim, num_deltas, rng=rng)

    def segment_ids(self, indices: np.ndarray) -> np.ndarray:
        """Split each index into ``num_segments`` bit fields."""
        mask = (1 << self.segment_bits) - 1
        out = np.empty(indices.shape + (self.num_segments,), dtype=np.int64)
        for s in range(self.num_segments):
            out[..., s] = (indices >> (s * self.segment_bits)) & mask
        return out

    def forward(self, indices: np.ndarray) -> Tensor:
        # indices: (batch, k) int; returns (batch, num_deltas) logits.
        batch, k = indices.shape
        seg = self.segment_ids(indices)  # (batch, k, S)
        token = None
        for s in range(self.num_segments):
            emb = self.segments[s](seg[..., s].reshape(-1))
            token = emb if token is None else token + emb
        dim = token.shape[-1]
        tokens = token.reshape(batch, k, dim)
        attended = self.attention(tokens)          # (batch, k, dim)
        pooled = attended.mean(axis=1)             # (batch, dim)
        return self.head(pooled)


class TransFetchPrefetcher(Prefetcher):
    name = "TransFetch"

    def __init__(self, context: int = 8, delta_range: int = 64,
                 dim: int = 16, num_segments: int = 3, segment_bits: int = 8,
                 top_k: int = 2, threshold: float = 0.5,
                 predict_every: int = 1, seed: int = 0) -> None:
        self.context = context
        self.delta_range = delta_range
        self.num_deltas = 2 * delta_range + 1
        self.top_k = top_k
        self.threshold = threshold
        self.predict_every = predict_every
        rng = np.random.default_rng(seed)
        self.model = _TransFetchModel(num_segments, segment_bits, dim,
                                      self.num_deltas, rng)
        self._window: Deque[int] = deque(maxlen=context)
        self._step = 0
        self.trained = False

    def reset(self) -> None:
        self._window.clear()
        self._step = 0

    # ------------------------------------------------------------------
    def _labels_for(self, keys: np.ndarray, pos: int, horizon: int) -> np.ndarray:
        """Multi-hot vector of in-range deltas among the next accesses."""
        label = np.zeros(self.num_deltas, dtype=np.float32)
        base = keys[pos]
        for future in keys[pos + 1: pos + 1 + horizon]:
            delta = int(future - base)
            if -self.delta_range <= delta <= self.delta_range:
                label[delta + self.delta_range] = 1.0
        return label

    def train(self, trace: Trace, epochs: int = 2, batch_size: int = 32,
              horizon: int = 8, lr: float = 3e-3, max_samples: int = 2000,
              seed: int = 0) -> List[float]:
        """Offline training on (context -> future-delta bitmap) pairs."""
        from ..traces.access import remap_to_dense

        keys, _ = remap_to_dense(trace)
        n = len(keys)
        rng = np.random.default_rng(seed)
        valid = np.arange(self.context, n - horizon - 1)
        if len(valid) > max_samples:
            valid = rng.choice(valid, size=max_samples, replace=False)

        def loss_of(batch_pos: np.ndarray) -> Tensor:
            inputs = np.stack([keys[p - self.context:p] for p in batch_pos])
            labels = np.stack([self._labels_for(keys, p, horizon)
                               for p in batch_pos])
            return bce_with_logits(self.model(inputs), Tensor(labels))

        losses = train_minibatches(Adam(self.model.parameters(), lr=lr),
                                   valid, loss_of, epochs, batch_size, rng)
        self.trained = True
        return losses

    # ------------------------------------------------------------------
    def observe(self, key: int, pc: int = 0, hit: bool = True) -> List[int]:
        self._window.append(key)
        self._step += 1
        if (not self.trained or len(self._window) < self.context
                or self._step % self.predict_every != 0):
            return []
        inputs = np.asarray(self._window, dtype=np.int64).reshape(1, -1)
        logits = self.model(inputs).data[0]
        probs = 1.0 / (1.0 + np.exp(-logits))
        order = np.argsort(-probs)[: self.top_k]
        prefetches = []
        for cls in order:
            if probs[cls] < self.threshold:
                continue
            delta = int(cls) - self.delta_range
            if delta != 0:
                prefetches.append(key + delta)
        return prefetches

"""RecMG prefetch model (paper §V-B, Fig. 5b).

Two seq2seq LSTM stacks with attention followed by a fully connected
projection.  The encoder/decoder "naturally generates a dense
representation of embedding vectors in a continuous space" (paper §V);
we exploit that directly: the model emits ``output_len`` *vectors* in
the row-embedding space, the bidirectional Chamfer loss (Eq. 5) matches
the emitted set against the embeddings of the evaluation window, and
decoding maps each emitted vector to the nearest row-embedding bucket
and then to the hottest miss candidate hashed into that bucket.

This sidesteps the precision wall of regressing a raw scalar index over
a large vocabulary while preserving the paper's structure: sequence
output, Chamfer training with a decoupled (longer) evaluation window,
and an index-producing projection.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import Embedding, Linear, Module, StackedSeq2Seq, Tensor, softmax
from ..nn import init as initializers
from .config import RecMGConfig
from .features import EncodedChunks, chunk_inputs


class BucketDecoder:
    """Maps bucket scores to embedding-vector ids.

    ``bucket_hot[b]`` is the dense id of the most frequently *missing*
    vector whose hash bucket is ``b`` (or -1 when no miss candidate
    hashes there).  Decoding = the highest-scoring bucket that has a
    candidate, then that candidate; when no bucket has one, the global
    hottest miss candidate (``fallback``).
    """

    def __init__(self, bucket_hot: np.ndarray, fallback: int) -> None:
        self.bucket_hot = np.asarray(bucket_hot, dtype=np.int64)
        self.fallback = int(fallback)
        #: Additive -inf over the buckets without a candidate; ``None``
        #: when every bucket has one and there is nothing to mask.
        #: float32 holds both values and widens neither logit dtype.
        empty = self.bucket_hot < 0
        self._empty_mask = (np.where(empty, -np.inf, 0.0).astype(np.float32)
                            if empty.any() else None)

    @classmethod
    def from_miss_ids(cls, miss_dense_ids: np.ndarray,
                      hash_buckets: int) -> "BucketDecoder":
        ids, counts = np.unique(miss_dense_ids, return_counts=True)
        bucket_hot = np.full(hash_buckets, -1, dtype=np.int64)
        # Per bucket the highest count, lowest dense id among equals:
        # sort by (bucket, -count, id) and keep each bucket's first row.
        order = np.lexsort((ids, -counts, ids % hash_buckets))
        ranked = ids[order]
        buckets = ranked % hash_buckets
        first = np.ones(len(ranked), dtype=bool)
        first[1:] = buckets[1:] != buckets[:-1]
        bucket_hot[buckets[first]] = ranked[first]
        fallback = int(ids[np.argmax(counts)]) if len(ids) else 0
        return cls(bucket_hot, fallback)

    def decode_buckets(self, logits: np.ndarray) -> np.ndarray:
        """``logits``: (..., num_buckets) scores, left untouched;
        returns dense ids of the highest-scoring bucket that has a miss
        candidate."""
        if self._empty_mask is not None:
            logits = logits + self._empty_mask
        return self._hot_ids(logits)

    def decode_buckets_(self, logits: np.ndarray) -> np.ndarray:
        """:meth:`decode_buckets` masking ``logits`` in place — for a
        caller that owns the array and drops it afterwards."""
        if self._empty_mask is not None:
            logits += self._empty_mask
        return self._hot_ids(logits)

    def _hot_ids(self, masked: np.ndarray) -> np.ndarray:
        best = np.argmax(masked.reshape(-1, masked.shape[-1]), axis=1)
        ids = self.bucket_hot[best]
        ids = np.where(ids >= 0, ids, self.fallback)
        return ids.reshape(masked.shape[:-1])


class PrefetchModel(Module):
    """Sequence model: chunk of accesses -> vectors -> indices to prefetch."""

    def __init__(self, config: RecMGConfig, num_tables: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(config.seed + 1)
        self.config = config
        self.decoder: Optional[BucketDecoder] = None
        self.table_embedding = Embedding(max(1, num_tables), config.embed_dim,
                                         rng=rng)
        self.row_embedding = Embedding(config.hash_buckets, config.embed_dim,
                                       rng=rng)
        self.backbone = StackedSeq2Seq(
            input_size=2 * config.embed_dim + 2,
            hidden_size=config.hidden,
            out_steps=config.output_len,
            num_stacks=config.prefetch_stacks,
            rng=rng,
        )
        # "Fully Connected & Projection" (Fig. 5b): attention vectors ->
        # scores over index buckets; the emitted *point* scored by the
        # Chamfer loss is the probability-weighted codeword.
        self.projection = Linear(config.hidden, config.hidden, rng=rng)
        self.head = Linear(config.hidden, config.hash_buckets, rng=rng)
        # Fixed random codebook defining the target space: one point per
        # hash bucket.  Keeping it frozen makes the Chamfer objective
        # stationary (trainable targets would drift under the encoder's
        # own updates); soft bucket scores are differentiable through
        # the expected codeword.
        self.target_table = Tensor(initializers.normal(
            (config.hash_buckets, config.embed_dim), rng, std=1.0))

    def forward_logits(self, chunks: EncodedChunks,
                       sel: Optional[np.ndarray] = None) -> Tensor:
        """Bucket scores, shape (batch, output_len, hash_buckets)."""
        inputs = chunk_inputs(chunks, sel, self.table_embedding,
                              self.row_embedding, taped=True)
        states = self.backbone(inputs)                  # (B, P, H)
        batch, steps, hidden = states.shape
        hidden_flat = states.reshape(batch * steps, hidden)
        projected = self.projection(hidden_flat).tanh()
        logits = self.head(projected)
        return logits.reshape(batch, steps, self.config.hash_buckets)

    def infer_logits(self, chunks: EncodedChunks,
                     sel: Optional[np.ndarray] = None) -> np.ndarray:
        """Tape-free twin of :meth:`forward_logits` (which stays the
        training path): same operations in the same order on plain
        arrays in the weights' dtype — the tape's logits bit for bit
        (``CachingModel.infer``)."""
        states = self.backbone.infer(chunk_inputs(
            chunks, sel, self.table_embedding, self.row_embedding))
        batch, steps, hidden = states.shape
        projected = self.projection.infer(states.reshape(batch * steps, hidden))
        logits = self.head.infer(np.tanh(projected, out=projected))
        return logits.reshape(batch, steps, self.config.hash_buckets)

    def forward(self, chunks: EncodedChunks,
                sel: Optional[np.ndarray] = None) -> Tensor:
        """Emitted points (expected codewords), (batch, output_len, dim)."""
        logits = self.forward_logits(chunks, sel=sel)
        probs = softmax(logits, axis=-1)               # (B, P, K)
        return probs @ self.target_table                # (B, P, D)

    # ------------------------------------------------------------------
    def target_points(self, hashed_window: np.ndarray) -> Tensor:
        """Codebook points of the evaluation-window ids (constants)."""
        batch, window = hashed_window.shape
        points = self.target_table.data[hashed_window.reshape(-1)]
        return Tensor(points.reshape(batch, window, self.config.embed_dim))

    def set_decoder(self, decoder: BucketDecoder) -> None:
        """Attach the bucket decoder (built during fit from miss ids)."""
        self.decoder = decoder

    def predict_indices(self, chunks: EncodedChunks, encoder,
                        sel: Optional[np.ndarray] = None) -> np.ndarray:
        """Dense embedding-vector ids to prefetch, (batch, output_len)."""
        if self.decoder is None:
            raise RuntimeError("no decoder attached; call set_decoder()")
        return self.decoder.decode_buckets_(
            self.infer_logits(chunks, sel=sel))

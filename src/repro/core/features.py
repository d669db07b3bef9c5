"""Feature encoding for the RecMG models (paper Fig. 5, left side).

Both models consume chunks of ``input_len`` consecutive accesses, each
represented by its (table id, row id).  Following the paper, sequences
are truncated into fixed-size chunks regardless of query boundaries —
"an input sequence may come from the same or multiple inference
queries" — so cross-query correlations remain visible.

Per access we build three channels:

* an embedding of the **table id**,
* an embedding of the **hashed row id** (the paper's "Hashing" box:
  the raw row vocabulary is too large to embed directly),
* the **normalized dense index** as a scalar — the continuous value the
  prefetch model regresses and the Chamfer loss scores.

The dense vocabulary comes from :func:`repro.traces.access.remap_to_dense`,
which keeps same-table rows contiguous so nearby dense ids are
semantically related (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..nn import Embedding, Tensor, concat
from ..traces.access import ROW_BITS, Trace, remap_to_dense
from .config import RecMGConfig


@dataclass
class EncodedChunks:
    """Fixed-size chunks ready for model consumption.

    All arrays have shape (num_chunks, input_len) except ``starts``
    which records each chunk's starting offset in the source trace.
    ``freq`` is the normalized log access frequency of each vector —
    popularity is the strongest predictor of cache-friendliness, and an
    access counter is cheaply available online.
    """

    table_ids: np.ndarray
    hashed_rows: np.ndarray
    norm_index: np.ndarray
    freq: np.ndarray
    dense_ids: np.ndarray
    starts: np.ndarray

    def __len__(self) -> int:
        return int(self.table_ids.shape[0])

    @classmethod
    def single(cls, table_ids: np.ndarray, hashed_rows: np.ndarray,
               norm_index: np.ndarray, freq: np.ndarray) -> "EncodedChunks":
        """One raw chunk as a batch of one (its dense ids unknown)."""
        return cls(table_ids.reshape(1, -1), hashed_rows.reshape(1, -1),
                   norm_index.reshape(1, -1), freq.reshape(1, -1),
                   dense_ids=np.zeros_like(table_ids).reshape(1, -1),
                   starts=np.zeros(1, dtype=np.int64))


def chunk_inputs(chunks: EncodedChunks, sel: Optional[np.ndarray],
                 table_embedding: Embedding, row_embedding: Embedding,
                 taped: bool = False):
    """Both models' input: ``[table emb | row emb | norm index | freq]``
    per access of the ``sel`` chunks (``None``: all), shape (batch,
    input_len, 2 * embed_dim + 2).  A plain array in the embeddings'
    dtype for inference; with ``taped`` the same values as a graph node
    (``take_rows``/``concat``) so embedding gradients flow.
    Out-of-range ids raise ``IndexError``.
    """
    if sel is None:
        sel = slice(None)
    tables, rows = chunks.table_ids[sel], chunks.hashed_rows[sel]
    batch, length = tables.shape
    dim = table_embedding.dim
    out = np.empty((batch, length, 2 * dim + 2),
                   dtype=table_embedding.weight.data.dtype)
    out[:, :, 2 * dim] = chunks.norm_index[sel]
    out[:, :, 2 * dim + 1] = chunks.freq[sel]
    if taped:
        features = concat([table_embedding(tables.reshape(-1)),
                           row_embedding(rows.reshape(-1)),
                           Tensor(out[:, :, 2 * dim:].reshape(-1, 2))], axis=1)
        return features.reshape(batch, length, 2 * dim + 2)
    out[:, :, :dim] = table_embedding.infer(tables)
    out[:, :, dim:2 * dim] = row_embedding.infer(rows)
    return out


class FeatureEncoder:
    """Maps traces to model inputs over a fixed dense vocabulary."""

    def __init__(self, config: RecMGConfig) -> None:
        self.config = config
        self._key_to_dense: Optional[Dict[int, int]] = None
        self._table_to_id: Optional[Dict[int, int]] = None
        self._freq_table: Optional[np.ndarray] = None
        # Sorted-key mirrors of the two dicts: dense ids are assigned in
        # sorted-key order, so bulk lookups reduce to np.searchsorted.
        self._sorted_keys: Optional[np.ndarray] = None
        self._sorted_tables: Optional[np.ndarray] = None
        #: Lazily built table-feature index per in-vocabulary dense id
        #: (serving segments carry dense ids only; see
        #: :meth:`tables_for_dense`).
        self._dense_tables: Optional[np.ndarray] = None
        self.vocab_size = 0
        self.num_tables = 0

    @property
    def fitted(self) -> bool:
        return self._key_to_dense is not None

    def fit(self, trace: Trace) -> "FeatureEncoder":
        """Learn the dense vocabulary, table universe and per-vector
        access frequencies from ``trace``."""
        dense, mapping = remap_to_dense(trace)
        self._key_to_dense = mapping
        self._sorted_keys = None    # invalidate searchsorted mirrors
        self._sorted_tables = None
        self._dense_tables = None
        self.vocab_size = len(mapping)
        tables = np.unique(trace.table_ids)
        self._table_to_id = {int(t): i for i, t in enumerate(tables)}
        self.num_tables = len(tables)
        counts = np.bincount(dense, minlength=self.vocab_size).astype(np.float64)
        log_counts = np.log1p(counts)
        peak = log_counts.max() if log_counts.size else 1.0
        self._freq_table = log_counts / max(peak, 1e-9)
        return self

    def freq_values(self, dense: np.ndarray) -> np.ndarray:
        """Normalized log-frequency per dense id (0 for unseen ids)."""
        if self._freq_table is None:
            raise RuntimeError("encoder not fitted")
        dense = np.asarray(dense, dtype=np.int64)
        clipped = np.clip(dense, 0, self.vocab_size - 1)
        values = self._freq_table[clipped]
        return np.where(dense < self.vocab_size, values, 0.0)

    # ------------------------------------------------------------------
    def dense_ids(self, trace: Trace) -> np.ndarray:
        """Dense id per access.

        Keys unseen at fit time receive *unique* ids above the
        vocabulary (``vocab_size + packed_key``): they still flow
        through hashing/normalization for the models, but they can never
        alias a trained vector — aliasing would fabricate buffer hits.
        """
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        keys = trace.keys()
        if self._sorted_keys is None:
            self._sorted_keys = np.sort(
                np.fromiter(self._key_to_dense, dtype=np.int64,
                            count=len(self._key_to_dense)))
        vocab = self.vocab_size
        if vocab == 0:
            return keys.copy()
        idx = np.searchsorted(self._sorted_keys, keys)
        known = ((idx < vocab)
                 & (self._sorted_keys[np.minimum(idx, vocab - 1)] == keys))
        return np.where(known, idx, vocab + keys)

    def table_indices(self, trace: Trace) -> np.ndarray:
        return self._map_tables(trace.table_ids)

    def _map_tables(self, tables: np.ndarray) -> np.ndarray:
        """Raw table ids -> model table-feature indices (tables unseen
        at fit time wrap into the embedding by modulo)."""
        num = max(1, self.num_tables)
        if self._sorted_tables is None:
            self._sorted_tables = np.sort(
                np.fromiter(self._table_to_id, dtype=np.int64,
                            count=len(self._table_to_id)))
        if self.num_tables == 0:
            return tables % num
        idx = np.searchsorted(self._sorted_tables, tables)
        known = ((idx < self.num_tables)
                 & (self._sorted_tables[np.minimum(idx, self.num_tables - 1)]
                    == tables))
        return np.where(known, idx, tables % num)

    def tables_for_dense(self, dense: np.ndarray) -> np.ndarray:
        """Model table-feature index per *dense* id — the lookup the
        online serving path needs, where segments carry dense ids but
        no trace.

        In-vocabulary ids resolve through a lazily built per-id table
        (dense id ``i`` is the ``i``-th sorted packed key, whose high
        bits are its table).  Spillover ids (``>= vocab_size``) encode
        ``vocab_size + packed_key`` (:meth:`dense_ids`), so their table
        is recovered from the packed key they carry — identical to
        what :meth:`table_indices` would produce from the source trace.
        """
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        dense = np.asarray(dense, dtype=np.int64)
        vocab = self.vocab_size
        if vocab == 0:
            return self._map_tables(dense >> ROW_BITS)
        if self._dense_tables is None:
            if self._sorted_keys is None:
                self._sorted_keys = np.sort(
                    np.fromiter(self._key_to_dense, dtype=np.int64,
                                count=len(self._key_to_dense)))
            self._dense_tables = np.ascontiguousarray(
                self._map_tables(self._sorted_keys >> ROW_BITS))
        in_vocab = dense < vocab
        known = self._dense_tables[np.clip(dense, 0, vocab - 1)]
        if in_vocab.all():
            return known
        # Negative packed keys where in_vocab — masked out by the where.
        spilled = self._map_tables((dense - vocab) >> ROW_BITS)
        return np.where(in_vocab, known, spilled)

    def normalize(self, dense: np.ndarray) -> np.ndarray:
        """Dense ids -> [0, 1] scalars (the regression target space).

        Unseen ids (>= vocab_size) clip to 1.0.
        """
        values = dense.astype(np.float64) / max(1, self.vocab_size - 1)
        return np.clip(values, 0.0, 1.0)

    def denormalize(self, values: np.ndarray) -> np.ndarray:
        """Model outputs back to dense ids (rounded, clipped)."""
        scaled = np.clip(values, 0.0, 1.0) * max(1, self.vocab_size - 1)
        return np.rint(scaled).astype(np.int64)

    # ------------------------------------------------------------------
    def encode_chunks(self, trace: Trace, stride: Optional[int] = None
                      ) -> EncodedChunks:
        """Cut the trace into ``input_len`` chunks (stride defaults to
        the chunk length, i.e. non-overlapping)."""
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        length = self.config.input_len
        dense = self.dense_ids(trace)
        if len(dense) < length:
            raise ValueError(
                f"trace shorter ({len(dense)}) than one chunk ({length})"
            )
        return self._chunked(dense, self.table_indices(trace),
                             stride or length)

    def _chunked(self, dense: np.ndarray, tables: np.ndarray,
                 stride: int) -> EncodedChunks:
        """Per-access channels cut into ``input_len`` chunks every
        ``stride`` accesses: reshaped views of the per-access arrays
        when the chunks do not overlap, a gather otherwise."""
        length = self.config.input_len
        starts = np.arange(0, len(dense) - length + 1, stride)
        idx = None if stride == length else starts[:, None] + np.arange(length)

        def cut(values: np.ndarray) -> np.ndarray:
            if idx is None:
                return values[:len(starts) * length].reshape(-1, length)
            return values[idx]

        return EncodedChunks(
            table_ids=cut(tables),
            hashed_rows=cut(dense % self.config.hash_buckets),
            norm_index=cut(self.normalize(dense)),
            freq=cut(self.freq_values(dense)),
            dense_ids=cut(dense),
            starts=starts,
        )

    def encode_dense_chunks(self, dense: np.ndarray) -> EncodedChunks:
        """Encode a live *dense-id* segment into non-overlapping chunks
        — the serving-side twin of :meth:`encode_chunks`, for call
        sites that hold a stream of dense ids rather than a trace (the
        priority provider, capacity-matched fine-tuning).

        The tail is right-padded by repeating the segment's last access
        so any length >= 1 encodes; pad positions are real features of
        a repeated access, and callers slice per-position model outputs
        back to the true length.  For a segment whose length is a
        multiple of ``input_len``, the features are identical to what
        :meth:`encode_chunks` produces from the source trace.
        """
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        dense = np.asarray(dense, dtype=np.int64)
        if dense.size == 0:
            raise ValueError("cannot encode an empty segment")
        length = self.config.input_len
        pad = (-dense.size) % length
        if pad:
            dense = np.concatenate([dense, np.full(pad, dense[-1])])
        return self._chunked(dense, self.tables_for_dense(dense), length)

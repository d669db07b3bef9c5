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
semantically related (see DESIGN.md).  The encoder keeps it as the one
sorted array of distinct packed keys that call returns: a key's dense
id is its rank there, and every lookup (keys to dense ids, dense ids to
table features) is an ``np.searchsorted`` or a gather over arrays fixed
at fit time.  Every model input — training chunks, the priority
provider's served blocks, the prefetch adapter's window — is built by
one path, :meth:`FeatureEncoder.encode_dense_chunks`, which derives
every channel from the dense ids alone (a trace goes through
:meth:`FeatureEncoder.encode_chunks`, its dense ids' whole-chunk
prefix).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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


def chunk_inputs(chunks: EncodedChunks, sel: Optional[np.ndarray],
                 table_embedding: Embedding, row_embedding: Embedding,
                 taped: bool = False):
    """Both models' input: ``[table emb | row emb | norm index | freq]``
    per access of the ``sel`` chunks (``None``: all), shape (batch,
    input_len, 2 * embed_dim + 2).  A plain array in the embeddings'
    dtype for inference, a transposed view of a time-major buffer, so
    the time-major copy :meth:`LSTM.infer` steps over costs nothing;
    with ``taped`` the same values as a graph node (a row gather and
    ``concat``) so embedding gradients flow.  Out-of-range ids raise
    ``IndexError``.
    """
    if sel is None:
        sel = slice(None)
    tables, rows = chunks.table_ids[sel], chunks.hashed_rows[sel]
    batch, length = tables.shape
    dim = table_embedding.dim
    out = np.empty((length, batch, 2 * dim + 2),
                   dtype=table_embedding.weight.data.dtype).transpose(1, 0, 2)
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


def _ranks(sorted_values: np.ndarray, values: np.ndarray
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Each value's insertion index in ``sorted_values`` (distinct,
    ascending) and whether it is there — its rank when it is.  Past
    ``values`` and the indices it holds one full-length temporary: the
    clip and the gather are one ``np.take`` (an index at the end clips
    to the last value, which is smaller, so it reads as absent)."""
    idx = np.searchsorted(sorted_values, values)
    if len(sorted_values) == 0:
        return idx, np.zeros(idx.shape, dtype=bool)
    return idx, np.take(sorted_values, idx, mode="clip") == values


class FeatureEncoder:
    """Maps traces to model inputs over a fixed dense vocabulary.

    The vocabulary is one sorted array of the distinct packed keys seen
    at fit time: dense id ``i`` is ``keys[i]``, so every key lookup is
    an ``np.searchsorted`` over it.  Beside it the encoder keeps the
    frequency per dense id and, per table, the sorted distinct table ids
    and the first dense id of each — arrays only, no per-key Python
    object and no second per-key record.
    """

    def __init__(self, config: RecMGConfig) -> None:
        self.config = config
        self._keys: Optional[np.ndarray] = None
        self._tables: Optional[np.ndarray] = None
        self._freq_table: Optional[np.ndarray] = None
        #: First dense id of each fitted table: the keys sort by table
        #: first, so a table's keys hold one contiguous dense-id range.
        self._table_starts: Optional[np.ndarray] = None
        self.vocab_size = 0
        self.num_tables = 0

    @property
    def fitted(self) -> bool:
        return self._keys is not None

    def fit(self, trace: Trace) -> "FeatureEncoder":
        """Learn the dense vocabulary, table universe and per-vector
        access frequencies from ``trace``."""
        dense, keys = remap_to_dense(trace)
        counts = np.bincount(dense, minlength=len(keys)).astype(np.float64)
        log_counts = np.log1p(counts)
        peak = log_counts.max() if log_counts.size else 1.0
        return self.set_vocabulary(keys, np.unique(trace.table_ids),
                                   log_counts / max(peak, 1e-9))

    def vocabulary(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(keys, tables, freq)``: the sorted distinct packed keys and
        table ids, and the normalized log-frequency per dense id — all
        :meth:`set_vocabulary` needs to restore this encoder."""
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        return self._keys, self._tables, self._freq_table

    def set_vocabulary(self, keys: np.ndarray, tables: np.ndarray,
                       freq: np.ndarray) -> "FeatureEncoder":
        """Install a vocabulary as :meth:`vocabulary` returns it (what
        :meth:`fit` learns and a saved system restores)."""
        self._keys = np.asarray(keys, dtype=np.int64)
        self._tables = np.asarray(tables, dtype=np.int64)
        self._freq_table = np.asarray(freq, dtype=np.float64)
        self.vocab_size = len(self._keys)
        self.num_tables = len(self._tables)
        self._table_starts = np.searchsorted(self._keys,
                                             self._tables << ROW_BITS)
        return self

    def freq_values(self, dense: np.ndarray) -> np.ndarray:
        """Normalized log-frequency per dense id (0 for unseen ids)."""
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        dense = np.asarray(dense, dtype=np.int64)
        if self.vocab_size == 0:
            return np.zeros(dense.shape)
        clipped = np.clip(dense, 0, self.vocab_size - 1)
        values = self._freq_table[clipped]
        return np.where(dense < self.vocab_size, values, 0.0)

    # ------------------------------------------------------------------
    def dense_ids(self, trace: Trace) -> np.ndarray:
        """Dense id per access: the key's rank in the vocabulary.

        Keys unseen at fit time receive *unique* ids above the
        vocabulary (``vocab_size + packed_key``): they still flow
        through hashing/normalization for the models, but they can never
        alias a trained vector — aliasing would fabricate buffer hits.
        """
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        keys = trace.keys()
        idx, known = _ranks(self._keys, keys)
        # Fill only the unseen positions, in place: no third id array.
        np.add(keys, self.vocab_size, out=idx, where=~known)
        return idx

    def _map_tables(self, tables: np.ndarray) -> np.ndarray:
        """Raw table ids -> model table-feature indices (tables unseen
        at fit time wrap into the embedding by modulo)."""
        idx, known = _ranks(self._tables, tables)
        return np.where(known, idx, tables % max(1, self.num_tables))

    def tables_for_dense(self, dense: np.ndarray) -> np.ndarray:
        """Model table-feature index per (non-negative) *dense* id — the
        lookup every encode path uses, since a dense id carries its
        table.

        An in-vocabulary id's table is the fitted table whose dense-id
        range holds it.  Spillover ids (``>= vocab_size``) encode
        ``vocab_size + packed_key`` (:meth:`dense_ids`), so their table
        is recovered from the packed key they carry.
        """
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        dense = np.asarray(dense, dtype=np.int64)
        vocab = self.vocab_size
        in_vocab = dense < vocab
        known = np.searchsorted(self._table_starts, dense, side="right") - 1
        if in_vocab.all():
            return known
        # Negative packed keys where in_vocab — masked out by the where.
        spilled = self._map_tables((dense - vocab) >> ROW_BITS)
        return np.where(in_vocab, known, spilled)

    def normalize(self, dense: np.ndarray) -> np.ndarray:
        """Dense ids -> [0, 1] scalars (the regression target space).

        Unseen ids (>= vocab_size) map to 1.0.
        """
        values = np.clip(dense / max(1, self.vocab_size - 1), 0.0, 1.0)
        values[dense >= self.vocab_size] = 1.0
        return values

    # ------------------------------------------------------------------
    def encode_chunks(self, trace: Trace) -> EncodedChunks:
        """Cut the trace into non-overlapping ``input_len`` chunks, the
        ragged tail dropped: :meth:`encode_dense_chunks` of the dense
        ids of its whole-chunk prefix."""
        if not self.fitted:
            raise RuntimeError("encoder not fitted")
        length = self.config.input_len
        dense = self.dense_ids(trace)
        if len(dense) < length:
            raise ValueError(
                f"trace shorter ({len(dense)}) than one chunk ({length})"
            )
        whole = len(dense) - len(dense) % length
        return self.encode_dense_chunks(dense[:whole])

    def encode_dense_chunks(self, dense: np.ndarray) -> EncodedChunks:
        """Encode a *dense-id* segment into non-overlapping chunks — the
        one path every model input takes: :meth:`encode_chunks` over a
        trace, the priority provider over a served block, the prefetch
        adapter over its window, capacity-matched fine-tuning over a
        recent stream.

        The tail is right-padded by repeating the segment's last access
        so any length >= 1 encodes; pad positions are real features of
        a repeated access, and callers slice per-position model outputs
        back to the true length.  Every channel is a per-access array
        reshaped to ``(chunks, input_len)``.
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
        shape = (-1, length)
        return EncodedChunks(
            table_ids=self.tables_for_dense(dense).reshape(shape),
            hashed_rows=(dense % self.config.hash_buckets).reshape(shape),
            norm_index=self.normalize(dense).reshape(shape),
            freq=self.freq_values(dense).reshape(shape),
            dense_ids=dense.reshape(shape),
            starts=np.arange(0, dense.size, length),
        )

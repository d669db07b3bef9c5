"""Core datatypes for embedding-vector access traces.

A trace is the fundamental evaluation artifact of the paper: an ordered
sequence of accesses to embedding vectors, each identified by an
``(table_id, row_id)`` pair.  For cache/prefetch simulation we also need
a single flat integer *key* per vector; we pack the pair into an int64
(``table_id << ROW_BITS | row_id``), mirroring how the paper treats
"each embedding-vector index as a memory address".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence, Tuple

import numpy as np

#: Number of low-order bits reserved for the row id inside a packed key.
ROW_BITS = 40
_ROW_MASK = (1 << ROW_BITS) - 1


class Access(NamedTuple):
    """A single embedding-vector access."""

    table_id: int
    row_id: int

    @property
    def key(self) -> int:
        return pack_key(self.table_id, self.row_id)


def pack_key(table_id: int, row_id: int) -> int:
    """Pack (table, row) into one int64 key."""
    return (int(table_id) << ROW_BITS) | int(row_id)


def unpack_key(key: int) -> Tuple[int, int]:
    """Invert :func:`pack_key`."""
    return int(key) >> ROW_BITS, int(key) & _ROW_MASK


@dataclass
class Trace:
    """An ordered sequence of embedding-vector accesses.

    Stored as parallel int64 arrays for speed.  ``query_offsets`` is an
    optional array marking where each DLRM inference query starts in the
    stream (used by the pooling-factor statistics and the DLRM inference
    engine); ``query_offsets[i]`` is the index of the first access of
    query ``i`` and a final sentinel equals ``len(trace)``.
    """

    table_ids: np.ndarray
    row_ids: np.ndarray
    query_offsets: Optional[np.ndarray] = None
    name: str = ""

    def __post_init__(self) -> None:
        self.table_ids = np.asarray(self.table_ids, dtype=np.int64)
        self.row_ids = np.asarray(self.row_ids, dtype=np.int64)
        if self.table_ids.shape != self.row_ids.shape:
            raise ValueError("table_ids and row_ids must have equal length")
        if self.table_ids.ndim != 1:
            raise ValueError("trace arrays must be one-dimensional")
        if self.query_offsets is not None:
            self.query_offsets = np.asarray(self.query_offsets, dtype=np.int64)
            if len(self.query_offsets) and self.query_offsets[-1] != len(self.table_ids):
                raise ValueError("query_offsets must end with len(trace)")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.table_ids.shape[0])

    def __iter__(self) -> Iterator[Access]:
        for t, r in zip(self.table_ids, self.row_ids):
            yield Access(int(t), int(r))

    def __getitem__(self, idx) -> "Trace":
        if isinstance(idx, slice):
            return Trace(self.table_ids[idx], self.row_ids[idx], name=self.name)
        raise TypeError("Trace indexing supports slices only; iterate for items")

    # ------------------------------------------------------------------
    def keys(self) -> np.ndarray:
        """Packed int64 key per access."""
        return (self.table_ids << ROW_BITS) | self.row_ids

    def unique_keys(self) -> np.ndarray:
        return np.unique(self.keys())

    @property
    def num_unique(self) -> int:
        return int(self.unique_keys().shape[0])

    @property
    def num_tables(self) -> int:
        return int(np.unique(self.table_ids).shape[0])

    def pooling_factors(self) -> np.ndarray:
        """Accesses per query (the paper's pooling factor distribution)."""
        if self.query_offsets is None:
            raise ValueError("trace has no query boundaries")
        return np.diff(self.query_offsets)

    def head(self, n: int) -> "Trace":
        """First ``n`` accesses (query boundaries dropped)."""
        return Trace(self.table_ids[:n], self.row_ids[:n], name=self.name)

    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(cls, pairs: Sequence[Tuple[int, int]], name: str = "") -> "Trace":
        if not len(pairs):
            return cls(np.empty(0, np.int64), np.empty(0, np.int64), name=name)
        arr = np.asarray(pairs, dtype=np.int64)
        return cls(arr[:, 0], arr[:, 1], name=name)

    @classmethod
    def from_keys(cls, keys: np.ndarray, name: str = "") -> "Trace":
        keys = np.asarray(keys, dtype=np.int64)
        return cls(keys >> ROW_BITS, keys & _ROW_MASK, name=name)

    @classmethod
    def concatenate(cls, traces: Sequence["Trace"], name: str = "") -> "Trace":
        return cls(
            np.concatenate([t.table_ids for t in traces]),
            np.concatenate([t.row_ids for t in traces]),
            name=name,
        )

    def split(self, fraction: float) -> Tuple["Trace", "Trace"]:
        """Split into (train, test) at ``fraction`` of the length."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must lie in (0, 1)")
        cut = int(len(self) * fraction)
        return self.head(cut), Trace(
            self.table_ids[cut:], self.row_ids[cut:], name=self.name
        )


def remap_to_dense(trace: Trace) -> Tuple[np.ndarray, np.ndarray]:
    """Map packed keys to a dense [0, num_unique) vocabulary.

    Returns the remapped int64 array and the sorted distinct packed
    keys: dense id ``i`` is ``keys[i]``, so the key array is the whole
    vocabulary and a key's dense id is its ``np.searchsorted`` rank.
    Sorted-key order keeps rows of the same table (and within a table,
    nearby rows) adjacent — the property the prefetch model's index
    regression relies on.
    """
    keys = trace.keys()
    unique = np.unique(keys)
    dense = np.searchsorted(unique, keys)
    return dense.astype(np.int64), unique

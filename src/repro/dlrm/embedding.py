"""Embedding tables and pooled lookups (paper Fig. 2).

Each embedding table maps categorical values (row ids) to dense latent
vectors; a DLRM query activates one or more rows per sparse feature and
the gathered vectors are *pooled* (summed) per table.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np


class EmbeddingTable:
    """One embedding table: ``num_rows x dim`` float matrix."""

    def __init__(self, num_rows: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        if num_rows < 1 or dim < 1:
            raise ValueError("table dimensions must be positive")
        rng = rng or np.random.default_rng(0)
        self.num_rows = num_rows
        self.dim = dim
        self.weights = rng.normal(0.0, 0.1, size=(num_rows, dim))

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.num_rows):
            raise IndexError("embedding row out of range")
        return self.weights[rows]

    def pooled(self, rows: np.ndarray) -> np.ndarray:
        """Sum-pool the selected rows (feature pooling, paper Fig. 2)."""
        if len(rows) == 0:
            return np.zeros(self.dim)
        return self.lookup(rows).sum(axis=0)


class EmbeddingBagCollection:
    """All sparse-feature tables of one DLRM."""

    def __init__(self, num_tables: int, rows_per_table: int, dim: int,
                 seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        self.dim = dim
        self.tables: List[EmbeddingTable] = [
            EmbeddingTable(rows_per_table, dim, rng=rng)
            for _ in range(num_tables)
        ]

    def __len__(self) -> int:
        return len(self.tables)

    def pooled_lookup(self, per_table_rows: Dict[int, np.ndarray]) -> np.ndarray:
        """Pooled vector per table, shape (num_tables, dim); tables
        absent from the query pool to zero."""
        out = np.zeros((len(self.tables), self.dim))
        for table_id, rows in per_table_rows.items():
            out[table_id] = self.tables[table_id].pooled(rows)
        return out

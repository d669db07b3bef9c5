"""Voyager-style hierarchical neural prefetcher (Shi et al., ASPLOS'21).

Voyager decomposes an address into (page, offset) and predicts them with
two output heads over an LSTM, labelling the page head with a one-hot
vector over all unique pages.  Mapped to DLRM, the "page" is the
embedding table and the "offset" is the row — and the paper's key
finding is that the row vocabulary is so large (tens of millions) that
training is infeasible: "training Voyager using this vector as output
leads to out-of-memory (even on CPU with 512GB DDR)".

:func:`estimate_memory_bytes` quantifies that blow-up, and
:class:`VoyagerPrefetcher.train` refuses vocabularies whose estimated
footprint exceeds ``memory_budget_bytes`` — reproducing the negative
result as an explicit, testable behaviour.  At toy scale the model
trains and prefetches normally.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..nn import (Adam, Embedding, Linear, LSTM, Module, Tensor, cross_entropy,
                  train_minibatches)
from ..traces.access import Trace
from .base import Prefetcher


class VoyagerScaleError(RuntimeError):
    """Raised when the output vocabulary would not fit in memory."""


def estimate_memory_bytes(num_pages: int, num_offsets: int,
                          hidden: int = 128, batch: int = 256) -> int:
    """Rough training footprint: output layers + one-hot label batches.

    Dominated by the offset head ``hidden x num_offsets`` (weights,
    gradients, Adam moments: 4 copies) and a batch of one-hot labels.
    """
    head_params = hidden * (num_pages + num_offsets)
    optimizer_copies = 4
    label_batch = batch * (num_pages + num_offsets)
    return 8 * (head_params * optimizer_copies + label_batch)


class _VoyagerModel(Module):
    def __init__(self, num_pages: int, num_offsets: int, dim: int,
                 hidden: int, rng: np.random.Generator) -> None:
        self.page_embedding = Embedding(num_pages, dim, rng=rng)
        self.offset_embedding = Embedding(num_offsets, dim, rng=rng)
        self.lstm = LSTM(2 * dim, hidden, rng=rng)
        self.page_head = Linear(hidden, num_pages, rng=rng)
        self.offset_head = Linear(hidden, num_offsets, rng=rng)

    def forward(self, pages: np.ndarray, offsets: np.ndarray
                ) -> Tuple[Tensor, Tensor]:
        from ..nn import concat

        batch, steps = pages.shape
        page_emb = self.page_embedding(pages.reshape(-1)).reshape(batch, steps, -1)
        offset_emb = self.offset_embedding(offsets.reshape(-1)).reshape(batch, steps, -1)
        inputs = concat([page_emb, offset_emb], axis=2)
        _, (h, _) = self.lstm(inputs)
        return self.page_head(h), self.offset_head(h)


class VoyagerPrefetcher(Prefetcher):
    name = "Voyager"

    def __init__(self, context: int = 8, dim: int = 16, hidden: int = 32,
                 memory_budget_bytes: int = 512 * 2 ** 30,
                 predict_every: int = 1, seed: int = 0) -> None:
        self.context = context
        self.dim = dim
        self.hidden = hidden
        self.memory_budget_bytes = memory_budget_bytes
        self.predict_every = predict_every
        self.seed = seed
        self.model: Optional[_VoyagerModel] = None
        self._window: Deque[Tuple[int, int]] = deque(maxlen=context)
        self._page_of: Dict[int, int] = {}
        self._offset_of: Dict[int, int] = {}
        self._num_pages = 0
        self._num_offsets = 0
        self._step = 0

    def reset(self) -> None:
        self._window.clear()
        self._step = 0

    def train(self, trace: Trace, epochs: int = 2, batch_size: int = 32,
              lr: float = 3e-3, max_samples: int = 2000,
              seed: int = 0) -> List[float]:
        """Offline training; raises :class:`VoyagerScaleError` when the
        unique-row vocabulary would blow the memory budget."""
        pages = trace.table_ids
        offsets = trace.row_ids
        unique_pages = np.unique(pages)
        unique_offsets = np.unique(offsets)
        self._num_pages = len(unique_pages)
        self._num_offsets = len(unique_offsets)
        estimated = estimate_memory_bytes(self._num_pages, self._num_offsets,
                                          hidden=self.hidden, batch=batch_size)
        if estimated > self.memory_budget_bytes:
            raise VoyagerScaleError(
                f"one-hot offset vocabulary of {self._num_offsets} rows needs "
                f"~{estimated / 2**30:.1f} GiB (> budget "
                f"{self.memory_budget_bytes / 2**30:.1f} GiB)"
            )
        self._page_of = {int(p): i for i, p in enumerate(unique_pages)}
        self._offset_of = {int(o): i for i, o in enumerate(unique_offsets)}
        rng = np.random.default_rng(seed)
        self.model = _VoyagerModel(self._num_pages, self._num_offsets,
                                   self.dim, self.hidden, rng)
        page_ids = np.array([self._page_of[int(p)] for p in pages])
        offset_ids = np.array([self._offset_of[int(o)] for o in offsets])
        n = len(page_ids)
        valid = np.arange(self.context, n - 1)
        if len(valid) > max_samples:
            valid = rng.choice(valid, size=max_samples, replace=False)

        def loss_of(batch_pos: np.ndarray) -> Tensor:
            in_pages = np.stack([page_ids[p - self.context:p] for p in batch_pos])
            in_offsets = np.stack([offset_ids[p - self.context:p]
                                   for p in batch_pos])
            page_logits, offset_logits = self.model(in_pages, in_offsets)
            return (cross_entropy(page_logits, page_ids[batch_pos])
                    + cross_entropy(offset_logits, offset_ids[batch_pos]))

        return train_minibatches(Adam(self.model.parameters(), lr=lr), valid,
                                 loss_of, epochs, batch_size, rng)

    def observe(self, key: int, pc: int = 0, hit: bool = True) -> List[int]:
        from ..traces.access import unpack_key, pack_key

        table, row = unpack_key(key)
        page = self._page_of.get(table)
        offset = self._offset_of.get(row)
        self._step += 1
        if page is None or offset is None or self.model is None:
            return []
        self._window.append((page, offset))
        if (len(self._window) < self.context
                or self._step % self.predict_every != 0):
            return []
        pages = np.array([[p for p, _ in self._window]])
        offsets = np.array([[o for _, o in self._window]])
        page_logits, offset_logits = self.model(pages, offsets)
        page_idx = int(np.argmax(page_logits.data[0]))
        offset_idx = int(np.argmax(offset_logits.data[0]))
        inv_page = list(self._page_of)[page_idx] if self._page_of else 0
        inv_offset = list(self._offset_of)[offset_idx] if self._offset_of else 0
        return [pack_key(inv_page, inv_offset)]

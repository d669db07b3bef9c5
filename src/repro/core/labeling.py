"""Ground-truth generation for RecMG training (paper §VI-A).

Pipeline: trace -> OPTgen (at ``optgen_fraction`` of the GPU buffer, the
paper's 80% headroom rule) -> *caching trace* of per-access keep bits ->
*prefetch trace* of the accesses that still miss under OPT.

The caching model trains on (chunk -> keep bits); the prefetch model
trains on (chunk -> window of upcoming OPT misses), with the window
longer than the model output (paper Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..cache.optgen import run_optgen
from ..traces.access import Trace
from .config import RecMGConfig
from .features import EncodedChunks, FeatureEncoder


@dataclass
class TrainingLabels:
    """Everything derived from one OPTgen pass over a training trace."""

    #: Per-access keep-in-buffer bit (the caching trace).
    cache_friendly: np.ndarray
    #: Per-access OPT hit bit.
    opt_hits: np.ndarray
    #: Sorted positions (into the trace) of OPT misses (the prefetch trace).
    miss_positions: np.ndarray
    #: Dense id of every access (aligned with the trace).
    dense_ids: np.ndarray
    #: OPT hit rate achieved by the labeling pass.
    opt_hit_rate: float


def build_labels(trace: Trace, buffer_capacity: int, config: RecMGConfig,
                 encoder: FeatureEncoder) -> TrainingLabels:
    """Run OPTgen and derive caching + prefetch ground truth."""
    budget = max(1, int(buffer_capacity * config.optgen_fraction))
    result = run_optgen(trace, budget)
    miss_positions = np.nonzero(~result.opt_hits)[0]
    return TrainingLabels(
        cache_friendly=result.cache_friendly.astype(np.float64),
        opt_hits=result.opt_hits,
        miss_positions=miss_positions,
        dense_ids=encoder.dense_ids(trace),
        opt_hit_rate=result.hit_rate,
    )


def label_live_window(dense_ids: np.ndarray, buffer_capacity: int,
                      config: RecMGConfig) -> np.ndarray:
    """Per-access keep bits for a *live* dense-id window — the online
    twin of :func:`build_labels`, for capacity-matched fine-tuning
    (:func:`repro.core.training.finetune_for_capacity`).

    Dense ids round-trip through :meth:`Trace.from_keys` losslessly
    (packing splits and re-joins the same 64-bit value), and OPTgen
    only consumes key *identity*, so the same vectorized OPTgen labels
    the window at the same budget (``capacity * optgen_fraction``) as
    offline labeling — the labels match what an offline pass over the
    underlying accesses would produce for this window.
    """
    dense_ids = np.asarray(dense_ids, dtype=np.int64)
    budget = max(1, int(buffer_capacity * config.optgen_fraction))
    result = run_optgen(Trace.from_keys(dense_ids), budget)
    return result.cache_friendly.astype(np.float64)


def window_targets(dense_ids: np.ndarray, buffer_capacity: int,
                   config: RecMGConfig) -> np.ndarray:
    """Chunk-aligned OPTgen keep targets for a live dense-id window.

    :func:`label_live_window` bits, tail-padded with the last bit to a
    whole number of ``input_len`` chunks (mirroring how
    ``FeatureEncoder.encode_dense_chunks`` pads features) and reshaped
    to ``(num_chunks, input_len)`` — directly consumable by
    :func:`repro.core.training.finetune_caching_model` against the
    encoded chunks of the same ids.  ``buffer_capacity`` is the
    capacity the labels are *for*: pass the serving capacity, not the
    capacity the model happened to be trained at (the low-capacity
    lift inversion is exactly that mismatch).
    """
    dense_ids = np.asarray(dense_ids, dtype=np.int64)
    if dense_ids.size == 0:
        raise ValueError("cannot label an empty window")
    bits = label_live_window(dense_ids, buffer_capacity, config)
    length = config.input_len
    pad = (-bits.size) % length
    if pad:
        bits = np.concatenate([bits, np.full(pad, bits[-1])])
    return bits.reshape(-1, length)


def caching_targets(chunks: EncodedChunks,
                    labels: TrainingLabels) -> np.ndarray:
    """Per-chunk binary targets, shape (num_chunks, input_len)."""
    length = chunks.table_ids.shape[1]
    idx = chunks.starts[:, None] + np.arange(length)[None, :]
    return labels.cache_friendly[idx]


def prefetch_targets(chunks: EncodedChunks, labels: TrainingLabels,
                     config: RecMGConfig, encoder: FeatureEncoder,
                     window: Optional[int] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Evaluation windows of upcoming OPT misses per chunk.

    Returns ``(sel, windows_norm, windows_dense)`` where ``sel`` indexes
    chunks that have a full window of future misses, ``windows_norm`` is
    (len(sel), window) of normalized targets for the Chamfer loss, and
    ``windows_dense`` holds the raw dense ids for metric computation.
    """
    window = window or config.eval_window
    length = chunks.table_ids.shape[1]
    miss_positions = labels.miss_positions
    # Vectorized window extraction: one searchsorted over all chunk
    # ends, then a broadcast gather for the selected chunks.
    chunk_ends = chunks.starts + length  # first position after each chunk
    lo = np.searchsorted(miss_positions, chunk_ends)
    full = lo + window <= len(miss_positions)
    sel_arr = np.nonzero(full)[0].astype(np.int64)
    if sel_arr.size == 0:
        raise ValueError("no chunk has a full window of future misses; "
                         "use a longer trace or a smaller window")
    future = miss_positions[lo[full, None] + np.arange(window)[None, :]]
    dense_arr = labels.dense_ids[future]
    return sel_arr, encoder.normalize(dense_arr), dense_arr

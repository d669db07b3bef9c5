"""Offline trainers and evaluators for the RecMG models (paper §VI-A)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..nn import (
    Adam,
    Tensor,
    bce_with_logits,
    l2_loss,
    log_softmax,
    train_minibatches,
)
from ..nn.functional import softmax_
from .caching_model import CachingModel
from .config import RecMGConfig
from .features import EncodedChunks, FeatureEncoder
from .prefetch_model import PrefetchModel


@dataclass
class TrainResult:
    """Training run summary (paper Table III reports these columns)."""

    losses: List[float]
    duration_s: float
    num_parameters: int
    final_metric: float  # accuracy (caching) or correctness (prefetch)


def _train_split(n: int, holdout: float, rng: np.random.Generator
                 ) -> Tuple[np.ndarray, np.ndarray]:
    order = rng.permutation(n)
    cut = max(1, int(n * (1.0 - holdout)))
    return order[:cut], order[cut:] if cut < n else order[:1]


# ----------------------------------------------------------------------
# Caching model
# ----------------------------------------------------------------------
def _class_weights(targets: np.ndarray) -> Tuple[np.float32, np.float32]:
    """Inverse-frequency loss weights ``(positive, negative)``."""
    pos_rate = float(targets.mean())
    return (np.float32(0.5 / max(pos_rate, 1e-3)),
            np.float32(0.5 / max(1.0 - pos_rate, 1e-3)))


def _weighted_bce(model: CachingModel, chunks: EncodedChunks,
                  targets: np.ndarray, sel: np.ndarray,
                  class_weights: Tuple[np.float32, np.float32]) -> Tensor:
    """Class-weighted BCE of the ``sel`` chunks, all of it float32."""
    batch_targets = targets[sel].astype(np.float32)
    weights = np.where(batch_targets > 0.5, *class_weights)
    return bce_with_logits(model(chunks, sel=sel), Tensor(batch_targets),
                           weights=Tensor(weights))


def train_caching_model(model: CachingModel, chunks: EncodedChunks,
                        targets: np.ndarray, config: RecMGConfig,
                        holdout: float = 0.15) -> TrainResult:
    """Binary cross-entropy training against OPTgen keep bits.

    Positive/negative classes are reweighted by inverse frequency so the
    model is not dominated by whichever bit is more common.
    """
    rng = np.random.default_rng(config.seed)
    n = min(len(chunks), config.max_train_chunks)
    train_sel, test_sel = _train_split(n, holdout, rng)
    class_weights = _class_weights(targets[:n])

    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    start = time.perf_counter()
    losses = train_minibatches(
        optimizer, train_sel,
        lambda sel: _weighted_bce(model, chunks, targets, sel, class_weights),
        config.caching_epochs, config.batch_size, rng, config.grad_clip)
    duration = time.perf_counter() - start
    accuracy = caching_accuracy(model, chunks, targets, sel=test_sel)
    return TrainResult(losses=losses, duration_s=duration,
                       num_parameters=model.num_parameters(),
                       final_metric=accuracy)


def clone_caching_model(model: CachingModel) -> CachingModel:
    """Weight-identical deep copy of a caching model.

    :func:`finetune_for_capacity` fine-tunes the clone and leaves the
    original untouched — so the two must share no parameter storage."""
    clone = CachingModel(model.config, model.table_embedding.num_embeddings)
    clone.load_state_dict(model.state_dict())
    return clone


def finetune_caching_model(model: CachingModel, chunks: EncodedChunks,
                           targets: np.ndarray, config: RecMGConfig,
                           epochs: int = 1,
                           lr: Optional[float] = None) -> TrainResult:
    """Few-epoch in-place fine-tune on a recent labeled window.

    The adaptation variant of :func:`train_caching_model`: same weighted
    BCE and clipping, but no holdout split (the window is small and
    recent — every chunk trains) and no shuffling permutation cost per
    epoch beyond the rng draw; ``final_metric`` is *in-sample*
    accuracy, a convergence indicator rather than a generalization
    estimate."""
    rng = np.random.default_rng(config.seed + 13)
    n = len(chunks)
    lr = lr if lr is not None else config.learning_rate
    class_weights = _class_weights(targets[:n])

    optimizer = Adam(model.parameters(), lr=lr)
    start = time.perf_counter()
    losses = train_minibatches(
        optimizer, np.arange(n),
        lambda sel: _weighted_bce(model, chunks, targets, sel, class_weights),
        epochs, config.batch_size, rng, config.grad_clip)
    duration = time.perf_counter() - start
    accuracy = caching_accuracy(model, chunks, targets)
    return TrainResult(losses=losses, duration_s=duration,
                       num_parameters=model.num_parameters(),
                       final_metric=accuracy)


def finetune_for_capacity(model: CachingModel, dense_ids: np.ndarray,
                          buffer_capacity: int, config: RecMGConfig,
                          encoder: FeatureEncoder,
                          epochs: int = 1,
                          lr: Optional[float] = None
                          ) -> Tuple[CachingModel, TrainResult]:
    """Capacity-matched adaptation of an offline caching model.

    OPTgen keep bits are a function of the buffer capacity: a key worth
    keeping in a 20%-capacity buffer often is *not* worth keeping in a
    5% one, so serving a model at a much smaller capacity than its
    training labels assumed inverts its lift — the model overcommits
    the smaller buffer (ROADMAP's low-capacity inversion).  This is
    the offline-to-serving adapter: relabel ``dense_ids`` (a recent
    window of the stream the model will serve, e.g. the training head)
    with OPTgen **at the serving capacity**
    (:func:`repro.core.labeling.window_targets`) and fine-tune a
    *clone* on those labels, once, before serving.  Returns
    ``(tuned_model, train_result)``; the original model is untouched.
    """
    dense_ids = np.asarray(dense_ids, dtype=np.int64)
    from .labeling import window_targets

    targets = window_targets(dense_ids, buffer_capacity, config)
    chunks = encoder.encode_dense_chunks(dense_ids)
    tuned = clone_caching_model(model)
    result = finetune_caching_model(tuned, chunks, targets, config,
                                    epochs=epochs, lr=lr)
    return tuned, result


def caching_accuracy(model: CachingModel, chunks: EncodedChunks,
                     targets: np.ndarray,
                     sel: Optional[np.ndarray] = None) -> float:
    """Per-position binary accuracy against OPTgen labels."""
    if sel is None:
        sel = np.arange(len(chunks))
    predictions = model.predict(chunks, sel=sel)
    return float((predictions == (targets[sel] > 0.5)).mean())


# ----------------------------------------------------------------------
# Prefetch model
# ----------------------------------------------------------------------
def _chamfer_ce_loss(model: PrefetchModel, chunks: EncodedChunks,
                     sel_rows: np.ndarray, windows_hashed: np.ndarray,
                     alpha: Optional[float]) -> Tensor:
    """Bidirectional Chamfer loss (Eq. 5) with cross-entropy distance.

    The prefetch output ``PO`` is scored against a longer evaluation
    window ``W``: ``alpha * d_CM(PO, W) / |PO| + (1 - alpha) *
    d_CM(W, PO) / |W|``, where the reverse term stops every output
    collapsing onto one popular window element.
    The Chamfer structure is kept verbatim — every output point is
    matched to its nearest evaluation-window point and vice versa — but
    the per-pair distance is the cross entropy between the output step's
    bucket distribution and the matched point's bucket.  The matching
    uses the (detached) expected codewords, so it is exactly the Eq. 4
    argmin; CE supplies a gradient that can commit to a bucket, which
    plain L1 on expected codewords cannot (it stalls at the codebook
    centroid).  ``alpha=None`` gives the forward-only ablation (Eq. 4),
    which collapses outputs, reproducing the paper's shortcut problem.
    The matching probabilities come from the tape-free ``softmax_``
    (the taped softmax's values bit for bit), so no softmax graph is
    built only to be read.
    """
    logits = model.forward_logits(chunks, sel=sel_rows)    # (B, P, K)
    batch, steps, num_buckets = logits.shape
    codebook = model.target_table.data                      # (K, D)

    points = softmax_(logits.data.copy()) @ codebook        # (B, P, D)
    targets = codebook[windows_hashed]                      # (B, W, D)
    dist = np.abs(points[:, :, None, :] - targets[:, None, :, :]).mean(axis=3)

    logp = log_softmax(logits.reshape(batch * steps, num_buckets), axis=-1)

    # Forward term: each output point claims its nearest window point.
    fwd_assign = np.argmin(dist, axis=2)                    # (B, P)
    fwd_rows = np.arange(batch * steps)
    fwd_labels = windows_hashed[np.arange(batch)[:, None],
                                fwd_assign].reshape(-1)
    fwd_loss = logp[fwd_rows, fwd_labels].mean() * -1.0
    if alpha is None:
        return fwd_loss

    # Reverse term: each window point trains its nearest output step.
    rev_assign = np.argmin(dist, axis=1)                    # (B, W)
    rev_rows = (np.arange(batch)[:, None] * steps + rev_assign).reshape(-1)
    rev_labels = windows_hashed.reshape(-1)
    rev_loss = logp[rev_rows, rev_labels].mean() * -1.0
    return fwd_loss * alpha + rev_loss * (1.0 - alpha)


def train_prefetch_model(model: PrefetchModel, chunks: EncodedChunks,
                         sel: np.ndarray, windows_dense: np.ndarray,
                         encoder: FeatureEncoder, config: RecMGConfig,
                         loss_kind: str = "chamfer",
                         holdout: float = 0.15) -> TrainResult:
    """Train with the bidirectional Chamfer loss (or ablation variants).

    ``loss_kind``: ``"chamfer"`` (paper Eq. 5), ``"chamfer_forward"``
    (Eq. 4 only — exhibits the collapse shortcut), or ``"l2"`` (the
    Fig. 11 baseline; uses a truncated window equal to the output).
    """
    if loss_kind not in ("chamfer", "chamfer_forward", "l2"):
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    rng = np.random.default_rng(config.seed + 7)
    n = min(len(sel), config.max_train_chunks)
    train_rows, test_rows = _train_split(n, holdout, rng)

    windows_hashed = windows_dense % config.hash_buckets
    alpha = config.alpha if loss_kind == "chamfer" else None

    def loss_of(rows: np.ndarray) -> Tensor:
        if loss_kind == "l2":
            return l2_loss(model(chunks, sel=sel[rows]),
                           model.target_points(windows_hashed[rows]))
        return _chamfer_ce_loss(model, chunks, sel[rows],
                                windows_hashed[rows], alpha=alpha)

    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    start = time.perf_counter()
    losses = train_minibatches(optimizer, train_rows, loss_of,
                               config.prefetch_epochs, config.batch_size,
                               rng, config.grad_clip)
    duration = time.perf_counter() - start
    correctness, _ = prefetch_metrics(model, chunks, sel[test_rows],
                                      windows_dense[test_rows], encoder)
    return TrainResult(losses=losses, duration_s=duration,
                       num_parameters=model.num_parameters(),
                       final_metric=correctness)


def prefetch_metrics(model: PrefetchModel, chunks: EncodedChunks,
                     sel: np.ndarray, windows_dense: np.ndarray,
                     encoder: FeatureEncoder,
                     tolerance: int = 0) -> Tuple[float, float]:
    """(correctness, coverage) of predicted indices vs evaluation windows.

    Correctness: fraction of predicted indices present in their window
    (within ``tolerance`` dense ids).  Coverage (Eq. 2): per-window
    unique overlap |out ∩ gt| / |gt|, averaged.
    """
    predictions = model.predict_indices(chunks, encoder, sel=sel)
    correct = 0
    total = 0
    coverage_sum = 0.0
    for row in range(len(sel)):
        window = windows_dense[row]
        window_set = set(int(w) for w in window)
        predicted = predictions[row]
        for value in predicted:
            total += 1
            if tolerance == 0:
                hit = int(value) in window_set
            else:
                hit = bool(np.any(np.abs(window - value) <= tolerance))
            if hit:
                correct += 1
        overlap = len(set(int(v) for v in predicted) & window_set)
        coverage_sum += overlap / max(1, len(window_set))
    correctness = correct / total if total else 0.0
    coverage = coverage_sum / max(1, len(sel))
    return correctness, coverage


def output_collapse_ratio(model: PrefetchModel, chunks: EncodedChunks,
                          sel: np.ndarray, encoder: FeatureEncoder) -> float:
    """Fraction of chunks whose predicted indices are all identical.

    The paper's motivation for the bidirectional Chamfer term: with the
    forward-only loss "the prediction result tends to have the same
    value in all elements in PO".
    """
    predictions = model.predict_indices(chunks, encoder, sel=sel)
    same = np.all(predictions == predictions[:, :1], axis=1)
    return float(same.mean())

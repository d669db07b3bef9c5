"""Loss functions: the prefetch model's L2 ablation baseline and the
logit losses the caching model and the baselines train on.

The paper's bidirectional Chamfer loss (Eq. 5) is not here: it scores
the prefetch model's bucket distributions against a longer evaluation
window, so it lives beside that model in
:func:`repro.core.training._chamfer_ce_loss`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .functional import log_softmax
from .tensor import Tensor


def l2_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Positionwise mean squared error; the ablation baseline (Fig. 11).

    If ``target`` has more points than ``pred`` it is truncated,
    matching the "evaluation window equal to the output length"
    baseline.  Works for scalar (batch, n) and vector (batch, n, d)
    point sets alike.
    """
    p_len = pred.shape[1]
    trimmed = target[:, :p_len] if target.shape[1] != p_len else target
    diff = pred - trimmed
    return (diff * diff).mean()


def bce_with_logits(logits: Tensor, targets: Tensor,
                    weights: Optional[Tensor] = None) -> Tensor:
    """Numerically stable binary cross entropy on raw logits.

    Uses ``max(x, 0) - x*z + log(1 + exp(-|x|))``.  Optional elementwise
    ``weights`` rescale the per-element loss (for class imbalance).
    """
    relu_part = logits.relu()
    abs_part = ((logits.abs() * -1.0).exp() + 1.0).log()
    loss = relu_part - logits * targets + abs_part
    if weights is not None:
        loss = loss * weights
    return loss.mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Multiclass cross entropy; ``logits`` (batch, classes), integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    logp = log_softmax(logits, axis=-1)
    batch = logits.shape[0]
    picked = logp[np.arange(batch), labels]
    return picked.mean() * -1.0

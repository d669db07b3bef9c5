"""The Adam optimizer, gradient-norm clipping and the one training loop.

Every trainer in the library — the RecMG caching and prefetch models and
the Voyager and TransFetch baselines — runs :func:`train_minibatches`:
epochs of an in-place ``rng.shuffle`` of its rows, each cut into
minibatches, one :func:`optimizer_step` per minibatch.  So this module
is the only place that calls ``backward`` or ``Adam.step``.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional

import numpy as np

from .tensor import Tensor


class Adam:
    """Adam with bias correction (Kingma & Ba) over a fixed parameter list."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8) -> None:
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bc1
            v_hat = v / bc2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm (useful for logging).
    """
    params = [p for p in params if p.grad is not None]
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


def optimizer_step(optimizer: Adam, grad_clip: Optional[float],
                   loss_of: Callable[[], Tensor]) -> float:
    """One training step: build the loss, backpropagate, clip the
    gradients' global norm to ``grad_clip`` (``None``: no clip) and take
    an Adam step; returns the loss value.

    The loss is local to the step, so its graph dies when the step
    returns, before the next step's forward is built (a loop that
    rebinds ``loss`` keeps two graphs alive at once)."""
    loss = loss_of()
    optimizer.zero_grad()
    loss.backward()
    if grad_clip is not None:
        clip_grad_norm(optimizer.params, grad_clip)
    optimizer.step()
    return loss.item()


def train_minibatches(optimizer: Adam, rows: np.ndarray,
                      loss_of: Callable[[np.ndarray], Tensor], epochs: int,
                      batch_size: int, rng: np.random.Generator,
                      grad_clip: Optional[float] = None) -> List[float]:
    """``epochs`` passes over ``rows``: each shuffles ``rows`` in place
    with ``rng`` and takes one :func:`optimizer_step` on
    ``loss_of(batch)`` per ``batch_size`` slice.  Returns every step's
    loss, in order."""
    losses: List[float] = []
    for _ in range(epochs):
        rng.shuffle(rows)
        for lo in range(0, len(rows), batch_size):
            batch = rows[lo:lo + batch_size]
            losses.append(optimizer_step(optimizer, grad_clip,
                                         lambda: loss_of(batch)))
    return losses

"""Functional operations built on :class:`repro.nn.tensor.Tensor`."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, unbroadcast


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def softmax_(x: np.ndarray) -> np.ndarray:
    """Tape-free :func:`softmax` over the last axis, in place: the same
    operations in the same order, so the values are the tape's bit for
    bit (``np.power(s, -1.0)`` is what the tape's division computes)."""
    x -= x.max(axis=-1, keepdims=True)
    np.exp(x, out=x)
    x *= np.power(x.sum(axis=-1, keepdims=True), -1.0)
    return x


def sigmoid_(x: np.ndarray) -> np.ndarray:
    """Tape-free :meth:`Tensor.sigmoid`, in place (``1 / (1 + exp(-x))``).
    float32 ``exp`` overflows past 88 (float64: 709); the ``inf`` it
    gives is the right one — the gate saturates at exactly 0."""
    np.negative(x, out=x)
    with np.errstate(over="ignore"):
        np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``, as one tape node.

    The primitive chain ``shifted = x - max.detach()``, ``shifted -
    shifted.exp().sum().log()`` would keep ``shifted``, its ``exp`` and
    the output alive on the tape; this node keeps the output, the row
    max and the row sums, and recomputes ``exp`` in backward.  Its
    arithmetic is the chain's in the chain's order, so values and grads
    are the chain's bit for bit in any dtype."""
    xs = x.data
    row_max = xs.max(axis=axis, keepdims=True)
    data = xs - row_max
    sums = np.exp(data).sum(axis=axis, keepdims=True)
    data -= np.log(sums)
    out = x._make_child(data, (x,))

    def backward(g: np.ndarray) -> None:
        if not x.requires_grad:
            return
        # The chain's walk: ``shifted`` takes ``g`` from the output and
        # ``exp * (-sum(g) / sums)`` through the log and the sum; a
        # negation is exact, so ``g - exp * (sum(g) / sums)`` is that.
        grad = np.exp(xs - row_max)
        grad *= unbroadcast(g, sums.shape) / sums
        x._accumulate(np.subtract(g, grad, out=grad))

    out._backward = backward
    return out

"""Functional operations built on :class:`repro.nn.tensor.Tensor`."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


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
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()

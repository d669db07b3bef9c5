"""Functional operations built on :class:`repro.nn.tensor.Tensor`."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, unbroadcast


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


#: Longest last axis whose row maxima :func:`row_max` may take column
#: by column.  numpy's ``max(axis=-1)`` costs ~0.1 us per row; one
#: ``np.maximum`` pass over a column ~1 us plus its elements.  Over the
#: caching attention's 1920 rows of 15 scores that is ~200 against
#: ~30 us; over the prefetch attention's 64 rows, ~8 against ~15 us.
#: Columns win from ~16 rows per column up to 32 columns, and the
#: 2048-bucket Chamfer softmax keeps ``max`` (~46 us against ~1.5 ms).
COLUMN_MAX_LEN = 32
#: Fewest rows per column at which :func:`row_max` takes columns.
COLUMN_MAX_ROWS_PER_COLUMN = 16


def row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)``, from column maxima when the
    axis is short and the rows many (:data:`COLUMN_MAX_LEN`,
    :data:`COLUMN_MAX_ROWS_PER_COLUMN`).  A maximum is exact in any
    order (a NaN propagates either way, and a ``+0`` / ``-0`` tie
    subtracts to values ``exp`` maps alike), so both give the same
    softmax bit for bit."""
    length = x.shape[-1]
    rows = x.size // max(1, length)
    if (length > COLUMN_MAX_LEN
            or rows < COLUMN_MAX_ROWS_PER_COLUMN * length):
        return x.max(axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for j in range(1, length):
        np.maximum(out, x[..., j:j + 1], out=out)
    return out


def softmax_(x: np.ndarray) -> np.ndarray:
    """Tape-free :func:`softmax` over the last axis, in place: the same
    operations in the same order, so the values are the tape's bit for
    bit (``np.power(s, -1.0)`` is what the tape's division computes;
    :func:`row_max` gives the tape's row maxima)."""
    x -= row_max(x)
    np.exp(x, out=x)
    x *= np.power(x.sum(axis=-1, keepdims=True), -1.0)
    return x


def sigmoid_(x: np.ndarray) -> np.ndarray:
    """Tape-free :meth:`Tensor.sigmoid`, in place (``1 / (1 + exp(-x))``).
    float32 ``exp`` overflows past 88 (float64: 709); the ``inf`` it
    gives is the right one — the gate saturates at exactly 0."""
    with np.errstate(over="ignore"):
        return sigmoid_saturating_(x)


def sigmoid_saturating_(x: np.ndarray) -> np.ndarray:
    """:func:`sigmoid_` without its ``np.errstate``, for a loop that
    enters ``np.errstate(over="ignore")`` once around all its steps."""
    np.negative(x, out=x)
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

"""Parameter initializers for the ``repro.nn`` substrate: float64 draws
returned as :data:`~repro.nn.tensor.DTYPE`."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .tensor import DTYPE


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform init; suitable for tanh/sigmoid layers."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(DTYPE)


def normal(shape: Tuple[int, ...], rng: np.random.Generator,
           std: float = 0.01) -> np.ndarray:
    return rng.normal(0.0, std, size=shape).astype(DTYPE)


def orthogonal(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Block-orthogonal init (used for LSTM recurrent weights).

    For a wide (rows < cols) matrix — e.g. the fused (H, 4H) recurrent
    weight — each (rows, rows) block is an independent orthogonal matrix,
    the standard recipe for gated RNNs.
    """
    rows, cols = shape

    def square_orthogonal(n: int) -> np.ndarray:
        q, r = np.linalg.qr(rng.normal(0.0, 1.0, size=(n, n)))
        return q * np.sign(np.diag(r))

    if rows == cols:
        full = square_orthogonal(rows)
    elif rows < cols:
        blocks = [square_orthogonal(rows) for _ in range(-(-cols // rows))]
        full = np.hstack(blocks)[:, :cols]
    else:
        blocks = [square_orthogonal(cols) for _ in range(-(-rows // cols))]
        full = np.vstack(blocks)[:rows, :]
    return full.astype(DTYPE)


def _fans(shape: Tuple[int, ...]) -> Tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out

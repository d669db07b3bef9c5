"""float32 decisions against the logits of a float64 copy — the one
comparison every float32-vs-float64 assertion goes through
(``tests/test_nn_inference.py`` and, loaded by path,
``benchmarks/test_perf_hotpaths.py``).

The models train and serve in float32.  :func:`float64_copy` casts a
model's weights up, so its logits are the same weights evaluated
without float32 rounding.  Exact equality of the two sides' decisions
holds only by luck: a logit within ~1e-5 of zero, or two buckets that
close, may fall either way.  So decisions must agree wherever the
float64 margin is clear of that, and nearly all positions must be clear.
"""

import copy

import numpy as np

#: A float32 decision may differ from the float64 one only where the
#: float64 margin is this small.  float32 logits sit within 5e-6 of the
#: float64 ones on every model the tests build (worst case measured
#: over the shape sweep's space: 2.6e-6; trained bench models: 4.4e-6),
#: so 1e-4 leaves a 20x berth.
MARGIN = 1e-4


def float64_copy(module):
    """A deep copy of ``module`` with every parameter cast to float64:
    the reference a float32 model's decisions are judged against."""
    wide = copy.deepcopy(module)
    for param in wide.parameters():
        param.data = param.data.astype(np.float64)
    return wide


def _agree(got: np.ndarray, want: np.ndarray, margin: np.ndarray,
           ties=None) -> None:
    """Decisions agree wherever ``margin`` is clear of MARGIN, and
    near-ties are the exception: at most 1 % of them (one, on a batch
    too small for 1 % to be a position).  ``ties`` (one row per
    position) names the tie a position sits in; near-ties are then
    counted as distinct ties, not as positions."""
    clear = margin > MARGIN
    assert got.shape == want.shape
    assert np.array_equal(got[clear], want[clear])
    near = (np.count_nonzero(~clear) if ties is None
            else len(np.unique(ties[~clear.ravel()], axis=0)))
    assert near <= max(1, clear.size // 100)


def bits_agree(bits: np.ndarray, logits64: np.ndarray) -> None:
    """float32 ``bits`` against float64 logits; margin ``|logit|``."""
    assert bits.dtype == np.int8 and logits64.dtype == np.float64
    _agree(bits, (logits64 > 0.0).astype(np.int8), np.abs(logits64))


def indices_agree(indices: np.ndarray, logits64: np.ndarray,
                  decoder) -> None:
    """float32 ``indices`` against float64 logits; margin is the gap
    between the two best buckets that have a candidate.  A near-tie is
    the pair of buckets it sits between: a model whose every position
    shares the same two leading buckets repeats one tie, however many
    positions it spans."""
    assert logits64.dtype == np.float64
    masked = np.where(decoder.bucket_hot >= 0, logits64, -np.inf)
    pair = np.argpartition(masked, -2, axis=-1)[..., -2:]
    top = np.take_along_axis(masked, pair, axis=-1)
    _agree(indices, decoder.decode_buckets(logits64),
           top[..., 1] - top[..., 0],
           np.sort(pair, axis=-1).reshape(-1, 2))

"""Gradient checks and semantics of the autograd core.

Gradient checks run in float64: ``check_gradient`` builds its tensors
from a float64 array, and a floating array keeps its dtype (an operand
that is not a tensor takes the other side's).
"""

import gc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.cache import capacity_from_fraction
from repro.core import (
    CachingModel, FeatureEncoder, PrefetchModel, build_labels,
    caching_targets, prefetch_targets, train_caching_model,
    train_prefetch_model,
)
from repro.core.prefetch_model import BucketDecoder
from repro.core.training import _chamfer_ce_loss
from repro.prefetch import TransFetchPrefetcher, VoyagerPrefetcher
from repro.prefetch.transfetch import _TransFetchModel
from repro.prefetch.voyager import _VoyagerModel
from repro.nn import (
    LSTM, Linear, Tensor, concat, softmax, log_softmax, bce_with_logits,
    cross_entropy,
)
from repro.nn.tensor import stack, unbroadcast


def numeric_gradient(fn, x0, eps=1e-6):
    grad = np.zeros_like(x0)
    flat = x0.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(Tensor(x0)).item()
        flat[i] = orig - eps
        minus = fn(Tensor(x0)).item()
        flat[i] = orig
        grad.ravel()[i] = (plus - minus) / (2 * eps)
    return grad


def normal32(rng, shape):
    return rng.normal(size=shape).astype(np.float32)


def check_gradient(fn, x0, tol=1e-4):
    x0 = np.array(x0, dtype=np.float64)
    x = Tensor(x0.copy(), requires_grad=True)
    out = fn(x)
    out.backward()
    assert out.data.dtype == x.grad.dtype == np.float64
    numeric = numeric_gradient(fn, x0)
    assert np.max(np.abs(numeric - x.grad)) < tol


class TestElementwiseGradients:
    def test_tanh(self, rng):
        check_gradient(lambda x: x.tanh().sum(), rng.normal(size=(3, 4)))

    def test_sigmoid(self, rng):
        check_gradient(lambda x: x.sigmoid().sum(), rng.normal(size=(3, 4)))

    def test_exp_log(self, rng):
        check_gradient(lambda x: (x.exp() + 1.0).log().sum(),
                       rng.normal(size=(2, 3)))

    def test_relu(self, rng):
        # Avoid the kink at exactly zero.
        x0 = rng.normal(size=(3, 4))
        x0[np.abs(x0) < 0.1] = 0.5
        check_gradient(lambda x: x.relu().sum(), x0)

    def test_abs(self, rng):
        x0 = rng.normal(size=(3, 4))
        x0[np.abs(x0) < 0.1] = 0.5
        check_gradient(lambda x: x.abs().sum(), x0)

    def test_pow(self, rng):
        check_gradient(lambda x: (x ** 3.0).sum(), rng.normal(size=(2, 2)))

    def test_division(self, rng):
        x0 = rng.normal(size=(2, 3)) + 3.0
        check_gradient(lambda x: (1.0 / x).sum(), x0)


def _sigmoid(x):
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


#: Each registered op's forward and ``grad(g, x, out)``, written out.
UNARY_OPS = {
    "exp": (np.exp, lambda g, x, out: out * g),
    "log": (np.log, lambda g, x, out: g / x),
    "tanh": (np.tanh, lambda g, x, out: (1.0 - out ** 2) * g),
    "sigmoid": (_sigmoid, lambda g, x, out: out * (1.0 - out) * g),
    "relu": (lambda x: x * (x > 0), lambda g, x, out: (x > 0) * g),
    "abs": (np.abs, lambda g, x, out: np.sign(x) * g),
}

#: Inputs at each op's edge: sigmoid's float32 ``exp`` overflows past
#: 88, and relu / abs take their kink at exactly 0.
UNARY_EDGES = {
    "sigmoid": [-100.0, -89.0, -88.5, 88.5, 89.0, 100.0],
    "relu": [0.0, -0.0],
    "abs": [0.0, -0.0],
}


def unary_inputs(name, rng):
    """Kink-free draws (positive for ``log``)."""
    x = rng.normal(scale=2.0, size=(8, 64))
    x[np.abs(x) < 0.1] = 0.5
    return np.abs(x) if name == "log" else x


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
def test_registered_unary_op(name, rng):
    """Each op built by ``_register``: its float64 gradient matches the
    numeric one, and in float32 its value and grad are the formulas
    above bit for bit, edges included."""
    x0 = unary_inputs(name, rng)
    check_gradient(lambda x: getattr(x, name)().sum(), x0[:2, :6])

    forward, grad = UNARY_OPS[name]
    x0 = np.append(x0, UNARY_EDGES.get(name, [])).astype(np.float32)
    g = rng.normal(size=x0.shape).astype(np.float32)
    x = Tensor(x0.copy(), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # sigmoid's overflow is expected
        out = getattr(x, name)()
    out.backward(g)
    expected = forward(x0)
    assert out.data.dtype == x.grad.dtype == np.float32
    assert np.array_equal(out.data, expected)
    assert np.array_equal(x.grad, grad(g, x0, expected))


class TestMatmulGradients:
    def test_2d_2d(self, rng):
        w = Tensor(rng.normal(size=(4, 5)))
        check_gradient(lambda x: (x @ w).sum(), rng.normal(size=(3, 4)))

    def test_2d_2d_right(self, rng):
        a = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: (a @ x).sum(), rng.normal(size=(4, 5)))

    def test_batched_3d(self, rng):
        b = Tensor(rng.normal(size=(2, 4, 5)))
        check_gradient(lambda x: (x @ b).sum(), rng.normal(size=(2, 3, 4)))

    def test_3d_with_shared_2d(self, rng):
        w = rng.normal(size=(4, 4))
        check_gradient(lambda x: ((x @ Tensor(w)).tanh()).sum(),
                       rng.normal(size=(2, 3, 4)))

    def test_shared_2d_weight_gradient(self, rng):
        # Gradient wrt the broadcast weight must sum over the batch.
        x = Tensor(rng.normal(size=(2, 3, 4)))
        check_gradient(lambda w: (x @ w).sum(), rng.normal(size=(4, 5)))


class TestReductionsAndShapes:
    def test_sum_axis(self, rng):
        check_gradient(lambda x: (x.sum(axis=1) ** 2.0).sum(),
                       rng.normal(size=(3, 4)))

    def test_mean_keepdims(self, rng):
        check_gradient(lambda x: (x - x.mean(axis=1, keepdims=True)
                                  ).pow(2.0).sum(),
                       rng.normal(size=(3, 4)))

    def test_max_axis(self, rng):
        x0 = rng.normal(size=(3, 5))
        check_gradient(lambda x: x.max(axis=1).sum(), x0)

    def test_reshape_transpose(self, rng):
        check_gradient(
            lambda x: (x.reshape(4, 3).transpose(1, 0) ** 2.0).sum(),
            rng.normal(size=(2, 6)),
        )

    def test_getitem_fancy(self, rng):
        rows = np.array([0, 1, 1])
        cols = np.array([2, 0, 2])
        check_gradient(lambda x: x[rows, cols].sum(), rng.normal(size=(2, 3)))
        # Basic indices (slices / ints / Ellipsis) take plain assignment.
        check_gradient(lambda x: (x[1:, ::2] ** 2.0).sum()
                       + (x[0] ** 3.0).sum() + x[..., 1].sum() + x[1, 2],
                       rng.normal(size=(2, 3)))
        # A mixed (slice, array) tuple and a repeated index must scatter-add.
        check_gradient(lambda x: (x[:, cols] ** 2.0).sum(),
                       rng.normal(size=(2, 3)))
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        x[[1, 1, 1]].sum().backward()
        assert np.array_equal(x.grad, [[0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])

    def test_row_gather_accumulates_duplicates(self, rng):
        """The embedding lookup: an int64 row index scatter-adds."""
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        out = w[np.array([1, 1, 3])]
        out.sum().backward()
        assert np.allclose(w.grad[1], [2.0, 2.0])
        assert np.allclose(w.grad[3], [1.0, 1.0])
        assert np.allclose(w.grad[0], 0.0)

    def test_two_gathers_accumulate_the_scatter_add_sum(self, rng):
        """Two gathers of one parent, each with repeated indices: the
        first backward hands its scatter over as the parent's grad and
        the second adds into it in place.  The result is exactly the
        dense scatter-add sum, and the upstream grads are left as they
        were."""
        w = Tensor(normal32(rng, (5, 3)), requires_grad=True)
        first, second = np.array([4, 1, 1, 0, 4]), np.array([1, 2, 1, 4])
        up_first, up_second = normal32(rng, (5, 3)), normal32(rng, (4, 3))
        kept = up_first.copy(), up_second.copy()
        ((w[first] * Tensor(up_first)).sum()
         + (w[second] * Tensor(up_second)).sum()).backward()
        dense_first, dense_second = np.zeros((2, 5, 3), dtype=np.float32)
        np.add.at(dense_first, first, up_first)
        np.add.at(dense_second, second, up_second)
        assert w.grad.dtype == np.float32
        assert np.array_equal(w.grad, dense_first + dense_second)
        assert np.array_equal(up_first, kept[0])
        assert np.array_equal(up_second, kept[1])

    def test_root_grad_is_a_copy(self, rng):
        """``backward(grad)`` keeps a copy, so a later walk that adds
        into the root's grad in place leaves the caller's array alone."""
        w = Tensor(normal32(rng, (4, 2)), requires_grad=True)
        y = w[np.array([0, 0, 3])]
        grad = np.ones((3, 2), dtype=np.float32)
        y.backward(grad)
        (y * 2.0).sum().backward()
        assert np.array_equal(grad, np.ones((3, 2)))
        # The root keeps its grad, so the second walk sends 1 + 2 per row.
        assert np.array_equal(w.grad, [[8.0, 8.0], [0.0, 0.0], [0.0, 0.0],
                                       [4.0, 4.0]])

    def test_concat_gradient(self, rng):
        a0 = rng.normal(size=(2, 3))
        b = Tensor(rng.normal(size=(2, 2)))
        check_gradient(lambda x: (concat([x, b], axis=1) ** 2.0).sum(), a0)

    def test_stack_gradient(self, rng):
        b = Tensor(rng.normal(size=(2, 3)))
        check_gradient(lambda x: (stack([x, b], axis=1) ** 2.0).sum(),
                       rng.normal(size=(2, 3)))


def primitive_log_softmax(x, axis=-1):
    """The oracle: log-softmax over primitive ``Tensor`` ops, as
    ``log_softmax`` taped it before it became one node."""
    shifted = x - x.max(axis=axis, keepdims=True).detach()
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


class TestLossGradients:
    @pytest.mark.parametrize("shape, axis", [
        ((6, 9), -1), ((6, 9), 0), ((2, 3, 7), -1)])
    def test_fused_log_softmax_is_the_primitive_chain_bit_for_bit(
            self, rng, shape, axis):
        """Values and input grads through a root that reads the output
        three times (two row gathers, as the Chamfer loss's, and a
        weighted sum)."""
        x0 = rng.normal(size=shape) * 4.0
        weight = rng.normal(size=shape)
        rows = np.arange(shape[0])
        picks = rng.integers(0, shape[1], size=(2, shape[0]))
        for dtype in (np.float64, np.float32):
            results = []
            for fn in (log_softmax, primitive_log_softmax):
                x = Tensor(x0.astype(dtype), requires_grad=True)
                out = fn(x * 1.0, axis=axis)
                root = (out[rows, picks[0]].mean() * -1.0
                        + out[rows, picks[1]].mean() * -0.5
                        + (out * Tensor(weight.astype(dtype))).sum())
                root.backward()
                results.append([out.data, x.grad])
            for got, want in zip(*results):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)

    def test_softmax_rows_sum_to_one(self, rng):
        probs = softmax(Tensor(rng.normal(size=(5, 7))), axis=-1)
        assert np.allclose(probs.data.sum(axis=-1), 1.0)

    def test_log_softmax_gradient(self, rng):
        mult = Tensor(rng.normal(size=(3, 4)))
        check_gradient(lambda x: (log_softmax(x, axis=-1) * mult).sum(),
                       rng.normal(size=(3, 4)))

    def test_bce_gradient(self, rng):
        targets = Tensor((rng.random((3, 4)) > 0.5).astype(float))
        check_gradient(lambda x: bce_with_logits(x, targets),
                       rng.normal(size=(3, 4)))

    def test_bce_matches_naive_formula(self, rng):
        logits = rng.normal(size=(4, 3))
        targets = (rng.random((4, 3)) > 0.5).astype(float)
        stable = bce_with_logits(Tensor(logits), Tensor(targets)).item()
        probs = 1 / (1 + np.exp(-logits))
        naive = -(targets * np.log(probs)
                  + (1 - targets) * np.log(1 - probs)).mean()
        assert abs(stable - naive) < 1e-9

    def test_cross_entropy_gradient(self, rng):
        labels = np.array([1, 0, 3])
        check_gradient(lambda x: cross_entropy(x, labels),
                       rng.normal(size=(3, 5)))


class TestMechanics:
    def test_backward_requires_scalar(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).backward()

    def test_gradient_accumulates_over_reuse(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        assert np.allclose(x.grad, [7.0])

    def test_second_backward_does_not_replay_interior_grads(self):
        # Interior grads are consumed by the walk, so a second pass adds
        # one more gradient to the leaf instead of a compounded one.
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        y = (x * 2.0).sum()
        y.backward()
        y.backward()
        assert np.array_equal(x.grad, [4.0, 4.0, 4.0])

    def test_two_losses_over_a_shared_subgraph_add_up(self):
        x0 = np.array([1.0, 2.0, 3.0])
        x = Tensor(x0, requires_grad=True)
        a = x * 2.0
        a.sum().backward()
        (a * a).sum().backward()
        assert np.array_equal(x.grad, 2.0 + 8.0 * x0)

    def test_detach_cuts_graph(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = (x * 3.0).detach() * x
        y.backward()
        assert np.allclose(x.grad, [6.0])  # only the second factor

    def test_dtype_rules(self):
        """float32 by default; floating numpy data keeps its dtype, and
        an operand that is not a tensor takes the other side's."""
        for data in ([1.0, 2.0], 3, 0.5, np.arange(3), np.ones(2, bool)):
            assert Tensor(data).data.dtype == np.float32
        wide = Tensor(np.ones(3))
        narrow = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        assert wide.data.dtype == np.float64
        assert wide.sum().data.dtype == np.float64
        assert np.array_equal((wide * 0.1).data, np.full(3, 0.1))
        for out in (narrow + 1.0, 1.0 - narrow, narrow * 0.1, 2.0 / narrow,
                    narrow ** 2.0, narrow.max(axis=0), narrow.mean()):
            assert out.data.dtype == np.float32
        (1.0 - narrow.sigmoid() * 0.1).max(axis=0).backward()
        assert narrow.grad.dtype == np.float32

    def test_unbroadcast_shapes(self):
        grad = np.ones((4, 3, 5))
        assert unbroadcast(grad, (3, 5)).shape == (3, 5)
        assert unbroadcast(grad, (1, 5)).shape == (1, 5)
        assert np.allclose(unbroadcast(grad, (3, 5)), 4.0)


def tensor_census():
    return sum(type(o) is Tensor for o in gc.get_objects())


def chain_graph(rng):
    """Leaves, and a function building primitive nodes to a scalar root."""
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)

    def build():
        hidden = (x @ w).tanh()
        scaled = hidden.exp() * 0.5
        return [hidden, scaled, scaled.sum()]
    return build


def lstm_graph(rng):
    """The fused ``LSTM`` node, its three views, and a root reading all
    of them."""
    lstm = LSTM(4, 5, rng=rng)
    x = Tensor(rng.normal(size=(2, 6, 4)), requires_grad=True)

    def build():
        out, (h, c) = lstm(x)
        return [out._prev[0], out, h, c, out.sum() + (h * c).sum()]
    return build


def linear_graph(rng):
    """The fused ``Linear`` node over a 3-D input, and a root."""
    layer = Linear(4, 5, rng=rng)
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)

    def build():
        out = layer(x * 1.0)
        return [out._prev[0], out, out.tanh().sum()]
    return build


def log_softmax_graph(rng):
    """The fused ``log_softmax`` node, and a root gathering rows of it."""
    x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)

    def build():
        out = log_softmax(x * 2.0)
        return [out._prev[0], out, out[np.arange(3), [0, 2, 5]].sum()]
    return build


@pytest.fixture()
def collector_off():
    """Everything below must be freed by reference count alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.usefixtures("collector_off")
class TestTapeLifetime:
    """The tape holds no reference cycle: ``Tensor`` has no
    ``__weakref__`` slot, so liveness is observed through the nodes'
    arrays and a census of live tensors."""

    @pytest.mark.parametrize("graph, backpropagate", [
        pytest.param(chain_graph, True, id="True"),
        pytest.param(chain_graph, False, id="False"),
        pytest.param(lstm_graph, True, id="lstm-True"),
        pytest.param(lstm_graph, False, id="lstm-False"),
        pytest.param(linear_graph, True, id="linear-True"),
        pytest.param(linear_graph, False, id="linear-False"),
        pytest.param(log_softmax_graph, True, id="log_softmax-True"),
        pytest.param(log_softmax_graph, False, id="log_softmax-False"),
    ])
    def test_graph_dies_with_its_last_name(self, rng, graph, backpropagate):
        build = graph(rng)
        baseline = tensor_census()
        nodes = build()
        arrays = [weakref.ref(node.data) for node in nodes]
        if backpropagate:
            nodes[-1].backward()
        del nodes
        assert [ref() for ref in arrays] == [None] * len(arrays)
        assert tensor_census() == baseline

    def test_walk_consumes_interior_grads(self, rng):
        def chain(x):
            doubled = x * 2.0
            squashed = doubled.tanh()
            return doubled, squashed, (squashed ** 2.0).sum()

        x0 = rng.normal(size=(3, 4))
        x = Tensor(x0.copy(), requires_grad=True)
        doubled, squashed, root = chain(x)
        root.backward()
        assert doubled.grad is None and squashed.grad is None
        assert np.array_equal(root.grad, np.ones_like(root.data))
        numeric = numeric_gradient(lambda x: chain(x)[2], x0)
        assert np.max(np.abs(numeric - x.grad)) < 1e-4

    def test_training_steps_strand_no_tensor(self, tiny_trace,
                                             tiny_recmg_config, monkeypatch):
        """No tensor outlives training, and no array of step k's graph
        is alive when step k+1's forward starts: a weakref on each
        step's logits is dead by then — in the RecMG trainers and in
        both baselines (Voyager, TransFetch), which run the same loop."""
        config = replace(tiny_recmg_config, max_train_chunks=64)
        train, _ = tiny_trace.split(0.6)
        encoder = FeatureEncoder(config).fit(train)
        labels = build_labels(train, capacity_from_fraction(tiny_trace, 0.2),
                              config, encoder)
        chunks = encoder.encode_chunks(train)
        targets = caching_targets(chunks, labels)
        live_at_forward = []

        def spied(forward):
            logits = []

            def spy(self, *args, **kwargs):
                live_at_forward.append(
                    sum(ref() is not None for ref in logits))
                out = forward(self, *args, **kwargs)
                # Voyager's forward returns (page, offset) logits.
                first = out[0] if isinstance(out, tuple) else out
                logits.append(weakref.ref(first.data))
                return out
            return spy

        monkeypatch.setattr(CachingModel, "forward",
                            spied(CachingModel.forward))
        monkeypatch.setattr(PrefetchModel, "forward_logits",
                            spied(PrefetchModel.forward_logits))
        caching = CachingModel(config, encoder.num_tables)
        train_caching_model(caching, chunks, targets, config)
        baseline = tensor_census()
        train_caching_model(caching, chunks, targets, config)
        assert tensor_census() == baseline

        prefetch = PrefetchModel(config, encoder.num_tables)
        sel, dense = prefetch_targets(chunks, labels, config)
        prefetch.set_decoder(BucketDecoder.from_miss_ids(
            labels.dense_ids[labels.miss_positions], config.hash_buckets))
        train_prefetch_model(prefetch, chunks, sel, dense, encoder, config)
        steps = len(live_at_forward)
        assert steps >= 8
        assert live_at_forward == [0] * steps

        rows = np.arange(config.batch_size)
        baseline = tensor_census()
        loss = _chamfer_ce_loss(prefetch, chunks, sel[rows],
                                dense[rows] % config.hash_buckets,
                                alpha=config.alpha)
        loss.backward()
        del loss
        assert tensor_census() == baseline

        for model in (_VoyagerModel, _TransFetchModel):
            monkeypatch.setattr(model, "forward", spied(model.forward))
        for prefetcher in (VoyagerPrefetcher(hidden=16),
                           TransFetchPrefetcher()):
            live_at_forward.clear()
            prefetcher.train(train, epochs=2, max_samples=96)
            assert live_at_forward == [0] * 6

    def test_long_chain_backpropagates_and_frees(self):
        x = Tensor(np.ones(3), requires_grad=True)
        baseline = tensor_census()
        y = x
        for _ in range(5000):
            y = y * 1.0 + 0.0
        tail = weakref.ref(y.data)
        y.sum().backward()
        assert np.array_equal(x.grad, np.ones(3))
        del y
        assert tail() is None
        assert tensor_census() == baseline

"""Modules, state dicts and the optimizer."""

import numpy as np
import pytest

from decisions import float64_copy
from repro.nn import Adam, Embedding, Linear, MLP, Module, Tensor
from repro.nn.optim import clip_grad_norm


def primitive_linear(layer, x):
    """The oracle: ``x @ W + b`` over primitive ``Tensor`` ops, as
    ``Linear.forward`` taped it before it became one node."""
    out = x @ layer.weight
    return out if layer.bias is None else out + layer.bias


class TwoLayers(Module):
    def __init__(self, rng):
        self.layers = [Linear(3, 5, rng=rng), Linear(5, 2, rng=rng)]


class TestLinearAndEmbedding:
    def test_linear_shapes(self, rng):
        layer = Linear(4, 7, rng=rng)
        out = layer(Tensor(rng.normal(size=(5, 4))))
        assert out.shape == (5, 7)

    @pytest.mark.parametrize("bias", [True, False])
    @pytest.mark.parametrize("shape", [(6, 4), (3, 5, 4)], ids=["2d", "3d"])
    def test_fused_linear_is_the_primitive_pair_bit_for_bit(self, rng, shape,
                                                            bias):
        """Values and the grads of the input, weight and bias, with the
        input also read past the layer so its grads sum."""
        layer32 = Linear(4, 7, rng=rng, bias=bias)
        x0 = rng.normal(size=shape)
        weight = rng.normal(size=shape[:-1] + (7,))
        for layer, dtype in ((float64_copy(layer32), np.float64),
                             (layer32, np.float32)):
            results = []
            for forward in (layer, lambda x: primitive_linear(layer, x)):
                layer.zero_grad()
                x = Tensor(x0.astype(dtype), requires_grad=True)
                out = forward(x)
                root = ((out * Tensor(weight.astype(dtype))).tanh().sum()
                        + (x * x).sum())
                root.backward()
                results.append([out.data, x.grad]
                               + [p.grad for p in layer.parameters()])
            assert len(results[0]) == 3 + bias
            for got, want in zip(*results):
                assert got.dtype == want.dtype == dtype
                assert np.array_equal(got, want)

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 7, rng=rng, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_embedding_lookup(self, rng):
        emb = Embedding(10, 3, rng=rng)
        out = emb(np.array([1, 1, 9]))
        assert out.shape == (3, 3)
        assert np.allclose(out.data[0], out.data[1])

    def test_embedding_out_of_range(self, rng):
        emb = Embedding(10, 3, rng=rng)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_mlp_final_activation(self, rng):
        mlp = MLP([4, 8, 1], rng=rng, final_activation="sigmoid")
        out = mlp(Tensor(rng.normal(size=(6, 4))))
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_mlp_unknown_activation(self, rng):
        mlp = MLP([2, 2], rng=rng, activation="bogus",
                  final_activation="bogus")
        with pytest.raises(ValueError):
            mlp(Tensor(rng.normal(size=(1, 2))))


class TestModuleIntrospection:
    def test_num_parameters(self, rng):
        layer = Linear(4, 7, rng=rng)
        assert layer.num_parameters() == 4 * 7 + 7

    def test_named_parameters_nested(self, rng):
        names = [name for name, _ in TwoLayers(rng).named_parameters()]
        assert "layers.0.weight" in names
        assert "layers.1.bias" in names

    def test_state_dict_roundtrip(self, rng):
        a = Linear(3, 4, rng=rng)
        b = Linear(3, 4, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.data, b.weight.data)

    def test_load_state_dict_shape_mismatch(self, rng):
        a = Linear(3, 4, rng=rng)
        state = a.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_load_state_dict_missing_key(self, rng):
        a = Linear(3, 4, rng=rng)
        with pytest.raises(KeyError):
            a.load_state_dict({})

    @pytest.mark.parametrize("extra", ["wieght", "layers.0.weight"])
    def test_load_state_dict_unexpected_key(self, rng, extra):
        """A state naming a parameter the module does not have loads
        nothing, even when every parameter it does have is there."""
        a = Linear(3, 4, rng=rng)
        before = a.state_dict()
        state = Linear(3, 4, rng=np.random.default_rng(99)).state_dict()
        state[extra] = np.zeros((3, 4))
        with pytest.raises(KeyError, match=f"unexpected.*'{extra}'"):
            a.load_state_dict(state)
        for name, value in a.state_dict().items():
            assert np.array_equal(value, before[name])


class TestOptimizers:
    def _loss(self, layer, x, y):
        pred = layer(x)
        return ((pred - y) ** 2.0).mean()

    def test_adam_decreases_loss(self, rng):
        layer = Linear(3, 1, rng=rng)
        x = Tensor(rng.normal(size=(16, 3)))
        y = Tensor(rng.normal(size=(16, 1)))
        opt = Adam(layer.parameters(), lr=0.05)
        first = None
        for _ in range(50):
            loss = self._loss(layer, x, y)
            opt.zero_grad()
            loss.backward()
            opt.step()
            first = first if first is not None else loss.item()
        assert loss.item() < first * 0.5

    def test_empty_parameters_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_negative_lr_rejected(self, rng):
        with pytest.raises(ValueError):
            Adam(Linear(2, 2, rng=rng).parameters(), lr=-1.0)

    def test_clip_grad_norm(self, rng):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 10.0)
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm > 1.0
        assert abs(np.linalg.norm(p.grad) - 1.0) < 1e-9

    def test_clip_noop_under_limit(self, rng):
        p = Tensor(np.zeros(4), requires_grad=True)
        p.grad = np.full(4, 0.01)
        clip_grad_norm([p], max_norm=1.0)
        assert np.allclose(p.grad, 0.01)

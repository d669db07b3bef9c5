"""Neural-network module system: parameter containers and basic layers."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import init as initializers
from .tensor import DTYPE, Tensor, matmul_backward, unbroadcast


class Module:
    """Base class for layers; tracks parameters and sub-modules.

    Parameters are discovered by attribute inspection (any ``Tensor``
    attribute with ``requires_grad=True``, plus recursively those of
    sub-``Module`` attributes and items of list attributes).  They are
    float32 (:data:`~repro.nn.tensor.DTYPE`); the same module serves
    ``forward`` for training and ``infer`` for decisions.
    """

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        seen = set()
        for _, value in self._traverse():
            if id(value) not in seen:
                seen.add(id(value))
                params.append(value)
        return params

    def named_parameters(self) -> Iterator[Tuple[str, Tensor]]:
        yield from self._traverse()

    def _traverse(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        for key in sorted(vars(self)):
            value = getattr(self, key)
            name = f"{prefix}{key}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield name, value
            elif isinstance(value, Module):
                yield from value._traverse(prefix=f"{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item._traverse(prefix=f"{name}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{name}.{i}", item

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total learnable scalar parameters (paper Table III reports this)."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Copy ``state`` in, each array cast to its parameter's dtype
        (an archived float64 checkpoint loads into a float32 model).
        ``state`` must name exactly this module's parameters: a missing
        or an extra name raises ``KeyError``."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"missing parameters in state dict: {sorted(missing)}")
        unexpected = set(state) - set(own)
        if unexpected:
            raise KeyError(f"unexpected parameters in state dict: {sorted(unexpected)}")
        for name, param in own.items():
            value = np.array(state[name], dtype=param.data.dtype)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {value.shape} != {param.shape}"
                )
            param.data = value

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x W + b`` with W of shape (in_features, out_features)."""

    def __init__(self, in_features: int, out_features: int,
                 rng: Optional[np.random.Generator] = None, bias: bool = True) -> None:
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            initializers.xavier_uniform((in_features, out_features), rng),
            requires_grad=True,
        )
        self.bias = (Tensor(np.zeros(out_features, dtype=DTYPE), requires_grad=True)
                     if bias else None)

    def forward(self, x: Tensor) -> Tensor:
        """``x @ W + b`` as one tape node holding only its output; its
        backward is the primitive pair's walk (the bias grad, then the
        matmul's), so values and grads are theirs bit for bit."""
        weight, bias = self.weight, self.bias
        parents = (x, weight) if bias is None else (x, weight, bias)
        out = x._make_child(self.infer(x.data), parents)

        def backward(g: np.ndarray) -> None:
            if bias is not None and bias.requires_grad:
                bias._accumulate(unbroadcast(g, bias.shape))
            matmul_backward(x, weight, g)

        out._backward = backward
        return out

    def infer(self, x: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward` on a plain array."""
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        return out


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Tensor(
            initializers.normal((num_embeddings, dim), rng, std=0.1),
            requires_grad=True,
        )

    def _checked(self, indices: np.ndarray) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings})"
            )
        return idx

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight[self._checked(indices)]

    def infer(self, indices: np.ndarray) -> np.ndarray:
        """Tape-free :meth:`forward`: the looked-up rows as an array."""
        return self.weight.data[self._checked(indices)]


class MLP(Module):
    """Multi-layer perceptron with a configurable activation."""

    def __init__(self, sizes: List[int], rng: Optional[np.random.Generator] = None,
                 activation: str = "relu", final_activation: Optional[str] = None) -> None:
        rng = rng or np.random.default_rng(0)
        self.layers = [Linear(a, b, rng=rng) for a, b in zip(sizes[:-1], sizes[1:])]
        self.activation = activation
        self.final_activation = final_activation

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            act = self.final_activation if i == last else self.activation
            if act == "relu":
                x = x.relu()
            elif act == "tanh":
                x = x.tanh()
            elif act == "sigmoid":
                x = x.sigmoid()
            elif act is None or act == "none":
                pass
            else:
                raise ValueError(f"unknown activation {act!r}")
        return x

"""Reverse-mode autograd over numpy arrays.

This module is the foundation of the ``repro.nn`` substrate: a small,
well-tested ``Tensor`` type supporting the operations needed by the RecMG
caching and prefetch models (seq2seq LSTMs with attention and custom
losses).  The design follows the classic tape-based approach, and the
tape is acyclic by construction: every operation records a closure
``backward(g)`` that *takes* the upstream gradient and captures only its
parents and saved arrays, never the result tensor it is stored on.
:meth:`Tensor.backward` walks the graph in reverse topological order,
hands each node its ``.grad`` and drops that grad once the closure has
run (leaf grads and the root's stay).  No reference cycle exists, so a
graph -- backpropagated or forward-only -- is freed by reference count
the moment its last name is rebound, without the cycle collector.  A
layer may record one coarse node with a hand-written closure under the
same contract if it runs the primitive ops' arithmetic in their order
and sums each leaf's grads in the walk's order, so its results are the
primitive graph's in any dtype.  Three do: the LSTM recurrence
(:mod:`repro.nn.rnn`), ``Linear`` (``x @ W + b`` through
:func:`matmul_backward`, :mod:`repro.nn.modules`) and ``log_softmax``
(:mod:`repro.nn.functional`), which keeps no ``exp`` array on the tape.
The elementwise non-linearities are one node shape
(:meth:`Tensor._unary`) registered per op with its forward and its
``grad(g, x, out)``, as the tinygrad core registers its functions.

Values are float32 (:data:`DTYPE`) unless given as floating numpy data,
which keeps its dtype, so a gradient check builds float64 tensors
explicitly; an operand that is not a tensor takes the other side's
dtype.  Every op, grad and optimizer moment follows its operands.

Broadcasting follows numpy semantics; gradients are "unbroadcast" (summed
over the broadcast axes) so shapes always round-trip.
"""

from __future__ import annotations

from functools import partialmethod
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]

#: The dtype the models train and serve in.
DTYPE = np.float32


def _as_array(data: ArrayLike) -> np.ndarray:
    if isinstance(data, Tensor):
        return data.data
    if isinstance(data, (np.ndarray, np.floating)) and data.dtype.kind == "f":
        return np.asarray(data)  # a reduction's numpy scalar keeps its dtype too
    return np.asarray(data, dtype=DTYPE)


def unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast to reach ``grad.shape``.

    This is the adjoint of numpy broadcasting: if a tensor of ``shape``
    was broadcast to ``grad.shape`` in the forward pass, the gradient of
    the original tensor is the sum over the broadcast dimensions.
    """
    if grad.shape == shape:
        return grad
    # Sum leading extra dims.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum dims that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autograd."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Sequence["Tensor"] = (),
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev: Tuple["Tensor", ...] = tuple(_prev)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Sequence["Tensor"]) -> "Tensor":
        requires = any(p.requires_grad for p in parents)
        return Tensor(data, requires_grad=requires, _prev=parents if requires else ())

    def _lift(self, other: ArrayLike) -> "Tensor":
        """``other`` as an operand; a non-tensor takes this tensor's
        dtype, as numpy treats a Python number."""
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.data.dtype))

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into this tensor's grad.  The grad a tensor keeps
        is always its own array, so a ``grad`` of its shape and dtype is
        added in place; an ``owned`` one (built for this call alone) is
        kept without a copy."""
        if self.grad is None:
            self.grad = grad if owned else grad.copy()
        elif self.grad.shape == grad.shape and self.grad.dtype == grad.dtype:
            self.grad += grad
        else:
            self.grad = self.grad + grad

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = self._lift(other)
        out = self._make_child(self.data + other_t.data, (self, other_t))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(unbroadcast(g, other_t.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = self._lift(other)
        out = self._make_child(self.data * other_t.data, (self, other_t))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(unbroadcast(g * other_t.data, self.shape))
            if other_t.requires_grad:
                other_t._accumulate(unbroadcast(g * self.data, other_t.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = self._lift(other)
        return self + (-other_t)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) + (-self)

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = self._lift(other)
        return self * other_t.pow(-1.0)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._lift(other) * self.pow(-1.0)

    def pow(self, exponent: float) -> "Tensor":
        out = self._make_child(np.power(self.data, exponent), (self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                grad = exponent * np.power(self.data, exponent - 1.0) * g
                self._accumulate(grad)

        out._backward = backward
        return out

    __pow__ = pow

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other_t = self._lift(other)
        out = self._make_child(self.data @ other_t.data, (self, other_t))
        out._backward = lambda g: matmul_backward(self, other_t, g)
        return out

    # ------------------------------------------------------------------
    # Elementwise non-linearities (``exp`` ... ``abs``, registered below)
    # ------------------------------------------------------------------
    def _unary(self, forward: Callable[[np.ndarray], np.ndarray],
               grad: Callable[..., np.ndarray]) -> "Tensor":
        """``forward(x)`` as a node whose backward accumulates
        ``grad(g, x, out)``."""
        x = self.data
        data = forward(x)
        out = self._make_child(data, (self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad(g, x, data))

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
            keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        out._backward = backward
        return out

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None,
             keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=True)
        out_data = data if keepdims else np.squeeze(data, axis=axis)
        out = self._make_child(out_data, (self,))

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = g if keepdims else np.expand_dims(g, axis)
            mask = self.data == data
            # Split gradient among ties (matches subgradient convention).
            counts = mask.sum(axis=axis, keepdims=True, dtype=grad.dtype)
            self._accumulate(mask * grad / counts)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.reshape(self.shape))

        out._backward = backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out = self._make_child(self.data.transpose(axes_t), (self,))
        inverse = np.argsort(axes_t)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g.transpose(tuple(inverse)))

        out._backward = backward
        return out

    def __getitem__(self, idx) -> "Tensor":
        out = self._make_child(self.data[idx], (self,))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                # Slices / ints / Ellipsis select each element at most once,
                # so assignment equals the scatter-add an array index needs.
                if all(isinstance(i, (int, slice, type(Ellipsis)))
                       for i in (idx if isinstance(idx, tuple) else (idx,))):
                    grad[idx] = g
                else:
                    np.add.at(grad, idx, g)
                self._accumulate(grad, owned=True)

        out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode autodiff from this tensor.

        ``grad`` defaults to ones (scalar outputs only need ``backward()``).
        """
        if grad is None:
            if self.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar"
                )
            grad = np.ones_like(self.data)
        self.grad = np.array(grad, dtype=self.data.dtype).reshape(self.shape)

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
                if node is not self:
                    node.grad = None  # consumed: only leaves and the root keep one


def matmul_backward(a_t: Tensor, b_t: Tensor, g: np.ndarray) -> None:
    """Accumulate the grads of ``a_t @ b_t`` from the output grad ``g``
    into whichever operand requires one: the one backward of every
    matmul, taped alone or inside :class:`~repro.nn.modules.Linear`."""
    a, b = a_t.data, b_t.data
    if a_t.requires_grad:
        if a.ndim == 1:
            # (n,) @ (n, m) -> (m,); gA = B @ g
            ga = b @ g
        elif b.ndim == 1:
            # (..., n, k) @ (k,) -> (..., n); gA = g[..., None] * b
            ga = g[..., None] * b
        else:
            ga = g @ np.swapaxes(b, -1, -2)
        if ga.shape != a.shape:
            ga = unbroadcast(ga, a.shape)
        a_t._accumulate(ga)
    if b_t.requires_grad:
        if b.ndim == 1:
            # (..., n, k) @ (k,) -> (..., n); gB = sum over batch of A^T g
            gb = (a * g[..., None]).reshape(-1, b.shape[0]).sum(axis=0)
        elif a.ndim == 1:
            gb = np.outer(a, g)
        else:
            gb = np.swapaxes(a, -1, -2) @ g
        if gb.shape != b.shape:
            gb = unbroadcast(gb, b.shape)
        b_t._accumulate(gb)


def _register(name: str, forward: Callable[[np.ndarray], np.ndarray],
              grad: Callable[..., np.ndarray]) -> None:
    setattr(Tensor, name, partialmethod(Tensor._unary, forward, grad))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):  # exp(-x) = inf gives exactly 0
        return 1.0 / (1.0 + np.exp(-x))


_register("exp", np.exp, lambda g, x, out: out * g)
_register("log", np.log, lambda g, x, out: g / x)
_register("tanh", np.tanh, lambda g, x, out: (1.0 - out ** 2) * g)
_register("sigmoid", _sigmoid, lambda g, x, out: out * (1.0 - out) * g)
_register("relu", lambda x: x * (x > 0), lambda g, x, out: (x > 0) * g)
_register("abs", np.abs, lambda g, x, out: np.sign(x) * g)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires, _prev=tuple(tensors) if requires else ())
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if tensor.requires_grad:
                slicer = [slice(None)] * out_data.ndim
                slicer[axis] = slice(int(start), int(stop))
                tensor._accumulate(g[tuple(slicer)])

    out._backward = backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient routing."""
    out_data = np.stack([t.data for t in tensors], axis=axis)
    requires = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=requires, _prev=tuple(tensors) if requires else ())

    def backward(g: np.ndarray) -> None:
        for i, tensor in enumerate(tensors):
            if tensor.requires_grad:
                tensor._accumulate(np.take(g, i, axis=axis))

    out._backward = backward
    return out


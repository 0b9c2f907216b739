"""Reverse-mode automatic differentiation over numpy arrays.

A deliberately small engine: define-by-run graphs of :class:`Tensor`
nodes, each storing the numpy payload, an optional gradient, and a
closure that accumulates gradients into its parents.  Supports the op
set the cost models need (dense algebra, batched matmul with
broadcasting, softmax, reductions, shape ops).

This is the test oracle, not the training path: the layers in
:mod:`repro.nn.layers` backprop explicitly, and the tests compose the
same networks from these ops to check those gradients bit for bit.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable

import numpy as np

# Thread-local so concurrent tuning workers (repro.service) can run
# no_grad inference while another worker is mid-training.
_STATE = threading.local()


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (fast inference)."""
    previous = _grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A node in the autograd graph wrapping a float64 numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad and _grad_enabled()
        self._backward: Callable[[], None] | None = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, grad={self.requires_grad})"

    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"], backward) -> "Tensor":
        parents = tuple(parents)
        out = Tensor(data)
        if _grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward():
            if self.requires_grad:
                self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(out.grad * self.data, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other**-1.0

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) * self**-1.0

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * exponent * self.data ** (exponent - 1))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data @ other.data

        def backward():
            g = out.grad
            if self.requires_grad:
                ga = g @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(_unbroadcast(gb, other.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    # ------------------------------------------------------------------
    # nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * (1 - out_data**2))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def exp(self) -> "Tensor":
        out_data = np.exp(np.clip(self.data, -60, 60))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(np.maximum(self.data, 1e-30))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad / np.maximum(self.data, 1e-30))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad * out_data * (1 - out_data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def backward():
            if self.requires_grad:
                g = out.grad
                dot = (g * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (g - dot))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward():
            if self.requires_grad:
                g = out.grad
                if axis is not None and not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.shape).copy())

        out = Tensor._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.reshape(self.shape))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = axes or tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = np.argsort(axes_t)

        def backward():
            if self.requires_grad:
                self._accumulate(out.grad.transpose(inverse))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # backprop driver
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation from this node."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self.grad = np.ones_like(self.data) if grad is None else np.asarray(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()


def concatenate(tensors: list[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an axis (differentiable)."""
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward():
        offset = 0
        for t, size in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * out.ndim
                index[axis] = slice(offset, offset + size)
                t._accumulate(out.grad[tuple(index)])
            offset += size

    out = Tensor._make(data, tensors, backward)
    return out

"""Neural-network layers over plain ndarrays, with explicit backward.

``forward(x, train=False)`` maps a float64 array to a float64 array.
With ``train=True`` a layer also keeps what its backward needs, and the
following ``backward(grad)`` *writes* (not accumulates) the gradient of
each of its parameters into that parameter's ``grad`` array and returns
the gradient with respect to the layer input.

Every forward and backward op mirrors, op for op, memory layout for
memory layout and in the same accumulation order, what the reverse-mode
tape in :mod:`repro.nn.autograd` computes for the same network built
from :class:`~repro.nn.autograd.Tensor` ops.  The tests hold the two to
bit equality, so training through these layers reproduces the tape's
training curves exactly at a fraction of its Python overhead.

The parameters of a network share one flat float64 buffer (and one flat
gradient buffer; see :class:`FlatParams`), so
:class:`~repro.nn.optim.Adam` updates all of them in one vectorized step.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import CostModelError
from repro.rng import make_rng


class Parameter:
    """A trainable array and its gradient.

    Once the owning network is flattened (:meth:`Module.flat_params`),
    ``data`` and ``grad`` are views into the network's flat buffers.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)


class FlatParams:
    """One contiguous data buffer and one gradient buffer for a network.

    Construction copies each parameter into its slice and rebinds the
    parameter's ``data``/``grad`` to views of it, so the layers,
    :meth:`Module.set_params` and the optimizer all share the memory.
    ``bounds`` lists each parameter's ``(start, stop)`` slice, in
    parameter order.
    """

    def __init__(self, params: list[Parameter]) -> None:
        self.bounds: list[tuple[int, int]] = []
        start = 0
        for p in params:
            self.bounds.append((start, start + p.data.size))
            start += p.data.size
        self.data = np.zeros(start)
        self.grad = np.zeros(start)
        for p, (lo, hi) in zip(params, self.bounds):
            shape = p.data.shape
            self.data[lo:hi] = p.data.reshape(-1)
            p.data = self.data[lo:hi].reshape(shape)
            p.grad = self.grad[lo:hi].reshape(shape)


def _sum_leading(grad: np.ndarray, ndim: int) -> np.ndarray:
    """Sum leading axes one at a time down to ``ndim`` dimensions.

    The reduction order of the tape's broadcast undo: a batched weight
    gradient stays a batched matmul followed by axis-0 sums.
    """
    while grad.ndim > ndim:
        grad = grad.sum(axis=0)
    return grad


class Module:
    """Base class: parameter discovery, flat binding, get/set dictionaries.

    Parameters are discovered by walking instance attributes
    (:class:`Parameter` values, child Modules, and lists of Modules), so
    the MoA adapter can snapshot / load any cost model uniformly.
    """

    _flat: FlatParams | None = None

    def parameters(self) -> list[Parameter]:
        """All trainable parameters in traversal order."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        """(name, parameter) pairs, names stable across identical architectures."""
        found: list[tuple[str, Parameter]] = []
        for name, value in sorted(vars(self).items()):
            path = f"{prefix}{name}"
            if isinstance(value, Parameter):
                found.append((path, value))
            elif isinstance(value, Module):
                found += value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        found += item.named_parameters(prefix=f"{path}.{i}.")
        return found

    def flat_params(self) -> FlatParams:
        """This network's flat buffers, binding the parameters on first use.

        Call it on the root network only: binding a child later would
        move its parameters out of the root's buffers.
        """
        if self._flat is None:
            self._flat = FlatParams(self.parameters())
        return self._flat

    def get_params(self) -> dict[str, np.ndarray]:
        """Copy of all parameters as a flat dict (MoA protocol)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        """Load parameters produced by :meth:`get_params`.

        Validates every name and shape before touching any parameter, so
        a mismatched dict (e.g. an incompatible checkpoint) never leaves
        the module half-loaded.  Values are copied in place, so bound
        parameters stay views into the flat buffer.
        """
        own = dict(self.named_parameters())
        if set(own) != set(params):
            raise CostModelError(
                f"parameter names mismatch: {sorted(set(own) ^ set(params))}"
            )
        for name, param in own.items():
            if param.data.shape != params[name].shape:
                raise CostModelError(
                    f"shape mismatch for {name}: "
                    f"{param.data.shape} vs {params[name].shape}"
                )
            # weights must be floating point: an integer array of the
            # right shape comes only from a corrupt checkpoint, and the
            # in-place copy below would silently cast it
            if not np.issubdtype(np.asarray(params[name]).dtype, np.floating):
                raise CostModelError(
                    f"non-float parameter array for {name}: "
                    f"{np.asarray(params[name]).dtype}"
                )
        for name, param in own.items():
            param.data[...] = params[name]

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W + b`` (He-initialised)."""

    def __init__(self, in_dim: int, out_dim: int, seed: int = 0, bias: bool = True):
        rng = make_rng(seed)
        scale = math.sqrt(2.0 / in_dim)
        self.weight = Parameter(rng.normal(0.0, scale, size=(in_dim, out_dim)))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out += self.bias.data
        if train:
            self._x = x
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        self.weight.grad[...] = _sum_leading(np.swapaxes(x, -1, -2) @ grad, 2)
        if self.bias is not None:
            self.bias.grad[...] = _sum_leading(grad, 1)
        return grad @ np.swapaxes(self.weight.data, -1, -2)


class ReLU(Module):
    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        mask = x > 0
        if train:
            self._mask = mask
        return x * mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad * self._mask


class Sequential(Module):
    def __init__(self, *layers: Module):
        self.layers = list(layers)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x, train)
        return x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad


class LayerNorm(Module):
    """Layer normalization over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Parameter(np.ones(dim))
        self.beta = Parameter(np.zeros(dim))
        self._eps = eps

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        inv_dim = 1.0 / x.shape[-1]
        mu = x.sum(axis=-1, keepdims=True) * inv_dim
        centered = x - mu
        var = (centered * centered).sum(axis=-1, keepdims=True) * inv_dim
        shifted = var + self._eps
        inv_std = shifted**-0.5
        normalized = centered * inv_std
        if train:
            self._cache = (centered, shifted, inv_std, normalized)
        return normalized * self.gamma.data + self.beta.data

    def backward(self, grad: np.ndarray) -> np.ndarray:
        centered, shifted, inv_std, normalized = self._cache
        inv_dim = 1.0 / grad.shape[-1]
        self.beta.grad[...] = _sum_leading(grad, 1)
        self.gamma.grad[...] = _sum_leading(grad * normalized, 1)
        g_norm = grad * self.gamma.data
        # ``centered`` feeds the normalize product and both factors of
        # the variance square: its gradient sums those terms in that order
        g_centered = g_norm * inv_std
        g_inv = (g_norm * centered).sum(axis=-1, keepdims=True)
        g_var = g_inv * -0.5 * shifted**-1.5 * inv_dim
        g_sq = np.broadcast_to(g_var, centered.shape) * centered
        g_centered += g_sq
        g_centered += g_sq
        # x feeds ``centered`` and the mean: its gradient sums them in that order
        g_mu = g_centered.sum(axis=-1, keepdims=True) * -1.0 * inv_dim
        return g_centered + np.broadcast_to(g_mu, g_centered.shape)


class MultiHeadSelfAttention(Module):
    """Multi-head self-attention over (N, T, D) sequences."""

    def __init__(self, dim: int, heads: int = 2, seed: int = 0):
        if dim % heads != 0:
            raise CostModelError(f"dim {dim} not divisible by heads {heads}")
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Linear(dim, dim, seed=seed)
        self.wk = Linear(dim, dim, seed=seed + 1)
        self.wv = Linear(dim, dim, seed=seed + 2)
        self.wo = Linear(dim, dim, seed=seed + 3)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        n, t, d = x.shape
        h, hd = self.heads, self.head_dim

        def split(proj: np.ndarray) -> np.ndarray:
            return proj.reshape(n, t, h, hd).transpose(0, 2, 1, 3)  # (N, h, T, hd)

        q = split(self.wq.forward(x, train))
        k = split(self.wk.forward(x, train))
        v = split(self.wv.forward(x, train))
        k_t = k.transpose(0, 1, 3, 2)
        scores = (q @ k_t) * (1.0 / math.sqrt(hd))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn = e / e.sum(axis=-1, keepdims=True)
        context = attn @ v  # (N, h, T, hd)
        merged = context.transpose(0, 2, 1, 3).reshape(n, t, d)
        if train:
            self._cache = (q, k_t, v, attn)
        return self.wo.forward(merged, train)

    def backward(
        self, grad: np.ndarray, residual: np.ndarray | None = None
    ) -> np.ndarray:
        """Input gradient; ``residual`` is the gradient the input already
        carries from a skip connection, summed first as the tape does."""
        q, k_t, v, attn = self._cache
        n, h, t, hd = q.shape

        def merge(g: np.ndarray) -> np.ndarray:  # (N, h, T, hd) -> (N, T, D)
            return np.ascontiguousarray(g.transpose(0, 2, 1, 3)).reshape(n, t, h * hd)

        g_merged = self.wo.backward(grad)
        g_context = np.ascontiguousarray(
            g_merged.reshape(n, t, h, hd).transpose(0, 2, 1, 3)
        )
        g_attn = g_context @ np.swapaxes(v, -1, -2)
        g_v = np.swapaxes(attn, -1, -2) @ g_context
        dot = (g_attn * attn).sum(axis=-1, keepdims=True)
        g_scores = attn * (g_attn - dot) * (1.0 / math.sqrt(hd))
        g_q = g_scores @ np.swapaxes(k_t, -1, -2)
        g_k = np.ascontiguousarray((np.swapaxes(q, -1, -2) @ g_scores).transpose(0, 1, 3, 2))
        g_x = self.wq.backward(merge(g_q))
        if residual is not None:
            g_x = residual + g_x
        g_x += self.wk.backward(merge(g_k))
        g_x += self.wv.backward(merge(g_v))
        return g_x


def mean_pool(h: np.ndarray) -> np.ndarray:
    """Mean over the sequence axis of an (N, T, D) array."""
    return h.sum(axis=1) * (1.0 / h.shape[1])


def mean_pool_backward(grad: np.ndarray, length: int) -> np.ndarray:
    """Gradient of :func:`mean_pool` w.r.t. its (N, ``length``, D) input."""
    g = np.expand_dims(grad * (1.0 / length), 1)
    return np.broadcast_to(g, (grad.shape[0], length, grad.shape[1])).copy()

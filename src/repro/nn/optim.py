"""Optimizers for the numpy NN substrate."""

from __future__ import annotations

import numpy as np

from repro.nn.layers import FlatParams


class Adam:
    """Adam with decoupled weight decay and global-norm gradient clipping.

    Works on a network's :class:`~repro.nn.layers.FlatParams`: one
    vectorized update over the flat data, gradient and moment buffers
    per step, computed in place in two preallocated scratch buffers.
    Every operation is elementwise, so the result equals a
    per-parameter loop bit for bit; only the clipping norm is summed
    parameter by parameter, in parameter order, to keep that equality.
    """

    def __init__(
        self,
        params: FlatParams,
        lr: float = 3e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        grad_clip: float = 0.0,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._m = np.zeros_like(params.data)
        self._v = np.zeros_like(params.data)
        self._t = 0
        self._a = np.empty_like(params.data)
        self._b = np.empty_like(params.data)

    def _clip(self) -> None:
        if self.grad_clip <= 0:
            return
        grad = self.params.grad
        squares = np.multiply(grad, grad, out=self._a)
        total = 0.0
        for lo, hi in self.params.bounds:
            total += float(squares[lo:hi].sum())
        norm = total**0.5
        if norm > self.grad_clip:
            grad *= self.grad_clip / (norm + 1e-12)

    def step(self) -> None:
        """Apply one update from the gradients in the flat grad buffer.

        In place, op for op: ``m = b1*m + (1-b1)*g``, ``v = b2*v +
        (1-b2)*g*g``, ``p -= lr*m_hat / (sqrt(v_hat) + eps)``.
        """
        self._clip()
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        data, g = self.params.data, self.params.grad
        m, v, a, b = self._m, self._v, self._a, self._b
        if self.weight_decay:
            data *= 1.0 - self.lr * self.weight_decay
        m *= b1
        m += np.multiply(g, 1 - b1, out=a)
        v *= b2
        np.multiply(g, 1 - b2, out=a)
        a *= g
        v += a
        np.divide(m, 1 - b1**self._t, out=b)  # m_hat
        b *= self.lr
        np.divide(v, 1 - b2**self._t, out=a)  # v_hat
        np.sqrt(a, out=a)
        a += self.eps
        b /= a
        data -= b

"""Tape-composed reference networks: the oracle for the explicit backward.

The cost models train through :mod:`repro.nn.layers`, whose layers
backprop explicitly.  This module rebuilds the same layers, nets,
optimizer and LambdaRank loss from :class:`repro.nn.autograd.Tensor`
ops, so tests can run one training step (or a whole fit) both ways and
demand bit-identical scores, gradients and parameters.
"""

from __future__ import annotations

import math

import numpy as np

from repro.costmodel import PaCM, TenSetMLP, TLPModel
from repro.costmodel.base import make_labels
from repro.features.dataflow import DATAFLOW_BLOCKS, DATAFLOW_DIM
from repro.features.primitives import PRIMITIVE_DIM, PRIMITIVE_SEQ
from repro.features.statement import STATEMENT_DIM
from repro.nn.autograd import Tensor, concatenate, no_grad
from repro.nn.losses import lambdarank_grad, pairwise_rank_accuracy
from repro.rng import make_rng


class TapeModule:
    """Parameter discovery over Tensor attributes (names match repro.nn)."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Tensor]]:
        found: list[tuple[str, Tensor]] = []
        for name, value in sorted(vars(self).items()):
            path = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                found.append((path, value))
            elif isinstance(value, TapeModule):
                found += value.named_parameters(prefix=f"{path}.")
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    if isinstance(item, TapeModule):
                        found += item.named_parameters(prefix=f"{path}.{i}.")
        return found

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def load(self, params: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        assert set(own) == set(params), sorted(set(own) ^ set(params))
        for name, tensor in own.items():
            tensor.data = np.array(params[name], dtype=np.float64)

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Linear(TapeModule):
    def __init__(self, in_dim: int, out_dim: int, bias: bool = True):
        self.weight = Tensor(np.zeros((in_dim, out_dim)), True)
        self.bias = Tensor(np.zeros(out_dim), True) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(TapeModule):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(TapeModule):
    def __init__(self, *layers: TapeModule):
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class LayerNorm(TapeModule):
    def __init__(self, dim: int, eps: float = 1e-5):
        self.gamma = Tensor(np.ones(dim), True)
        self.beta = Tensor(np.zeros(dim), True)
        self._eps = eps

    def forward(self, x: Tensor) -> Tensor:
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normalized = centered * (var + self._eps) ** -0.5
        return normalized * self.gamma + self.beta


class MultiHeadSelfAttention(TapeModule):
    def __init__(self, dim: int, heads: int = 2):
        self.heads = heads
        self.head_dim = dim // heads
        self.wq = Linear(dim, dim)
        self.wk = Linear(dim, dim)
        self.wv = Linear(dim, dim)
        self.wo = Linear(dim, dim)

    def forward(self, x: Tensor) -> Tensor:
        n, t, d = x.shape
        h, hd = self.heads, self.head_dim

        def split(proj: Tensor) -> Tensor:
            return proj.reshape(n, t, h, hd).transpose(0, 2, 1, 3)

        q, k, v = split(self.wq(x)), split(self.wk(x)), split(self.wv(x))
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / math.sqrt(hd))
        attn = scores.softmax(axis=-1)
        context = attn @ v
        merged = context.transpose(0, 2, 1, 3).reshape(n, t, d)
        return self.wo(merged)


def mlp(in_dim: int, hidden: int) -> Sequential:
    """TenSetMLP's network."""
    return Sequential(
        Linear(in_dim, hidden), ReLU(), Linear(hidden, hidden), ReLU(), Linear(hidden, 1)
    )


class PaCMNet(TapeModule):
    """PaCM's multi-branch network (see repro.costmodel.pacm)."""

    def __init__(self, d_model=32, stmt_dim=64, use_statement=True, use_dataflow=True):
        self.use_statement = use_statement
        self.use_dataflow = use_dataflow
        fused = 0
        if use_statement:
            self.stmt_branch = Sequential(
                Linear(STATEMENT_DIM, stmt_dim),
                ReLU(),
                Linear(stmt_dim, stmt_dim),
                ReLU(),
                Linear(stmt_dim, stmt_dim),
            )
            fused += stmt_dim
        if use_dataflow:
            self.df_embed = Linear(DATAFLOW_DIM, d_model)
            self.df_attn = MultiHeadSelfAttention(d_model, heads=2)
            self.df_norm = LayerNorm(d_model)
            fused += d_model
        self.head = Sequential(Linear(fused, 64), ReLU(), Linear(64, 1))

    def forward(self, x: Tensor) -> Tensor:
        n = x.shape[0]
        branches: list[Tensor] = []
        if self.use_statement:
            branches.append(self.stmt_branch(Tensor(x.data[:, :STATEMENT_DIM])))
        if self.use_dataflow:
            df = Tensor(x.data[:, STATEMENT_DIM:].reshape(n, DATAFLOW_BLOCKS, DATAFLOW_DIM))
            h = self.df_embed(df)
            h = self.df_norm(h + self.df_attn(h))
            branches.append(h.mean(axis=1))
        fused = branches[0] if len(branches) == 1 else concatenate(branches, axis=-1)
        return self.head(fused)


class TLPNet(TapeModule):
    """TLP's network (see repro.costmodel.tlp)."""

    def __init__(self, in_dim: int, d_model: int = 32):
        self.embed = Linear(in_dim, d_model)
        self.attn = MultiHeadSelfAttention(d_model, heads=2)
        self.norm = LayerNorm(d_model)
        self.head = Sequential(Linear(d_model, d_model), ReLU(), Linear(d_model, 1))

    def forward(self, x: Tensor) -> Tensor:
        h = self.embed(x)
        h = self.norm(h + self.attn(h))
        return self.head(h.mean(axis=1))


def twin(model) -> TapeModule:
    """A tape network holding ``model.net``'s current parameters."""
    if isinstance(model, PaCM):
        net = PaCMNet(
            d_model=model.d_model,
            use_statement=model.use_statement,
            use_dataflow=model.use_dataflow,
        )
    elif isinstance(model, TLPModel):
        net = TLPNet(PRIMITIVE_DIM, d_model=model.d_model)
    elif isinstance(model, TenSetMLP):
        net = mlp(STATEMENT_DIM, model.hidden)
    else:  # pragma: no cover - test helper misuse
        raise TypeError(type(model).__name__)
    net.load(model.net.get_params())
    return net


# ----------------------------------------------------------------------
# losses and the per-parameter Adam the cost models trained with
# ----------------------------------------------------------------------
def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    diff = pred - Tensor(np.asarray(target, dtype=np.float64))
    return (diff * diff).mean()


def lambdarank_loss(scores: Tensor, labels, groups, sigma=1.0, max_group=512, rng=None):
    """``(scores * stop_grad(lambdas)).sum()``: its gradient is the lambdas."""
    lambdas = lambdarank_grad(scores.data, labels, groups, sigma, max_group, rng)
    return (scores * Tensor(lambdas)).sum()


class TapeAdam:
    """Adam as a loop over parameters, each with its own moment arrays."""

    def __init__(self, params, lr=3e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, grad_clip=0.0):
        self.params = list(params)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.grad_clip = grad_clip
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _clip(self) -> None:
        if self.grad_clip <= 0:
            return
        total = 0.0
        for p in self.params:
            if p.grad is not None:
                total += float((p.grad**2).sum())
        norm = total**0.5
        if norm > self.grad_clip:
            scale = self.grad_clip / (norm + 1e-12)
            for p in self.params:
                if p.grad is not None:
                    p.grad *= scale

    def step(self) -> None:
        self._clip()
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                p.data *= 1.0 - self.lr * self.weight_decay
            self._m[i] = b1 * self._m[i] + (1 - b1) * g
            self._v[i] = b2 * self._v[i] + (1 - b2) * g * g
            m_hat = self._m[i] / (1 - b1**self._t)
            v_hat = self._v[i] / (1 - b2**self._t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def tape_fit(model, net: TapeModule, progs, latencies, group_keys, train, rng):
    """``NNCostModel.fit`` as it ran on the tape; returns the rank accuracy.

    ``model`` supplies the featurization and normalization; ``net`` is
    trained in place.
    """
    labels, groups = make_labels(latencies, group_keys)
    features = model._normalize(model.featurize(progs), fit=True)
    optimizer = TapeAdam(
        net.parameters(),
        lr=train.learning_rate,
        weight_decay=train.weight_decay,
        grad_clip=train.grad_clip,
    )
    for _ in range(train.epochs):
        for group in groups:
            perm = rng.permutation(group)
            for start in range(0, len(perm), train.batch_size):
                idx = perm[start : start + train.batch_size]
                if len(idx) < 2:
                    continue
                optimizer.zero_grad()
                scores = net(Tensor(features[idx]))
                loss = lambdarank_loss(
                    scores.reshape(len(idx)), labels[idx], [np.arange(len(idx))], rng=rng
                )
                loss.backward()
                optimizer.step()
    with no_grad():
        final = net(Tensor(model._normalize(model.featurize(progs)))).data.reshape(-1)
    return pairwise_rank_accuracy(final, labels, groups)


def random_input(model, n: int, seed: int = 0) -> np.ndarray:
    """Standardized-looking network input of ``n`` rows for ``model``."""
    rng = make_rng(seed)
    if isinstance(model, TLPModel):
        return rng.normal(size=(n, PRIMITIVE_SEQ, PRIMITIVE_DIM))
    if isinstance(model, TenSetMLP):
        return rng.normal(size=(n, STATEMENT_DIM))
    return rng.normal(size=(n, STATEMENT_DIM + DATAFLOW_BLOCKS * DATAFLOW_DIM))

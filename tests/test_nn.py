"""Tests for the numpy NN substrate (autograd oracle, layers, optim, losses)."""

from __future__ import annotations

import numpy as np
import pytest

import tape_nets
from repro.nn import (
    Adam,
    FlatParams,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    Parameter,
    ReLU,
    Sequential,
    lambdarank_grad,
    pairwise_rank_accuracy,
)
from repro.nn.autograd import Tensor, concatenate, no_grad
from repro.nn.losses import lambdarank_lambdas
from repro.rng import make_rng


def numeric_grad(fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        plus = fn(x)
        flat[i] = orig - eps
        minus = fn(x)
        flat[i] = orig
        grad.reshape(-1)[i] = (plus - minus) / (2 * eps)
    return grad


def check_op(build, shape, seed=0, tol=1e-5):
    rng = make_rng(seed)
    x_data = rng.normal(size=shape)
    x = Tensor(x_data.copy(), requires_grad=True)
    loss = build(x)
    loss.backward()
    analytic = x.grad
    num = numeric_grad(lambda d: float(build(Tensor(d)).data), x_data)
    scale = np.abs(num).max() + 1e-9
    assert np.abs(analytic - num).max() / scale < tol


class TestAutogradGradients:
    def test_add_mul(self):
        check_op(lambda x: ((x + 2.0) * (x * 3.0)).sum(), (3, 4))

    def test_matmul(self):
        w = Tensor(make_rng(1).normal(size=(4, 5)))
        check_op(lambda x: ((x @ w) ** 2.0).sum(), (3, 4))

    def test_batched_matmul_broadcast(self):
        w = Tensor(make_rng(2).normal(size=(6, 7)))
        check_op(lambda x: ((x @ w) ** 2.0).sum(), (2, 5, 6))

    def test_softmax(self):
        check_op(lambda x: (x.softmax(-1) ** 2.0).sum(), (3, 5))

    def test_relu_tanh_sigmoid(self):
        check_op(lambda x: (x.relu() + x.tanh() + x.sigmoid()).sum(), (4, 4))

    def test_reshape_transpose(self):
        check_op(lambda x: (x.reshape(2, 6).transpose(1, 0) ** 2.0).sum(), (3, 4))

    def test_mean_keepdims(self):
        check_op(
            lambda x: ((x - x.mean(axis=-1, keepdims=True)) ** 2.0).sum(),
            (3, 4),
            tol=1e-4,
        )

    def test_concatenate(self):
        check_op(lambda x: (concatenate([x, x * 2.0], axis=-1) ** 2.0).sum(), (2, 3))

    def test_layernorm(self):
        ln = tape_nets.LayerNorm(4)
        check_op(lambda x: (ln(x) ** 2.0).sum(), (3, 4), tol=1e-4)

    def test_attention(self):
        attn = tape_nets.MultiHeadSelfAttention(8, heads=2)
        rng = make_rng(5)
        for _, t in attn.named_parameters():
            t.data = rng.normal(0.0, 0.3, size=t.shape)
        check_op(lambda x: (attn(x) ** 2.0).sum(), (2, 5, 8), tol=1e-4)

    def test_no_grad_blocks_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = (x * 2.0).sum()
        assert y._backward is None
        assert not y.requires_grad


def check_layer(layer, shape, seed=0, tol=1e-5):
    """Explicit backward vs central differences, input and parameters.

    The loss is ``sum(out * w)`` for a fixed random ``w``, so the
    gradient flowing into the layer is ``w``.
    """
    rng = make_rng(seed)
    for _, p in layer.named_parameters():  # random biases / norm affine too
        p.data[...] = rng.normal(0.0, 0.5, size=p.data.shape)
    x = rng.normal(size=shape)
    w = rng.normal(size=layer.forward(x).shape)
    layer.forward(x, train=True)
    analytic = layer.backward(w.copy())

    def loss(_):
        return float((layer.forward(x) * w).sum())

    arrays = [("input", x, analytic)] + [
        (name, p.data, p.grad.copy()) for name, p in layer.named_parameters()
    ]
    for name, array, grad in arrays:
        num = numeric_grad(loss, array)
        # floored: some true gradients are 0 (softmax ignores the key bias)
        scale = np.abs(num).max() + 1e-3
        assert np.abs(grad - num).max() / scale < tol, name


class TestExplicitBackward:
    def test_linear_2d(self):
        check_layer(Linear(4, 3, seed=1), (5, 4))

    def test_linear_3d(self):
        check_layer(Linear(4, 3, seed=1), (2, 5, 4))

    def test_relu(self):
        check_layer(ReLU(), (4, 6))

    def test_sequential(self):
        check_layer(Sequential(Linear(4, 6, seed=0), ReLU(), Linear(6, 2, seed=1)), (5, 4))

    def test_layernorm(self):
        check_layer(LayerNorm(6), (2, 3, 6), tol=1e-4)

    def test_attention(self):
        check_layer(MultiHeadSelfAttention(8, heads=2, seed=3), (2, 5, 8), tol=1e-4)


class TestModule:
    def test_named_parameters_stable(self):
        net = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 1, seed=1))
        names = [n for n, _ in net.named_parameters()]
        assert names == [n for n, _ in net.named_parameters()]
        assert len(names) == 4  # 2 weights + 2 biases

    def test_get_set_roundtrip(self):
        a = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 1, seed=1))
        b = Sequential(Linear(4, 8, seed=7), ReLU(), Linear(8, 1, seed=9))
        b.flat_params()
        b.set_params(a.get_params())
        x = make_rng(0).normal(size=(5, 4))
        assert np.array_equal(a.forward(x), b.forward(x))
        flat = b.flat_params()
        assert all(np.shares_memory(p.data, flat.data) for p in b.parameters())

    def test_set_params_rejects_bad_names(self):
        from repro.errors import CostModelError

        net = Sequential(Linear(4, 8))
        with pytest.raises(CostModelError):
            net.set_params({"bogus": np.zeros(3)})

    def test_flat_params_binds_views_in_order(self):
        net = Sequential(Linear(4, 8, seed=0), ReLU(), Linear(8, 1, seed=1))
        before = net.get_params()
        flat = net.flat_params()
        assert flat is net.flat_params()
        assert np.array_equal(
            flat.data, np.concatenate([before[n].ravel() for n, _ in net.named_parameters()])
        )
        net.layers[0].weight.data[0, 0] = 42.0
        assert 42.0 in flat.data
        assert flat.bounds[-1][1] == flat.data.size == flat.grad.size


class TestTraining:
    def test_adam_fits_linear_function(self):
        rng = make_rng(0)
        net = Sequential(Linear(4, 16, seed=1), ReLU(), Linear(16, 1, seed=2))
        opt = Adam(net.flat_params(), lr=1e-2)
        x = rng.normal(size=(256, 4))
        y = x.sum(axis=1, keepdims=True)
        for _ in range(150):
            diff = net.forward(x, train=True) - y
            net.backward(2.0 * diff / diff.size)  # d mean(diff^2)
            opt.step()
        loss = float((diff * diff).mean())
        assert loss < 0.05

    def test_grad_clip_limits_norm(self):
        flat = FlatParams([Parameter(np.zeros(4))])
        opt = Adam(flat, lr=1.0, grad_clip=1.0)
        flat.grad[...] = 100.0
        opt._clip()
        assert np.linalg.norm(flat.grad) <= 1.0 + 1e-9

    def test_tape_mse_reference_trains(self):
        """The tape oracle still trains end to end (loss + per-param Adam)."""
        rng = make_rng(0)
        net = tape_nets.mlp(4, 16)
        for _, t in net.named_parameters():
            t.data = rng.normal(0.0, 0.5, size=t.shape)
        opt = tape_nets.TapeAdam(net.parameters(), lr=1e-2)
        x = rng.normal(size=(128, 4))
        y = x.sum(axis=1, keepdims=True)
        for _ in range(150):
            opt.zero_grad()
            loss = tape_nets.mse_loss(net(Tensor(x)), y)
            loss.backward()
            opt.step()
        assert loss.item() < 0.1


class TestLambdaRank:
    def test_lambda_signs(self):
        scores = np.zeros(5)
        labels = np.linspace(0, 1, 5)
        lam = lambdarank_lambdas(scores, labels)
        assert lam[-1] < 0 < lam[0]  # push best up (negative grad), worst down

    def test_lambdas_sum_to_zero(self):
        rng = make_rng(0)
        lam = lambdarank_lambdas(rng.normal(size=10), rng.random(10))
        assert abs(lam.sum()) < 1e-9

    def test_training_sorts_a_group(self):
        rng = make_rng(3)
        scores = Parameter(rng.normal(size=30))
        flat = FlatParams([scores])
        labels = np.linspace(0, 1, 30)
        groups = [np.arange(30)]
        opt = Adam(flat, lr=0.05)
        for _ in range(400):
            flat.grad[...] = lambdarank_grad(scores.data, labels, groups)
            opt.step()
        acc = pairwise_rank_accuracy(scores.data, labels, groups)
        assert acc > 0.9

    def test_single_element_group_is_noop(self):
        grad = lambdarank_grad(np.array([1.0]), np.array([1.0]), [np.array([0])])
        assert np.allclose(grad, 0.0)

    def test_grad_is_the_tape_loss_gradient(self):
        rng = make_rng(1)
        data = rng.normal(size=12)
        labels = rng.random(12)
        groups = [np.arange(7), np.arange(7, 12)]
        scores = Tensor(data, requires_grad=True)
        tape_nets.lambdarank_loss(scores, labels, groups).backward()
        assert np.array_equal(scores.grad, lambdarank_grad(data, labels, groups))

    def test_rank_accuracy_bounds(self):
        labels = np.array([0.1, 0.5, 0.9])
        groups = [np.arange(3)]
        assert pairwise_rank_accuracy(labels, labels, groups) == 1.0
        assert pairwise_rank_accuracy(-labels, labels, groups) == 0.0

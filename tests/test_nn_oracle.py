"""Explicit backward and flat Adam against the autograd tape, bit for bit.

The cost models train through layers with hand-written backward passes
and an Adam over one flat parameter buffer.  Tuning curves stay
identical to the tape-trained models only if every score, gradient and
update matches the tape exactly, so these tests compare with
``np.array_equal``, never with a tolerance.  The tape-composed
reference networks live in ``tape_nets``.
"""

from __future__ import annotations

import numpy as np
import pytest

from tape_nets import TapeAdam, lambdarank_loss, random_input, tape_fit, twin

from repro.config import TrainConfig
from repro.core.moa import MomentumAdapter
from repro.costmodel import PaCM, TenSetMLP, TLPModel
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.nn import Adam, FlatParams, Parameter, lambdarank_grad
from repro.nn.autograd import Tensor, no_grad
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, random_config

MODELS = {
    "pacm": lambda: PaCM(seed=0),
    "pacm-no-sf": lambda: PaCM(use_statement=False, seed=0),
    "pacm-no-tdf": lambda: PaCM(use_dataflow=False, seed=0),
    "tlp": lambda: TLPModel(seed=0),
    "mlp": lambda: TenSetMLP(seed=0),
}

#: fit() batch sizes the models see: one task's rows online (10, 20),
#: the minimum (2), and the default batch of offline pretraining (128)
BATCH_SIZES = (2, 10, 20, 128)


def _randomized(factory, seed: int = 0):
    """A model whose every parameter is random (biases and norms too)."""
    model = factory()
    rng = make_rng(seed + 1)
    model.set_params(
        {name: rng.normal(0.0, 0.3, size=p.shape) for name, p in model.get_params().items()}
    )
    return model


@pytest.fixture(scope="module")
def programs():
    """Measured programs from two tasks on the simulated T4."""
    sim = GroundTruthSimulator(get_device("t4"))
    rng = make_rng(0)
    progs, lats, keys = [], [], []
    for wl, count in ((ops.matmul(256, 256, 256), 37), (ops.conv2d(1, 32, 28, 28, 64, 3), 23)):
        space = generate_sketch(wl)
        for _ in range(count):
            p = lower(space, random_config(space, rng))
            progs.append(p)
            lats.append(sim.latency(p))
            keys.append(wl.key)
    return progs, np.array(lats), keys


@pytest.mark.parametrize("batch", BATCH_SIZES)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_training_step_matches_tape(name, batch):
    model = _randomized(MODELS[name], seed=batch)
    tape = twin(model)
    net = model.net
    net.flat_params()
    x = random_input(model, batch, seed=batch)
    labels = make_rng(batch).random(batch)
    group = [np.arange(batch)]

    scores = net.forward(x, train=True)
    lambdas = lambdarank_grad(scores.reshape(batch), labels, group)
    net.backward(lambdas.reshape(scores.shape))

    out = tape(Tensor(x))
    lambdarank_loss(out.reshape(batch), labels, group).backward()

    assert np.array_equal(scores, out.data)
    grads = {n: p.grad for n, p in net.named_parameters()}
    tape_grads = {n: t.grad for n, t in tape.named_parameters()}
    assert set(grads) == set(tape_grads)
    for key, grad in grads.items():
        assert np.array_equal(grad, tape_grads[key]), key
    # inference takes the same ops without keeping caches
    with no_grad():
        assert np.array_equal(net.forward(x), tape(Tensor(x)).data)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_fit_matches_tape_fit(name, programs):
    progs, lats, keys = programs
    train = TrainConfig(epochs=3, batch_size=16, weight_decay=1e-2, grad_clip=0.5)
    model, reference = MODELS[name](), MODELS[name]()
    tape = twin(reference)
    accuracy = model.fit(progs, lats, keys, train=train, rng=make_rng(4))
    tape_accuracy = tape_fit(reference, tape, progs, lats, keys, train, make_rng(4))
    assert accuracy == tape_accuracy
    tape_params = {n: t.data for n, t in tape.named_parameters()}
    for key, value in model.net.get_params().items():
        assert np.array_equal(value, tape_params[key]), key


def test_flat_adam_matches_per_parameter_loop():
    rng = make_rng(0)
    shapes = [(40, 64), (64,), (64, 64), (64,), (10, 23, 3), (64, 1), (1,)]
    init = [rng.normal(size=s) for s in shapes]
    params = [Parameter(a) for a in init]
    flat = FlatParams(params)
    tensors = [Tensor(a.copy(), requires_grad=True) for a in init]
    settings = dict(lr=1e-2, weight_decay=3e-2, grad_clip=1.0)
    adam, loop = Adam(flat, **settings), TapeAdam(tensors, **settings)
    clipped = 0
    for step in range(300):
        scale = 10.0 ** rng.uniform(-4, 0)  # some steps clip, some do not
        grads = [rng.normal(size=s) * scale for s in shapes]
        clipped += sum(float((g**2).sum()) for g in grads) ** 0.5 > 1.0
        for p, t, g in zip(params, tensors, grads):
            p.grad[...] = g
            t.grad = g.copy()
        adam.step()
        loop.step()
        if step % 50 == 0 or step == 299:
            for p, t in zip(params, tensors):
                assert np.array_equal(p.data, t.data)
    assert 0 < clipped < 300


def _assert_bound(model) -> None:
    flat = model.net.flat_params()
    for p in model.net.parameters():
        assert np.shares_memory(p.data, flat.data)
        assert np.shares_memory(p.grad, flat.grad)


def test_param_transfers_keep_the_flat_binding(programs):
    """set_params / load_state / the MoA adapter copy into the flat
    buffer: the models stay bound and train on exactly like the source."""
    progs, lats, keys = programs
    train = TrainConfig(epochs=2, batch_size=16)
    source = PaCM(seed=0)
    source.fit(progs, lats, keys, train=train, rng=make_rng(1))

    by_params, by_state, by_adapter = PaCM(seed=5), PaCM(seed=6), PaCM(seed=7)
    for model in (by_params, by_state, by_adapter):
        model.fit(progs[:20], lats[:20], keys[:20], train=train, rng=make_rng(2))
        _assert_bound(model)  # trained, so bound before the transfer
    by_params.set_params(source.get_params())
    by_state.load_state(source.save_state())
    MomentumAdapter.from_model(source).load_into(by_adapter)

    copies = (by_params, by_state, by_adapter)
    for model in copies:
        _assert_bound(model)
        assert np.array_equal(model.net.flat_params().data, source.net.flat_params().data)
    for model in (source, *copies):
        model.fit(progs, lats, keys, train=train, rng=make_rng(3))
    expected = source.predict(progs)
    for model in copies:
        _assert_bound(model)
        assert np.array_equal(model.predict(progs), expected)

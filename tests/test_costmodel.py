"""Tests for the learned cost models (repro.costmodel)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import TrainConfig
from repro.costmodel import GBDTModel, PaCM, TenSetMLP, TLPModel, make_labels
from repro.costmodel.base import RandomModel
from repro.errors import CostModelError
from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.nn import pairwise_rank_accuracy
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower, random_config

TRAIN = TrainConfig(epochs=15)


@pytest.fixture(scope="module")
def training_data():
    """Labelled programs from two tasks on the simulated T4."""
    sim = GroundTruthSimulator(get_device("t4"))
    rng = make_rng(0)
    progs, lats, keys = [], [], []
    for wl in (ops.matmul(256, 256, 256), ops.conv2d(1, 32, 28, 28, 64, 3)):
        space = generate_sketch(wl)
        for _ in range(120):
            p = lower(space, random_config(space, rng))
            progs.append(p)
            lats.append(sim.latency(p))
            keys.append(wl.key)
    return progs, np.array(lats), keys


class TestMakeLabels:
    def test_normalized_throughput(self):
        lats = np.array([1.0, 2.0, 4.0])
        labels, groups = make_labels(lats, ["t", "t", "t"])
        assert np.allclose(labels, [1.0, 0.5, 0.25])
        assert len(groups) == 1

    def test_invalid_gets_zero(self):
        labels, _ = make_labels(np.array([1.0, np.inf]), ["t", "t"])
        assert labels[1] == 0.0

    def test_groups_split_by_key(self):
        labels, groups = make_labels(np.array([1.0, 2.0, 3.0]), ["a", "b", "a"])
        assert sorted(len(g) for g in groups) == [1, 2]
        # groups normalize independently: each group's best has label 1
        assert labels[0] == 1.0 and labels[1] == 1.0

    def test_all_invalid_group_emits_no_index_group(self):
        """A task whose every measurement failed carries no ranking
        signal: it must not reach lambdarank as an all-zero group."""
        lats = np.array([np.inf, np.inf, 1.0, 2.0])
        labels, groups = make_labels(lats, ["dead", "dead", "live", "live"])
        assert len(groups) == 1  # only the live task groups
        assert list(groups[0]) == [2, 3]
        assert labels[0] == 0.0 and labels[1] == 0.0  # labels still zeroed

    def test_all_groups_invalid_yields_no_groups(self):
        labels, groups = make_labels(np.array([np.inf, np.inf]), ["t", "t"])
        assert groups == []
        assert np.all(labels == 0.0)

    def test_fit_survives_all_invalid_task(self, training_data):
        """Regression: training data containing an all-invalid task must
        not feed a degenerate group to the LambdaRank loop."""
        progs, lats, keys = training_data
        progs = progs[:20] + progs[:4]
        lats = np.concatenate([lats[:20], [np.inf] * 4])
        keys = keys[:20] + ["all-dead-task"] * 4
        model = TenSetMLP()
        acc = model.fit(progs, lats, keys, train=TrainConfig(epochs=2), rng=make_rng(2))
        assert np.isfinite(acc)
        assert np.all(np.isfinite(model.predict(progs[:5])))


@pytest.mark.parametrize(
    "factory", [GBDTModel, TenSetMLP, TLPModel, PaCM], ids=lambda f: f.__name__
)
class TestAllModels:
    def test_fit_predict_roundtrip(self, factory, training_data):
        progs, lats, keys = training_data
        model = factory()
        acc = model.fit(progs, lats, keys, train=TRAIN, rng=make_rng(1))
        assert acc > 0.6, f"{factory.__name__} failed to learn: acc={acc:.3f}"
        scores = model.predict(progs[:10])
        assert scores.shape == (10,)
        assert np.all(np.isfinite(scores))

    def test_predict_empty(self, factory):
        assert factory().predict([]).shape == (0,)

    def test_higher_score_means_faster(self, factory, training_data):
        """Within a task, predicted scores correlate negatively with latency."""
        progs, lats, keys = training_data
        model = factory()
        model.fit(progs, lats, keys, train=TRAIN, rng=make_rng(1))
        idx = [i for i, k in enumerate(keys) if k == keys[0]]
        scores = model.predict([progs[i] for i in idx])
        finite = [i for i in range(len(idx)) if np.isfinite(lats[idx[i]])]
        corr = np.corrcoef(scores[finite], -np.log(lats[[idx[i] for i in finite]]))[0, 1]
        assert corr > 0.3


class TestNNModelSpecifics:
    def test_params_roundtrip_preserves_predictions(self, training_data):
        progs, lats, keys = training_data
        a = PaCM(seed=0)
        a.fit(progs, lats, keys, train=TrainConfig(epochs=4), rng=make_rng(0))
        b = PaCM(seed=5)
        b.set_params(a.get_params())
        assert np.allclose(a.predict(progs[:8]), b.predict(progs[:8]))

    def test_norm_stats_travel_with_params(self, training_data):
        progs, lats, keys = training_data
        a = TenSetMLP(seed=0)
        a.fit(progs, lats, keys, train=TrainConfig(epochs=2), rng=make_rng(0))
        params = a.get_params()
        assert "_norm.mu" in params and "_norm.sigma" in params

    @pytest.mark.parametrize("factory", [PaCM, TLPModel, TenSetMLP])
    def test_fit_featurizes_once(self, training_data, factory):
        """The closing rank-accuracy pass reuses the training features."""
        progs, lats, keys = training_data
        model = factory(seed=0)
        calls = []
        featurize = model.featurize
        model.featurize = lambda ps: calls.append(len(ps)) or featurize(ps)
        accuracy = model.fit(progs, lats, keys, train=TrainConfig(epochs=1), rng=make_rng(0))
        assert calls == [len(progs)]
        del model.featurize
        labels, groups = make_labels(lats, keys)
        assert accuracy == pairwise_rank_accuracy(model.predict(progs), labels, groups)

    def test_pacm_requires_a_branch(self):
        with pytest.raises(CostModelError):
            PaCM(use_statement=False, use_dataflow=False)

    def test_pacm_ablations_have_different_params(self):
        full = set(PaCM().net.get_params())
        no_sf = set(PaCM(use_statement=False).net.get_params())
        no_df = set(PaCM(use_dataflow=False).net.get_params())
        assert no_sf < full and no_df < full

    def test_random_model_is_uninformative(self, training_data):
        progs, lats, keys = training_data
        model = RandomModel()
        assert model.fit(progs, lats, keys) == 0.5
        assert model.predict(progs[:5]).shape == (5,)


class TestGBDT:
    def test_more_trees_fit_better(self, training_data):
        progs, lats, keys = training_data
        small = GBDTModel(n_trees=3).fit(progs, lats, keys)
        big = GBDTModel(n_trees=40).fit(progs, lats, keys)
        assert big >= small

    def test_tiny_dataset_handled(self, training_data):
        progs, lats, keys = training_data
        assert GBDTModel().fit(progs[:2], lats[:2], keys[:2]) == 0.0

    def test_no_params_protocol(self):
        with pytest.raises(CostModelError):
            GBDTModel().get_params()

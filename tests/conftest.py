"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.hardware.device import get_device
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch


@pytest.fixture
def rng():
    """Deterministic default RNG."""
    return make_rng(0)


@pytest.fixture
def a100():
    return get_device("a100")


@pytest.fixture
def t4():
    return get_device("t4")


@pytest.fixture
def a100_sim(a100):
    return GroundTruthSimulator(a100)


@pytest.fixture
def matmul_wl():
    """A small matmul workload used across tests."""
    return ops.matmul(128, 128, 128)


@pytest.fixture
def matmul_space(matmul_wl):
    return generate_sketch(matmul_wl)


@pytest.fixture
def conv_wl():
    return ops.conv2d(1, 32, 28, 28, 64, 3, stride=1)


@pytest.fixture
def conv_space(conv_wl):
    return generate_sketch(conv_wl)


class LoweringGolden:
    """Frozen scalar lowering / draft-model / simulator outputs
    (``tests/fixtures/lowering/golden.json``, see ``make_golden.py``)."""

    PATH = Path(__file__).resolve().parent / "fixtures" / "lowering" / "golden.json"

    def __init__(self) -> None:
        self.data = json.loads(self.PATH.read_text())

    def __getitem__(self, section: str) -> dict:
        return self.data[section]

    def entry(self, section: str, config_keys: list[str]) -> dict:
        """The ``section`` entry whose frozen configs are ``config_keys``."""
        for value in self.data[section].values():
            if value["configs"] == config_keys:
                return value
        raise AssertionError(f"no golden {section} entry for these configs")


@pytest.fixture(scope="session")
def lowering_golden():
    return LoweringGolden()

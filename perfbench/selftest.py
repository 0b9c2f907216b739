"""Self-test of the benchmark: smoke-sized runs of every workload.

    PYTHONPATH=src python -m pytest -q perfbench/selftest.py

Checks that every metric the benchmark names is emitted with its unit,
that the names and units agree with ``BENCHMARK.json``, that the runs
pass their own correctness checks, and that an untraced run leaves no
wrapper installed on the instances it builds.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import fleet, run, tuning  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.speed import SpeedProbe  # noqa: E402
from perfbench.tracer import Tracer, tail  # noqa: E402

WRAPPED = {
    "model": ("fit", "predict_batch", "featurize", "featurize_batch"),
    "policy": ("propose_batch",),
    "explorer": ("explore",),
    "runner": ("measure_batch",),
    "store": ("append_rows", "load_rows"),
    "service": ("best_schedule",),
}


def test_benchmark_json_matches_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_emits_every_metric(name, trace, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    out = run.run_workload(name, seed=3, seconds=0, trace=trace, smoke=True)
    assert out["failures"] == []
    line = run.result_line(name, out, trace)
    table = PER_LAYER if trace else END_TO_END
    assert set(line["metrics"]) == set(table)
    for metric, entry in line["metrics"].items():
        assert entry["unit"] == table[metric][0]
        assert isinstance(entry["value"], float)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    if trace:
        assert set(out["layers"]) == run.layer_metrics_of(name)
        assert abs(sum(out["shares"].values()) - 1.0) < 1e-9
    else:
        assert all(entry["value"] > 0 for entry in line["metrics"].values())
        assert "tracer" not in out


def _instances(tuner):
    yield "model", tuner.model
    yield "runner", tuner.runner
    for policy in tuner.policies.values():
        yield "policy", policy
        if hasattr(policy, "explorer"):
            yield "explorer", policy.explorer


@pytest.mark.parametrize("traced", [False, True])
def test_job_leaves_no_wrapper(traced):
    spec = tuning.SMOKE_SPECS["online-r50"]
    tuner, setup_s = tuning.set_up(spec, seed=1)
    tracer = Tracer() if traced else None
    job = tuning.measure_job(spec, tuner, setup_s, tracer, SpeedProbe())
    assert job.failures == []
    for kind, obj in _instances(tuner):
        assert not set(WRAPPED[kind]) & set(vars(obj)), kind
    if traced:
        assert tracer.installed == 0
        assert tracer.named("costmodel.fit") and tracer.named("hardware.measure")


def test_fleet_wrappers_come_off(tmp_path):
    server = fleet.Server.start(tmp_path)
    try:
        tracer = Tracer()
        fleet.instrument(tracer, server.app)
        tracer.uninstall()
        for kind, obj in (("store", server.app.service.store), ("service", server.app.service)):
            assert not set(WRAPPED[kind]) & set(vars(obj)), kind
    finally:
        server.close()


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    value, pct, n = tail(values)
    assert sum(v > value for v in values) == 10 and pct == 90.0 and n == 100
    assert tail([5.0, 1.0]) == (5.0, 100.0, 2)

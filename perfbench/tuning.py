"""The tuning workloads: ``online-r50`` and ``offline-search``.

Both tune ``resnet50`` on the simulated ``a100`` with the Pruner
draft-then-verify policy.  A *job* is one whole tuning run of a fixed
round count, set up from scratch (caches cleared, tasks built, model
pretrained where the method needs it, tuner assembled); a run repeats
jobs until its time is up, so every figure is a median over jobs or
rounds of identical work.

* ``online-r50`` trains the cost model online every round, so
  ``CostModel.fit`` dominates wall time and grows with history.
* ``offline-search`` runs at paper search scale with a PaCM pretrained
  during set-up and frozen in the loop, so draft (LSE + analyzer) and
  verify (``predict_batch``) dominate and ``fit`` is never called.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro import api
from repro.cache import cache_stats, clear_caches
from repro.config import TrainConfig
from repro.costmodel import PaCM
from repro.schedule.lower import lowered_count
from repro.workloads import network_tasks

from perfbench.speed import SpeedProbe
from perfbench.tracer import Tracer, median, ratio, tail

DEVICE = "a100"
#: Set-ups per run at least (each job sets up once; cheap set-ups repeat).
MIN_SETUPS = 9
FEATURE_CACHE = "features.cache.FEATURE_ROWS"
LOWER_MEMO = "schedule.memo.LOWERED_ROWS"


@dataclass(frozen=True)
class TuningSpec:
    network: str
    method: str
    scale: str
    rounds: int
    #: (samples per task, epochs) of set-up pretraining; None = online
    pretrain: tuple[int, int] | None = None
    min_jobs: int = 3  # untraced jobs (searches) per run at least


SPECS = {
    "online-r50": TuningSpec("resnet50", "pruner", "lite", rounds=30),
    "offline-search": TuningSpec(
        "resnet50", "pruner-offline", "paper", rounds=60, pretrain=(16, 10)
    ),
}

#: Smoke-sized versions for the benchmark's self-test (resnet50 has 22
#: tuned tasks; the latency is finite once each was measured once).
SMOKE_SPECS = {
    "online-r50": TuningSpec("resnet50", "pruner", "smoke", rounds=23, min_jobs=1),
    "offline-search": TuningSpec(
        "resnet50", "pruner-offline", "smoke", rounds=23, pretrain=(2, 1), min_jobs=1
    ),
}

#: Per-layer metrics these workloads measure (the rest read 0).
LAYER_METRICS = frozenset(
    {
        "costmodel.fit_s",
        "costmodel.fit_calls",
        "costmodel.fit_rows",
        "costmodel.fit_self_s",
        "costmodel.predict_s",
        "costmodel.predict_rows",
        "costmodel.rank_acc_last",
        "features.featurize_s",
        "features.rows",
        "features.cache_hit_ratio",
        "core.explore_s",
        "core.sa_evals",
        "schedule.lower_s",
        "schedule.lowered_rows",
        "schedule.memo_hit_ratio",
        "hardware.measure_s",
        "hardware.measured",
        "search.round_ms_p50",
        "search.propose_s",
        "search.drafted",
        "search.measured",
        "search.unaccounted_frac",
        "sim_search_s",
        "fail_frac",
        "trace_overhead_frac",
    }
)


def set_up(spec: TuningSpec, seed: int):
    """Build a ready tuner from nothing; returns ``(tuner, seconds)``."""
    clear_caches()
    t0 = time.perf_counter()
    subgraphs = network_tasks(spec.network)
    pretrained = None
    if spec.pretrain is not None:
        samples, epochs = spec.pretrain
        pretrained = api.pretrain_model(
            PaCM(seed=seed),
            subgraphs,
            DEVICE,
            samples_per_task=samples,
            train=TrainConfig(epochs=epochs),
            seed=seed,
        )
    tuner = api.build_tuner(
        spec.method,
        subgraphs,
        DEVICE,
        search=api.resolve_scale(spec.scale),
        pretrained=pretrained,
        seed=seed,
    )
    return tuner, time.perf_counter() - t0


def instrument(tracer: Tracer, tuner) -> None:
    """Wrap the layer entry points of one tuner's own instances."""
    model = tuner.model
    first_len = lambda args, result: len(args[0])  # noqa: E731
    tracer.wrap(model, "fit", "costmodel.fit", rows=first_len, keep_result=True)
    tracer.wrap(model, "predict_batch", "costmodel.predict", rows=first_len)
    tracer.wrap(model, "featurize", "features.featurize", rows=first_len)
    tracer.wrap(model, "featurize_batch", "features.featurize", rows=first_len)
    for policy in tuner.policies.values():
        tracer.wrap(policy, "propose_batch", "search.propose")
        explorer = getattr(policy, "explorer", None)
        if explorer is not None:
            tracer.wrap(
                explorer, "explore", "core.explore", rows=lambda a, r: r.n_evals
            )
    tracer.wrap(
        tuner.runner, "measure_batch", "hardware.measure", rows=lambda a, r: len(r)
    )


def _cache_delta(before: dict, after: dict, name: str) -> tuple[int, int]:
    b, a = before.get(name, {}), after.get(name, {})
    return (
        a.get("hits", 0) - b.get("hits", 0),
        a.get("misses", 0) - b.get("misses", 0),
    )


@dataclass
class Job:
    setup_s: float  # rescaled to the reference speed
    wall_s: float  # raw seconds inside rounds (shares of it are raw too)
    round_s: list[float]  # rescaled
    round_raw: list[float]
    trials: int
    final_latency: float
    sim_total: float
    failures: list[str]
    traced: bool = False
    layers: dict | None = None
    shares: dict | None = None


def run_job(spec: TuningSpec, seed: int, tracer: Tracer | None, speed: SpeedProbe) -> Job:
    """Set up and run one tuning job; checks its outputs."""
    tuner, setup_s = set_up(spec, seed)
    return measure_job(spec, tuner, setup_s * speed.scale(samples=5), tracer, speed)


def measure_job(spec: TuningSpec, tuner, setup_s: float, tracer: Tracer | None,
                speed: SpeedProbe) -> Job:
    """Tune with a set-up tuner, timing each round; checks the outputs.

    The reference kernel runs after every round, in the progress
    callback, outside the round's own time.  Wrappers installed for
    ``tracer`` are removed before this returns.
    """
    since = 0
    if tracer is not None:
        instrument(tracer, tuner)
        since = len(tracer.spans)
    raw: list[float] = []
    scaled: list[float] = []
    lower_s = 0.0
    funnel = {"drafted": 0, "measured": 0}
    round_start = 0.0

    def progress(p) -> None:
        nonlocal lower_s, round_start
        raw.append(time.perf_counter() - round_start)
        scaled.append(raw[-1] * speed.scale())
        lower_s += p.stages.get("lower", 0.0)
        for key in funnel:
            funnel[key] += p.funnel.get(key, 0)
        round_start = time.perf_counter()

    lowered0, caches0 = lowered_count(), cache_stats()
    round_start = time.perf_counter()
    try:
        result = tuner.tune(spec.rounds, progress=progress)
    finally:
        if tracer is not None:
            tracer.uninstall()
    wall = sum(raw)
    lowered, caches = lowered_count() - lowered0, cache_stats()

    failures = []
    expected = spec.rounds * api.resolve_scale(spec.scale).measure_per_round
    if result.total_trials != expected:
        failures.append(f"trial count {result.total_trials} != {expected}")
    lats = [p.latency for p in result.curve]
    if any(b > a for a, b in zip(lats, lats[1:])):
        failures.append("tuning curve increased")
    if not math.isfinite(result.final_latency):
        failures.append("final latency is not finite")
    job = Job(
        setup_s=setup_s,
        wall_s=wall,
        round_s=scaled,
        round_raw=raw,
        trials=result.total_trials,
        final_latency=result.final_latency,
        sim_total=result.clock.total,
        failures=failures,
    )
    if tracer is None:
        return job

    t = tracer
    fit_calls = len(t.named("costmodel.fit", since))
    if tuner.mode == "offline" and fit_calls:
        failures.append(f"offline mode called fit {fit_calls} times")
    fit_results = t.results.get("costmodel.fit", [])
    feat_hits, feat_misses = _cache_delta(caches0, caches, FEATURE_CACHE)
    memo_hits, memo_misses = _cache_delta(caches0, caches, LOWER_MEMO)
    propose_self = t.self_total("search.propose", since) - lower_s
    shares = {
        "search": propose_self,
        "core": t.total("core.explore", since),
        "schedule": lower_s,
        "costmodel": t.self_total("costmodel.fit", since)
        + t.self_total("costmodel.predict", since),
        "features": t.total("features.featurize", since),
        "hardware": t.total("hardware.measure", since),
    }
    shares = {k: v / wall for k, v in shares.items()}
    shares["unaccounted"] = 1.0 - sum(shares.values())
    job.traced = True
    job.shares = shares
    job.layers = {
        "costmodel.fit_s": t.total("costmodel.fit", since),
        "costmodel.fit_calls": fit_calls,
        "costmodel.fit_rows": t.rows("costmodel.fit", since),
        "costmodel.fit_self_s": t.self_total("costmodel.fit", since),
        "costmodel.predict_s": t.total("costmodel.predict", since),
        "costmodel.predict_rows": t.rows("costmodel.predict", since),
        "costmodel.rank_acc_last": float(fit_results[-1]) if fit_results else 0.0,
        "features.featurize_s": t.total("features.featurize", since),
        "features.rows": t.rows("features.featurize", since),
        "features.cache_hit_ratio": ratio(feat_hits, feat_hits + feat_misses),
        "core.explore_s": t.total("core.explore", since),
        "core.sa_evals": t.rows("core.explore", since),
        "schedule.lower_s": lower_s,
        "schedule.lowered_rows": lowered,
        "schedule.memo_hit_ratio": ratio(memo_hits, memo_hits + memo_misses),
        "hardware.measure_s": t.total("hardware.measure", since),
        "hardware.measured": t.rows("hardware.measure", since),
        "search.round_ms_p50": 1e3 * median(scaled),
        "search.propose_s": t.total("search.propose", since),
        "search.drafted": funnel["drafted"],
        "search.measured": funnel["measured"],
        "search.unaccounted_frac": shares["unaccounted"],
    }
    # span seconds at the reference speed, by the job's own rescale factor
    factor = sum(scaled) / wall
    for key in job.layers:
        if key.endswith("_s"):
            job.layers[key] *= factor
    t.results.pop("costmodel.fit", None)
    return job


def job_seed(seed: int, index: int) -> int:
    """Seed of a run's ``index``-th search; the first uses ``seed`` itself."""
    return seed + 100_003 * index


def run(name: str, seed: int, seconds: float, trace: bool, golden: dict | None,
        smoke: bool = False) -> dict:
    """Repeat jobs for ``seconds``; returns the workload's figures.

    Each job tunes with its own seed derived from ``seed``, so a run's
    figures pool several searches and do not hang on one search's
    luck.  With ``trace`` the jobs come in pairs of one seed, untraced
    then traced: the traced figures and the tracing overhead come from
    identical work, and the pair must produce identical results.
    """
    spec = (SMOKE_SPECS if smoke else SPECS)[name]
    tracer = Tracer() if trace else None
    speed = SpeedProbe()
    jobs: list[Job] = []
    errors: list[str] = []  # a job that raised: every round of it failed
    attempted = 0
    start = time.perf_counter()
    while True:
        i = len(jobs)
        traced = trace and i % 2 == 1
        attempted += spec.rounds
        try:
            job = run_job(spec, job_seed(seed, i // 2 if trace else i),
                          tracer if traced else None, speed)
        except Exception as exc:  # noqa: BLE001 — a failed job is a counted failure
            errors.append(f"job {i} raised {type(exc).__name__}: {exc}")
            break
        jobs.append(job)
        # stop once the deadline is less than half a step away, a step
        # being a job, or an untraced-traced pair in a traced run
        elapsed = time.perf_counter() - start
        half_step = elapsed / len(jobs) * (1.0 if trace else 0.5)
        if elapsed + half_step >= seconds and (
            traced if trace else len(jobs) >= spec.min_jobs
        ):
            break

    setups = [j.setup_s for j in jobs]
    while jobs and len(setups) < MIN_SETUPS:
        setups.append(set_up(spec, seed)[1] * speed.scale(samples=5))

    checks: list[str] = []  # each failed correctness check is one failed op
    first = jobs[0] if jobs else None
    for i, job in enumerate(jobs):
        checks += [f"job {i}: {msg}" for msg in job.failures]
        if job.traced and (job.final_latency, job.sim_total) != (
            jobs[i - 1].final_latency, jobs[i - 1].sim_total
        ):
            checks.append(f"job {i}: tracing changed the tuning result")
    if golden is not None and first is not None:
        want = (golden["final_latency_s"], golden["sim_search_s"])
        if (first.final_latency, first.sim_total) != want:
            checks.append(
                f"golden mismatch: got final_latency_s={first.final_latency!r} "
                f"sim_search_s={first.sim_total!r}, want {want!r}"
            )
    failures = errors + checks
    failed = spec.rounds * len(errors) + len(checks)

    plain = [j for j in jobs if not j.traced]
    traced_jobs = [j for j in jobs if j.traced]
    # the searches every run makes, so these figures depend on the seed
    # alone, not on how many jobs the machine's speed allowed
    searches = plain[: spec.min_jobs]
    rounds = [r for j in plain for r in j.round_s]
    tail_ms, tail_pct, tail_n = tail([1e3 * r for r in rounds])
    out = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "jobs": len(jobs),
        "e2e": {
            "setup_s": median(setups),
            "trials_per_s": ratio(sum(j.trials for j in plain), sum(rounds)),
            "jobs_per_s": ratio(len(plain), sum(rounds)),
            "final_latency_us": 1e6 * median(j.final_latency for j in searches),
            "cycle_ms_p50": 1e3 * median(rounds),
            "cycle_ms_tail": tail_ms,
        },
        "tails": {"cycle_ms_tail": (tail_pct, tail_n)},
        "speed": speed,
        "raw_cycle_ms_p50": 1e3 * median(r for j in plain for r in j.round_raw),
        "extra": {
            "sim_search_s": median(j.sim_total for j in searches),
            "fail_frac": ratio(failed, attempted),
        },
    }
    if trace and traced_jobs:
        layers = {
            k: median(j.layers[k] for j in traced_jobs) for k in traced_jobs[0].layers
        }
        layers["sim_search_s"] = out["extra"]["sim_search_s"]
        layers["fail_frac"] = out["extra"]["fail_frac"]
        layers["trace_overhead_frac"] = median(
            sum(t.round_s) / sum(u.round_s) - 1.0 for u, t in zip(jobs[::2], jobs[1::2])
        )
        out["layers"] = layers
        out["shares"] = {
            k: sum(j.shares[k] for j in traced_jobs) / len(traced_jobs)
            for k in traced_jobs[0].shares
        }
        out["tracer"] = tracer
    return out

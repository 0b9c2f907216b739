"""The ``fleet-5k`` workload: the serve layer's request path.

An in-process :class:`~repro.serve.app.ServeApp` listens on 127.0.0.1
behind :func:`~repro.serve.http.make_server`.  Its record store holds
~5,000 history rows under the ``bert_tiny``/``pruner`` key before
timing starts.  One closed-loop :class:`~repro.serve.client.ServeClient`
caller repeats a cycle — submit, lease (ships every stored row),
heartbeat with progress, complete with 10 fresh rows and a result
summary, ``GET /best`` — so writes (ingest) sit beside reads (seed
load, best).  No tuner runs here.

History and fresh rows are seeded random configs of the job's own
tasks, measured by the simulator, all distinct, so ingest never
dedups to zero.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import api
from repro.cache import clear_caches
from repro.hardware.device import get_device
from repro.hardware.measure import MeasureRunner
from repro.rng import make_rng
from repro.schedule.batch import lower_batch
from repro.schedule.sampler import random_batch
from repro.search.records import TuningRecord
from repro.search.tuner import RoundProgress
from repro.serve.app import ServeApp
from repro.serve.client import ServeClient
from repro.serve.http import make_server
from repro.service.store import store_key_for_tasks
from repro.timemodel import SimClock
from repro.workloads import network_tasks

from perfbench.speed import SpeedProbe
from perfbench.tracer import Tracer, median, ratio, tail

NETWORK, METHOD, DEVICE = "bert_tiny", "pruner", "a100"
RUNNER = "perfbench-runner"
ROWS_PER_COMPLETE = 10
REQUESTS = ("submit", "lease", "heartbeat", "complete", "best")


@dataclass(frozen=True)
class FleetSpec:
    history_rows: int
    setups: int  # set-ups per run; setup_s is their median
    probe_rows: int  # smaller store the traced run compares lease time with
    min_cycles: int


SPEC = FleetSpec(history_rows=5000, setups=5, probe_rows=1000, min_cycles=20)
SMOKE_SPEC = FleetSpec(history_rows=200, setups=2, probe_rows=50, min_cycles=2)

#: Per-layer metrics this workload measures (the rest read 0).
LAYER_METRICS = frozenset(
    {
        "store.append_rows_ms_p50",
        "store.load_rows_ms_p50",
        "store.rows_end",
        "service.best_schedule_ms_p50",
        "serve.lease_server_ms_mean",
        "serve.complete_server_ms_mean",
        "serve.lease_wire_ms",
        "serve.lease_bytes",
        "serve.lease_ms_per_krow",
        "lease_ms_p50",
        "lease_ms_tail",
        "complete_ms_p50",
        "complete_ms_tail",
        "best_ms_p50",
        "best_ms_tail",
        "fail_frac",
        "trace_overhead_frac",
    }
)


class RowSource:
    """Seeded, distinct record rows of the job's tasks, measured on the
    simulator; handed out round-robin over tasks so any prefix covers
    every task."""

    CHUNK = 100  # configs drawn per task per refill

    def __init__(self, tasks, seed: int) -> None:
        self.tasks = tasks
        self.rng = make_rng(seed)
        self.clock = SimClock()
        self.runner = MeasureRunner(
            get_device(DEVICE), clock=self.clock, rng=make_rng(seed + 1)
        )
        self.seen: set[tuple[str, str]] = set()
        self.rows: list[dict] = []
        self.used = 0
        self.refills = 0

    def _refill(self) -> None:
        per_task: list[list[dict]] = []
        for task in self.tasks:
            configs = random_batch(task.space, self.rng, self.CHUNK).unique()
            batch = lower_batch(task.space, configs)
            measured = self.runner.measure_batch(batch)
            rows = []
            for i, key in enumerate(batch.keys()):
                if (task.key, key) in self.seen:
                    continue
                self.seen.add((task.key, key))
                record = TuningRecord(
                    task_key=task.key,
                    prog=batch.program(i),
                    latency=float(measured.latency[i]),
                    sim_time=self.clock.total,
                    round_index=self.refills,
                )
                rows.append(record.to_dict())
            per_task.append(rows)
        self.refills += 1
        for i in range(max(len(column) for column in per_task)):
            self.rows.extend(column[i] for column in per_task if i < len(column))

    def take(self, n: int) -> list[dict]:
        while len(self.rows) - self.used < n:
            self._refill()
        out = self.rows[self.used : self.used + n]
        self.used += n
        return out


def result_summary(tasks, rows: list[dict]) -> dict:
    """A runner-style result summary for one job's fresh rows."""
    best: dict[str, float] = {}
    for row in rows:
        lat = float(row["latency"])
        if math.isfinite(lat):
            best[row["task_key"]] = min(lat, best.get(row["task_key"], math.inf))
    return {
        "final_latency": "inf",
        "fixed_latency": 0.0,
        "best": best,
        "weights": {t.key: t.weight for t in tasks},
        "total_trials": len(rows),
        "fresh_trials": len(rows),
        "seeded_trials": 0,
        "stopped_early": False,
        "warm_model": False,
        "rounds_completed": 1,
        "curve": [],
    }


@dataclass
class Server:
    """One in-process app + HTTP server, torn down by :meth:`close`."""

    app: ServeApp
    httpd: object
    thread: threading.Thread
    client: ServeClient
    url: str
    rows: int = 0  # rows the store should hold

    @classmethod
    def start(cls, cache_dir: Path) -> "Server":
        app = ServeApp(cache_dir)
        httpd = make_server(app)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        url = f"http://127.0.0.1:{httpd.server_address[1]}"
        return cls(app, httpd, thread, ServeClient(url), url)

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.thread.join(timeout=30)
        self.app.shutdown()

    def metrics_text(self) -> str:
        with urllib.request.urlopen(self.url + "/metrics", timeout=30) as resp:
            return resp.read().decode("utf-8")


def server_seconds(text: str) -> dict[str, tuple[float, int]]:
    """Per-route (sum seconds, count) of ``repro_http_request_seconds``."""
    out: dict[str, list] = {}
    pattern = re.compile(
        r'^repro_http_request_seconds_(sum|count)\{[^}]*route="([^"]+)"[^}]*\} (\S+)$'
    )
    for line in text.splitlines():
        m = pattern.match(line)
        if m:
            kind, route, value = m.groups()
            entry = out.setdefault(route, [0.0, 0])
            entry[0 if kind == "sum" else 1] += float(value)
    return {k: (v[0], int(v[1])) for k, v in out.items()}


@dataclass
class Cycle:
    ms: dict[str, float] = field(default_factory=dict)  # per request, raw
    traced: bool = False
    spans: list = field(default_factory=list)  # traced cycles: its spans
    served: dict = field(default_factory=dict)  # trace runs: route -> (s, n)
    lease_bytes: int = 0
    best_latency: float = math.inf
    failures: list[str] = field(default_factory=list)


def run_cycle(server: Server, tasks, fresh: list[dict]) -> Cycle:
    """One submit -> lease -> heartbeat -> complete -> best cycle."""
    c = server.client
    cycle = Cycle()

    def timed(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        cycle.ms[name] = 1e3 * (time.perf_counter() - t0)
        return out

    job_id = timed("submit", c.submit, NETWORK, device=DEVICE, method=METHOD,
                   rounds=1, scale="smoke")
    lease = timed("lease", c.lease, RUNNER)
    if lease is None or lease["job"]["job_id"] != job_id:
        cycle.failures.append("lease did not return the submitted job")
        return cycle
    cycle.lease_bytes = len(json.dumps(lease).encode("utf-8"))
    if len(lease["seed_rows"]) != server.rows:
        cycle.failures.append(
            f"lease shipped {len(lease['seed_rows'])} rows, store holds {server.rows}"
        )
    progress = RoundProgress(
        round_index=1, rounds=1, trials=len(fresh), latency=math.inf, sim_time=0.0
    ).to_dict()
    timed("heartbeat", c.heartbeat, lease["lease_id"], RUNNER, progress=progress)
    done = timed("complete", c.complete, lease["lease_id"], RUNNER, job_id,
                 result_summary(tasks, fresh), fresh)
    server.rows += done.get("records_ingested", 0)
    if done.get("records_ingested") != len(fresh):
        cycle.failures.append(
            f"complete ingested {done.get('records_ingested')} of {len(fresh)} rows"
        )
    best = timed("best", c.best, NETWORK, device=DEVICE, method=METHOD)
    latency = best.get("tuned_latency")
    cycle.best_latency = float(latency) if isinstance(latency, (int, float)) else math.inf
    if not math.isfinite(cycle.best_latency):
        cycle.failures.append(f"/best returned a non-finite latency {latency!r}")
    return cycle


def set_up(cache_dir: Path, key, history: list[dict], tasks, warm: list[dict]):
    """Start a server, fill its store, run one warm-up cycle.

    Returns ``(server, seconds, warm-up cycle)``; the warm-up cycle pays
    the store-key memo and the first-lease task build.
    """
    clear_caches()
    t0 = time.perf_counter()
    server = Server.start(cache_dir)
    try:
        server.rows = server.app.service.store.append_rows(key, history)
        warm_cycle = run_cycle(server, tasks, warm)
    except BaseException:
        server.close()
        raise
    return server, time.perf_counter() - t0, warm_cycle


def instrument(tracer: Tracer, app: ServeApp) -> None:
    store = app.service.store
    tracer.wrap(store, "append_rows", "store.append_rows")
    tracer.wrap(store, "load_rows", "store.load_rows")
    tracer.wrap(app.service, "best_schedule", "service.best_schedule")


def run(seed: int, seconds: float, trace: bool, work_dir: Path, smoke: bool = False) -> dict:
    """Set up, then repeat cycles for ``seconds``; returns the workload's figures.

    With ``trace`` untraced and traced cycles alternate, ``GET /metrics``
    is read after every cycle, and a smaller store is probed first for
    the lease-time growth per 1,000 rows.  ``work_dir`` holds the stores
    and is removed at the end.
    """
    spec = SMOKE_SPEC if smoke else SPEC
    tasks = api.tasks_for(METHOD, network_tasks(NETWORK), get_device(DEVICE))
    key = store_key_for_tasks(tasks, METHOD)
    source = RowSource(tasks, seed)
    history = source.take(spec.history_rows)
    warm = source.take(ROWS_PER_COMPLETE)

    speed = SpeedProbe("json")
    failures: list[str] = []
    attempted = 0
    setups: list[float] = []
    server = None
    try:
        for i in range(spec.setups):
            if server is not None:
                server.close()
                server = None
            server, setup_s, warm_cycle = set_up(
                work_dir / f"setup{i}", key, history, tasks, warm
            )
            speed.sample(samples=5)
            setups.append(setup_s)
            attempted += len(REQUESTS)
            failures += [f"warm-up: {m}" for m in warm_cycle.failures]

        probe_ms = 0.0
        if trace:
            probe_ms = lease_probe(
                work_dir / "probe", key, history[: spec.probe_rows], tasks, warm,
                source, speed,
            )

        tracer = Tracer()
        cycles: list[Cycle] = []
        scrape = server_seconds(server.metrics_text()) if trace else {}
        start = time.perf_counter()
        while len(cycles) < spec.min_cycles or time.perf_counter() - start < seconds:
            traced = trace and len(cycles) % 2 == 1
            if traced:
                instrument(tracer, server.app)
            since = len(tracer.spans)
            attempted += len(REQUESTS)
            try:
                cycle = run_cycle(server, tasks, source.take(ROWS_PER_COMPLETE))
            except Exception as exc:  # noqa: BLE001 — a failed request is a counted failure
                failures.append(f"cycle {len(cycles)} raised {type(exc).__name__}: {exc}")
                break
            finally:
                tracer.uninstall()
            speed.sample(samples=3)
            failures += [f"cycle {len(cycles)}: {m}" for m in cycle.failures]
            cycles.append(cycle)
            if trace:
                cycle.traced = traced
                cycle.spans = tracer.spans[since:]
                now = server_seconds(server.metrics_text())
                cycle.served = {
                    route: (total - scrape.get(route, (0.0, 0))[0],
                            n - scrape.get(route, (0.0, 0))[1])
                    for route, (total, n) in now.items()
                    if route != "metrics"
                }
                scrape = now
        scale = speed.run_scale()  # to the reference speed (see perfbench.speed)
        rows_end = server.app.service.store.count(key)
        if rows_end != server.rows:
            failures.append(f"store holds {rows_end} rows, expected {server.rows}")
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(work_dir, ignore_errors=True)

    whole = [c for c in cycles if len(c.ms) == len(REQUESTS)]
    plain = [c for c in whole if not c.traced]
    cycle_ms = [scale * sum(c.ms.values()) for c in plain]
    tail_ms, tail_pct, tail_n = tail(cycle_ms)
    # /best after the cycles every run makes: depends on the seed alone
    best = [c.best_latency for c in cycles[: spec.min_cycles]]
    out = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "jobs": len(cycles),
        "e2e": {
            "setup_s": scale * median(setups),
            "trials_per_s": ratio(1e3 * ROWS_PER_COMPLETE, median(cycle_ms)),
            "jobs_per_s": ratio(1e3, median(cycle_ms)),
            "final_latency_us": 1e6 * best[-1] if best else 0.0,
            "cycle_ms_p50": median(cycle_ms),
            "cycle_ms_tail": tail_ms,
        },
        "tails": {"cycle_ms_tail": (tail_pct, tail_n)},
        "speed": speed,
        "raw_cycle_ms_p50": median(sum(c.ms.values()) for c in plain),
        "extra": {"fail_frac": ratio(len(failures), attempted)},
    }
    for name in ("lease", "complete", "best"):
        values = [scale * c.ms[name] for c in plain]
        value, pct, n = tail(values)
        out["extra"][f"{name}_ms_p50"] = median(values)
        out["extra"][f"{name}_ms_tail"] = value
        out["tails"][f"{name}_ms_tail"] = (pct, n)
    if not trace:
        return out

    traced = [c for c in whole if c.traced]

    def span_ms(name: str) -> list[float]:
        return [1e3 * scale * s.duration for c in traced for s in c.spans if s.name == name]

    def server_ms(route: str) -> float:
        total = sum(scale * c.served.get(route, (0.0, 0))[0] for c in whole)
        count = sum(c.served.get(route, (0.0, 0))[1] for c in whole)
        return 1e3 * ratio(total, count)

    lease_server_ms = server_ms("lease")
    traced_ms = [scale * sum(c.ms.values()) for c in traced]
    layers = {
        "store.append_rows_ms_p50": median(span_ms("store.append_rows")),
        "store.load_rows_ms_p50": median(span_ms("store.load_rows")),
        "store.rows_end": rows_end,
        "service.best_schedule_ms_p50": median(span_ms("service.best_schedule")),
        "serve.lease_server_ms_mean": lease_server_ms,
        "serve.complete_server_ms_mean": server_ms("complete"),
        "serve.lease_wire_ms": float(np.mean([scale * c.ms["lease"] for c in whole]))
        - lease_server_ms,
        "serve.lease_bytes": float(np.mean([c.lease_bytes for c in whole])),
        "serve.lease_ms_per_krow": 1e3 * (out["extra"]["lease_ms_p50"] - scale * probe_ms)
        / (spec.history_rows - spec.probe_rows),
        "fail_frac": out["extra"]["fail_frac"],
        "trace_overhead_frac": median(traced_ms) / median(cycle_ms) - 1.0,
    }
    for name in ("lease", "complete", "best"):
        layers[f"{name}_ms_p50"] = out["extra"][f"{name}_ms_p50"]
        layers[f"{name}_ms_tail"] = out["extra"][f"{name}_ms_tail"]
    out["layers"] = layers

    # layer shares of the traced cycles' raw client-side wall time
    spans = [s for c in traced for s in c.spans]
    wall = sum(sum(c.ms.values()) for c in traced) / 1e3
    store_s = sum(s.self_s for s in spans if s.name.startswith("store."))
    service_s = sum(s.self_s for s in spans if s.name == "service.best_schedule")
    server_s = sum(total for c in traced for total, _ in c.served.values())
    out["shares"] = {
        "store": store_s / wall,
        "service": service_s / wall,
        "serve": (server_s - store_s - service_s) / wall,
        "wire": (wall - server_s) / wall,  # client time minus server time
    }
    out["tracer"] = tracer
    return out


def lease_probe(cache_dir: Path, key, rows: list[dict], tasks, warm: list[dict],
                source: RowSource, speed: SpeedProbe) -> float:
    """Median raw client lease ms against a store holding only ``rows``."""
    server, _, _ = set_up(cache_dir, key, rows, tasks, warm)
    try:
        ms = []
        for _ in range(5):
            ms.append(run_cycle(server, tasks, source.take(ROWS_PER_COMPLETE)).ms["lease"])
            speed.sample()
    finally:
        server.close()
    return median(ms)

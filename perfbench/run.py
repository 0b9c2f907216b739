#!/usr/bin/env python3
"""The repository benchmark: one tuning round, one job and one serve
cycle, end to end and layer by layer.

    python3 perfbench/run.py --workload online-r50 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

Workloads: ``online-r50`` and ``offline-search`` (see
``perfbench/tuning.py``) and ``fleet-5k`` (``perfbench/fleet.py``);
``all`` runs each in its own process and prints one table.

With ``--trace 0`` the end-to-end metrics are measured with no wrapper
installed.  With ``--trace 1`` the run alternates untraced and traced
jobs (or cycles) and reports the per-layer metrics, each layer's share
of wall time, and the tracing overhead.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  Run from the repository root;
the program is imported from ``src/``.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the benchmark's own threads
# plus BLAS threads stay within the machine's cores.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from perfbench.metrics import END_TO_END, PER_LAYER, SHARE_LAYERS  # noqa: E402
from perfbench.tracer import median  # noqa: E402

WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
WORKLOADS = ("online-r50", "offline-search", "fleet-5k")
#: threads of the benchmark process that compute at the same time
BENCH_THREADS = {"online-r50": 1, "offline-search": 1, "fleet-5k": 2}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import the program from ``src/``; exits non-zero when it is absent."""
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> dict:
    """Run one workload in this process; returns its figures."""
    from perfbench import fleet, tuning

    if name == "fleet-5k":
        work = WORK / f"fleet-{os.getpid()}"
        return fleet.run(seed, seconds, trace, work, smoke=smoke)
    golden = None
    if not smoke:
        want = json.loads((HERE / "golden.json").read_text())[name]
        if want["seed"] == seed:
            golden = want
    return tuning.run(name, seed, seconds, trace, golden, smoke=smoke)


def layer_metrics_of(name: str) -> frozenset:
    from perfbench import fleet, tuning

    return fleet.LAYER_METRICS if name == "fleet-5k" else tuning.LAYER_METRICS


def result_line(name: str, out: dict, trace: bool) -> dict:
    """The contract's JSON object for one run."""
    failed = out["failed"]
    if trace:
        measured = layer_metrics_of(name)
        values = {m: out.get("layers", {}).get(m, 0.0) if m in measured else 0.0
                  for m in PER_LAYER}
        table = PER_LAYER
    else:
        values = dict(out["e2e"])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        table = END_TO_END
    metrics = {}
    for metric, (unit, _) in table.items():
        value = float(values[metric])
        if not math.isfinite(value):
            out["failures"].append(f"{metric} is not finite")
            failed += 1
            value = 0.0
        metrics[metric] = {"value": value, "unit": unit}
    return {
        "correct": failed == 0,
        "attempted": int(out["attempted"]),
        "failed": int(failed),
        "metrics": metrics,
    }


def environment(name: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "bench_threads": BENCH_THREADS.get(name, 1),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def report(name: str, args, out: dict, line: dict) -> None:
    """Human-readable lines: every metric by name with its unit."""
    print(f"perfbench {name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} jobs={out['jobs']}")
    print("env " + json.dumps(environment(name)))
    speed = out["speed"]
    kernel = median(speed.kernel_ms)
    print(f"speed: reference kernel median {kernel:.4g} ms over {len(speed.kernel_ms)} "
          f"samples ({speed.reference_ms / kernel:.3f}x the reference speed); raw "
          f"cycle_ms_p50 {out['raw_cycle_ms_p50']:.6g} ms")
    if not args.trace:
        for metric, entry in line["metrics"].items():
            tail = out["tails"].get(metric)
            note = f"  (p{tail[0]:.1f} of {tail[1]})" if tail else ""
            print(f"  {metric:<28} {entry['value']:>14.6g} {entry['unit']}{note}")
        for metric, value in out["extra"].items():
            unit = PER_LAYER[metric][0]
            tail = out["tails"].get(metric)
            note = f"  (p{tail[0]:.1f} of {tail[1]})" if tail else ""
            print(f"  {metric:<28} {value:>14.6g} {unit}{note}")
    else:
        measured = layer_metrics_of(name)
        for metric, entry in line["metrics"].items():
            mark = "" if metric in measured else "  (not exercised)"
            print(f"  {metric:<30} {entry['value']:>14.6g} {entry['unit']}{mark}")
        shares = out.get("shares", {})
        print("shares " + json.dumps(shares))
        print("  layer share of loop wall time:")
        for layer in SHARE_LAYERS:
            if layer in shares:
                print(f"    {layer:<12} {100 * shares[layer]:6.1f}%")
    for failure in out["failures"]:
        print(f"  FAILED: {failure}")


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
        shares = next((json.loads(x[7:]) for x in lines if x.startswith("shares ")), {})
        rows[name] = (result, shares)
    if args.trace:
        print("\nlayer share of loop wall time (%)")
        print(f"  {'layer':<12}" + "".join(f"{w:>16}" for w in rows))
        for layer in SHARE_LAYERS:
            cells = [rows[w][1].get(layer) for w in rows]
            if any(c is not None for c in cells):
                print(f"  {layer:<12}" + "".join(
                    f"{'-' if c is None else f'{100 * c:.1f}':>16}" for c in cells))
    else:
        print("\nend-to-end metrics")
        print(f"  {'metric':<20}{'unit':>6}" + "".join(f"{w:>16}" for w in rows))
        for metric, (unit, _) in END_TO_END.items():
            print(f"  {metric:<20}{unit:>6}" + "".join(
                f"{rows[w][0]['metrics'][metric]['value']:>16.6g}" for w in rows))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    if args.workload == "all":
        return run_all(args)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # noqa: BLE001 — report and exit non-zero, no result line
        traceback.print_exc()
        return 1
    line = result_line(args.workload, out, bool(args.trace))
    report(args.workload, args, out, line)
    if "tracer" in out:
        out["tracer"].write(RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

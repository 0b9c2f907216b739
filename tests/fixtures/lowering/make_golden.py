"""Freeze the scalar lowering / draft-model / simulator outputs as goldens.

``golden.json`` next to this script pins, for the seeded configurations
the equivalence suites use, every :class:`LoweredProgram` and
:class:`DataflowBlock` field, the S1..S9 symbols, the analyzer score and
launchability on three devices (plus both ablation switches), and the
simulator / measurement results.  The file was generated from the
independent scalar implementations that lowering and the draft model
had before they became one-row views of the batch path; its header
names that commit.  Floats are written with ``repr`` (JSON's float
form), so the tests compare them exactly.

Regenerate (only on purpose, and say why in the change log) with::

    PYTHONPATH=src python tests/fixtures/lowering/make_golden.py <commit>
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.core.analyzer import SymbolBasedAnalyzer, is_launchable
from repro.core.symbols import extract_symbols
from repro.hardware.device import get_device
from repro.hardware.measure import MeasureRunner
from repro.hardware.simulator import GroundTruthSimulator
from repro.ir import ops
from repro.rng import make_rng
from repro.schedule import generate_sketch, lower
from repro.schedule.sampler import random_population
from repro.timemodel import SimClock

GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: ``tests/test_batch_equivalence.py`` workloads: id -> (workload, tensorcore).
LOWER_CASES = {
    "matmul": (ops.matmul(256, 256, 256), False),
    "conv2d": (ops.conv2d(1, 32, 28, 28, 64, 3), False),
    "tensorcore": (ops.matmul(128, 128, 128, dtype="float16"), True),
    "elementwise": (ops.elementwise((64, 128), n_inputs=2), False),
    "pool": (ops.pool2d(1, 32, 28, 28, 2, 2), False),
}
LOWER_N = 60  # configs per workload (seed 0)
BLOCK_N = 25  # of which the first BLOCK_N also freeze their dataflow blocks
ANALYZER_DEVICES = ("a100", "orin", "t4")

#: ``tests/test_measure_equivalence.py`` workloads: id -> (wl, tc, splitk).
SIM_CASES = {
    "matmul": (ops.matmul(256, 256, 256), False, False),
    "matmul-splitk": (ops.matmul(256, 256, 1024), False, True),
    "conv2d": (ops.conv2d(1, 32, 28, 28, 64, 3), False, False),
    "tensorcore": (ops.matmul(128, 128, 128, dtype="float16"), True, True),
    "elementwise": (ops.elementwise((64, 128), n_inputs=2), False, False),
}
SIM_N = 50
SIM_DEVICES = ("a100", "t4", "orin", "k80")

PROG_FIELDS = (
    "tensorcore",
    "n_blocks",
    "threads_per_block",
    "vthreads",
    "acc_regs",
    "reg_elems",
    "thread_compute",
    "smem_elems",
    "traffic_elems",
    "grid",
    "trans_span",
    "flops",
    "unroll",
    "vector",
    "splitk",
)
BLOCK_FIELDS = (
    "kind",
    "src_level",
    "dst_level",
    "tensor",
    "traffic_elems",
    "alloc_elems",
    "reuse",
    "innermost_span",
    "compute_ops",
    "vector",
    "dtype_bytes",
)
SIM_FIELDS = ("valid", "reason", "latency", "compute_time", "memory_time", "occupancy")


def lower_space_and_configs(case: str):
    wl, tc = LOWER_CASES[case]
    space = generate_sketch(wl, tensorcore=tc, allow_splitk=tc)
    return space, random_population(space, make_rng(0), LOWER_N)


def sim_space_and_configs(case: str):
    wl, tc, sk = SIM_CASES[case]
    space = generate_sketch(wl, tensorcore=tc, allow_splitk=sk)
    return space, random_population(space, make_rng(0), SIM_N)


def matmul128_configs(seed: int, n: int):
    """The ``matmul_space`` fixture of ``tests/conftest.py`` + seeded configs."""
    space = generate_sketch(ops.matmul(128, 128, 128))
    return space, random_population(space, make_rng(seed), n)


def _lower_section() -> dict:
    out = {}
    for case in LOWER_CASES:
        space, configs = lower_space_and_configs(case)
        progs = [lower(space, c) for c in configs]
        entry = {
            "workload": space.workload.key,
            "configs": [c.key for c in configs],
            "program": {f: [getattr(p, f) for p in progs] for f in PROG_FIELDS},
            "blocks": [
                {f: [getattr(b, f) for b in p.blocks] for f in BLOCK_FIELDS}
                for p in progs[:BLOCK_N]
            ],
            "symbols": [list(extract_symbols(p).as_tuple()) for p in progs],
            "score": {},
            "launchable": {},
        }
        for name in ANALYZER_DEVICES:
            dev = get_device(name)
            analyzer = SymbolBasedAnalyzer(dev)
            entry["score"][name] = [analyzer.score(p) for p in progs]
            entry["launchable"][name] = [is_launchable(p, dev) for p in progs]
        a100 = get_device("a100")
        entry["ablation"] = {
            f"compute={use_c},memory={use_m}": [
                SymbolBasedAnalyzer(
                    a100, use_compute_penalty=use_c, use_memory_penalty=use_m
                ).score(p)
                for p in progs
            ]
            for use_c, use_m in ((False, True), (True, False))
        }
        out[case] = entry
    return out


def _sim_section() -> dict:
    out = {}
    for case, (_, tc, _) in SIM_CASES.items():
        space, configs = sim_space_and_configs(case)
        progs = [lower(space, c) for c in configs]
        entry = {"configs": [c.key for c in configs], "devices": {}}
        for name in SIM_DEVICES:
            if tc and name == "k80":
                continue  # no TensorCore path on k80
            sim = GroundTruthSimulator(get_device(name))
            results = [sim.run(p) for p in progs]
            entry["devices"][name] = {
                f: [getattr(r, f) for r in results] for f in SIM_FIELDS
            }
        out[case] = entry
    return out


def _matmul128_section() -> dict:
    a100 = get_device("a100")
    space, configs = matmul128_configs(3, 30)
    sim = GroundTruthSimulator(a100)
    latency = {
        "configs": [c.key for c in configs],
        "latency": [sim.latency(lower(space, c)) for c in configs],
    }
    space, configs = matmul128_configs(9, 40)
    results = MeasureRunner(a100, clock=SimClock(), rng=make_rng(5)).measure(
        [lower(space, c) for c in configs]
    )
    measure = {
        "configs": [c.key for c in configs],
        "latency": [r.latency for r in results],
        "valid": [r.valid for r in results],
    }
    return {"a100_latency_seed3": latency, "a100_measure_seed9_rng5": measure}


def main(commit: str) -> None:
    doc = {
        "_header": {
            "generated_from_commit": commit,
            "generator": "tests/fixtures/lowering/make_golden.py",
            "note": "scalar lower / draft-model / simulator outputs; floats via repr",
        },
        "lower": _lower_section(),
        "simulate": _sim_section(),
        "matmul128": _matmul128_section(),
    }
    # one leaf list per line keeps diffs readable without a 20k-line file
    text = json.dumps(doc, indent=1)
    GOLDEN.write_text(_collapse_leaf_lists(text) + "\n")


def _collapse_leaf_lists(text: str) -> str:
    """Join JSON lists of scalars (no nested containers) onto one line."""
    out: list[str] = []
    buf: list[str] | None = None  # an open list seen only scalars so far
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.endswith("["):
            out.extend(buf or [])
            buf = [line]
        elif buf is not None and stripped.startswith("]"):
            items = " ".join(s.strip() for s in buf[1:])
            out.append(f"{buf[0]}{items}{stripped}")
            buf = None
        elif buf is not None and stripped.endswith("{"):
            out.extend(buf)
            out.append(line)
            buf = None
        elif buf is not None:
            buf.append(line)
        else:
            out.append(line)
    return "\n".join(out)


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "unknown")

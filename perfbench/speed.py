"""Rescaling wall time to a reference machine speed.

On shared 2-core x86_64 VMs the speed of the same code moves by up to
2x within minutes, in short bursts and in sustained spells.  A fixed
reference kernel that resembles the workload's own work is therefore
timed right after every timed interval — a tuning round, a fleet
cycle, a set-up — and intervals are rescaled by
``reference ms / kernel ms``.  Reported times are seconds at the speed
at which the kernel takes its reference time; the raw figures and the
speed factor are printed beside them.

* ``compute`` (the tuning workloads): small matrix products and dict
  building, like the numpy-plus-interpreter mix of training and search.
  A round is rescaled by the kernel run right after it: speed bursts
  last about as long as a round, and on one seed this cut the
  job-to-job spread of ``online-r50`` from 14% to 4%.
* ``json`` (the fleet): encoding and decoding record rows, like the
  serve path's wire and store work.  The matrix kernel did not track
  the fleet's slowdowns: over eight seeds the spread of the median
  cycle time was 19% raw, 13% rescaled by it and 7% rescaled by this
  one.  A fleet run is rescaled by the median of all its kernel runs,
  since a kernel run right after a cycle competes with the server
  thread still finishing the last request.

Kernels run with the garbage collector off, so their time does not
depend on how much the program has allocated.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np


def _compute_kernel():
    a = np.random.default_rng(0).random((64, 64))
    cols = a[:, :8]

    def run() -> None:
        acc = 0.0
        for _ in range(300):
            acc += float((a @ cols)[0, 0])
            _ = {j: j * 2 for j in range(20)}

    return run


def _json_kernel():
    rows = [
        {
            "v": 1,
            "task_key": f"matmul|i=128,j={64 * (i % 8 + 1)},k=512|float32",
            "config": {
                "tiles": [["i", [1, 2, 4, 8, 2]], ["j", [4, 8, 2, 2, 2]], ["k", [8, 8, 8]]],
                "unroll": 16,
                "vector": 4,
                "splitk": 1,
            },
            "config_key": f"{i:08x}",
            "latency": 1.234e-5 * (i + 1),
            "sim_time": 0.5 * i,
            "round_index": i % 30,
        }
        for i in range(300)
    ]

    def run() -> None:
        json.loads(json.dumps(rows))

    return run


#: kind -> (kernel factory, kernel ms at the reference speed).  The
#: compute kernel takes 1.65 ms on an unloaded 2-core 2.0 GHz x86_64 VM
#: with one BLAS thread; the json reference was measured beside it.
KERNELS = {"compute": (_compute_kernel, 1.65), "json": (_json_kernel, 3.2)}


class SpeedProbe:
    """Times a reference kernel; :meth:`scale` returns the rescale factor."""

    def __init__(self, kind: str = "compute") -> None:
        factory, self.reference_ms = KERNELS[kind]
        self._run = factory()
        self.kernel_ms: list[float] = []
        self._kernel()  # first-call costs stay out of the samples

    def _kernel(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            self._run()
            return 1e3 * (time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def sample(self, samples: int = 1) -> float:
        """Time the kernel ``samples`` times now; returns the median ms."""
        runs = sorted(self._kernel() for _ in range(samples))
        self.kernel_ms += runs
        return runs[len(runs) // 2]

    def scale(self, samples: int = 1) -> float:
        """Rescale factor for the interval that just ended.

        Long intervals (set-ups) take the median of a few samples, so a
        burst during one kernel run does not rescale a whole second.
        """
        return self.reference_ms / self.sample(samples)

    def run_scale(self) -> float:
        """Rescale factor from every sample so far (their median)."""
        runs = sorted(self.kernel_ms)
        return self.reference_ms / runs[len(runs) // 2]

"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; ``perfbench/selftest.py``
checks that the two agree.  End-to-end metrics are reported by every
workload with tracing off; per-layer metrics come from the traced run,
and a layer a workload does not exercise reads 0 there.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "jobs_per_s": ("1/s", "higher"),
    "final_latency_us": ("us", "lower"),
    "cycle_ms_p50": ("ms", "lower"),
    "cycle_ms_tail": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: name -> (unit, better)
PER_LAYER = {
    # repro.costmodel
    "costmodel.fit_s": ("s", "lower"),
    "costmodel.fit_calls": ("count", "lower"),
    "costmodel.fit_rows": ("count", "lower"),
    "costmodel.fit_self_s": ("s", "lower"),
    "costmodel.predict_s": ("s", "lower"),
    "costmodel.predict_rows": ("count", "lower"),
    "costmodel.rank_acc_last": ("ratio", "higher"),
    # repro.features
    "features.featurize_s": ("s", "lower"),
    "features.rows": ("count", "lower"),
    "features.cache_hit_ratio": ("ratio", "higher"),
    # repro.core
    "core.explore_s": ("s", "lower"),
    "core.sa_evals": ("count", "lower"),
    # repro.schedule
    "schedule.lower_s": ("s", "lower"),
    "schedule.lowered_rows": ("count", "lower"),
    "schedule.memo_hit_ratio": ("ratio", "higher"),
    # repro.hardware
    "hardware.measure_s": ("s", "lower"),
    "hardware.measured": ("count", "higher"),
    # repro.search
    "search.round_ms_p50": ("ms", "lower"),
    "search.propose_s": ("s", "lower"),
    "search.drafted": ("count", "lower"),
    "search.measured": ("count", "higher"),
    "search.unaccounted_frac": ("ratio", "lower"),
    "sim_search_s": ("s", "lower"),
    # repro.service
    "store.append_rows_ms_p50": ("ms", "lower"),
    "store.load_rows_ms_p50": ("ms", "lower"),
    "store.rows_end": ("count", "higher"),
    "service.best_schedule_ms_p50": ("ms", "lower"),
    # repro.serve
    "serve.lease_server_ms_mean": ("ms", "lower"),
    "serve.complete_server_ms_mean": ("ms", "lower"),
    "serve.lease_wire_ms": ("ms", "lower"),
    "serve.lease_bytes": ("bytes", "lower"),
    "serve.lease_ms_per_krow": ("ms/krow", "lower"),
    "lease_ms_p50": ("ms", "lower"),
    "lease_ms_tail": ("ms", "lower"),
    "complete_ms_p50": ("ms", "lower"),
    "complete_ms_tail": ("ms", "lower"),
    "best_ms_p50": ("ms", "lower"),
    "best_ms_tail": ("ms", "lower"),
    # the run itself
    "fail_frac": ("ratio", "lower"),
    "trace_overhead_frac": ("ratio", "lower"),
}

#: Layers of the share-of-wall-time table, in print order.
SHARE_LAYERS = (
    "search",
    "core",
    "schedule",
    "costmodel",
    "features",
    "hardware",
    "store",
    "service",
    "serve",
    "wire",
    "unaccounted",
)

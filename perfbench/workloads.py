"""The benchmark's workloads and metric names, shared by run.py, cell.py and the self-tests.

Each workload loads fedstat's layers differently (see README.md for the
per-layer predictions):

* ``coverage-c1-linear`` -- the paper-style coverage cell. Every round syncs,
  so per-round work (synchronization, inference draws, both observers)
  dominates; the only workload that goes through the process pool.
* ``coverage-p05-logistic`` -- a power schedule (E_m ~ m^0.5) on logistic
  clients. The local-step loop and the chunked logistic draw dominate, and
  ``rounds_for_target`` has its largest share of set-up. Single process, so it
  is also the plain one-core baseline.
* ``critvals-table`` -- regenerating the critical-value table with
  ``simulate_table``; touches only ``critvals``.

Sizes are chosen so that one cell takes a few seconds on a 2-core machine and
several cells fit in one run; every cell of a run uses the same seed, so all of
them must write the same report bytes.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "cell_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "harness.build_federation_s": "s",
    "harness.rounds_for_target_s": "s",
    "schedules.diagnostics_s": "s",
    "schedules.intervals_s": "s",
    "schedules.intervals_calls": "count",
    "critvals.default_table_s": "s",
    "engine.run_s": "s",
    "engine.self_s": "s",
    "engine.take_s": "s",
    "engine.take_calls": "count",
    "models.draw_s": "s",
    "models.draw_rows": "count",
    "engine.local_steps": "count",
    "engine.rounds": "count",
    "engine.run_s_p50": "s",
    "engine.run_s_tail": "s",
    "engine.run_tail_pct": "%",
    "engine.run_samples": "count",
    "plugin.observe_s": "s",
    "plugin.observe_calls": "count",
    "rscale.observe_s": "s",
    "rscale.observe_calls": "count",
    "plugin.interval_s": "s",
    "rscale.interval_s": "s",
    "plugin.failures": "count",
    "harness.report_write_s": "s",
    "harness.pool_overhead_s": "s",
    "critvals.simulate_statistics_s": "s",
    "critvals.quantile_s": "s",
    "trace.overhead_frac": "ratio",
}

_DEFAULT_BETAS = [0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0]
_DEFAULT_LEVELS = [0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.99]

# kind: "coverage" runs harness.run_experiment, "critvals" runs simulate_table.
# params are the full-size inputs; tiny overrides them for the self-tests.
WORKLOADS = {
    "coverage-c1-linear": {
        "kind": "coverage",
        "workers": 2,
        "params": {
            "model": "linear",
            "dimension": 5,
            "clients": 10,
            "heterogeneity": True,
            "schedule": {"kind": "constant", "base": 1, "warmup_fraction": 0.05},
            "target_observations": 10_000,
            "replications": 12,
            "methods": ["plugin", "rscale"],
        },
        "tiny": {"target_observations": 2_000, "replications": 2},
    },
    "coverage-p05-logistic": {
        "kind": "coverage",
        "workers": 1,
        "params": {
            "model": "logistic",
            "dimension": 5,
            "clients": 10,
            "heterogeneity": False,
            "schedule": {"kind": "power", "base": 1, "exponent": 0.5, "warmup_fraction": 0.05},
            "target_observations": 100_000,
            "replications": 2,
            "methods": ["plugin", "rscale"],
        },
        "tiny": {"target_observations": 4_000, "replications": 2},
    },
    "critvals-table": {
        "kind": "critvals",
        "workers": 1,
        "params": {
            "betas": _DEFAULT_BETAS,
            "levels": _DEFAULT_LEVELS,
            "steps": 1000,
            "replications": 100_000,
        },
        "tiny": {"steps": 100, "replications": 2_000},
    },
}


def params_for(name: str, tiny: bool) -> dict:
    """The inputs of workload ``name``, shrunk for the self-tests when ``tiny``."""
    workload = WORKLOADS[name]
    params = dict(workload["params"])
    if tiny:
        params.update(workload["tiny"])
    return params

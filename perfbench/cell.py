"""Run one benchmark cell or one set-up probe in a fresh interpreter.

run.py starts this as ``python3 cell.py '<json spec>'`` for every cell, so no
``lru_cache`` of a previous cell hides set-up work. The last line on stdout is
one JSON object. fedstat, numpy and scipy are imported only inside the
functions below, so the critvals probe can time a cold import.

A cell that raises reports ``{"ok": false, "error": ...}`` instead of a result;
run.py counts all of its operations as failed.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def _config(spec: dict):
    from fedstat import harness, schedules

    params = dict(spec["params"])
    params["schedule"] = schedules.CommunicationSchedule(**params["schedule"])
    params["methods"] = tuple(params["methods"])
    return harness.ExperimentConfig(seed=spec["seed"], **params)


def probe(spec: dict) -> dict:
    """Cold time of the work done before the first replication or table draw."""
    if spec["kind"] == "critvals":
        started = perf_counter()
        import fedstat  # noqa: F401  (the set-up of a table run is the import)

        return {"setup_s": perf_counter() - started}
    from fedstat import critvals, harness, rscale, schedules

    config = _config(spec)
    started = perf_counter()
    harness.build_federation(config)
    rounds = harness.rounds_for_target(config.schedule, config.target_observations)
    schedules.diagnostics(config.schedule, rounds)
    rscale.beta_for_schedule(config.schedule)
    critvals.default_table()
    return {"setup_s": perf_counter() - started}


def coverage_cell(spec: dict) -> dict:
    from fedstat import harness

    config = _config(spec)
    out_dir = Path(spec["out_dir"])
    started = perf_counter()
    report = harness.run_experiment(config, workers=spec["workers"], out_dir=out_dir)
    run_s = perf_counter() - started
    return {
        "run_s": run_s,
        "replications": config.replications,
        "failed_ops": sum(m.failures for m in report.methods),
        "rounds": report.rounds,
        "t_T": report.t_T,
        "mean_error": report.mean_error,
        "output": (out_dir / "report.csv").read_text(),
    }


def critvals_cell(spec: dict) -> dict:
    from fedstat import critvals

    params = spec["params"]
    started = perf_counter()
    table = critvals.simulate_table(
        params["betas"],
        params["levels"],
        steps=params["steps"],
        replications=params["replications"],
        seed=spec["seed"],
    )
    run_s = perf_counter() - started
    text = io.StringIO()
    critvals.save_csv(table, text)
    return {
        "run_s": run_s,
        "replications": params["replications"],
        "failed_ops": 0,
        "output": text.getvalue(),
    }


def _peak_rss_mb() -> float:
    """The larger of this process's peak RSS and that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(spec: dict) -> dict:
    if spec["mode"] == "probe":
        return probe(spec)
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    try:
        if spec["kind"] == "coverage":
            result = coverage_cell(spec)
        else:
            result = critvals_cell(spec)
    except Exception as exc:  # the cell's boundary: report the failure, keep the run going
        traceback.print_exc()
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    result["ok"] = True
    result["peak_rss_mb"] = _peak_rss_mb()
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "scipy": sys.modules["scipy"].__version__,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        tracer.write(spec["spans_path"])
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))

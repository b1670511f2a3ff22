"""In-memory span tracer wrapped around fedstat's public calls for a traced run.

Nothing under ``src/`` knows about it: ``install`` replaces module functions
and class methods with wrappers that record a span (name, start, end, parent
span, replication id) for every call. Spans stay in memory and are written
once, when the run ends. A span's self time is its duration minus the time
covered by its direct children; calls are single-threaded in a traced run
(workers=1), so children never overlap.
"""

from __future__ import annotations

import statistics
from array import array
from time import perf_counter_ns

_NS = 1e-9


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.rep = array("i")
        self.current_rep = -1
        self._total_ns: list[int] = []
        self._self_ns: list[int] = []
        self._calls: list[int] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list[int]] = []  # [span index, ns covered by children]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._total_ns.append(0)
            self._self_ns.append(0)
            self._calls.append(0)
        return self._ids[name]

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None, on_error=None):
        """``fn`` recorded as span ``name``; hooks see the call's arguments."""
        nid = self._id(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1][0] if self._stack else -1)
            self.rep.append(self.current_rep)
            self.start.append(0)
            self.end.append(0)
            frame = [index, 0]
            self._stack.append(frame)
            started = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                ended = perf_counter_ns()
                self._stack.pop()
                duration = ended - started
                self.start[index] = started
                self.end[index] = ended
                self._total_ns[nid] += duration
                self._self_ns[nid] += duration - frame[1]
                self._calls[nid] += 1
                if self._stack:
                    self._stack[-1][1] += duration
            if after is not None:
                after(args, result)
            return result

        return traced

    def total_s(self, name: str) -> float:
        return self._total_ns[self._ids[name]] * _NS if name in self._ids else 0.0

    def self_s(self, name: str) -> float:
        return self._self_ns[self._ids[name]] * _NS if name in self._ids else 0.0

    def calls(self, name: str) -> int:
        return self._calls[self._ids[name]] if name in self._ids else 0

    def durations_s(self, name: str) -> list[float]:
        if name not in self._ids:
            return []
        nid = self._ids[name]
        return [
            (e - s) * _NS for n, s, e in zip(self.name_id, self.start, self.end) if n == nid
        ]

    def write(self, path) -> None:
        """All spans as one compressed .npz: parallel arrays plus the name table."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            rep=np.frombuffer(self.rep, dtype=np.int32),
        )


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every measured layer of fedstat."""
    from fedstat import critvals, engine, harness, models, plugin, rscale, schedules

    def patch(owner, attr, name, **hooks):
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), **hooks))

    def enter_rep(args):
        tracer.current_rep = args[1]

    def after_run(args, path):
        federation = args[0]
        tracer.count("engine.rounds", path.rounds)
        tracer.count("engine.local_steps", path.total_iterations * federation.size)

    def after_draw(args, _):
        tracer.count("models.draw_rows", args[2])

    def plugin_error(exc):
        if isinstance(exc, plugin.SingularHessian):
            tracer.count("plugin.failures")

    patch(harness, "build_federation", "harness.build_federation")
    patch(harness, "rounds_for_target", "harness.rounds_for_target")
    patch(schedules, "diagnostics", "schedules.diagnostics")
    patch(schedules, "intervals", "schedules.intervals")
    patch(rscale, "beta_for_schedule", "rscale.beta_for_schedule")
    patch(critvals, "default_table", "critvals.default_table")
    # The replication boundary: gives every span below it its replication id.
    patch(harness, "_replicate", "harness.replicate", before=enter_rep)
    patch(engine, "run", "engine.run", after=after_run)
    patch(engine.SampleBuffer, "take", "engine.take")
    patch(models.ClientModel, "draw", "models.draw", after=after_draw)
    patch(plugin.PluginState, "observe", "plugin.observe")
    patch(rscale.RScaleState, "observe", "rscale.observe")
    patch(plugin.PluginState, "confidence_interval", "plugin.interval", on_error=plugin_error)
    patch(rscale.RScaleState, "confidence_interval", "rscale.interval")
    patch(harness, "report_csv", "harness.report_csv")
    patch(harness, "replication_rows_csv", "harness.replication_rows_csv")
    patch(critvals, "simulate_table", "critvals.simulate_table")
    patch(critvals, "simulate_statistics", "critvals.simulate_statistics")


SETUP_SPANS = (
    "harness.build_federation",
    "harness.rounds_for_target",
    "schedules.diagnostics",
    "rscale.beta_for_schedule",
    "critvals.default_table",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced cell yields on its own.

    ``harness.pool_overhead_s`` and ``trace.overhead_frac`` need the untraced
    cell too; run.py computes them from the two extra entries returned here,
    ``setup_s`` (the set-up calls) and ``replicate_s`` (all replications).
    """
    t, c = tracer.total_s, tracer.calls
    runs = sorted(tracer.durations_s("engine.run"))
    n = len(runs)
    if n >= 20:
        # The highest percentile with at least ten samples beyond it.
        tail, tail_pct = runs[n - 11], 100 * (n - 10) // n
    else:
        tail, tail_pct = (statistics.median(runs) if runs else 0.0), 50
    return {
        "harness.build_federation_s": t("harness.build_federation"),
        "harness.rounds_for_target_s": t("harness.rounds_for_target"),
        "schedules.diagnostics_s": t("schedules.diagnostics"),
        "schedules.intervals_s": t("schedules.intervals"),
        "schedules.intervals_calls": c("schedules.intervals"),
        "critvals.default_table_s": t("critvals.default_table"),
        "engine.run_s": t("engine.run"),
        # engine.run minus its traced children: take, observers, schedule lookups.
        "engine.self_s": tracer.self_s("engine.run"),
        "engine.take_s": tracer.self_s("engine.take"),
        "engine.take_calls": c("engine.take"),
        "models.draw_s": t("models.draw"),
        "models.draw_rows": tracer.counts.get("models.draw_rows", 0),
        "engine.local_steps": tracer.counts.get("engine.local_steps", 0),
        "engine.rounds": tracer.counts.get("engine.rounds", 0),
        "engine.run_s_p50": statistics.median(runs) if runs else 0.0,
        "engine.run_s_tail": tail,
        "engine.run_tail_pct": tail_pct,
        "engine.run_samples": n,
        "plugin.observe_s": t("plugin.observe"),
        "plugin.observe_calls": c("plugin.observe"),
        "rscale.observe_s": t("rscale.observe"),
        "rscale.observe_calls": c("rscale.observe"),
        "plugin.interval_s": t("plugin.interval"),
        "rscale.interval_s": t("rscale.interval"),
        "plugin.failures": tracer.counts.get("plugin.failures", 0),
        "harness.report_write_s": t("harness.report_csv") + t("harness.replication_rows_csv"),
        "critvals.simulate_statistics_s": t("critvals.simulate_statistics"),
        # simulate_table minus the Monte Carlo draw: validation and np.quantile.
        "critvals.quantile_s": tracer.self_s("critvals.simulate_table"),
        "setup_s": sum(t(name) for name in SETUP_SPANS),
        "replicate_s": t("harness.replicate"),
    }

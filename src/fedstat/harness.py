"""Experiment harness: replicated runs and coverage reports.

The configuration and its text format live in ``fedstat.config``;
``ExperimentConfig``, ``parse_config_text`` and ``load_config`` are
re-exported here.  ``run_experiment`` executes R independent replications
with pre-assigned seeds, computes per-method coverage of the true coordinate
and confidence-interval lengths, and aggregates them into a report whose CSV
form is byte-reproducible for a fixed (config, seed) regardless of worker
count.

``_STATES`` maps each method to the function that builds its inference
state from a finished path; a state estimates only its method's variance.
``run_experiment`` resolves every method's ``confidence_interval`` arguments
once, the critical value among them: z_{1-alpha/2} for the plug-in, the
tabulated t*(beta) quantile for random scaling.  The plug-in also takes its
variance scale nu_hat / t_T, read off the ``ScheduleTable`` as a number.  The
states never see alpha, the table or the schedule.  A replication runs the
engine, which only optimizes, then feeds each state from the path in config
order: the plug-in the inference draws at the synchronized points
(``engine.inference_draws``), random scaling the points and their intervals.
A path carries the ``ScheduleTable`` it ran on (``path.table``), the run's
one time axis: the intervals fed to random scaling and the time change
h(r, T) of ``partial_sum_process`` are read from it.  A replication computes
the one estimate y_bar_T (``engine.average_estimate``) and asks each state
for its interval around it.  The errors ||y_bar_t - x*|| come from the same
estimator, at T from the same estimate.

``_replicate`` is the one replication function of both drivers.  It returns
arrays, and nan encodes a failure: an interval row is nan when its method
failed (singular Hessian or a nan variance estimate) or the run diverged, and
the errors are nan when the run diverged.  ``run_experiment`` stacks the rows
of all replications and computes coverage, lengths, failures and the mean
error on the stack; ``convergence_curve`` runs the same function with its
checkpoints and no methods.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import NormalDist

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with the package)

from . import critvals, engine, models, roundoff, rscale, schedules
from .config import PLUGIN, RSCALE, ExperimentConfig, load_config, parse_config_text
from .plugin import PluginState, SingularHessian
from .rscale import RScaleState
from .schedules import rounds_for_target

__all__ = [
    "ExperimentConfig",
    "MethodSummary",
    "ExperimentReport",
    "parse_config_text",
    "load_config",
    "build_federation",
    "run_experiment",
    "convergence_curve",
    "partial_sum_process",
    "report_csv",
    "replication_rows_csv",
]


@dataclass(frozen=True)
class MethodSummary:
    method: str
    coverage: float       # successes among non-failed replications
    coverage_se: float
    mean_length: float
    length_sd: float
    failures: int         # singular Hessian estimate or diverged run


@dataclass(frozen=True)
class ExperimentReport:
    schedule_label: str
    rounds: int
    t_T: int
    acf: float
    nu_hat: float
    beta: float | None
    methods: tuple[MethodSummary, ...]
    mean_error: float    # average of ||y_bar - x*|| over replications that did not diverge
    wall_clock: float


# --- federation construction ------------------------------------------------


def build_federation(config: ExperimentConfig) -> models.Federation:
    """Draw the data-generating process once per experiment from the seed.

    One (K, d) array holds the clients' local optima (linear) or centers
    (quadratic): drawn per client when heterogeneous, else one drawn vector
    (linear) or zeros (quadratic) for every client.  Logistic clients share
    the fixed optimum linspace(0, 1, d), or 1 when d = 1, and draw nothing.
    """
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    k, d = config.clients, config.dimension
    if config.model == "logistic":
        optima = np.tile(np.linspace(0.0, 1.0, d) if d > 1 else np.ones(1), (k, 1))
    elif config.heterogeneity:
        optima = rng.standard_normal((k, d))
    elif config.model == "linear":
        optima = np.tile(rng.standard_normal(d), (k, 1))
    else:
        optima = np.zeros((k, d))
    return models.Federation(
        [models.ClientModel(config.model, o, noise_scale=config.noise_scale) for o in optima]
    )


def _resolve_x0(config: ExperimentConfig, federation: models.Federation) -> np.ndarray:
    if isinstance(config.x0, str):
        if config.x0 == "zeros":
            return np.zeros(federation.dimension)
        return federation.global_optimum.copy()  # "optimum", the only other name
    return np.asarray(config.x0, dtype=np.float64)


# --- replication workers -----------------------------------------------------


@dataclass(frozen=True)
class _RepPayload:
    seed: int
    federation: models.Federation
    table: schedules.ScheduleTable
    x0: np.ndarray
    checkpoints: tuple[int, ...]  # rounds t at which ||y_bar_t - x*|| is measured; the last is T
    methods: tuple[tuple[str, tuple], ...] = ()  # (method, confidence_interval arguments)
    paths_dir: Path | None = None
    dump_paths: int = 0


def _plugin_state(
    payload: _RepPayload, seed: np.random.SeedSequence, path: engine.SyncPath
) -> PluginState:
    """The plug-in state fed one round's inference draws at a time."""
    federation = payload.federation
    state = PluginState(federation.dimension)
    for grads, hessians in engine.inference_draws(federation, seed, path.points):
        for grad_draw, hess_draw in zip(grads, hessians):
            state.observe(grad_draw, hess_draw)
    return state


def _rscale_state(
    payload: _RepPayload, seed: np.random.SeedSequence, path: engine.SyncPath
) -> RScaleState:
    """The random-scaling state fed one round's point and interval at a time."""
    state = RScaleState(payload.federation.dimension)
    for x_bar, interval in zip(path.points, path.table.intervals.tolist()):
        state.observe(x_bar, interval)
    return state


_STATES = {PLUGIN: _plugin_state, RSCALE: _rscale_state}


def _replicate(payload: _RepPayload, rep: int) -> tuple[np.ndarray, np.ndarray]:
    """One replication: ``(intervals, errors)``.

    ``intervals`` holds one (lo, hi) row per method of the payload, and
    ``errors`` holds ||y_bar_t - x*|| at each of its checkpoints.  Every
    interval is centred on y_bar_T, and every y_bar_t is
    ``engine.average_estimate`` of the first t points, all read in one pass
    over the path.  A method's row is nan when its Hessian estimate was
    singular or a variance estimate was nan; when the run diverges (the
    engine's ``DivergenceError``), every row and every error is nan, and no
    state is built.
    """
    federation = payload.federation
    seed = np.random.SeedSequence(payload.seed, spawn_key=(1, rep))
    intervals = np.full((len(payload.methods), 2), math.nan)
    errors = np.full(len(payload.checkpoints), math.nan)
    try:
        path = engine.run(federation, payload.table, payload.x0, seed)
    except engine.DivergenceError:
        return intervals, errors
    if rep < payload.dump_paths:
        target = payload.paths_dir / f"rep_{rep:04d}.csv"
        with target.open("w") as stream:
            engine.save_path_csv(path, stream)

    estimates = engine._prefix_estimates(path.points, payload.checkpoints)
    y_bar = estimates[-1]
    for row, (method, args) in zip(intervals, payload.methods):
        state = _STATES[method](payload, seed, path)
        try:
            row[:] = state.confidence_interval(y_bar, *args)
        except SingularHessian:
            pass  # the row stays nan: a failed method
    optimum = federation.global_optimum
    for i, y_bar_t in enumerate(estimates):
        errors[i] = np.linalg.norm(y_bar_t - optimum)
    return intervals, errors


def _count(name: str, value: int, least: int) -> int:
    """``value`` read with ``operator.index``, as ``ExperimentConfig`` reads
    its integer fields (1.5 is refused, not cut to 1, and True reads as 1),
    and checked to be at least ``least``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


# A pool worker's payload, set once per worker by the pool's initializer, so
# that the tasks carry only their indices.
_worker_payload: _RepPayload | None = None


def _set_worker_payload(payload: _RepPayload) -> None:
    global _worker_payload
    _worker_payload = payload


def _run_worker_task(rep: int) -> tuple[np.ndarray, np.ndarray]:
    return _replicate(_worker_payload, rep)


def _map_replications(payload: _RepPayload, count: int, workers: int) -> list:
    """_replicate(payload, rep) for rep in 0..count-1, in order, on at most
    min(workers, count) processes.  Each worker receives the payload once,
    through the pool's initializer."""
    workers = min(workers, count)
    if workers <= 1:
        return [_replicate(payload, rep) for rep in range(count)]
    # Imported here: table runs and one-worker runs never load multiprocessing.
    from concurrent.futures import ProcessPoolExecutor

    chunksize = max(1, count // (8 * workers))
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_set_worker_payload, initargs=(payload,)
    ) as pool:
        return list(pool.map(_run_worker_task, range(count), chunksize=chunksize))


# --- experiment driver --------------------------------------------------------


def run_experiment(
    config: ExperimentConfig,
    workers: int = 1,
    out_dir: str | Path | None = None,
    dump_paths: int = 0,
) -> ExperimentReport:
    """Run all replications, aggregate coverage/length statistics per method.

    Replications failing with a singular Hessian estimate are counted and
    excluded from the coverage and length statistics, which are nan for a
    method that no replication completed.  A replication whose run diverges
    (the engine's ``DivergenceError``) fails for every method alike, and it is
    left out of ``mean_error`` too, since it has no estimate; ``mean_error`` is
    nan when every replication diverged.  When ``out_dir`` is given, writes
    ``report.csv`` and ``replications.csv`` into it, and the paths of the
    first ``dump_paths`` replications into its ``paths`` directory;
    ``dump_paths`` below 0, or above 0 without ``out_dir``, is an error.
    ``workers`` and ``dump_paths`` must be integers (``operator.index``
    reads them: 0.5 is refused, not cut to 0).

    Both methods and the coverage decision share the roundoff rule of
    ``fedstat.roundoff``, with floor ROUNDOFF_FACTOR * eps * max(||x0||_inf,
    max_k ||local optimum_k||_inf): a half-width at or below the floor is exactly 0,
    and the true coordinate is covered when it lies within max(half-width,
    floor) of the centre.  A noiseless run started at the optimum therefore
    reports coverage 1 and length 0.

    Replications run on ``workers`` processes (at least 1), but never on more
    processes than there are replications; one worker runs them in this
    process.  The output bytes do not depend on the worker count.
    """
    workers = _count("workers", workers, 1)
    dump_paths = _count("dump_paths", dump_paths, 0)
    if dump_paths > 0 and out_dir is None:
        raise ValueError("dump_paths needs an output directory")
    started = time.perf_counter()
    federation = build_federation(config)
    schedule = config.schedule
    total_rounds = config.rounds or rounds_for_target(schedule, config.target_observations)
    table = schedules.table(schedule, total_rounds)
    z = NormalDist().inv_cdf(1.0 - config.alpha_level / 2.0)
    beta = q = None
    if RSCALE in config.methods:
        beta = rscale.beta_for_schedule(schedule)
        if config.critical_values is None:
            quantiles = critvals.default_table()
        else:
            with open(config.critical_values) as stream:
                quantiles = critvals.load_csv(stream)
        # The one lookup: a bad or missing value fails here, before any replication.
        q = critvals.lookup(quantiles, config.alpha_level, beta)

    x0 = _resolve_x0(config, federation)
    floor = roundoff.floor_for(roundoff.run_scale(federation, x0))
    j = config.coordinate
    interval_args = {PLUGIN: (z, table.nu_hat / table.t_T, j, floor), RSCALE: (q, j, floor)}
    paths_dir = None
    if dump_paths > 0:
        paths_dir = Path(out_dir) / "paths"
        paths_dir.mkdir(parents=True, exist_ok=True)

    payload = _RepPayload(
        seed=config.seed,
        federation=federation,
        table=table,
        x0=x0,
        checkpoints=(total_rounds,),
        methods=tuple((method, interval_args[method]) for method in config.methods),
        paths_dir=paths_dir,
        dump_paths=dump_paths,
    )
    results = _map_replications(payload, config.replications, workers)
    intervals, errors = map(np.stack, zip(*results))
    lo, hi = intervals[..., 0], intervals[..., 1]
    failed = np.isnan(lo)
    target = float(federation.global_optimum[config.coordinate])
    covered = roundoff.covers(lo, hi, target, floor)
    widths = hi - lo

    summaries = []
    for idx, method in enumerate(config.methods):
        ok = ~failed[:, idx]
        denom = int(np.count_nonzero(ok))
        failures = len(ok) - denom
        if not denom:
            nan = math.nan
            summaries.append(MethodSummary(method, nan, nan, nan, nan, failures))
            continue
        coverage = int(np.count_nonzero(covered[ok, idx])) / denom
        kept = widths[ok, idx]
        summaries.append(
            MethodSummary(
                method=method,
                coverage=coverage,
                coverage_se=math.sqrt(coverage * (1.0 - coverage) / denom),
                mean_length=float(kept.mean()),
                length_sd=float(kept.std(ddof=1)) if denom > 1 else 0.0,
                failures=failures,
            )
        )

    errors = errors[~np.isnan(errors[:, 0]), 0]
    report = ExperimentReport(
        schedule_label=schedule.label(),
        rounds=total_rounds,
        t_T=table.t_T,
        acf=table.acf,
        nu_hat=table.nu_hat,
        beta=beta,
        methods=tuple(summaries),
        mean_error=float(errors.mean()) if errors.size else math.nan,
        wall_clock=time.perf_counter() - started,
    )

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.csv").write_text(report_csv(report))
        (out / "replications.csv").write_text(
            replication_rows_csv(config, report, intervals, covered)
        )
    return report


def report_csv(report: ExperimentReport) -> str:
    """One row per method; the stable machine-readable contract."""
    lines = [
        "method,schedule,t_T,coverage,coverage_se,mean_len,len_sd,acf,nu_hat,failures"
    ]
    for summary in report.methods:
        lines.append(
            f"{summary.method},{report.schedule_label},{report.t_T},"
            f"{summary.coverage:.12g},{summary.coverage_se:.12g},"
            f"{summary.mean_length:.12g},{summary.length_sd:.12g},"
            f"{report.acf:.12g},{report.nu_hat:.12g},{summary.failures}"
        )
    return "\n".join(lines) + "\n"


def replication_rows_csv(
    config: ExperimentConfig,
    report: ExperimentReport,
    intervals: np.ndarray,
    covered: np.ndarray,
) -> str:
    """Per-replication detail rows from the stacked (replication, method, 2)
    intervals and their (replication, method) coverage decisions.  A nan
    interval is a failed method and its row reads ``failed``; beta is empty
    for the plug-in method."""
    lines = ["rep,method,schedule,beta,t_T,coordinate,lo,hi,covered,width"]
    betas = [
        f"{report.beta:.12g}" if (method == RSCALE and report.beta is not None) else ""
        for method in config.methods
    ]
    label = report.schedule_label
    for rep, (rows, hits) in enumerate(zip(intervals.tolist(), covered.tolist())):
        for method, beta, (lo, hi), hit in zip(config.methods, betas, rows, hits):
            head = f"{rep},{method},{label},{beta},{report.t_T},{config.coordinate}"
            if math.isnan(lo):
                lines.append(f"{head},,,failed,")
            else:
                lines.append(f"{head},{lo:.12g},{hi:.12g},{int(hit)},{hi - lo:.12g}")
    return "\n".join(lines) + "\n"


# --- convergence curves and the partial-sum process ---------------------------


def convergence_curve(
    config: ExperimentConfig,
    checkpoints: list[int] | tuple[int, ...],
    workers: int = 1,
) -> list[tuple[int, float, float]]:
    """Mean estimation error ||y_bar_t - x*|| at each checkpoint round t.

    The estimate at t is ``engine.average_estimate`` of the first t
    synchronized points, the estimator of a t-round run.  Returns
    (rounds, mean error, standard error) per checkpoint, averaged over the
    configured number of replications; one engine run per replication, to
    the last checkpoint.  Checkpoints must be integers (``operator.index``
    reads them: 3.7 is refused, not cut to 3), strictly increasing and >= 1.
    As in ``run_experiment``, a replication whose run diverges (the engine's
    ``DivergenceError``) is left out of every checkpoint's mean and standard
    error, and both are nan when every replication diverged.  ``workers`` is
    read and capped as in ``run_experiment``.
    """
    workers = _count("workers", workers, 1)
    rounds = []
    for t in checkpoints:
        try:
            rounds.append(operator.index(t))
        except TypeError:
            raise ValueError(f"checkpoints must be integers, got {t!r}") from None
    checkpoints = tuple(rounds)
    if not checkpoints or any(b <= a for a, b in zip(checkpoints, checkpoints[1:])):
        raise ValueError("checkpoints must be nonempty and strictly increasing")
    below = [t for t in checkpoints if t < 1]
    if below:
        raise ValueError(f"checkpoints must be >= 1, got {below}")
    federation = build_federation(config)
    table = schedules.table(config.schedule, checkpoints[-1])
    x0 = _resolve_x0(config, federation)
    payload = _RepPayload(config.seed, federation, table, x0, checkpoints)
    results = _map_replications(payload, config.replications, workers)
    _, errors = map(np.stack, zip(*results))
    errors = errors[~np.isnan(errors[:, 0])]  # a diverged run's errors are all nan
    if not len(errors):
        return [(t, math.nan, math.nan) for t in checkpoints]
    means = errors.mean(axis=0)
    ses = errors.std(axis=0, ddof=1) / math.sqrt(len(errors)) if len(errors) > 1 else 0 * means
    return [(t, float(mu), float(se)) for t, mu, se in zip(checkpoints, means, ses)]


def partial_sum_process(
    path: engine.SyncPath, x_star: np.ndarray, grid: list[float] | tuple[float, ...]
) -> np.ndarray:
    """The rescaled partial-sum process of the path on a grid of r values.

    Row i holds sqrt(t_T)/T * sum of the first h = h(r_i, T) centered
    iterates, read as sqrt(t_T) * (h/T) * (y_bar_h - x*), where y_bar_h is
    the estimator of the first h points (``engine.average_estimate``); one
    pass over the path serves every row.  At r = 1 this is
    sqrt(t_T) * (y_bar_T - x*) bit for bit, the statistic of the central
    limit theorem.  h(r, T) is read from the table the path ran on,
    ``path.table``, so no table is built.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    hs = schedules.fclt_time_scale(path.table, grid)
    ends = sorted(set(hs) - {0})
    estimates = dict(zip(ends, engine._prefix_estimates(path.points, ends)))
    scale = math.sqrt(path.total_iterations)
    return np.stack([
        scale * (h / path.rounds) * (estimates[h] - x_star) if h else np.zeros_like(x_star)
        for h in hs
    ])

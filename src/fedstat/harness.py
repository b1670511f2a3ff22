"""Experiment harness: configuration, replicated runs, coverage reports.

A configuration fixes the data-generating federation, the communication
schedule, the run length (either a round count or a target observation count),
and the inference methods; ``ExperimentConfig`` rejects bad input when it is
built.  ``run_experiment`` executes R independent replications with
pre-assigned seeds, computes per-method coverage of the true coordinate and
confidence-interval lengths, and aggregates them into a report whose CSV form
is byte-reproducible for a fixed (config, seed) regardless of worker count.

``_STATES`` maps each method to its inference state, which is also its engine
observer.  ``run_experiment`` resolves every method's ``confidence_interval``
arguments once, the critical value among them: z_{1-alpha/2} for the
plug-in, the tabulated t*(beta) quantile for random scaling.  The states never
see alpha or the table.  A replication builds the states in config order, runs
the engine and asks each state for its interval.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from statistics import NormalDist

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with the package)

from . import critvals, engine, models, roundoff, rscale, schedules
from .plugin import PluginState, SingularHessian
from .rscale import RScaleState

__all__ = [
    "ExperimentConfig",
    "MethodSummary",
    "ExperimentReport",
    "parse_config_text",
    "load_config",
    "build_federation",
    "rounds_for_target",
    "run_experiment",
    "convergence_curve",
    "partial_sum_process",
    "report_csv",
    "replication_rows_csv",
]

_STATES = {"plugin": PluginState, "rscale": RScaleState}
_INTEGER_FIELDS = (
    "dimension", "clients", "rounds", "target_observations", "replications", "seed", "coordinate"
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: the federation, the schedule, the run length, the
    replications and the inference methods.  Bad input raises ``ValueError``
    when the config is built.

    A logistic config loads the sigmoid (``models.sigmoid``, from
    scipy.special, most of a cold import's time) when it is built, and no
    other kind loads it.  Building the config comes before ``run_experiment``,
    and so before its pool forks: forked workers inherit the loaded module,
    and neither ``build_federation`` nor the first replication pays for the
    import.
    """

    model: str = "linear"
    dimension: int = 5
    clients: int = 10
    noise_scale: float = 1.0
    heterogeneity: bool = True
    schedule: schedules.CommunicationSchedule = schedules.CommunicationSchedule(
        kind="constant", base=1, warmup_fraction=0.05
    )
    rounds: int | None = None
    target_observations: int | None = 10000
    replications: int = 1000
    seed: int = 0
    methods: tuple[str, ...] = ("plugin", "rscale")
    alpha_level: float = 0.05
    coordinate: int = 0
    x0: tuple[float, ...] | str = "zeros"
    critical_values: str | None = None

    def __post_init__(self) -> None:
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if value is not None:
                try:
                    operator.index(value)
                except TypeError:
                    raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.model not in models.KERNELS:
            raise ValueError(f"unknown model {self.model!r}")
        if self.dimension < 1 or self.clients < 1:
            raise ValueError("dimension and clients must be >= 1")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ValueError("noise_scale must be nonnegative and finite")
        if self.model == "logistic":
            if self.heterogeneity:
                raise ValueError("logistic runs do not support heterogeneity; set it off")
            models.sigmoid  # noqa: B018  (loads scipy.special now; see the docstring)
        if (self.rounds is None) == (self.target_observations is None):
            raise ValueError("set exactly one of rounds / target_observations")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.target_observations is not None and self.target_observations < 1:
            raise ValueError("target_observations must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.methods or any(m not in _STATES for m in self.methods):
            raise ValueError(f"methods must be a nonempty subset of {tuple(_STATES)}")
        if len(set(self.methods)) != len(self.methods):
            raise ValueError(f"methods must not repeat, got {self.methods}")
        if not 0.0 < self.alpha_level < 1.0:
            raise ValueError("alpha_level must lie in (0, 1)")
        if not 0 <= self.coordinate < self.dimension:
            raise ValueError("coordinate out of range (0-based)")
        if isinstance(self.x0, str):
            if self.x0 not in ("zeros", "optimum"):
                raise ValueError("x0 must be 'zeros', 'optimum' or a vector")
        elif len(self.x0) != self.dimension or not all(map(math.isfinite, self.x0)):
            raise ValueError(f"x0 must be a finite vector of length {self.dimension}")


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


# --- configuration ----------------------------------------------------------

_BOOL = {"on": True, "true": True, "1": True, "off": False, "false": False, "0": False}


def _parse_bool(value: str, key: str) -> bool:
    try:
        return _BOOL[value.lower()]
    except KeyError:
        raise ValueError(f"{key} must be on/off") from None


def _parse_methods(value: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in value.split(",") if m.strip())


def _parse_x0(value: str) -> tuple[float, ...] | str:
    if value in ("zeros", "optimum"):
        return value
    return tuple(float(v) for v in value.split(","))


# Config key -> (field, converter); a "schedule." field goes to the schedule.
_KEYS = {
    "model": ("model", str),
    "dimension": ("dimension", int),
    "clients": ("clients", int),
    "noise_scale": ("noise_scale", float),
    "heterogeneity": ("heterogeneity", partial(_parse_bool, key="heterogeneity")),
    "schedule": ("schedule.kind", str),
    "schedule_base": ("schedule.base", int),
    "schedule_exponent": ("schedule.exponent", float),
    "gamma0": ("schedule.gamma0", float),
    "alpha": ("schedule.alpha", float),
    "warmup_fraction": ("schedule.warmup_fraction", float),
    "rounds": ("rounds", int),
    "target_observations": ("target_observations", int),
    "replications": ("replications", int),
    "seed": ("seed", int),
    "methods": ("methods", _parse_methods),
    "alpha_level": ("alpha_level", float),
    "coordinate": ("coordinate", int),
    "x0": ("x0", _parse_x0),
    "critical_values": ("critical_values", str),
}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` configuration format (# for comments).

    Setting ``rounds`` clears the default ``target_observations``.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in raw:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    unknown = set(raw) - set(_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")

    kwargs: dict = {}
    sched_kwargs: dict = {}
    for key, (field, convert) in _KEYS.items():
        if key in raw:
            scope, _, name = field.rpartition(".")
            (sched_kwargs if scope else kwargs)[name] = convert(raw[key])
    if "rounds" in raw:
        kwargs.setdefault("target_observations", None)
    if sched_kwargs:
        default = ExperimentConfig.__dataclass_fields__["schedule"].default
        kwargs["schedule"] = replace(default, **sched_kwargs)

    return ExperimentConfig(**kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config_text(Path(path).read_text())


# --- federation construction ------------------------------------------------


def build_federation(config: ExperimentConfig) -> models.Federation:
    """Draw the data-generating process once per experiment from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(0,)))
    k, d = config.clients, config.dimension
    if config.model == "linear":
        if config.heterogeneity:
            optima = rng.standard_normal((k, d))
        else:
            optima = np.tile(rng.standard_normal(d), (k, 1))
        clients = [
            models.ClientModel("linear", optima[i], noise_scale=config.noise_scale)
            for i in range(k)
        ]
    elif config.model == "logistic":
        shared = np.linspace(0.0, 1.0, d) if d > 1 else np.ones(1)
        clients = [models.ClientModel("logistic", shared) for _ in range(k)]
    else:
        centers = rng.standard_normal((k, d)) if config.heterogeneity else np.zeros((k, d))
        clients = [models.ClientModel("quadratic", centers[i]) for i in range(k)]
    return models.federation_of(clients)


def rounds_for_target(schedule: schedules.Schedule, target_observations: int) -> int:
    """Smallest T whose cumulative observation count reaches the target.

    Bisection over T.  Every interval is at least 1, so T <= target and one
    family prefix up to the target serves every probe: a T-round run makes
    t_T = W + prefix[T - W] observations, W being its warm-up.
    """
    if target_observations < 1:
        raise ValueError("target_observations must be >= 1")
    prefix = schedules.family_prefix(schedule, target_observations)

    def total(t: int) -> int:
        w = schedules.warmup_from_prefix(schedule, prefix, t)
        return w + int(prefix[t - w])

    lo, hi = 1, target_observations
    while lo < hi:
        mid = (lo + hi) // 2
        if total(mid) >= target_observations:
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    checkpoints: tuple[int, ...]  # rounds t at which ||y_bar_t - x*|| is measured
    methods: tuple[tuple[str, tuple], ...] = ()  # (method, confidence_interval arguments)
    paths_dir: Path | None = None
    dump_paths: int = 0


def _replicate(payload: _RepPayload, rep: int) -> tuple[np.ndarray, np.ndarray]:
    """One replication: ``(intervals, errors)``.

    ``intervals`` holds one (lo, hi) row per method of the payload, and
    ``errors`` holds ||y_bar_t - x*|| at each of its checkpoints.  A method's
    row is nan when its Hessian estimate was singular or a variance estimate
    was nan; when the run diverges (the engine's ``DivergenceError``), every
    row and every error is nan.
    """
    federation = payload.federation
    seed = np.random.SeedSequence(payload.seed, spawn_key=(1, rep))
    intervals = np.full((len(payload.methods), 2), math.nan)
    errors = np.full(len(payload.checkpoints), math.nan)
    states = [_STATES[method](federation.dimension) for method, _ in payload.methods]
    try:
        path = engine.run(federation, payload.table, payload.x0, seed, observers=states)
    except engine.DivergenceError:
        return intervals, errors
    if rep < payload.dump_paths:
        target = payload.paths_dir / f"rep_{rep:04d}.csv"
        with target.open("w") as stream:
            engine.save_path_csv(path, stream)

    for row, state, (_, args) in zip(intervals, states, payload.methods):
        try:
            row[:] = state.confidence_interval(*args)
        except SingularHessian:
            pass  # the row stays nan: a failed method
    optimum = federation.global_optimum
    for i, t in enumerate(payload.checkpoints):
        errors[i] = np.linalg.norm(path.points[:t].mean(axis=0) - optimum)
    return intervals, errors


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


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
    ``dump_paths`` without ``out_dir`` is an error.

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
    _check_workers(workers)
    if dump_paths > 0 and out_dir is None:
        raise ValueError("dump_paths needs an output directory")
    started = time.perf_counter()
    federation = build_federation(config)
    schedule = config.schedule
    total_rounds = config.rounds or rounds_for_target(schedule, config.target_observations)
    table = schedules.table(schedule, total_rounds)
    diag = table.diagnostics
    z = NormalDist().inv_cdf(1.0 - config.alpha_level / 2.0)
    beta = q = None
    if "rscale" in config.methods:
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
    interval_args = {"plugin": (z, diag, j, floor), "rscale": (q, j, floor)}
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
        t_T=diag.t_T,
        acf=diag.acf,
        nu_hat=diag.nu_hat,
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
        f"{report.beta:.12g}" if (method == "rscale" and report.beta is not None) else ""
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

    The estimate at t is the mean of the first t synchronized points, the
    estimator of ``engine.average_estimate`` on a t-round run.  Returns
    (rounds, mean error, standard error) per checkpoint, averaged over the
    configured number of replications; one engine run per replication, to
    the last checkpoint.  Checkpoints must be strictly increasing and >= 1.
    As in ``run_experiment``, a replication whose run diverges (the engine's
    ``DivergenceError``) is left out of every checkpoint's mean and standard
    error, and both are nan when every replication diverged.  ``workers`` is
    capped as in ``run_experiment``.
    """
    _check_workers(workers)
    checkpoints = tuple(int(t) for t in checkpoints)
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
    path: engine.SyncPath,
    schedule: schedules.Schedule,
    x_star: np.ndarray,
    grid: list[float] | tuple[float, ...],
) -> np.ndarray:
    """The rescaled partial-sum process of the path on a grid of r values.

    Row i holds sqrt(t_T)/T * sum of the first h(r_i, T) centered iterates;
    at r = 1 this equals sqrt(t_T) * (y_bar_T - x*).  ``schedule`` must be the
    one that produced the path: h(r, T) is read from its intervals, so a
    schedule whose communication times differ from the path's raises
    ``ValueError``.
    """
    x_star = np.asarray(x_star, dtype=np.float64)
    table = schedules.table(schedule, path.rounds)
    if not np.array_equal(table.comm_times, path.comm_times):
        raise ValueError(
            f"schedule {schedule.label()} does not match the path's communication times"
        )
    scale = math.sqrt(path.total_iterations) / path.rounds
    cumulative = np.cumsum(path.points - x_star, axis=0)
    rows = []
    for r in grid:
        h = schedules.fclt_time_scale(table, float(r))
        rows.append(scale * cumulative[h - 1] if h >= 1 else np.zeros(path.points.shape[1]))
    return np.stack(rows)

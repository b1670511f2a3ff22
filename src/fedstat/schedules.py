"""Communication-interval and step-size schedules for intermittently averaged SGD.

A schedule fixes, for every round m >= 1, the number of local iterations E_m
performed between synchronizations and the effective step size
gamma_m = gamma0 * m**(-alpha), from which the per-iteration step is
eta_m = gamma_m / E_m.  Three parametric families are supported (constant,
logarithmic and power growth), optionally preceded by a warm-up phase where
E_m = 1 for the first ``warmup_fraction`` of all observations.

A run reads one frozen ``ScheduleTable``: the read-only arrays of E_m,
gamma_m, eta_m and the synchronization times, the warm-up round count, and
the summary numbers t_T, nu_hat and acf of the same intervals.  The
inference states see only numbers read off it, never the table or the
schedule.  ``table(schedule, T)`` builds it from a ``CommunicationSchedule``;
``explicit_table(intervals, etas)`` builds it from explicit arrays, one round
per entry.  The harness builds it once per experiment and every
replication's engine run reads it; nothing is cached.
``rounds_for_target(schedule, n)`` finds the smallest T whose t_T reaches n
observations.  It and ``table`` apply the one warm-up rule
t_T = W + P[T - W] through two private helpers: ``_family_prefix`` gives the
family's prefix sums P and ``_warmup`` the warm-up round count W.

The integer intervals use numpy's ``power`` and ``log2``: the ``- 1e-12``
guard of the ceiling absorbs their last-bit differences from Python's scalar
``**`` and ``math.log2`` (no interval differs for T up to 10^6 on C1, C5,
P(1/3), P(1/2), P(2,1/2), P(2/3), P(0.9), Log, Log(2,1) and Log(1,1.5)).
The step sizes gamma_m are computed with Python's ``pow`` instead, because
nothing absorbs a last-bit difference in eta_m and numpy's vectorized
``power`` differs from ``pow`` in the last bit in about 5% of elements
(50,508 of m = 1..10^6 at alpha = 0.505).
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "CommunicationSchedule",
    "ScheduleTable",
    "intervals",
    "rounds_for_target",
    "table",
    "explicit_table",
    "diagnostics",
    "fclt_time_scale",
    "validate_schedule",
]

_KINDS = ("constant", "log", "power")

# Relative slack when checking that a diagnostic trend decreases along a grid.
# The assumption-driven quantities decay like T**(1/2 - alpha); with alpha just
# above 1/2 they are nearly flat at desk scale and small transient increases
# (a few percent per decade) do not indicate a violated assumption.
_TREND_SLACK = 0.05


@dataclass(frozen=True)
class CommunicationSchedule:
    """One of the parametric interval families plus its step-size law.

    kind:
        "constant" -> E_m = base
        "log"      -> E_m = ceil(base * log2(m + 1) ** exponent)
        "power"    -> E_m = ceil(base * m ** exponent), 0 < exponent < 1
    gamma0, alpha:
        effective step size gamma_m = gamma0 * m**(-alpha), alpha in (0.5, 1).
    warmup_fraction:
        fraction of the total observation count spent with E_m = 1 before the
        family starts; the family index is shifted accordingly.
    """

    kind: str
    base: int = 1
    exponent: float = 1.0
    gamma0: float = 0.5
    alpha: float = 0.505
    warmup_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        # Compared first, because int(inf) and a float of a huge int raise
        # OverflowError.  Every family's first interval is base, and float64
        # counts exactly only up to 2**53.
        if not (1 <= self.base <= 2**53 and int(self.base) == self.base):
            raise ValueError("base interval must be an integer in [1, 2**53]")
        # Stored as an int: base=2.0 or base=True would be labelled "C2.0" or "CTrue".
        object.__setattr__(self, "base", int(self.base))
        if self.kind == "power" and not 0.0 < self.exponent < 1.0:
            raise ValueError(
                "power schedule needs exponent in (0, 1); faster growth makes "
                "the harmonic interval sum converge and breaks the variance scale"
            )
        if self.kind == "log" and not 0.0 < self.exponent < math.inf:
            raise ValueError("log schedule needs a positive finite exponent")
        if not math.isfinite(self.exponent):
            raise ValueError("schedule exponent must be finite")
        if not 0.0 < self.gamma0 < math.inf:
            raise ValueError("gamma0 must be positive and finite")
        if not 0.5 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0.5, 1)")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must lie in [0, 1)")

    def label(self) -> str:
        if self.kind == "constant":
            return f"C{self.base}"
        if self.kind == "log":
            if self.base == 1 and self.exponent == 1.0:
                return "Log"
            return f"Log({self.base},{self.exponent:g})"
        return f"P({self.exponent:g})" if self.base == 1 else f"P({self.base},{self.exponent:g})"

    @property
    def nu_limit(self) -> float:
        """The T -> infinity limit of a ``ScheduleTable``'s ``nu_hat``:
        1 / (1 - exponent**2) for power growth, 1 for constant and log."""
        return 1.0 / (1.0 - self.exponent**2) if self.kind == "power" else 1.0


@dataclass(frozen=True)
class ScheduleTable:
    """Round m's E_m, gamma_m, eta_m and E_1 + ... + E_m at index m - 1, for T rounds.

    The first ``warmup`` rounds are the warm-up's.  Every array is read-only,
    an unpickled copy's too, so one table serves every replication.

    The summary numbers come from the intervals E_1..E_T alone: t_T is the
    total iteration count, nu_hat the finite-T variance inflation estimate
    (1/T^2)(sum E_m)(sum 1/E_m), and acf = T / t_T the averaged
    communication frequency.  nu_hat's limit is the schedule's ``nu_limit``;
    the slow-growth trends are ``validate_schedule``'s.
    """

    intervals: np.ndarray
    gammas: np.ndarray
    etas: np.ndarray
    comm_times: np.ndarray
    warmup: int
    t_T: int
    nu_hat: float
    acf: float

    def __post_init__(self) -> None:
        for array in (self.intervals, self.gammas, self.etas, self.comm_times):
            array.flags.writeable = False

    def __reduce__(self):
        return ScheduleTable, tuple(vars(self).values())


def _family_prefix(schedule: CommunicationSchedule, n: int) -> np.ndarray:
    """Observation counts of the bare family's first 0..n rounds (length n + 1).

    Entry k is F_1 + ... + F_k, where F_i is the family interval at index i
    without the warm-up shift: ``base`` for "constant",
    ceil(base * log2(i + 1) ** exponent - 1e-12) for "log" and
    ceil(base * i ** exponent - 1e-12) for "power", at least 1.  Raises
    ValueError when an interval exceeds 2**53, where float64 stops counting
    exactly, or the counts could exceed int64.
    """
    if schedule.kind == "constant":
        _check_counts(schedule, n, schedule.base)
        family = np.full(n, schedule.base, dtype=np.int64)
    else:
        # One buffer, updated in place: each temporary of the plain expression
        # is n * 8 bytes of fresh pages, and at n = 10^5 (``rounds_for_target``
        # for 10^5 observations) their page faults were most of the call.
        # ``**=`` takes the same scalar shortcuts as ``**`` (sqrt at 0.5), so
        # the bits are those of ceil(base * grow**exponent - 1e-12).
        grow = np.arange(1, n + 1, dtype=np.float64)
        if schedule.kind == "log":
            grow += 1.0
            np.log2(grow, out=grow)
        grow **= schedule.exponent
        grow *= schedule.base
        grow -= 1e-12
        np.ceil(grow, out=grow)
        np.maximum(grow, 1.0, out=grow)
        _check_counts(schedule, n, grow[-1] if n else 1.0)
        family = grow.astype(np.int64)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(family, out=prefix[1:])
    return prefix


def _check_counts(schedule: CommunicationSchedule, n: int, last: float) -> None:
    """Every family is non-decreasing in i, so its last interval bounds them all."""
    last = int(last)
    if last > 2**53 or n * last >= 2**63:
        raise ValueError(
            f"schedule {schedule.label()} does not fit 64-bit counts at T = {n} (interval {last})"
        )


def _warmup(schedule: CommunicationSchedule, prefix: np.ndarray, total_rounds: int) -> int:
    """Number of leading rounds with E_m = 1 for a run of ``total_rounds``.

    ``prefix`` is ``_family_prefix(schedule, n)`` for any n >= total_rounds.
    The warm-up covers the first ``warmup_fraction`` of all observations.  Each
    warm-up round contributes exactly one observation, so the count W is the
    smallest solution of W >= warmup_fraction * t_T(W) with
    t_T(W) = W + prefix[total_rounds - W].  The left side grows strictly faster
    in W than the right, so bisection applies; W = total_rounds always solves
    it, since prefix[0] = 0 and warmup_fraction < 1.
    """
    frac = schedule.warmup_fraction
    if frac == 0.0:
        return 0
    # A Python bool for the key: bisect compares it with True, which for a
    # numpy bool takes microseconds.
    return bisect.bisect_left(
        range(total_rounds), True, key=lambda w: w >= frac * (w + int(prefix[total_rounds - w]))
    )


def intervals(schedule: CommunicationSchedule, total_rounds: int) -> np.ndarray:
    """All intervals E_1..E_T as an integer array.

    The warm-up's ones come first, then the bare family from index 1.
    """
    return _warmup_and_intervals(schedule, total_rounds)[1]


def _warmup_and_intervals(schedule: CommunicationSchedule, total_rounds: int) -> tuple[int, np.ndarray]:
    """The warm-up round count W and E_1..E_T, from one family prefix."""
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    prefix = _family_prefix(schedule, total_rounds)
    w = _warmup(schedule, prefix, total_rounds)
    family = np.diff(prefix[: total_rounds - w + 1])
    return w, np.concatenate([np.ones(w, dtype=np.int64), family])


def rounds_for_target(schedule: CommunicationSchedule, target_observations: int) -> int:
    """Smallest T whose cumulative observation count reaches the target.

    A T-round run makes t_T = W + P[T - W] observations, P being the family
    prefix and W the run's warm-up; bisection finds T between two bounds.
    Let n0 be the first n with P[n] >= target and f the warm-up fraction.
    t_T <= P[T], so T >= n0.  A warm-up of W rounds has (1 - f)(W - 1) <
    f * P[T - W + 1], so at T >= n0 + f * P[n0] / (1 - f) + 1 it leaves the
    family at least n0 rounds and t_T >= P[n0]: T <= n0 + ceil(f * P[n0] /
    (1 - f)) + 1, and T <= target, as every interval is at least 1.  The
    prefix grows geometrically until it reaches the target, then to the
    upper bound, and serves every probe.
    """
    if target_observations < 1:
        raise ValueError("target_observations must be >= 1")
    n = min(1024, target_observations)
    prefix = _family_prefix(schedule, n)
    while prefix[-1] < target_observations:
        n = min(4 * n, target_observations)
        prefix = _family_prefix(schedule, n)
    lo = int(np.searchsorted(prefix, target_observations))
    frac = schedule.warmup_fraction
    hi = min(lo + math.ceil(frac * int(prefix[lo]) / (1.0 - frac)) + 1, target_observations)
    if hi > n:
        prefix = _family_prefix(schedule, hi)

    def reached(t: int) -> bool:
        w = _warmup(schedule, prefix, t)
        return w + int(prefix[t - w]) >= target_observations

    return bisect.bisect_left(range(hi), True, lo, key=reached)


def table(schedule: CommunicationSchedule, total_rounds: int) -> ScheduleTable:
    """The first ``total_rounds`` rounds' ``ScheduleTable``: gamma_m = gamma0 * m**(-alpha)
    and eta_m = gamma_m / E_m."""
    warmup, e = _warmup_and_intervals(schedule, total_rounds)
    powers = map(pow, range(1, total_rounds + 1), repeat(-schedule.alpha))
    gammas = schedule.gamma0 * np.fromiter(powers, dtype=np.float64, count=total_rounds)
    return ScheduleTable(e, gammas, gammas / e, np.cumsum(e), warmup, *_summary(e))


def explicit_table(intervals: Sequence[int], etas: Sequence[float]) -> ScheduleTable:
    """The table of one round per entry: E_m = intervals[m - 1], eta_m = etas[m - 1],
    gamma_m = eta_m * E_m, and no warm-up.  As for the families, an interval
    above 2**53 or a total of 2**63 or more is refused.

    Not checked against the slow-growth assumptions; it allows what the
    parametric families cannot, e.g. a constant per-iteration step in
    exactness tests.
    """
    if not len(intervals):
        raise ValueError("need at least one interval")
    if not all(1 <= e < math.inf and int(e) == e for e in intervals):
        raise ValueError("all intervals must be integers >= 1")
    if max(intervals) > 2**53 or sum(map(int, intervals)) >= 2**63:
        raise ValueError("intervals must be at most 2**53 each and sum below 2**63")
    if len(etas) != len(intervals):
        raise ValueError("etas must match intervals in length")
    if not all(0.0 < eta < math.inf for eta in etas):
        raise ValueError("etas must be positive and finite")
    e, steps = np.array(intervals, dtype=np.int64), np.array(etas, dtype=np.float64)
    return ScheduleTable(e, steps * e, steps, np.cumsum(e), 0, *_summary(e))


def _summary(e: np.ndarray) -> tuple[int, float, float]:
    """(t_T, nu_hat, acf) of the intervals ``e``."""
    t_total, total_rounds = int(e.sum()), len(e)
    nu_hat = t_total * float((1.0 / e).sum()) / total_rounds**2
    return t_total, nu_hat, total_rounds / t_total


def diagnostics(schedule: CommunicationSchedule, total_rounds: int) -> tuple[int, float, float]:
    """The table's (t_T, nu_hat, acf), from the intervals alone, without the step sizes.

    Only the benchmark's set-up probe (``perfbench/cell.py``) calls it; it
    goes once that probe times ``schedules.table`` instead.
    """
    return _summary(intervals(schedule, total_rounds))


def fclt_time_scale(table: ScheduleTable, r: float | Sequence[float]) -> int | list[int]:
    """Largest n with sum_{m<=n} 1/E_m <= r * sum_{m<=T} 1/E_m over the table's T rounds.

    This is the time index at which the rescaled partial-sum process is
    evaluated; r = 1 always maps to T.  Returns 0 when even the first round
    exceeds the budget (possible for tiny r under growing intervals).  A
    sequence of r gives the list of their indices, all read off one
    cumulative sum.
    """
    rs = np.asarray(r, dtype=np.float64)
    if not np.all((0.0 < rs) & (rs <= 1.0)):
        raise ValueError("r must lie in (0, 1]")
    css = np.cumsum(1.0 / table.intervals)
    budget = rs * css[-1]
    hs = np.searchsorted(css, budget * (1.0 + 1e-12), side="right")
    return int(hs) if hs.ndim == 0 else hs.tolist()


def _trends(
    schedule: CommunicationSchedule, grid: tuple[int, ...]
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    step_sum, gamma_floor, growth = [], [], []
    for t in grid:
        rows = table(schedule, t)
        e, gammas, sqrt_t = rows.intervals, rows.gammas, math.sqrt(rows.t_T)
        step_sum.append(sqrt_t / t * float(gammas.sum()))
        gamma_floor.append(sqrt_t / (t * math.sqrt(gammas[-1])))
        growth.append(0.0 if t < 2 else t * (1.0 - e[-2] / e[-1]))
    return tuple(step_sum), tuple(gamma_floor), tuple(growth)


def validate_schedule(schedule: CommunicationSchedule, grid: Sequence[int]) -> list[str]:
    """Evaluate the slow-growth trend quantities on ``grid`` and report warnings.

    Purely diagnostic: the underlying conditions are asymptotic and cannot be
    decided from a finite prefix, so nothing is rejected.  A warning is emitted
    for each trend that fails to decrease (within a small relative slack) over
    the last three grid points.
    """
    if not grid:
        raise ValueError("grid must be nonempty")
    points = tuple(sorted(int(t) for t in grid))
    named = zip(
        ("assumption4iv_step_sum sqrt(t_T)/T * sum(gamma_m)",
         "assumption4iv_gamma_floor sqrt(t_T)/(T * sqrt(gamma_T))",
         "prop1_interval_growth m * (1 - E_{m-1}/E_m)"),
        _trends(schedule, points),
    )
    warnings = []
    for name, values in named:
        tail = values[-3:]
        rises = [
            (a, b) for a, b in zip(tail, tail[1:]) if b > a * (1.0 + _TREND_SLACK) + 1e-12
        ]
        if rises:
            warnings.append(
                f"{name} not decreasing over grid tail {points[-3:]}: values {tail}"
            )
    return warnings

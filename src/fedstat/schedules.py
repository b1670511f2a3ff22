"""Communication-interval and step-size schedules for intermittently averaged SGD.

A schedule fixes, for every round m >= 1, the number of local iterations E_m
performed between synchronizations and the effective step size
gamma_m = gamma0 * m**(-alpha), from which the per-iteration step is
eta_m = gamma_m / E_m.  Three parametric families are supported (constant,
logarithmic and power growth), optionally preceded by a warm-up phase where
E_m = 1 for the first ``warmup_fraction`` of all observations.

Each call builds its table afresh from array expressions over all T rounds;
nothing is cached, so a caller that needs a table for a whole run builds it
once.  The integer intervals use numpy's ``power`` and ``log2``: the
``- 1e-12`` guard of the ceiling absorbs their last-bit differences from
Python's scalar ``**`` and ``math.log2`` (no interval differs for T up to
10^6 on C1, C5, P(1/3), P(1/2), P(2,1/2), P(2/3), P(0.9), Log, Log(2,1) and
Log(1,1.5)).  The step sizes gamma_m are computed with Python's ``pow``
instead, because nothing absorbs a last-bit difference in eta_m and numpy's
vectorized ``power`` differs from ``pow`` in the last bit in about 5% of
elements (50,508 of m = 1..10^6 at alpha = 0.505).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

__all__ = [
    "CommunicationSchedule",
    "ExplicitSchedule",
    "ScheduleDiagnostics",
    "family_prefix",
    "intervals",
    "effective_steps",
    "steps_for_intervals",
    "diagnostics",
    "fclt_time_scale",
    "validate_schedule",
    "warmup_from_prefix",
    "warmup_rounds",
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
        if int(self.base) != self.base or self.base < 1:
            raise ValueError("base interval must be an integer >= 1")
        if self.kind == "power" and not 0.0 < self.exponent < 1.0:
            raise ValueError(
                "power schedule needs exponent in (0, 1); faster growth makes "
                "the harmonic interval sum converge and breaks the variance scale"
            )
        if self.kind == "log" and self.exponent <= 0.0:
            raise ValueError("log schedule needs a positive exponent")
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be positive")
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


@dataclass(frozen=True)
class ExplicitSchedule:
    """Escape hatch: user-supplied interval (and optionally step) sequences.

    Not validated against the slow-growth assumptions.  When ``etas`` is given
    it overrides the gamma0/alpha law, which the parametric families cannot do;
    this is what allows e.g. a constant per-iteration step in exactness tests.
    """

    intervals: tuple[int, ...]
    etas: tuple[float, ...] = ()
    gamma0: float = 0.5
    alpha: float = 0.505

    def __post_init__(self) -> None:
        if not self.intervals:
            raise ValueError("need at least one interval")
        if any(int(e) != e or e < 1 for e in self.intervals):
            raise ValueError("all intervals must be integers >= 1")
        if self.etas and len(self.etas) != len(self.intervals):
            raise ValueError("etas must match intervals in length")
        if any(e <= 0 for e in self.etas):
            raise ValueError("etas must be positive")

    def label(self) -> str:
        return f"explicit[{len(self.intervals)}]"


Schedule = CommunicationSchedule | ExplicitSchedule


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Summary quantities of a schedule truncated at T rounds.

    t_T is the total iteration count, nu_hat the finite-T variance inflation
    estimate (1/T^2)(sum E_m)(sum 1/E_m), nu_limit its closed-form limit when
    known, and acf = T / t_T the averaged communication frequency.  The
    slow-growth trends are ``validate_schedule``'s.
    """

    t_T: int
    nu_hat: float
    nu_limit: float | None
    acf: float


def _extended(values: tuple, n: int, dtype: type) -> np.ndarray:
    """The first n entries of ``values``, repeating its final entry past its end."""
    seq = np.asarray(values, dtype=dtype)
    return seq[np.minimum(np.arange(n), len(seq) - 1)]


def family_prefix(schedule: Schedule, n: int) -> np.ndarray:
    """Observation counts of the bare family's first 0..n rounds (length n + 1).

    Entry k is F_1 + ... + F_k, where F_i is the family interval at index i
    without the warm-up shift: ``base`` for "constant",
    ceil(base * log2(i + 1) ** exponent - 1e-12) for "log" and
    ceil(base * i ** exponent - 1e-12) for "power", at least 1.  An explicit
    schedule's family is its own sequence, repeating the final value.
    """
    if isinstance(schedule, ExplicitSchedule):
        family = _extended(schedule.intervals, n, np.int64)
    elif schedule.kind == "constant":
        family = np.full(n, schedule.base, dtype=np.int64)
    else:
        grow = np.arange(1, n + 1, dtype=np.float64)
        if schedule.kind == "log":
            grow = np.log2(grow + 1.0)
        values = np.ceil(schedule.base * grow**schedule.exponent - 1e-12)
        family = np.maximum(values, 1.0).astype(np.int64)
    return np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(family)])


def warmup_from_prefix(schedule: Schedule, prefix: np.ndarray, total_rounds: int) -> int:
    """Number of leading rounds with E_m = 1 for a run of ``total_rounds``.

    ``prefix`` is ``family_prefix(schedule, n)`` for any n >= total_rounds.
    The warm-up covers the first ``warmup_fraction`` of all observations.  Each
    warm-up round contributes exactly one observation, so the count W is the
    smallest solution of W >= warmup_fraction * t_T(W) with
    t_T(W) = W + prefix[total_rounds - W].  The left side grows strictly faster
    in W than the right, so bisection applies.
    """
    if isinstance(schedule, ExplicitSchedule):
        return 0
    frac = schedule.warmup_fraction
    if frac == 0.0:
        return 0

    def short(w: int) -> bool:
        return w < frac * (w + prefix[total_rounds - w])

    lo, hi = 0, total_rounds
    if short(hi):
        return hi
    while lo < hi:
        mid = (lo + hi) // 2
        if short(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def warmup_rounds(schedule: Schedule, total_rounds: int) -> int:
    """Number of leading rounds with E_m = 1 for a run of ``total_rounds``."""
    return warmup_from_prefix(schedule, family_prefix(schedule, total_rounds), total_rounds)


def intervals(schedule: Schedule, total_rounds: int) -> np.ndarray:
    """All intervals E_1..E_T as an integer array.

    The warm-up's ones come first, then the bare family from index 1.  For an
    explicit schedule, requests past the supplied sequence repeat its final
    value.
    """
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    prefix = family_prefix(schedule, total_rounds)
    w = warmup_from_prefix(schedule, prefix, total_rounds)
    return np.concatenate([np.ones(w, dtype=np.int64), np.diff(prefix[: total_rounds - w + 1])])


def effective_steps(schedule: Schedule, total_rounds: int) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_1..gamma_T, eta_1..eta_T) as float arrays; eta_m = gamma_m / E_m.

    gamma_m = gamma0 * m**(-alpha), unless an explicit schedule supplies its
    etas (repeating the final one), in which case gamma_m = eta_m * E_m.
    """
    return steps_for_intervals(schedule, intervals(schedule, total_rounds))


def steps_for_intervals(schedule: Schedule, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``effective_steps`` for a run whose table ``e = intervals(schedule, T)`` is built.

    A caller that needs both tables builds the intervals once and passes them
    here; T is ``len(e)``.
    """
    total_rounds = len(e)
    if isinstance(schedule, ExplicitSchedule) and schedule.etas:
        etas = _extended(schedule.etas, total_rounds, np.float64)
        return etas * e, etas
    powers = map(pow, range(1, total_rounds + 1), repeat(-schedule.alpha))
    gammas = schedule.gamma0 * np.fromiter(powers, dtype=np.float64, count=total_rounds)
    return gammas, gammas / e


def _nu_limit(schedule: Schedule) -> float | None:
    if isinstance(schedule, ExplicitSchedule):
        return None
    if schedule.kind == "power":
        return 1.0 / (1.0 - schedule.exponent**2)
    return 1.0


def diagnostics(schedule: Schedule, total_rounds: int) -> ScheduleDiagnostics:
    """Direct-summation diagnostics of the first ``total_rounds`` rounds."""
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    e = intervals(schedule, total_rounds)
    t_total = int(e.sum())
    inv_sum = float((1.0 / e).sum())
    nu_hat = t_total * inv_sum / total_rounds**2
    return ScheduleDiagnostics(
        t_T=t_total,
        nu_hat=nu_hat,
        nu_limit=_nu_limit(schedule),
        acf=total_rounds / t_total,
    )


def fclt_time_scale(schedule: Schedule, r: float, total_rounds: int) -> int:
    """Largest n with sum_{m<=n} 1/E_m <= r * sum_{m<=T} 1/E_m.

    This is the time index at which the rescaled partial-sum process is
    evaluated; r = 1 always maps to T.  Returns 0 when even the first round
    exceeds the budget (possible for tiny r under growing intervals).
    """
    if not 0.0 < r <= 1.0:
        raise ValueError("r must lie in (0, 1]")
    css = np.cumsum(1.0 / intervals(schedule, total_rounds))
    budget = r * css[-1]
    return int(np.searchsorted(css, budget * (1.0 + 1e-12), side="right"))


def _trends(
    schedule: Schedule, grid: tuple[int, ...]
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    step_sum, gamma_floor, growth = [], [], []
    for t in grid:
        e = intervals(schedule, t)
        gammas, _ = steps_for_intervals(schedule, e)
        sqrt_t = math.sqrt(float(e.sum()))
        step_sum.append(sqrt_t / t * float(gammas.sum()))
        gamma_floor.append(sqrt_t / (t * math.sqrt(gammas[-1])))
        growth.append(0.0 if t < 2 else t * (1.0 - e[-2] / e[-1]))
    return tuple(step_sum), tuple(gamma_floor), tuple(growth)


def validate_schedule(schedule: Schedule, grid: list[int] | tuple[int, ...]) -> list[str]:
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

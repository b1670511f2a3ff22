"""Random-scaling inference: studentization by a path-built matrix.

Instead of estimating the asymptotic covariance, the running average of the
synchronized iterates is studentized by V_hat, a weighted second moment of the
running means around the final mean.  The state estimates only V_hat; the
interval is centred at the estimate it is given, the mean y_bar of the
synchronized iterates (``engine.average_estimate``).  The resulting statistic
is pivotal but not normal; its critical values depend only on the growth
exponent beta of the interval sequence and are tabulated separately
(``fedstat.critvals``); ``harness.run_experiment`` looks the value up once per
experiment and hands the number to ``RScaleState.confidence_interval``.

`RScaleState` needs no inference draws, only each round's synchronized point
and interval, which ``harness`` feeds it from the finished path.
V_hat is accumulated around a pivot, the first synchronized point, so its
accuracy depends on the spread of the path and not on its distance from zero.
The recursion needs only sums over the path, so the state keeps block sums:
``observe`` only validates its arguments and writes one row into a block of
`BLOCK_ROUNDS` rows, and a full block is folded with a few stacked operations.
The cumulative sum of x - pivot gives n z_n = n (y_bar_n - pivot) for every
round of the block, and from it A, b, s and q.  The running sum of x - pivot
is kept to double length (``roundoff.add_rows``), so only the sums inside
each block round, not the growing total.  Every read folds the pending rows
into a fresh result and stores nothing, so the results never depend on when,
or how often, the state was read, and a caller that changes a returned array
changes nothing in the state.
Intervals follow the roundoff rule of ``fedstat.roundoff``: a half-width at or
below the floor is exactly 0, and a negative V_hat diagonal within floor**2
counts as 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import roundoff
from .engine import BLOCK_ROUNDS
from .schedules import CommunicationSchedule

__all__ = ["RScaleState", "beta_for_schedule"]


class _Sums(NamedTuple):
    pivot: np.ndarray
    dev: tuple[np.ndarray, np.ndarray]  # sum of x - pivot (m z_m), as hi + lo
    A: np.ndarray
    b: np.ndarray
    s: float
    q: float


class RScaleState:
    """Streaming accumulators behind V_hat.

    After m rounds, with p the first synchronized point (the pivot),
    y_bar_n the mean of the first n synchronized points and z_n = y_bar_n - p:
        A     = sum_n (n^2/E_n) z_n z_n',
        b     = sum_n (n^2/E_n) z_n,
        s     = sum_n 1/E_n,
        q     = sum_n n^2/E_n.
    Each read returns arrays of its own.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        d = self.dimension = dimension
        self.rounds_seen = 0
        self._points = np.empty((BLOCK_ROUNDS, d))
        self._intervals = np.empty(BLOCK_ROUNDS)
        self._pending = 0  # rows not yet folded
        zeros = np.zeros(d)
        self._sums = _Sums(zeros, (zeros, zeros), np.zeros((d, d)), zeros, 0.0, 0.0)

    def observe(self, x_bar: np.ndarray, interval: int) -> "RScaleState":
        """Fold one synchronized point with its round's interval E_m."""
        if interval < 1:
            raise ValueError("interval must be >= 1")
        x_bar = np.asarray(x_bar, dtype=np.float64)
        if x_bar.shape != (self.dimension,):
            raise ValueError(f"x_bar must have shape ({self.dimension},)")
        k = self._pending
        self._points[k] = x_bar
        self._intervals[k] = interval
        self._pending = k + 1
        self.rounds_seen += 1
        if self._pending == BLOCK_ROUNDS:
            self._sums = self._fold()
            self._pending = 0
        return self

    def _fold(self) -> _Sums:
        """The sums with the pending rows folded in; changes nothing.

        With S_n = n z_n, the running sum of x - p, each round adds
        S_n S_n' / E_n to A and (n / E_n) S_n to b.
        """
        k, sums = self._pending, self._sums
        if k == 0:
            return sums
        first = self.rounds_seen - k + 1
        pivot = sums.pivot if first > 1 else self._points[0].copy()
        dev = self._points[:k] - pivot
        hi, lo = sums.dev
        cum = np.cumsum(dev, axis=0) + (hi + lo)
        n = np.arange(first, first + k, dtype=np.float64)
        inv = 1.0 / self._intervals[:k]
        return _Sums(
            pivot,
            roundoff.add_rows(sums.dev, dev),
            sums.A + (cum * inv[:, None]).T @ cum,
            sums.b + (n * inv) @ cum,
            sums.s + float(inv.sum()),
            sums.q + float((n * n / self._intervals[:k]).sum()),
        )

    @property
    def pivot(self) -> np.ndarray:
        return self._fold().pivot.copy()

    @property
    def A(self) -> np.ndarray:
        return self._fold().A.copy()

    @property
    def b(self) -> np.ndarray:
        return self._fold().b.copy()

    @property
    def s(self) -> float:
        return self._fold().s

    @property
    def q(self) -> float:
        return self._fold().q

    def v_hat(self) -> np.ndarray:
        """The studentizing matrix (A - z b' - b z' + q z z') / (m^2 s), z = z_m."""
        if self.rounds_seen < 1:
            raise ValueError("no observations yet")
        sums = self._fold()
        m = self.rounds_seen
        hi, lo = sums.dev
        z = (hi + lo) / m
        v = sums.A - np.outer(z, sums.b) - np.outer(sums.b, z) + sums.q * np.outer(z, z)
        v /= m**2 * sums.s
        return (v + v.T) / 2.0

    def confidence_interval(
        self, centre: np.ndarray, q: float, j: int, floor: float = 0.0
    ) -> tuple[float, float]:
        """Interval for coordinate ``j`` of the optimum, centred on
        ``centre[j]``, with critical value ``q``; with the estimate
        ``engine.average_estimate`` as ``centre``, the (1 - alpha/2) quantile
        of t*(beta) gives the two-sided level-(1-alpha) interval.

        ``floor`` is the roundoff floor of ``fedstat.roundoff``; the default 0
        assumes exact arithmetic.  A nan V_hat diagonal gives a nan interval.
        """
        v_jj = roundoff.nonnegative(float(self.v_hat()[j, j]), floor**2, "V_hat diagonal")
        half = q * np.sqrt(v_jj)
        return roundoff.interval(float(centre[j]), half, floor)


def beta_for_schedule(schedule: CommunicationSchedule) -> float:
    """Growth exponent selecting the critical-value row for a schedule.

    Constant and logarithmic interval growth both rescale time linearly, so
    they share the beta = 0 row; power growth E_m ~ m**beta uses its own beta.
    """
    if schedule.kind == "power":
        return schedule.exponent
    return 0.0

"""Online plug-in inference: running curvature/noise estimates and normal CIs.

At every synchronization the server receives one weighted stochastic gradient
and one weighted stochastic Hessian evaluated at the current average, both
built from a single fresh sample per client.  Their running means estimate the
Hessian G and the gradient-noise covariance S; the confidence interval for a
coordinate is centered at the running average of the synchronized iterates
with normal-quantile half-width scaled by sqrt(nu_hat / t_T).  Intervals follow
the roundoff rule of ``fedstat.roundoff``: a half-width at or below the floor
is exactly 0, and a negative variance of the centre, (nu_hat / t_T) times the
sandwich diagonal, within floor**2 counts as 0.

`PluginState` is itself the engine's observer (``engine.SyncObserver``): it
asks for the inference draws, and every round folds one synchronized point
with its gradient and Hessian draws.  The state keeps block sums: ``observe``
only validates its arguments and writes one row into a block of
`BLOCK_ROUNDS` rows, and a full block is folded into the sums of x, of the
Hessian draws and of g g' with a few stacked operations.  The sum of x is kept
to double length (``roundoff.add_rows``), so only the sums inside each block
round, not the growing total.  Every read folds the pending rows into a
fresh result and stores nothing, so the results never depend on when, or how
often, the state was read, and a caller that changes a returned array
changes nothing in the state.
"""

from __future__ import annotations

from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from . import roundoff
from .engine import BLOCK_ROUNDS
from .schedules import ScheduleDiagnostics

__all__ = ["PluginState", "SingularHessian"]

_MAX_CONDITION = 1e12


class _Sums(NamedTuple):
    points: tuple[np.ndarray, np.ndarray]  # sum of x, as hi + lo
    hessian: np.ndarray                    # sum of Hessian draws
    outer: np.ndarray                      # sum of g g'


class _Means(NamedTuple):
    y_bar: np.ndarray
    g_hat: np.ndarray
    s_hat: np.ndarray


class SingularHessian(RuntimeError):
    """The running Hessian estimate is not invertible yet; run more rounds."""


def _z_quantile(alpha: float) -> float:
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


class PluginState:
    """Streaming accumulators for the sandwich covariance estimate, and the
    engine observer that feeds them.

    ``rounds_seen`` counts the rounds folded in, each a synchronized point
    with its gradient and Hessian draws.  ``y_bar``, ``g_hat`` and ``s_hat``
    are computed afresh on every read.
    """

    needs_inference_draws = True

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        d = self.dimension = dimension
        self.rounds_seen = 0
        self._points = np.empty((BLOCK_ROUNDS, d))
        self._grads = np.empty((BLOCK_ROUNDS, d))
        self._hessians = np.empty((BLOCK_ROUNDS, d, d))
        self._pending = 0  # rows not yet folded
        self._sums = _Sums((np.zeros(d), np.zeros(d)), np.zeros((d, d)), np.zeros((d, d)))

    def observe_sync(self, round_index, iteration, x_bar, interval, grad_draw, hess_draw):
        """Engine hook: fold the round's point with its draws."""
        self.observe(x_bar, grad_draw, hess_draw)

    def observe(
        self, x_bar: np.ndarray, grad_draw: np.ndarray, hess_draw: np.ndarray
    ) -> "PluginState":
        """Fold one synchronized point and its draws into the means."""
        d = self.dimension
        x_bar = np.asarray(x_bar, dtype=np.float64)
        grad_draw = np.asarray(grad_draw, dtype=np.float64)
        hess_draw = np.asarray(hess_draw, dtype=np.float64)
        if x_bar.shape != (d,):
            raise ValueError(f"x_bar must have shape ({d},)")
        if grad_draw.shape != (d,) or hess_draw.shape != (d, d):
            raise ValueError("draw dimensions do not match the state")
        k = self._pending
        self._points[k] = x_bar
        self._grads[k] = grad_draw
        self._hessians[k] = hess_draw
        self._pending = k + 1
        self.rounds_seen += 1
        if self._pending == BLOCK_ROUNDS:
            self._sums = self._fold()
            self._pending = 0
        return self

    def _fold(self) -> "_Sums":
        """The sums with the pending rows folded in; changes nothing."""
        k, sums = self._pending, self._sums
        if k == 0:
            return sums
        grads = self._grads[:k]
        return _Sums(
            roundoff.add_rows(sums.points, self._points[:k]),
            sums.hessian + self._hessians[:k].sum(axis=0),
            sums.outer + grads.T @ grads,
        )

    def _read(self) -> "_Means":
        sums = self._fold()
        n = max(self.rounds_seen, 1)
        hi, lo = sums.points
        return _Means((hi + lo) / n, sums.hessian / n, sums.outer / n)

    @property
    def y_bar(self) -> np.ndarray:
        return self._read().y_bar

    @property
    def g_hat(self) -> np.ndarray:
        return self._read().g_hat

    @property
    def s_hat(self) -> np.ndarray:
        return self._read().s_hat

    def sandwich(self) -> np.ndarray:
        """Ginv_hat @ S_hat @ Ginv_hat', symmetrized.

        Raises SingularHessian while too few draws have been seen or when the
        Hessian estimate is numerically singular (condition number > 1e12);
        both signal that the round count is still too small.
        """
        d = self.dimension
        if self.rounds_seen < d:
            raise SingularHessian(
                f"need at least {d} gradient/Hessian draws, have {self.rounds_seen}"
            )
        means = self._read()
        cond = np.linalg.cond(means.g_hat)
        if not np.isfinite(cond) or cond > _MAX_CONDITION:
            raise SingularHessian(
                f"Hessian estimate condition number {cond:.3g} exceeds {_MAX_CONDITION:g}"
            )
        ginv = np.linalg.solve(means.g_hat, np.eye(d))
        cov = ginv @ means.s_hat @ ginv.T
        return (cov + cov.T) / 2.0

    def confidence_interval(
        self, diag: ScheduleDiagnostics, j: int, alpha: float, floor: float = 0.0
    ) -> tuple[float, float]:
        """Two-sided level-(1-alpha) interval for coordinate ``j`` of the optimum.

        ``floor`` is the roundoff floor of ``fedstat.roundoff``; the default 0
        assumes exact arithmetic.
        """
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        var_j = roundoff.nonnegative(
            float(self.sandwich()[j, j]), floor**2 * diag.t_T / diag.nu_hat, "sandwich diagonal"
        )
        half = _z_quantile(alpha) * np.sqrt(diag.nu_hat / diag.t_T) * np.sqrt(var_j)
        return roundoff.interval(float(self.y_bar[j]), half, floor)

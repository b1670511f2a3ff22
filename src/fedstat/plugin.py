"""Online plug-in inference: running curvature/noise estimates and normal CIs.

At every synchronization the server receives one weighted stochastic gradient
and one weighted stochastic Hessian evaluated at the current average, both
built from a single fresh sample per client.  Their running means estimate the
Hessian G and the gradient-noise covariance S, so the state estimates only
the variance of the centre.  The interval for a coordinate is centred at the
estimate it is given, the mean y_bar of the synchronized iterates
(``engine.average_estimate``), with half-width
z * sqrt(nu_hat / t_T) * sqrt(sandwich diagonal); ``harness.run_experiment``
resolves the normal quantile z = z_{1-alpha/2} once per experiment.
Intervals follow the roundoff rule of ``fedstat.roundoff``: a half-width at
or below the floor is exactly 0, and a negative variance of the centre,
(nu_hat / t_T) times the sandwich diagonal, within floor**2 counts as 0.

`PluginState` folds one round's gradient and Hessian draws per ``observe``
call; ``harness`` feeds it the draws of ``engine.inference_draws`` at the
finished path's points.  The state keeps block sums: ``observe`` only
validates its arguments and writes one row into a block of `BLOCK_ROUNDS`
rows, and a full block is folded into the sums of the Hessian draws and of
g g' with a few stacked operations.  Every read folds the pending rows into a fresh
result and stores nothing, so the results never depend on when, or how
often, the state was read, and a caller that changes a returned array
changes nothing in the state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import roundoff
from .engine import BLOCK_ROUNDS
from .schedules import ScheduleDiagnostics

__all__ = ["PluginState", "SingularHessian"]

_MAX_CONDITION = 1e12


class _Sums(NamedTuple):
    hessian: np.ndarray  # sum of Hessian draws
    outer: np.ndarray    # sum of g g'


class SingularHessian(RuntimeError):
    """The running Hessian estimate is not invertible yet; run more rounds."""


class PluginState:
    """Streaming accumulators for the sandwich covariance estimate.

    ``rounds_seen`` counts the rounds folded in, each a gradient and a
    Hessian draw.  ``g_hat`` and ``s_hat`` are computed afresh on every read.
    """

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        d = self.dimension = dimension
        self.rounds_seen = 0
        self._grads = np.empty((BLOCK_ROUNDS, d))
        self._hessians = np.empty((BLOCK_ROUNDS, d, d))
        self._pending = 0  # rows not yet folded
        self._sums = _Sums(np.zeros((d, d)), np.zeros((d, d)))

    def observe(self, grad_draw: np.ndarray, hess_draw: np.ndarray) -> "PluginState":
        """Fold one round's gradient and Hessian draws into the means."""
        d = self.dimension
        grad_draw = np.asarray(grad_draw, dtype=np.float64)
        hess_draw = np.asarray(hess_draw, dtype=np.float64)
        if grad_draw.shape != (d,) or hess_draw.shape != (d, d):
            raise ValueError("draw dimensions do not match the state")
        k = self._pending
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
            sums.hessian + self._hessians[:k].sum(axis=0),
            sums.outer + grads.T @ grads,
        )

    def _read(self) -> tuple[np.ndarray, np.ndarray]:
        """(g_hat, s_hat), computed afresh."""
        sums = self._fold()
        n = max(self.rounds_seen, 1)
        return sums.hessian / n, sums.outer / n

    @property
    def g_hat(self) -> np.ndarray:
        return self._read()[0]

    @property
    def s_hat(self) -> np.ndarray:
        return self._read()[1]

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
        g_hat, s_hat = self._read()
        cond = np.linalg.cond(g_hat)
        if not np.isfinite(cond) or cond > _MAX_CONDITION:
            raise SingularHessian(
                f"Hessian estimate condition number {cond:.3g} exceeds {_MAX_CONDITION:g}"
            )
        ginv = np.linalg.solve(g_hat, np.eye(d))
        cov = ginv @ s_hat @ ginv.T
        return (cov + cov.T) / 2.0

    def confidence_interval(
        self,
        centre: np.ndarray,
        z: float,
        diag: ScheduleDiagnostics,
        j: int,
        floor: float = 0.0,
    ) -> tuple[float, float]:
        """Interval for coordinate ``j`` of the optimum, centred on
        ``centre[j]``, with critical value ``z``; with the estimate
        ``engine.average_estimate`` as ``centre``, z = z_{1-alpha/2} gives the
        two-sided level-(1-alpha) interval.

        ``floor`` is the roundoff floor of ``fedstat.roundoff``; the default 0
        assumes exact arithmetic.  A nan sandwich diagonal gives a nan
        interval.
        """
        var_j = roundoff.nonnegative(
            float(self.sandwich()[j, j]), floor**2 * diag.t_T / diag.nu_hat, "sandwich diagonal"
        )
        half = z * np.sqrt(diag.nu_hat / diag.t_T) * np.sqrt(var_j)
        return roundoff.interval(float(centre[j]), half, floor)

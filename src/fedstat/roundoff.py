"""The roundoff rule for zero-width confidence intervals.

A noiseless run (quadratic clients, or linear clients with ``noise_scale = 0``)
started at the optimum x* stays at x* in exact arithmetic, so both interval
methods should return the zero-width interval (x*_j, x*_j).  In floating point
the synchronized average drifts a few ulps off x*, and those ulps leak into
the centre, into V_hat and into the plug-in S_hat.  This module states one rule
that both methods and the harness's coverage decision share:

* the floor is ``ROUNDOFF_FACTOR * eps * scale``, where ``scale`` bounds every
  client state of the run (see ``run_scale``);
* a half-width at or below the floor is exactly 0 and the interval is
  (centre, centre);
* a negative variance of the centre within floor**2 counts as 0; one beyond
  it raises ``ValueError``; a nan variance stays nan, so its interval is nan,
  which the harness counts as a failed method;
* a target is covered when |target - centre| <= max(half-width, floor).

Why ``ROUNDOFF_FACTOR = 64``.  Every client state of a contracting noiseless
run stays in the box of radius ``scale``, so each rounding in a round moves the
synchronized average by at most eps * scale / 2.  One round rounds in two
places:

* E_m local steps, with four roundings each for the quadratic update
  x <- x - eta * (h * (x - c_k)); since 0 < eta * h <= 1, a later step shrinks
  an earlier step's error and never grows it;
* one K-term weighted sum, with at most K roundings.

That bounds one round's error by (4 E_m + K) * eps * scale / 2.  A linear
call whose rounds all have E_m = 1 runs each round as an affine map of
z = (x - p, 1), p the point the call starts from (``models.linear_rounds``),
and rounds in the same two places:

* building the map, where the residuals a_k'p - b_k round as a local step's
  do, and the K-term sums of G_m and h_m round at the size of those
  residuals;
* applying it, where the matvec rounds at the size of x - p, and p + (x - p)
  rounds once, by at most eps * scale / 2.

Near x* the residuals and x - p are themselves a few ulps of scale, so a map
round stays within the one-step bound (4 + K) * eps * scale / 2, and the
rounding of p + (x - p) is fed back only once per call, as the next call's
pivot.  The contraction toward x* pulls each round's error back before the next
one arrives, so the drift stays of the order of one round's bound, and 64 is
that bound for 4 E_m + K = 128: ten clients with up to 29 local steps per
round, as in the paper-style cells.  Both the centre's distance from x* and a
half-width made of roundoff alone are driven by this drift.  On noiseless
quadratic and linear runs (d in {1, 2, 5}, K in {2, 10, 50}, constant,
logarithmic and power schedules, 25 and 400 rounds) neither exceeded
2.1 * eps * scale.  On noise-free homogeneous linear C1 runs started at x* (d in {2, 5},
K in {10, 50}, 4000 and 10^4 rounds, six federations of three runs each), no
synchronized point was further than 4.3 * eps * scale from x* with the maps,
and 3.4 * eps * scale with the step loop.  A noisy run's half-width is many
orders of magnitude above the floor (about 1e-2 in the default linear cell,
against a floor near 1e-14), so the rule never changes a noisy interval.
"""

from __future__ import annotations

import numpy as np

from .models import Federation

__all__ = [
    "ROUNDOFF_FACTOR",
    "run_scale",
    "floor_for",
    "nonnegative",
    "interval",
    "covers",
    "add_rows",
]

ROUNDOFF_FACTOR = 64.0
_EPS = float(np.finfo(np.float64).eps)


def run_scale(federation: Federation, x0: np.ndarray) -> float:
    """max(||x0||_inf, max_k ||local optimum_k||_inf): a noiseless contracting
    run keeps every client state inside the box of this radius."""
    optima = np.stack([c.local_optimum for c in federation.clients])
    return float(max(np.abs(x0).max(), np.abs(optima).max()))


def floor_for(scale: float) -> float:
    """The roundoff floor ``ROUNDOFF_FACTOR * eps * scale``."""
    return ROUNDOFF_FACTOR * _EPS * scale


def nonnegative(value: float, tolerance: float, what: str) -> float:
    """A variance that is PSD in exact arithmetic: negatives within
    ``tolerance`` are roundoff and count as 0, larger ones raise.  A nan
    passes through."""
    if value >= 0.0 or np.isnan(value):
        return value
    if value < -tolerance:
        raise ValueError(f"{what} {value:g} is negative beyond roundoff")
    return 0.0


def interval(center: float, half: float, floor: float) -> tuple[float, float]:
    """(center - half, center + half), or exactly (center, center) when the
    half-width is at or below the floor.  A nan half-width gives (nan, nan)."""
    if half <= floor:
        return center, center
    return center - half, center + half


def covers(
    lo: float | np.ndarray, hi: float | np.ndarray, target: float, floor: float
) -> bool | np.ndarray:
    """|target - centre| <= max(half-width, floor) for the interval (lo, hi),
    elementwise over arrays of endpoints.

    The half-width test is made on the endpoints themselves, so a noisy
    interval covers exactly when lo <= target <= hi.  A nan interval (a failed
    method) covers nothing.
    """
    return (lo <= target) & (target <= hi) | (np.abs(target - 0.5 * (lo + hi)) <= floor)


def add_rows(
    total: tuple[np.ndarray, np.ndarray], rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The column sums of ``rows`` added to a double-length total (hi, lo).

    The block is summed pairwise, and hi + block is split into its rounded
    value and its exact rounding error (Knuth's TwoSum), which lo collects.
    Adding a block to a long run's total therefore loses nothing; only the
    pairwise sum inside each block rounds.
    """
    hi, lo = total
    block = np.asfortranarray(rows).sum(axis=0)
    new_hi = hi + block
    part = new_hi - hi
    return new_hi, lo + ((hi - (new_hi - part)) + (block - part))

"""Reference expressions and inputs shared by the test modules."""

from importlib import resources

import numpy as np

from fedstat import engine, models
from fedstat.engine import SampleBuffer
from fedstat.schedules import _family_prefix, _warmup


def round_map(a, b, weights, eta, pivot):
    """The augmented (d+1, d+1) map of one linear round of one local step
    around ``pivot``, built with ``models.linear_rounds``' expressions on the
    round's own (1, K, d) and (1, K) sample slices."""
    d = a.shape[2]
    total = weights.sum()
    resid = np.matmul(a, pivot) - b
    M = np.zeros((d + 1, d + 1))
    M[:d, :d] = total * np.eye(d) - eta * models.weighted_gram(a, weights)[0]
    h = np.matmul((weights * resid)[:, None, :], a)[0, 0]
    M[:d, d] = (total - 1.0) * pivot - eta * h
    M[d, d] = 1.0
    return M


def shipped_table_with(cell: str) -> str:
    """The shipped critical-value CSV with ``cell`` in its beta = 0, level
    0.975 entry, the one a constant schedule at alpha_level 0.05 reads."""
    lines = resources.files("fedstat").joinpath("data/critical_values.csv").read_text().splitlines()
    header, row = lines[1].split(","), lines[2].split(",")
    assert float(row[0]) == 0.0 and float(header[8]) == 0.975
    row[8] = cell
    lines[2] = ",".join(row)
    return "\n".join(lines) + "\n"


def bisect_rounds_for_target(schedule, target):
    """The smallest T whose observation count reaches ``target``, by bisection
    over 1..target on one family prefix of ``target`` rounds: every interval
    is at least 1, so T <= target."""
    prefix = _family_prefix(schedule, target)

    def total(t):
        w = _warmup(schedule, prefix, t)
        return w + int(prefix[t - w])

    lo, hi = 1, target
    while lo < hi:
        mid = (lo + hi) // 2
        if total(mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def unit_z(d):
    """z = (x - pivot, 1) at the pivot itself."""
    z = np.zeros(d + 1)
    z[d] = 1.0
    return z


def affine_group_starts(e_list, rounds):
    """For each round of a linear group that ``engine.run`` forms of one-step
    rounds only, the first round of its group (0-based); None elsewhere."""
    starts = [None] * rounds
    for first in range(0, rounds, engine.BLOCK_ROUNDS):
        stop = min(first + engine.BLOCK_ROUNDS, rounds)
        for lo, hi, _ in engine._groups(e_list, first, stop):
            if set(e_list[lo:hi]) == {1}:
                starts[lo:hi] = [lo] * (hi - lo)
    return starts


def per_round_run(fed, rows, x0, seed, bound=1e8):
    """The engine as one sample take and one average per round of the table ``rows``.

    Each round takes its E rows of the optimization stream, runs the per-step
    expression in the kernels' form (``np.vecdot``, logistic covariates signed
    by 1 - 2b and the logistic step a quotient, the rate folded into the
    covariates), averages with ``weights @ X`` and tests the norm.  A linear
    round in a group of one-step rounds (as ``engine._groups`` forms them) is
    instead its affine map around the point the group starts from, applied with
    one matvec.  Each synchronized point then takes one row of the inference
    stream for its gradient and Hessian draws.  Returns the points, the draws,
    and the round that diverged (or None).
    """
    k, d = fed.size, fed.dimension
    weights, logistic = fed.weights, fed.kind == "logistic"
    opt = SampleBuffer(fed.clients, seed, 0)
    inf = SampleBuffer(fed.clients, seed, 1)
    e, etas = rows.intervals, rows.etas
    rounds = len(e)
    starts = [None] * rounds if logistic else affine_group_starts(e.tolist(), rounds)
    X = np.tile(x0, (k, 1))
    points, grads, hessians = [], [], []
    for m, (interval, eta, start) in enumerate(zip(e.tolist(), etas, starts), start=1):
        A, B = opt.take(interval)
        if start is not None:
            if start == m - 1:
                pivot, z = X[0].copy(), unit_z(d)
            z = np.dot(round_map(A, B, weights, np.float64(eta), pivot), z)
            x_bar = z[:d] + pivot
        else:
            for t in range(interval):
                a_t, b_t = A[t], B[t]
                if logistic:
                    a_t = (1.0 - 2.0 * b_t)[:, None] * a_t
                    X -= (np.float64(eta) * a_t) / (1.0 + np.exp(-np.vecdot(a_t, X)))[:, None]
                else:
                    X -= (np.float64(eta) * a_t) * (np.vecdot(a_t, X) - b_t)[:, None]
            x_bar = weights @ X
        X[...] = x_bar
        if not x_bar @ x_bar <= bound**2:
            return points, grads, hessians, m
        points.append(x_bar)
        a_block, b_block = inf.take(1)
        a, b = a_block[0], b_block[0]
        if logistic:
            p = models.sigmoid(a @ x_bar)
            grads.append(weights @ (a * (p - b)[:, None]))
            hessians.append(models.weighted_gram(a[None], weights * p * (1.0 - p))[0])
        else:
            grads.append(weights @ (a * (a @ x_bar - b)[:, None]))
            hessians.append(models.weighted_gram(a[None], weights)[0])
    return points, grads, hessians, None

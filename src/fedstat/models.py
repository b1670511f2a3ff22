"""Per-client loss oracles and streaming sample generators.

Three model kinds are supported:

* ``linear``    least squares with standard-normal covariates, response
                b = a'x_k + noise_scale * eps against a client-specific optimum,
* ``logistic``  Bernoulli labels with success probability sigmoid(a'x_shared),
* ``quadratic`` the noiseless oracle f_k(x) = curvature/2 * ||x - center||^2,
                used for exactness tests.

Each kind's math is written once per use, on stacked arrays: ``*_rounds``
runs a group of consecutive rounds (local SGD steps, then the weighted
average) in place on all client states, and ``*_draws`` evaluates the
weighted gradient and Hessian draws of the plug-in inference
(``engine.inference_draws``), one row per synchronized point; ``KERNELS``
maps each kind to the pair.  Both read a sample take as the engine's buffer
lays it out, time-major: step t (or point t) reads the (K, d) block A[t].  The engine calls ``*_rounds`` once per group
of at most 256 sample rows (or one longer round), so the buffers a kernel
allocates once per call are shared by many rounds when E_m is small.  A linear
local step is four numpy calls on the stacked (K, d) states, a logistic one
five: the kernel folds each round's rate into a scaled copy of its
covariates, and writes the logistic step in its signed form
a~ / (1 + exp(-a~'x)), a~ = (1 - 2b) a, which needs labels of exactly 0 or 1
(see the comment above ``linear_rounds``).  A linear call whose rounds all
have E_m = 1 runs no local steps: after a sync every client holds the same
point, so such a round is one minibatch SGD step, an affine map of the
synchronized point that does not depend on the path.  The kernel builds the
maps of the whole call with a few batched array calls, around the point the
call starts from, and applies one matrix-vector product per round; a call
with any longer round runs the step loop.  The weighted Gram
sum_k w_k a_k a_k' of the maps and of the Hessian draws is one expression,
``weighted_gram``.
``ClientModel.draw`` is the one sample generator per kind, and
``Federation`` the one way to pool clients: it checks them and their
weights, then derives the global optimum x* of the weighted mixture, the
estimand every interval is scored against.

The sigmoid, which only the logistic kind uses, is numpy's float64 ``exp``
in 1 / (1 + exp(-z)): ``sigmoid`` for the labels and the Hessian draws, the
same quotient written into the step loop.  scipy.special's ``expit`` would
load scipy.special, about 0.2 s and 17 MB of a logistic run's 59 MB peak
(scipy 1.17, 2-core Xeon).  numpy picks its ``exp`` loop by CPU, so logistic
path bits are per host.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np
import scipy  # noqa: F401  (callers read scipy's version from sys.modules)

__all__ = [
    "ClientModel",
    "Federation",
    "true_sandwich",
    "sigmoid",
    "weighted_gram",
    "linear_rounds",
    "logistic_rounds",
    "quadratic_rounds",
    "linear_draws",
    "logistic_draws",
    "quadratic_draws",
    "KERNELS",
    "SUBSTREAMS",
]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) elementwise, and exp(z) where exp(-z) overflows
    (z below about -709.78), where the quotient would be 0 and the sigmoid
    is a subnormal down to z = -745."""
    with np.errstate(over="ignore"):
        e = np.exp(-z)
        return np.where(e == np.inf, np.exp(z), 1.0 / (1.0 + e))


# --- local SGD rounds, in place on the stacked client states -----------------
# X (K, d) holds one state per client.  One call runs a group of consecutive
# rounds: round j runs intervals[j] local steps at rate etas[j], then writes
# the weighted average into points[j] (``np.matmul(weights, X, points[j])``)
# and copies it back to every client.  The intervals are a list of ints; the
# rates are the group's float64 slice of the table's etas, ``etas[lo:hi]``.
# A (sum E, K, d) and B (sum E, K) hold every client's next optimization
# samples for the whole group, as one ``SampleBuffer.take(sum E)`` returns
# them: the buffer, not the kernel, lays them out time-major and contiguous,
# so that step t reads the (K, d) block A[t] as it comes.  The take is valid
# only until the next one, so the kernel reads it within the call.  Once per
# call the kernel forms its step operands from the take:
#
# * logistic signs each covariate, a~ = (1 - 2b) a.  For a label b in {0, 1},
#   a (sigmoid(a'x) - b) = a~ sigmoid(a~'x), so the labels drop out of the
#   step.  The identity needs b to be exactly 0 or 1 (``ClientModel.draw``
#   makes them so); the sign is then exact, and a label-1 step evaluates
#   sigmoid(-a'x) where sigmoid(a'x) - 1 would cancel to 0 once sigmoid(a'x)
#   rounds to 1 (a'x above about 37).  The kernel keeps the negated
#   covariates -a~ = (2b - 1) a, whose dot with x is exactly -(a~'x);
# * linear and logistic fold each round's rate into a scaled copy u = eta a
#   (or eta a~), one rate per row from ``np.repeat(etas, intervals)``.
#
# Each step is then a few numpy calls on (K, d) blocks, into buffers
# allocated once per call.  Linear takes four: r = a'x with ``np.vecdot``,
# then r - b, then u * r, then x - that.  Logistic takes five: r = -a~'x,
# then exp(r), then 1 + r, then u / r, then x - that, so that the step is
# eta a~ sigmoid(a~'x) with one rounding fewer than u times the sigmoid.  Where
# exp(r) overflows the step is u / inf = 0; the exact step there is below
# |u| 5.6e-309 and would not move any x above 1e-292.  The kernel ignores
# that overflow once per call.  ``np.vecdot`` is a ufunc: unlike
# ``np.einsum`` it has no Python wrapper, and it is about 0.4 µs faster per
# step on (10, 5) blocks.  The only reductions are the vecdot and the
# weighted average, so every step and every average rounds exactly as the
# same expressions written out per step and per round would.  The ufuncs
# take their output positionally, and the logistic 1 and ``quadratic_rounds``'
# eta are 0-d arrays: both skip per-call argument conversion.
#
# A linear call whose rounds all have E_m = 1 (every call of a C1 schedule,
# the calls of warm-up rounds in the others) runs no step loop.  Every client
# starts such a round at the synchronized point x, so the round is
# x' = (sum w) x - eta_m sum_k w_k a_k (a_k'x - b_k), affine in x, with a map
# that does not depend on x.  The kernel builds the maps of the whole
# call relative to the pivot p = X[0], the synchronized point it starts from.
# With delta = x - p:
#
#     delta' = ((sum w) I - eta_m G_m) delta - eta_m h_m + (sum w - 1) p,
#     G_m = sum_k w_k a_k a_k',   h_m = sum_k w_k a_k (a_k'p - b_k),
#
# as one augmented (d+1, d+1) matrix per round, from a handful of batched
# calls on the group's take.  The (sum w) terms keep ``Federation``'s rule
# that weights are used as given.  It then applies one
# ``np.dot(M[m], z, out)`` per round, in round order, to z = (delta, 1),
# and writes p + delta into ``points``.  One matvec per round lets a
# per-round reference reproduce the result exactly.  ``np.dot`` gives the
# same bits as ``np.matmul`` on these operands (no mismatch in 20000 random
# (6, 6)·(6,) cases) at less cost per call (0.9 against 2.3 µs in a 256-round
# loop, on a 2-core Xeon).
#
# Why around p and not around 0: near a noiseless fixed point x*, maps built
# around 0 subtract two terms of size eta |a|^2 |x*| (G x and sum w a b) to
# leave a step of size eta |a|^2 |x - x*|, and the cancellation leaves their
# roundoff behind.  Around p the residuals a'p - b are formed once per
# client, as the step loop forms them, and the map acts on the small delta.
# In noise-free C1 runs started at x* (``fedstat.roundoff``), points drifted
# up to 13 eps * scale from x* with maps around 0, against 4.3 around p and
# 3.4 with the step loop.
#
# The map form needs equal rows of X, as every synchronization leaves them;
# the kernel reads only X[0], so a call on unequal rows raises ``ValueError``.
# A call with any round of E_m > 1 runs the step loop.


def linear_rounds(
    X: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    weights: np.ndarray,
    intervals: list[int],
    etas: np.ndarray,
    points: np.ndarray,
) -> None:
    """Rounds of local steps x_k -= eta * a_kt (a_kt' x_k - b_kt), each
    followed by the weighted average into its row of ``points``.

    When every round has one step the rounds run as affine maps, which needs
    equal rows of X; unequal rows then raise ``ValueError``."""
    if set(intervals) == {1}:
        _affine_rounds(X, A, B, weights, etas, points)
        return
    scaled = np.repeat(etas, intervals)[:, None, None] * A
    resid = np.empty(len(X))
    column = resid[:, None]
    step = np.empty(X.shape)
    samples = zip(A, scaled, B)
    for interval, x_bar in zip(intervals, points):
        for a_t, u_t, b_t in islice(samples, interval):
            np.vecdot(a_t, X, resid)
            np.subtract(resid, b_t, resid)
            np.multiply(u_t, column, step)
            np.subtract(X, step, X)
        np.matmul(weights, X, x_bar)
        X[...] = x_bar


def _affine_rounds(
    X: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    weights: np.ndarray,
    etas: np.ndarray,
    points: np.ndarray,
) -> None:
    """Linear rounds of one local step each, as one affine map per round
    around the pivot X[0] (see the comment above ``linear_rounds``)."""
    pivot = X[0]
    if not np.array_equal(X, np.broadcast_to(pivot, X.shape), equal_nan=True):
        raise ValueError("rounds of one local step need equal rows of X")
    n, _, d = A.shape
    eta = np.asarray(etas)[:, None]
    total = weights.sum()
    resid = np.matmul(A, pivot) - B
    maps = np.zeros((n, d + 1, d + 1))
    maps[:, :d, :d] = total * np.eye(d) - eta[:, :, None] * weighted_gram(A, weights)
    h = np.matmul((weights * resid)[:, None, :], A)[:, 0]
    maps[:, :d, d] = (total - 1.0) * pivot - eta * h
    maps[:, d, d] = 1.0
    z = np.zeros((n + 1, d + 1))
    z[0, d] = 1.0
    for M, z_m, z_next in zip(maps, z, z[1:]):
        np.dot(M, z_m, z_next)
    np.add(z[1:, :d], pivot, points)
    X[...] = points[-1]


def logistic_rounds(
    X: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    weights: np.ndarray,
    intervals: list[int],
    etas: np.ndarray,
    points: np.ndarray,
) -> None:
    """Rounds of local steps x_k -= eta * a_kt (sigmoid(a_kt' x_k) - b_kt),
    each followed by the weighted average into its row of ``points``.

    The labels B must be exactly 0 or 1: each step runs in the signed form
    x_k -= eta * a~ / (1 + exp(-a~' x_k)) with a~ = (1 - 2 b_kt) a_kt."""
    negated = np.empty(A.shape)
    np.multiply(A, (2.0 * B - 1.0)[:, :, None], negated)
    scaled = -np.repeat(etas, intervals)[:, None, None] * negated
    resid = np.empty(len(X))
    column = resid[:, None]
    one = np.ones(())
    step = np.empty(X.shape)
    samples = zip(negated, scaled)
    with np.errstate(over="ignore"):
        for interval, x_bar in zip(intervals, points):
            for a_t, u_t in islice(samples, interval):
                np.vecdot(a_t, X, resid)
                np.exp(resid, resid)
                np.add(resid, one, resid)
                np.divide(u_t, column, step)
                np.subtract(X, step, X)
            np.matmul(weights, X, x_bar)
            X[...] = x_bar


def quadratic_rounds(
    X: np.ndarray,
    A: np.ndarray,
    B: np.ndarray,
    weights: np.ndarray,
    intervals: list[int],
    etas: np.ndarray,
    points: np.ndarray,
) -> None:
    """Rounds of exact local steps x_k -= eta * h_k (x_k - c_k), each followed
    by the weighted average into its row of ``points``; every row of A holds
    the centers c_k and every row of B the curvatures h_k."""
    step = np.empty(X.shape)
    rate = np.empty(())
    samples = zip(A, B[:, :, None])
    for interval, eta, x_bar in zip(intervals, etas, points):
        rate[()] = eta
        for centers, scale in islice(samples, interval):
            np.subtract(X, centers, step)
            np.multiply(scale, step, step)
            np.multiply(step, rate, step)
            np.subtract(X, step, X)
        np.matmul(weights, X, x_bar)
        X[...] = x_bar


# --- weighted inference draws, one row per synchronized point ----------------
# X (n, d) holds n synchronized points; A (n, K, d) and B (n, K) hold one fresh
# sample per client for each of them.  Row t of the results is the weighted
# gradient and Hessian draw at X[t].  The stacked matmul calls run the same
# reduction per row as on a single (K, d) block, so every row is
# bit-identical to evaluating its round on its own.


def weighted_gram(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_k w_k a_k a_k' for each row of ``rows`` (n, K, d), as one stacked
    matmul; w is (K,) or one weight vector per row, (n, K)."""
    return np.matmul(rows.transpose(0, 2, 1) * w[..., None, :], rows)


def linear_draws(
    weights: np.ndarray, A: np.ndarray, B: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_k w_k a_k (a_k' x - b_k) and sum_k w_k a_k a_k' per row of X."""
    resid = np.matmul(A, X[:, :, None])[..., 0] - B
    return weights @ (A * resid[..., None]), weighted_gram(A, weights)


def logistic_draws(
    weights: np.ndarray, A: np.ndarray, B: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_k w_k a_k (p_k - b_k) and sum_k w_k p_k (1 - p_k) a_k a_k' per row
    of X, with p_k = sigmoid(a_k' x)."""
    p = sigmoid(np.matmul(A, X[:, :, None])[..., 0])
    grads = weights @ (A * (p - B)[..., None])
    return grads, weighted_gram(A, weights * p * (1.0 - p))


def quadratic_draws(
    weights: np.ndarray, A: np.ndarray, B: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The exact weighted gradient sum_k w_k h_k (x - c_k) and the constant
    Hessian (sum_k w_k h_k) I per row of X, with the centers c_k in every row
    of A and the curvatures h_k in every row of B."""
    grads = weights @ (B[:, :, None] * (X[:, None, :] - A))
    hessian = float(weights @ B[0]) * np.eye(X.shape[1])
    return grads, np.broadcast_to(hessian, (len(X), *hessian.shape))


# Each model kind's (rounds kernel, draws kernel); its keys are the kinds.
KERNELS = {
    "linear": (linear_rounds, linear_draws),
    "logistic": (logistic_rounds, logistic_draws),
    "quadratic": (quadratic_rounds, quadratic_draws),
}

# The generators each kind's ``ClientModel.draw`` reads per random stream.
SUBSTREAMS = {"linear": 1, "logistic": 2, "quadratic": 0}


@dataclass(frozen=True, eq=False)
class ClientModel:
    """Loss oracle of one client.

    ``local_optimum`` is the client's own minimizer x_k for linear, the shared
    optimum for logistic, and the center c_k for quadratic.  ``noise_scale``
    only affects the linear response; the quadratic kind is exactly noiseless.
    Clients compare and hash by identity: an array field gives ``==`` no
    single truth value.
    """

    kind: str
    local_optimum: np.ndarray
    noise_scale: float = 1.0
    curvature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KERNELS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        opt = np.asarray(self.local_optimum, dtype=np.float64)
        if opt.ndim != 1 or opt.size < 1:
            raise ValueError("local_optimum must be a nonempty vector")
        object.__setattr__(self, "local_optimum", opt)
        if not 0.0 <= self.noise_scale < np.inf:
            raise ValueError("noise_scale must be nonnegative and finite")
        if self.kind == "quadratic" and self.curvature <= 0:
            raise ValueError("curvature must be positive")

    @property
    def dimension(self) -> int:
        return self.local_optimum.size

    def draw(self, rngs: tuple, n: int) -> tuple[np.ndarray, np.ndarray]:
        """The next n samples of the client's substreams ``rngs``, as
        (covariates (n, d), responses (n,)).

        ``rngs`` holds the ``SUBSTREAMS[kind]`` generators the kind reads.  A
        linear row is one normal block (a, eps) of ``rngs[0]``.  A logistic
        row's covariates come from ``rngs[0]`` and its label from ``rngs[1]``,
        two substreams, so that each reads one kind of variate in order.  Every
        generator is read sequentially, so n rows are the next n rows of each
        substream however the draws are split.  The quadratic kind is
        noiseless: it reads no generator, and every row is the client's center
        and curvature, the operands of its kernels.
        """
        d = self.dimension
        if self.kind == "linear":
            z = rngs[0].standard_normal((n, d + 1))
            a = z[:, :d]
            # a @ x* summed column by column: BLAS gives a lone row other
            # bits than the same row inside a block, and a row's response
            # must not depend on how many rows were drawn with it.
            b = a[:, 0] * self.local_optimum[0]
            for i in range(1, d):
                b += a[:, i] * self.local_optimum[i]
            b += self.noise_scale * z[:, d]
            return a, b
        if self.kind == "logistic":
            a = rngs[0].standard_normal((n, d))
            u = rngs[1].random(n)
            b = (u < sigmoid(a @ self.local_optimum)).astype(np.float64)
            return a, b
        return np.tile(self.local_optimum, (n, 1)), np.full(n, self.curvature)


@dataclass(frozen=True, eq=False)
class Federation:
    """A weighted pool of same-kind clients and the optimum of their mixture.

    ``clients`` is stored as a tuple, and ``weights`` defaults to 1/K.  The
    weights must be positive and sum to 1 within 2·K·eps.  Every
    synchronization averages with them as given (``weights @ X``), so a sum
    1 + delta scales each average by 1 + delta and a noiseless run settles
    off x* by a multiple of delta, far outside the roundoff floor of
    ``fedstat.roundoff`` once delta exceeds roundoff (two quadratic clients
    at weights (0.5, 0.5 + 9e-13), run 200 rounds of C2, end 3.2e-11 off x*).
    Weights whose exact values sum to 1 (1/K, decimals such as 0.1, 0.2,
    0.3, 0.4, or a vector divided by its own sum) are off by at most K·eps/2
    once rounded and summed: eps/2 for the K rounded terms together, and
    eps/2 for each of the K - 1 additions.

    ``global_optimum`` x* is derived from the clients, once they pass these
    checks.  Linear with identity covariate covariance minimizes at the
    weighted mean of the local optima; logistic clients must share one
    optimum, which is x*; quadratic minimizes at the curvature-weighted mean
    of the centers.  Like clients, federations compare and hash by identity.
    """

    clients: tuple[ClientModel, ...]
    weights: np.ndarray | None = None
    global_optimum: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "clients", tuple(self.clients))
        k = self.size
        if not k:
            raise ValueError("federation needs at least one client")
        if len({c.kind for c in self.clients}) > 1:
            raise ValueError("all clients must share one model kind")
        if len({c.dimension for c in self.clients}) > 1:
            raise ValueError("all clients must share one dimension")
        w = np.full(k, 1.0 / k) if self.weights is None else np.asarray(self.weights, np.float64)
        if w.shape != (k,) or np.any(w <= 0):
            raise ValueError("weights must be positive, one per client")
        total = float(w.sum())
        tolerance = 2 * k * np.finfo(np.float64).eps
        if abs(total - 1.0) > tolerance:
            raise ValueError(
                f"weights sum to {total!r}, not 1 within {tolerance:.3g}; "
                "normalize them (w / w.sum())"
            )
        object.__setattr__(self, "weights", w)
        optima = np.stack([c.local_optimum for c in self.clients])
        if self.kind == "linear":
            optimum = w @ optima
        elif self.kind == "logistic":
            if not np.allclose(optima, optima[0], rtol=0, atol=1e-12):
                raise ValueError("logistic clients must share the same optimum")
            optimum = optima[0]
        else:
            curvatures = np.array([c.curvature for c in self.clients])
            optimum = (w * curvatures) @ optima / (w @ curvatures)
        object.__setattr__(self, "global_optimum", optimum)

    @property
    def kind(self) -> str:
        return self.clients[0].kind

    @property
    def dimension(self) -> int:
        return self.clients[0].dimension

    @property
    def size(self) -> int:
        return len(self.clients)


def true_sandwich(federation: Federation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form (G, S, G^-1 S G^-T) where available.

    Linear (standard-normal covariates): G = I and, with delta_k the gap
    between the global and the local optimum,

        S_k = noise_k^2 I + delta_k delta_k' + ||delta_k||^2 I,

    using E[a a' M a a'] = 2M + tr(M) I for symmetric M under a ~ N(0, I).
    Quadratic is noiseless (S = 0).  Logistic has no closed form; use the
    streaming plug-in estimate as the reference there.
    """
    kind = federation.kind
    d = federation.dimension
    if kind == "logistic":
        raise ValueError("logistic has no closed-form sandwich; use the plug-in estimate")
    if kind == "quadratic":
        curv = np.array([c.curvature for c in federation.clients])
        g = float(federation.weights @ curv) * np.eye(d)
        s = np.zeros((d, d))
        return g, s, np.zeros((d, d))
    g = np.eye(d)
    s = np.zeros((d, d))
    for client, p in zip(federation.clients, federation.weights):
        delta = federation.global_optimum - client.local_optimum
        s_k = client.noise_scale**2 * np.eye(d)
        s_k += np.outer(delta, delta) + (delta @ delta) * np.eye(d)
        s += p**2 * s_k
    # G = I, so G^-1 S G^-T is S itself, and S is a sum of symmetric terms.
    return g, s, s.copy()

"""Per-client loss oracles and streaming sample generators.

Three model kinds are supported:

* ``linear``    least squares with standard-normal covariates, response
                b = a'x_k + noise_scale * eps against a client-specific optimum,
* ``logistic``  Bernoulli labels with success probability sigmoid(a'x_shared),
* ``quadratic`` the noiseless oracle f_k(x) = curvature/2 * ||x - center||^2,
                used for exactness tests.

Gradient/Hessian formulas live in the stacked batch helpers below; the
single-draw methods are thin wrappers so that the simulation engine and the
spec-level operations share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit as sigmoid

__all__ = [
    "ClientModel",
    "Federation",
    "federation_of",
    "true_sandwich",
    "sigmoid",
    "linear_gradients",
    "logistic_gradients",
    "quadratic_gradients",
    "linear_hessians",
    "logistic_hessians",
    "quadratic_hessians",
    "linear_draws",
    "logistic_draws",
    "quadratic_draws",
]

_KINDS = ("linear", "logistic", "quadratic")


# --- stacked batch kernels -------------------------------------------------
# A, B hold one fresh sample per row; X holds the matching state per row.


def linear_gradients(A: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows a_i * (a_i' x_i - b_i)."""
    resid = np.einsum("kd,kd->k", A, X) - B
    return A * resid[:, None]


def logistic_gradients(A: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows a_i * (sigmoid(a_i' x_i) - b_i)."""
    p = sigmoid(np.einsum("kd,kd->k", A, X))
    return A * (p - B)[:, None]


def quadratic_gradients(centers: np.ndarray, curvatures: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows curvature_i * (x_i - c_i); exact, no sampling noise."""
    return curvatures[:, None] * (X - centers)


def linear_hessians(A: np.ndarray) -> np.ndarray:
    """Rows a_i a_i'."""
    return np.einsum("ki,kj->kij", A, A)


def logistic_hessians(A: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Rows sigmoid(a'x)(1 - sigmoid(a'x)) a_i a_i'."""
    p = sigmoid(np.einsum("kd,kd->k", A, X))
    return np.einsum("k,ki,kj->kij", p * (1.0 - p), A, A)


def quadratic_hessians(curvatures: np.ndarray, dimension: int) -> np.ndarray:
    return curvatures[:, None, None] * np.eye(dimension)


# --- weighted inference draws, one row per synchronized point ----------------
# X (n, d) holds n synchronized points; A (K, n, d) and B (K, n) hold one fresh
# sample per client for each of them.  Row t of the results is the weighted
# gradient and Hessian draw at X[t].  The stacked matmul and einsum calls run
# the same reduction per row as on a single (K, d) block, so every row is
# bit-identical to evaluating its round on its own.


def linear_draws(
    weights: np.ndarray, A: np.ndarray, B: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_k w_k a_k (a_k' x - b_k) and sum_k w_k a_k a_k' per row of X."""
    rows = A.transpose(1, 0, 2)
    resid = np.matmul(rows, X[:, :, None])[..., 0] - B.T
    return weights @ (rows * resid[..., None]), np.einsum("k,nki,nkj->nij", weights, rows, rows)


def logistic_draws(
    weights: np.ndarray, A: np.ndarray, B: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_k w_k a_k (p_k - b_k) and sum_k w_k p_k (1 - p_k) a_k a_k' per row
    of X, with p_k = sigmoid(a_k' x)."""
    rows = A.transpose(1, 0, 2)
    p = sigmoid(np.matmul(rows, X[:, :, None])[..., 0])
    grads = weights @ (rows * (p - B.T)[..., None])
    return grads, np.einsum("nk,nki,nkj->nij", weights * p * (1.0 - p), rows, rows)


def quadratic_draws(
    weights: np.ndarray, centers: np.ndarray, curvatures: np.ndarray, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The exact weighted gradient and the constant Hessian per row of X."""
    grads = weights @ (curvatures[:, None] * (X[:, None, :] - centers))
    hessian = float(weights @ curvatures) * np.eye(X.shape[1])
    return grads, np.broadcast_to(hessian, (len(X), *hessian.shape))


@dataclass(frozen=True)
class ClientModel:
    """Loss oracle of one client.

    ``local_optimum`` is the client's own minimizer x_k for linear, the shared
    optimum for logistic, and the center c_k for quadratic.  ``noise_scale``
    only affects the linear response; the quadratic kind is exactly noiseless.
    """

    kind: str
    local_optimum: np.ndarray
    noise_scale: float = 1.0
    curvature: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        opt = np.asarray(self.local_optimum, dtype=np.float64)
        if opt.ndim != 1 or opt.size < 1:
            raise ValueError("local_optimum must be a nonempty vector")
        object.__setattr__(self, "local_optimum", opt)
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")
        if self.kind == "quadratic" and self.curvature <= 0:
            raise ValueError("curvature must be positive")

    @property
    def dimension(self) -> int:
        return self.local_optimum.size

    def draw(self, rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        """n fresh samples as (covariates (n, d), responses (n,)).

        The quadratic kind consumes no randomness and returns empty arrays.
        """
        d = self.dimension
        if self.kind == "linear":
            z = rng.standard_normal((n, d + 1))
            a = z[:, :d]
            b = a @ self.local_optimum + self.noise_scale * z[:, d]
            return a, b
        if self.kind == "logistic":
            a = rng.standard_normal((n, d))
            u = rng.random(n)
            b = (u < sigmoid(a @ self.local_optimum)).astype(np.float64)
            return a, b
        return np.empty((n, 0)), np.empty(n)

    def _check_point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.dimension,):
            raise ValueError(f"expected a vector of length {self.dimension}")
        if not np.all(np.isfinite(x)):
            raise ValueError("evaluation point must be finite")
        return x

    def sample_gradient(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Stochastic gradient at x from one fresh sample."""
        x = self._check_point(x)
        a, b = self.draw(rng, 1)
        return self._gradient_rows(a, b, x[None, :])[0]

    def sample_hessian(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Stochastic Hessian at x from one fresh sample."""
        x = self._check_point(x)
        a, _ = self.draw(rng, 1)
        return self._hessian_rows(a, x[None, :])[0]

    def sample_gradient_hessian(
        self, x: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian at x evaluated on the same fresh sample."""
        x = self._check_point(x)
        a, b = self.draw(rng, 1)
        xs = x[None, :]
        return self._gradient_rows(a, b, xs)[0], self._hessian_rows(a, xs)[0]

    def _gradient_rows(self, A: np.ndarray, B: np.ndarray, X: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return linear_gradients(A, B, X)
        if self.kind == "logistic":
            return logistic_gradients(A, B, X)
        centers = np.broadcast_to(self.local_optimum, X.shape)
        return quadratic_gradients(centers, np.full(len(X), self.curvature), X)

    def _hessian_rows(self, A: np.ndarray, X: np.ndarray) -> np.ndarray:
        if self.kind == "linear":
            return linear_hessians(A)
        if self.kind == "logistic":
            return logistic_hessians(A, X)
        return quadratic_hessians(np.full(len(X), self.curvature), self.dimension)


@dataclass(frozen=True)
class Federation:
    """A weighted pool of same-kind clients and the optimum of their mixture.

    The weights must be positive and sum to 1 within 2·K·eps.  Every
    synchronization averages with them as given (``weights @ X``), so a sum
    1 + delta scales each average by 1 + delta and a noiseless run settles
    off x* by a multiple of delta, far outside the roundoff floor of
    ``fedstat.roundoff`` once delta exceeds roundoff (two quadratic clients
    at weights (0.5, 0.5 + 9e-13), run 200 rounds of C2, end 3.2e-11 off x*).
    Weights whose exact values sum to 1 (1/K, decimals such as 0.1, 0.2,
    0.3, 0.4, or a vector divided by its own sum) are off by at most K·eps/2
    once rounded and summed: eps/2 for the K rounded terms together, and
    eps/2 for each of the K - 1 additions.
    """

    clients: tuple[ClientModel, ...]
    weights: np.ndarray
    global_optimum: np.ndarray

    def __post_init__(self) -> None:
        if not self.clients:
            raise ValueError("federation needs at least one client")
        kinds = {c.kind for c in self.clients}
        if len(kinds) > 1:
            raise ValueError("all clients must share one model kind")
        dims = {c.dimension for c in self.clients}
        if len(dims) > 1:
            raise ValueError("all clients must share one dimension")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.clients),) or np.any(w <= 0):
            raise ValueError("weights must be positive, one per client")
        total = float(w.sum())
        tolerance = 2 * len(w) * np.finfo(np.float64).eps
        if abs(total - 1.0) > tolerance:
            raise ValueError(
                f"weights sum to {total!r}, not 1 within {tolerance:.3g}; "
                "normalize them (w / w.sum())"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(
            self, "global_optimum", np.asarray(self.global_optimum, dtype=np.float64)
        )

    @property
    def kind(self) -> str:
        return self.clients[0].kind

    @property
    def dimension(self) -> int:
        return self.clients[0].dimension

    @property
    def size(self) -> int:
        return len(self.clients)


def federation_of(clients: list[ClientModel] | tuple[ClientModel, ...], weights=None) -> Federation:
    """Build a federation, deriving the global optimum from the client kind.

    Linear with identity covariate covariance minimizes at the weighted mean of
    local optima; logistic clients must share one optimum; quadratic minimizes
    at the curvature-weighted mean of centers.
    """
    clients = tuple(clients)
    k = len(clients)
    w = np.full(k, 1.0 / k) if weights is None else np.asarray(weights, dtype=np.float64)
    kind = clients[0].kind
    optima = np.stack([c.local_optimum for c in clients])
    if kind == "linear":
        global_opt = w @ optima
    elif kind == "logistic":
        if not np.allclose(optima, optima[0], rtol=0, atol=1e-12):
            raise ValueError("logistic clients must share the same optimum")
        global_opt = optima[0].copy()
    else:
        curv = np.array([c.curvature for c in clients])
        global_opt = (w * curv) @ optima / (w @ curv)
    return Federation(clients=clients, weights=w, global_optimum=global_opt)


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
    ginv = np.linalg.solve(g, np.eye(d))
    cov = ginv @ s @ ginv.T
    return g, s, (cov + cov.T) / 2.0

"""Multi-round locally updated SGD over simulated clients.

Each round m consists of E_m independent SGD steps per client with step size
eta_m, followed by synchronization: the server replaces every client state by
the weighted average.  Only the synchronized iterates leave this module; local
states are internal and discarded at each sync.

Randomness layout: every client owns two sequential substreams derived from
the run seed, one feeding the optimization samples and one feeding the fresh
samples that inference observers consume at sync times.  Streams are keyed by
client index, so adding clients or rounds never perturbs existing draws, and
attaching observers never changes the optimization path.  Samples are drawn
from each stream in chunks of `_BUFFER_CHUNK` for speed; within a stream they
are always consumed sequentially, one row per local iteration (or per sync for
the inference stream).

Each round's local steps run in one in-place kernel per model kind
(``models.linear_steps``, ``logistic_steps`` or ``quadratic_steps``), called
once per round on the stacked client states X (K, d) with the round's
``SampleBuffer.take(E)``; the synchronized average is written straight into
the path and copied back to every client.

Rounds run in blocks of `BLOCK_ROUNDS`.  After a block's rounds, the
divergence test runs once on the block's rows: the first round m whose
squared norm is not <= divergence_bound**2 is named by `DivergenceError`,
exactly as a test after every round would name it.  The block's rounds after
m have been computed as well; they may overflow to inf or nan, silently, and
are discarded, so neither an observer nor a warning sees them.

Observers are notified once per block, after its divergence test: the engine
takes the block's inference rows with one buffer call, evaluates its gradient
and Hessian draws with one stacked kernel call, and then notifies every
observer once per round, in round order.  An observer is therefore at most
one block behind the path, and it has seen every completed round (rounds
1..m-1 of a diverging run) before ``run`` returns or raises.  `BLOCK_ROUNDS`
divides `_BUFFER_CHUNK`, so a block take never straddles a refill: the
inference buffer refills at the same stream positions as one take per round
would, and every kind's inference draws are those of a per-round
evaluation, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable, Protocol, runtime_checkable

import numpy as np

from . import models, schedules

__all__ = [
    "SyncPath",
    "SyncObserver",
    "BLOCK_ROUNDS",
    "DivergenceError",
    "client_generators",
    "run",
    "average_estimate",
    "save_path_csv",
]

_BUFFER_CHUNK = 2048
BLOCK_ROUNDS = 256
assert _BUFFER_CHUNK % BLOCK_ROUNDS == 0


class DivergenceError(RuntimeError):
    """The synchronized iterate left the allowed region; names the round."""


@dataclass(frozen=True)
class SyncPath:
    """The synchronized iterates and their iteration indices.

    points[m-1] is the average reached at the m-th synchronization, which
    happens at iteration comm_times[m-1]; total_iterations == comm_times[-1].
    """

    points: np.ndarray
    comm_times: np.ndarray
    total_iterations: int

    def __post_init__(self) -> None:
        if len(self.points) != len(self.comm_times):
            raise ValueError("points and comm_times must have equal length")
        if np.any(np.diff(self.comm_times) <= 0):
            raise ValueError("comm_times must be strictly increasing")

    @property
    def rounds(self) -> int:
        return len(self.points)


@runtime_checkable
class SyncObserver(Protocol):
    """Sink notified once per synchronization, in round order.

    Notifications arrive in blocks of `BLOCK_ROUNDS` rounds, so an observer is
    at most one block behind the path; every completed round has been pushed
    before ``run`` returns or raises `DivergenceError`.  ``x_bar`` is a
    read-only view of the path and the draws are views of per-block arrays;
    an observer that keeps them must copy them.
    """

    needs_inference_draws: bool

    def observe_sync(
        self,
        round_index: int,
        iteration: int,
        x_bar: np.ndarray,
        interval: int,
        grad_draw: np.ndarray | None,
        hess_draw: np.ndarray | None,
    ) -> None: ...


def client_generators(
    seed: int | np.random.SeedSequence, n_clients: int
) -> tuple[list[np.random.Generator], list[np.random.Generator]]:
    """Per-client (optimization, inference) generator pairs for a run seed."""
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    key = base.spawn_key
    opt = [
        np.random.default_rng(np.random.SeedSequence(base.entropy, spawn_key=(*key, 0, k)))
        for k in range(n_clients)
    ]
    inf = [
        np.random.default_rng(np.random.SeedSequence(base.entropy, spawn_key=(*key, 1, k)))
        for k in range(n_clients)
    ]
    return opt, inf


class SampleBuffer:
    """Sequential per-client samples, drawn in chunks and stacked client-major.

    ``take(n)`` returns (covariates (K, n, d), responses (K, n)) holding the
    next n samples of every client's stream.  Each client's rows appear in
    exactly the order its generator produces them, so the buffering granularity
    never changes which sample lands on which iteration for the linear kind
    (one normal block per draw); it is fixed at `_BUFFER_CHUNK` rows so results
    are reproducible for all kinds.
    """

    def __init__(
        self,
        clients: tuple[models.ClientModel, ...],
        rngs: list[np.random.Generator],
        chunk: int = _BUFFER_CHUNK,
    ):
        self._clients = clients
        self._rngs = rngs
        self._chunk = chunk
        self._cursor = 0
        self._size = 0
        self._A: np.ndarray | None = None
        self._B: np.ndarray | None = None

    def _refill(self, needed: int) -> None:
        size = max(self._chunk, needed)
        draws = [c.draw(rng, size) for c, rng in zip(self._clients, self._rngs)]
        fresh_a = np.stack([d[0] for d in draws])
        fresh_b = np.stack([d[1] for d in draws])
        left = self._size - self._cursor
        if left > 0:
            fresh_a = np.concatenate([self._A[:, self._cursor :, :], fresh_a], axis=1)
            fresh_b = np.concatenate([self._B[:, self._cursor :], fresh_b], axis=1)
        self._A, self._B = fresh_a, fresh_b
        self._cursor = 0
        self._size = fresh_a.shape[1]

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._cursor + n > self._size:
            self._refill(n - (self._size - self._cursor))
        start = self._cursor
        self._cursor += n
        return self._A[:, start : self._cursor, :], self._B[:, start : self._cursor]


def run(
    federation: models.Federation,
    schedule: schedules.Schedule,
    total_rounds: int,
    x0: np.ndarray,
    seed: int | np.random.SeedSequence,
    observers: Iterable[SyncObserver] = (),
    divergence_bound: float = 1e8,
) -> SyncPath:
    """Run ``total_rounds`` communication rounds from ``x0``; returns the path.

    Deterministic given (federation, schedule, total_rounds, x0, seed).  Every
    synchronized average is appended to the path and pushed to each observer,
    at most `BLOCK_ROUNDS` rounds later, so inference runs online.
    """
    if total_rounds < 1:
        raise ValueError("total_rounds must be >= 1")
    x0 = np.asarray(x0, dtype=np.float64)
    d = federation.dimension
    if x0.shape != (d,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite vector of length {d}")

    observers = tuple(observers)
    need_draws = any(getattr(o, "needs_inference_draws", False) for o in observers)
    kind = federation.kind
    clients = federation.clients
    weights = federation.weights
    opt_rngs, inf_rngs = client_generators(seed, federation.size)

    e_all = schedules.intervals(schedule, total_rounds)
    _, etas = schedules.steps_for_intervals(schedule, e_all)
    comm_times = np.cumsum(e_all)
    e_list, eta_list = e_all.tolist(), etas.tolist()

    quadratic = kind == "quadratic"
    if quadratic:
        centers = np.stack([c.local_optimum for c in clients])
        curvatures = np.array([c.curvature for c in clients])
    else:
        logistic = kind == "logistic"
        local_steps = models.logistic_steps if logistic else models.linear_steps
        sample_draws = models.logistic_draws if logistic else models.linear_draws
        opt_samples = SampleBuffer(clients, opt_rngs)
        inf_samples = SampleBuffer(clients, inf_rngs) if need_draws else None

    X = np.tile(x0, (federation.size, 1))
    points = np.empty((total_rounds, d))
    bound_sq = divergence_bound**2

    def notify(first: int, stop: int) -> None:
        """Push rounds first+1..stop to every observer, in round order."""
        if not observers or stop == first:
            return
        xs = points[first:stop]
        xs.flags.writeable = False
        if not need_draws:
            grads = hessians = (None,) * (stop - first)
        elif quadratic:
            grads, hessians = models.quadratic_draws(weights, centers, curvatures, xs)
        else:
            A, B = inf_samples.take(stop - first)
            grads, hessians = sample_draws(weights, A, B, xs)
        rounds = zip(
            range(first + 1, stop + 1),
            comm_times[first:stop].tolist(),
            xs,
            e_list[first:stop],
            grads,
            hessians,
        )
        for m, t, x_bar, interval, grad_draw, hess_draw in rounds:
            for obs in observers:
                obs.observe_sync(m, t, x_bar, interval, grad_draw, hess_draw)

    for first in range(0, total_rounds, BLOCK_ROUNDS):
        stop = min(first + BLOCK_ROUNDS, total_rounds)
        block = points[first:stop]
        # Rounds after a diverging one may overflow; they are discarded unseen.
        with np.errstate(over="ignore", invalid="ignore"):
            for interval, eta, x_bar in zip(e_list[first:stop], eta_list[first:stop], block):
                if quadratic:
                    models.quadratic_steps(X, centers, curvatures, eta, interval)
                else:
                    local_steps(X, *opt_samples.take(interval), eta)
                np.matmul(weights, X, x_bar)
                X[...] = x_bar
            # Row by row the same dot as x_bar @ x_bar.
            norm_sq = np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0]
        failed = np.flatnonzero(~(norm_sq <= bound_sq))
        if failed.size:
            m = first + int(failed[0]) + 1
            notify(first, m - 1)
            raise DivergenceError(
                f"synchronized iterate exceeded bound {divergence_bound:g} at round {m}"
            )
        notify(first, stop)

    return SyncPath(
        points=points, comm_times=comm_times, total_iterations=int(comm_times[-1])
    )


def average_estimate(path: SyncPath) -> np.ndarray:
    """The final estimator: arithmetic mean of the synchronized iterates."""
    if path.rounds == 0:
        raise ValueError("path is empty")
    return path.points.mean(axis=0)


def save_path_csv(path: SyncPath, stream: IO[str]) -> None:
    """Dump the path as CSV rows (round, iteration, coordinates...)."""
    d = path.points.shape[1]
    header = "round,iteration," + ",".join(f"x{j}" for j in range(d))
    stream.write(header + "\n")
    for m, (t, point) in enumerate(zip(path.comm_times, path.points), start=1):
        coords = ",".join(f"{v:.17g}" for v in point)
        stream.write(f"{m},{t},{coords}\n")

"""Multi-round locally updated SGD over simulated clients.

Each round m consists of E_m independent SGD steps per client with step size
eta_m, both read from the run's frozen ``ScheduleTable``, followed by
synchronization: the server replaces every client state by the weighted
average.  Only the synchronized iterates leave this module; local states are
internal and discarded at each sync.

Randomness layout: every client owns two sequential substreams derived from
the run seed, one feeding the optimization samples and one feeding the fresh
samples that inference observers consume at sync times.  Streams are keyed by
client index, so adding clients or rounds never perturbs existing draws, and
attaching observers never changes the optimization path.  Samples are drawn
from each stream in chunks of `_BUFFER_CHUNK` for speed; within a stream they
are always consumed sequentially, one row per local iteration (or per sync for
the inference stream), and laid out time-major, so that one step or sync
reads one (K, d) block.  A noiseless client's rows are its center and
curvature, drawn without randomness.

Rounds run in blocks of `BLOCK_ROUNDS`.  After a block's rounds, the
divergence test runs once on the block's rows: the first round m whose
squared norm is not <= bound**2 is named by `DivergenceError`, exactly as a
test after every round would name it.  The bound is 1e8 times the run's scale
(``roundoff.run_scale``, at least 1).  The block's rounds after
m have been computed as well; they may overflow to inf or nan, silently, and
are discarded, so neither an observer nor a warning sees them.

Local steps and synchronization run in one in-place kernel per model kind
(its rounds kernel in ``models.KERNELS``) on the stacked client states X
(K, d), called once per group of consecutive rounds.  Within each block of
`BLOCK_ROUNDS` rounds, consecutive rounds whose intervals sum to at most
`BLOCK_ROUNDS` rows form one group, and a round whose interval alone is
longer is a group of its own.  Each group makes one
``SampleBuffer.take(sum E)`` and one kernel call; the kernel writes each
round's synchronized average straight into the path and copies it back to
every client.  A linear group whose rounds all have E = 1 runs as one affine
map per round, built around the point the group starts from (see
``models.linear_rounds``).

Grouping leaves every random stream as one take per round would.  A take
holds at most
`BLOCK_ROUNDS` <= `_BUFFER_CHUNK` rows, or exactly one round's rows.  A
refill draws max(`_BUFFER_CHUNK`, rows still missing) rows per client, so a
group that crosses the end of the buffer refills once, with `_BUFFER_CHUNK`
rows, exactly where its crossing round alone would have, and a long round
refills as it does alone (`_BUFFER_CHUNK`, or E minus the rows left).  Every
refill therefore draws the same number of rows, in the same order, and the
logistic stream (whose rows depend on the draw size) does not move.  A cap
of `_BUFFER_CHUNK` would keep the bits too, but the rows left over at a
refill (fewer than the take that triggers it) are copied into the refilled
buffer: a group of up to 256 rows adds less than an eighth of a chunk to it,
where a 2048-row group could nearly double it.  The roundoff of a linear
group of E = 1 rounds does depend on where the group starts, its pivot.  The
groups follow from the table's intervals alone, so the bytes of a run still
depend only on (config, seed): never on the worker count, and never on the
observers.

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
from typing import IO, Iterable, Protocol

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with the package)

from . import models, roundoff

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
    happens at iteration comm_times[m-1].
    """

    points: np.ndarray
    comm_times: np.ndarray

    def __post_init__(self) -> None:
        if len(self.points) != len(self.comm_times):
            raise ValueError("points and comm_times must have equal length")
        if np.any(np.diff(self.comm_times) <= 0):
            raise ValueError("comm_times must be strictly increasing")

    @property
    def rounds(self) -> int:
        return len(self.points)

    @property
    def total_iterations(self) -> int:
        return int(self.comm_times[-1])


class SyncObserver(Protocol):
    """Sink notified once per synchronization, in round order.

    The inference states are the observers: ``plugin.PluginState`` asks for
    the inference draws and folds only them every round,
    ``rscale.RScaleState`` reads only the point and the interval.  The draws
    are None when no observer of the run sets ``needs_inference_draws``.

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
    """Sequential per-client samples, drawn in chunks and stacked time-major.

    ``take(n)`` returns (covariates (n, K, d), responses (n, K)) holding the
    next n samples of every client's stream: row t holds every client's t-th
    sample, as the kernels read it, and a noiseless client's row is its
    (center, curvature).  Each client's rows appear in exactly the order its
    generator produces them, so the buffering granularity never changes which
    sample lands on which iteration for the linear kind (one normal block per
    draw); it is fixed at `_BUFFER_CHUNK` rows so results are reproducible for
    all kinds, and so that grouped takes of at most `BLOCK_ROUNDS` rows refill
    exactly as per-round takes would.
    """

    def __init__(self, clients: tuple[models.ClientModel, ...], rngs: list[np.random.Generator]):
        self._clients = clients
        self._rngs = rngs
        self._cursor = 0
        self._size = 0
        self._A = np.empty((0, len(clients), clients[0].dimension))
        self._B = np.empty((0, len(clients)))

    def _refill(self, needed: int) -> None:
        """Keep the unread rows and append ``max(_BUFFER_CHUNK, needed)`` fresh
        rows per client, each written once into the new arrays."""
        size = max(_BUFFER_CHUNK, needed)
        left = self._size - self._cursor
        A = np.empty((left + size, *self._A.shape[1:]))
        B = np.empty(A.shape[:2])
        A[:left] = self._A[self._cursor :]
        B[:left] = self._B[self._cursor :]
        for k, (client, rng) in enumerate(zip(self._clients, self._rngs)):
            A[left:, k], B[left:, k] = client.draw(rng, size)
        self._A, self._B = A, B
        self._cursor = 0
        self._size = left + size

    def take(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        if self._cursor + n > self._size:
            self._refill(n - (self._size - self._cursor))
        start = self._cursor
        self._cursor += n
        return self._A[start : self._cursor], self._B[start : self._cursor]


def _groups(e_list: list[int], first: int, stop: int):
    """(lo, hi, rows) for the groups of rounds first..stop-1, in order.

    Consecutive rounds whose intervals sum to at most `BLOCK_ROUNDS` rows form
    one group; a round whose interval alone is longer is a group of its own.
    """
    lo, rows = first, 0
    for m in range(first, stop):
        if rows and rows + e_list[m] > BLOCK_ROUNDS:
            yield lo, m, rows
            lo, rows = m, 0
        rows += e_list[m]
    yield lo, stop, rows


def run(
    federation: models.Federation,
    table,
    x0: np.ndarray,
    seed: int | np.random.SeedSequence,
    observers: Iterable[SyncObserver] = (),
) -> SyncPath:
    """Run the table's T communication rounds from ``x0``; returns the path.

    Round m runs ``table.intervals[m-1]`` local steps of size
    ``table.etas[m-1]`` (a ``ScheduleTable``), and the path's ``comm_times``
    is the read-only ``table.comm_times``.  Deterministic given (federation,
    table, x0, seed).  Every
    synchronized average is appended to the path and pushed to each observer,
    at most `BLOCK_ROUNDS` rounds later, so inference runs online.  A round
    whose average has norm above 1e8 times the run's scale,
    ``roundoff.run_scale`` (at least 1), raises `DivergenceError`, so a run
    that starts or settles far from 0 is judged by its own size.  A bound
    whose square overflows (a scale above about 1.34e146) never trips.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    d = federation.dimension
    if x0.shape != (d,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite vector of length {d}")
    bound = 1e8 * max(1.0, roundoff.run_scale(federation, x0))

    observers = tuple(observers)
    need_draws = any(getattr(o, "needs_inference_draws", False) for o in observers)
    weights = federation.weights
    opt_rngs, inf_rngs = client_generators(seed, federation.size)

    e_list, eta_list = table.intervals.tolist(), table.etas.tolist()
    total_rounds = len(e_list)

    local_rounds, sample_draws = models.KERNELS[federation.kind]
    opt_samples = SampleBuffer(federation.clients, opt_rngs)
    inf_samples = SampleBuffer(federation.clients, inf_rngs) if need_draws else None

    X = np.tile(x0, (federation.size, 1))
    points = np.empty((total_rounds, d))
    with np.errstate(over="ignore"):
        bound_sq = np.square(np.float64(bound))  # inf above about 1.34e154

    def notify(first: int, stop: int) -> None:
        """Push rounds first+1..stop to every observer, in round order."""
        if not observers or stop == first:
            return
        xs = points[first:stop]
        xs.flags.writeable = False
        if not need_draws:
            grads = hessians = (None,) * (stop - first)
        else:
            grads, hessians = sample_draws(weights, *inf_samples.take(stop - first), xs)
        rounds = zip(
            range(first + 1, stop + 1),
            table.comm_times[first:stop].tolist(),
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
            for lo, hi, rows in _groups(e_list, first, stop):
                group = (weights, e_list[lo:hi], eta_list[lo:hi], points[lo:hi])
                local_rounds(X, *opt_samples.take(rows), *group)
            # Row by row the same dot as x_bar @ x_bar.
            norm_sq = np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0]
        failed = np.flatnonzero(~(norm_sq <= bound_sq))
        if failed.size:
            m = first + int(failed[0]) + 1
            notify(first, m - 1)
            raise DivergenceError(
                f"synchronized iterate exceeded bound {bound:g} at round {m}"
            )
        notify(first, stop)

    return SyncPath(points=points, comm_times=table.comm_times)


def average_estimate(points: np.ndarray) -> np.ndarray:
    """The estimator y_bar: the mean of the synchronized iterates ``points``,
    the (t, d) rows of a path such as ``path.points[:t]``.

    The rows are summed in blocks of `BLOCK_ROUNDS` from row 0 into a
    double-length total (``roundoff.add_rows``), so only the sums inside each
    block round, not the growing total.  Both confidence intervals are
    centred on this estimate, and the harness measures its errors from it.
    """
    t = len(points)
    if t == 0:
        raise ValueError("no synchronized points")
    hi = lo = np.zeros(points.shape[1])
    for first in range(0, t, BLOCK_ROUNDS):
        hi, lo = roundoff.add_rows((hi, lo), points[first : first + BLOCK_ROUNDS])
    return (hi + lo) / t


def save_path_csv(path: SyncPath, stream: IO[str]) -> None:
    """Dump the path as CSV rows (round, iteration, coordinates...)."""
    d = path.points.shape[1]
    header = "round,iteration," + ",".join(f"x{j}" for j in range(d))
    stream.write(header + "\n")
    for m, (t, point) in enumerate(zip(path.comm_times, path.points), start=1):
        coords = ",".join(f"{v:.17g}" for v in point)
        stream.write(f"{m},{t},{coords}\n")

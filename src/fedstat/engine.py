"""Multi-round locally updated SGD over simulated clients.

Each round m consists of E_m independent SGD steps per client with step size
eta_m, both read from the run's frozen ``ScheduleTable``, followed by
synchronization: the server replaces every client state by the weighted
average.  Only the synchronized iterates leave this module, in a ``SyncPath``
that carries the table they ran on as its time axis; local states are internal
and discarded at each sync.

Randomness layout: every client owns two sequential substreams derived from
the run seed, one feeding the optimization samples and one feeding the fresh
samples of the inference draws at sync times (``inference_draws``).  Streams
are keyed by client index, so adding clients or rounds never perturbs
existing draws, and ``run`` reads only the optimization streams, so inference
never changes the optimization path.  Samples are drawn from each stream in
chunks of `_BUFFER_CHUNK` for speed; within a stream they are always consumed
sequentially, one row per local iteration (or per sync for the inference
stream), and laid out time-major, so that one step or sync reads one (K, d)
block.  A noiseless client's rows are its center and curvature, drawn
without randomness.  Each stream's ``SampleBuffer`` holds one array pair for
the whole run, of `_BUFFER_CHUNK` + `BLOCK_ROUNDS` rows, (K, d + 1) floats
each.  Only a round of more than `BLOCK_ROUNDS` steps, which is one take, can
grow it: to the rows still unread plus the fresh draw, fewer than E +
`_BUFFER_CHUNK` for a round of E steps, and a grown pair is kept until the
run ends.  Refills write into it in place, at the draw sizes and stream
positions of a buffer of new arrays per refill, and a take's arrays are
valid until the next take.

Rounds run in blocks of `BLOCK_ROUNDS`.  After a block's rounds, the
divergence test runs once on the block's rows: the first round m whose
squared norm is not <= bound**2 is named by `DivergenceError`, exactly as a
test after every round would name it.  The bound is 1e8 times the run's scale
(``roundoff.run_scale``, at least 1).  The block's rounds after
m have been computed as well; they may overflow to inf or nan, silently, and
are discarded, so no caller and no warning sees them.

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

Grouping leaves every random stream as one take per round would.  A take holds
at most `BLOCK_ROUNDS` <= `_BUFFER_CHUNK` rows, or exactly one round's rows.
A refill draws max(`_BUFFER_CHUNK`, rows still missing) rows per client, so a
group that crosses the end of the buffer refills once, with `_BUFFER_CHUNK`
rows, exactly where its crossing round alone would have, and a long round
refills as it does alone (`_BUFFER_CHUNK`, or E minus the rows left).  Every
refill therefore draws the same number of rows, in the same order, and the
logistic stream (whose rows depend on the draw size) does not move.  A cap of
`_BUFFER_CHUNK` would keep the bits too, but the rows left over at a refill
(fewer than the take that triggers it) are moved to the head of the buffer:
those of a group of up to 256 rows fit in its `BLOCK_ROUNDS` spare rows, where
a 2048-row group could need nearly a second chunk.  The roundoff of a linear
group of E = 1 rounds does depend on where the group starts, its pivot.  The
groups follow from the table's intervals alone, so the bytes of a run still
depend only on (config, seed), never on the worker count.

``inference_draws`` reads the finished path: for each block of `BLOCK_ROUNDS`
synchronized points it takes the block's rows of the inference stream with
one buffer call and evaluates their gradient and Hessian draws with one
stacked kernel call.  `BLOCK_ROUNDS` divides `_BUFFER_CHUNK`, so a block take
never straddles a refill: the inference buffer refills at the same stream
positions as one take per round would, and every kind's inference draws are
those of a per-round evaluation, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterator

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with the package)

from . import models, roundoff

__all__ = [
    "SyncPath",
    "BLOCK_ROUNDS",
    "DivergenceError",
    "client_generators",
    "run",
    "inference_draws",
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
    """The synchronized iterates and the ``ScheduleTable`` they ran on.

    points[m-1] is the average reached at the m-th synchronization, which
    happens at iteration table.comm_times[m-1].  The table is the run's time
    axis: its intervals give every round's local steps and the time change
    h(r, T) of the partial-sum process.
    """

    points: np.ndarray
    table: "ScheduleTable"  # noqa: F821  (read here, never built)

    def __post_init__(self) -> None:
        if len(self.points) != len(self.table.intervals):
            raise ValueError("points must hold one row per round of the table")

    @property
    def rounds(self) -> int:
        return len(self.points)

    @property
    def total_iterations(self) -> int:
        return int(self.table.comm_times[-1])


def client_generators(
    seed: int | np.random.SeedSequence, n_clients: int, stream: int
) -> list[np.random.Generator]:
    """Per-client generators of one stream of a run seed: stream 0 feeds the
    optimization samples, stream 1 the inference draws."""
    base = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    key = (*base.spawn_key, stream)
    return [
        np.random.default_rng(np.random.SeedSequence(base.entropy, spawn_key=(*key, k)))
        for k in range(n_clients)
    ]


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

    The buffer holds one array pair for the whole stream, sized at the first
    refill for `_BUFFER_CHUNK` + `BLOCK_ROUNDS` rows: room for a chunk and the
    unread rows of a grouped take, of which there are fewer than
    `BLOCK_ROUNDS`.  Only the take of a round longer than `BLOCK_ROUNDS` steps
    can leave more unread rows than that, and it then grows the pair to those
    rows plus the fresh draw, fewer than E + `_BUFFER_CHUNK` rows for a round
    of E steps; a grown pair is kept until the stream ends.  A refill moves
    the unread rows to the head and writes each client's fresh draw after
    them, in place, at the same draw sizes and stream positions as a buffer
    of new arrays per refill.  The arrays of a take are views into it, valid
    until the next take.
    """

    def __init__(self, clients: tuple[models.ClientModel, ...], rngs: list[np.random.Generator]):
        self._clients = clients
        self._rngs = rngs
        self._cursor = 0
        self._size = 0
        self._A = np.empty((0, len(clients), clients[0].dimension))
        self._B = np.empty((0, len(clients)))

    def _refill(self, needed: int) -> None:
        """Move the unread rows to the head and write ``max(_BUFFER_CHUNK,
        needed)`` fresh rows per client after them."""
        size = max(_BUFFER_CHUNK, needed)
        left = self._size - self._cursor
        A, B = self._A, self._B
        if left + size > len(A):
            A = np.empty((max(_BUFFER_CHUNK + BLOCK_ROUNDS, left + size), *A.shape[1:]))
            B = np.empty(A.shape[:2])
        A[:left] = self._A[self._cursor : self._size]
        B[:left] = self._B[self._cursor : self._size]
        for k, (client, rng) in enumerate(zip(self._clients, self._rngs)):
            A[left : left + size, k], B[left : left + size, k] = client.draw(rng, size)
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
) -> SyncPath:
    """Run the table's T communication rounds from ``x0``; returns the path.

    Round m runs ``table.intervals[m-1]`` local steps of size
    ``table.etas[m-1]`` (a ``ScheduleTable``), and the path carries ``table``
    itself as its time axis.  Deterministic given (federation, table, x0,
    seed); only the optimization stream is read.  A round whose
    average has norm above 1e8 times the run's scale, ``roundoff.run_scale``
    (at least 1), raises `DivergenceError`, so a run that starts or settles
    far from 0 is judged by its own size.  A bound
    whose square overflows (a scale above about 1.34e146) never trips.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    d = federation.dimension
    if x0.shape != (d,) or not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be a finite vector of length {d}")
    bound = 1e8 * max(1.0, roundoff.run_scale(federation, x0))

    weights = federation.weights
    e_list, etas = table.intervals.tolist(), table.etas
    total_rounds = len(e_list)

    local_rounds = models.KERNELS[federation.kind][0]
    opt_samples = SampleBuffer(federation.clients, client_generators(seed, federation.size, 0))

    X = np.tile(x0, (federation.size, 1))
    points = np.empty((total_rounds, d))
    with np.errstate(over="ignore"):
        bound_sq = np.square(np.float64(bound))  # inf above about 1.34e154

    for first in range(0, total_rounds, BLOCK_ROUNDS):
        stop = min(first + BLOCK_ROUNDS, total_rounds)
        block = points[first:stop]
        # Rounds after a diverging one may overflow; they are discarded unseen.
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi, rows in _groups(e_list, first, stop):
                group = (weights, e_list[lo:hi], etas[lo:hi], points[lo:hi])
                local_rounds(X, *opt_samples.take(rows), *group)
            # Row by row the same dot as x_bar @ x_bar.
            norm_sq = np.matmul(block[:, None, :], block[:, :, None])[:, 0, 0]
        failed = np.flatnonzero(~(norm_sq <= bound_sq))
        if failed.size:
            m = first + int(failed[0]) + 1
            raise DivergenceError(
                f"synchronized iterate exceeded bound {bound:g} at round {m}"
            )

    return SyncPath(points, table)


def inference_draws(
    federation: models.Federation,
    seed: int | np.random.SeedSequence,
    points: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The weighted (gradient, Hessian) draws at the synchronized ``points``.

    Yields one ``models.KERNELS`` draw pair, of shapes (n, d) and (n, d, d),
    per block of `BLOCK_ROUNDS` rows of ``points`` (the last block may be
    shorter).  Row i is evaluated at ``points[i]`` with the i-th row of the
    run seed's inference stream, as a per-round evaluation would be.
    """
    draws = models.KERNELS[federation.kind][1]
    samples = SampleBuffer(federation.clients, client_generators(seed, federation.size, 1))
    for first in range(0, len(points), BLOCK_ROUNDS):
        block = points[first : first + BLOCK_ROUNDS]
        yield draws(federation.weights, *samples.take(len(block)), block)


def average_estimate(points: np.ndarray) -> np.ndarray:
    """The estimator y_bar: the mean of the synchronized iterates ``points``,
    the (t, d) rows of a path such as ``path.points[:t]``.

    The rows are summed in blocks of `BLOCK_ROUNDS` from row 0 into a
    double-length total (``roundoff.add_rows``), so only the sums inside each
    block round, not the growing total.  Both confidence intervals are
    centred on this estimate, and the harness measures its errors from it.
    """
    if len(points) == 0:
        raise ValueError("no synchronized points")
    return _prefix_estimates(points, (len(points),))[0]


def _prefix_estimates(points: np.ndarray, ends) -> np.ndarray:
    """Row i is ``average_estimate(points[:ends[i]])``, bit for bit, for
    increasing ends >= 1, all from one pass over the rows.

    A prefix's blocks start at row 0, so the running total of its full blocks
    is shared with every longer prefix; only its partial last block, if any,
    is added on its own.  The pass costs O(T + len(ends) * `BLOCK_ROUNDS`).
    """
    estimates = np.empty((len(ends), points.shape[1]))
    total = (np.zeros(points.shape[1]),) * 2
    done = 0  # rows in total: the full blocks read so far
    for i, t in enumerate(ends):
        while done + BLOCK_ROUNDS <= t:
            total = roundoff.add_rows(total, points[done : done + BLOCK_ROUNDS])
            done += BLOCK_ROUNDS
        hi, lo = roundoff.add_rows(total, points[done:t]) if t > done else total
        estimates[i] = (hi + lo) / t
    return estimates


def save_path_csv(path: SyncPath, stream: IO[str]) -> None:
    """Dump the path as CSV rows (round, iteration, coordinates...)."""
    d = path.points.shape[1]
    header = "round,iteration," + ",".join(f"x{j}" for j in range(d))
    stream.write(header + "\n")
    for m, (t, point) in enumerate(zip(path.table.comm_times, path.points), start=1):
        coords = ",".join(f"{v:.17g}" for v in point)
        stream.write(f"{m},{t},{coords}\n")

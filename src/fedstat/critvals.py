"""Critical values of the random-scaling statistic.

The studentized statistic converges to

    t*(beta) = B(1) / sqrt( integral_0^1 (B(r) - g_beta(r) B(1))^2 dr ),

with B a standard one-dimensional Brownian motion and g_beta(r) = r**(1/(1-beta)).
Quantiles are obtained by Monte Carlo, on a grid of n steps: the integral is
the left-endpoint rectangle rule (1/n) sum_j (B_j - g_j B(1))^2 over
r_j = j/n, j = 0..n-1, with B_j the value at r_j of a random walk of n N(0,1)
increments scaled by 1/sqrt(n), and quantiles are read off the empirical
distribution.  Paths come in antithetic pairs (B, -B); since
t*(-B) = -t*(B) exactly, the realization sample is symmetric by construction,
which pins the median at zero and sharpens the extreme quantiles.

No path is built.  The discrete bridge b_j = B_j - r_j B(1) is independent of
B(1), and its covariance (min(i, j) - ij/n)/n has the sine eigenvectors
sqrt(2/n) sin(k pi j / n) with eigenvalues kappa_k / n,
kappa_k = 1 / (4 sin^2(k pi / 2n)), k = 1..n-1 (its Karhunen-Loeve
expansion; Abadir & Paruolo 1997).  So each path draws the same n normals as
a random walk, B(1) and the bridge's coordinates Y_1..Y_{n-1} in that basis,
and with d_j = r_j - g(r_j) the rectangle rule is exactly

    n * integral = sum_k (kappa_k / n) Y_k^2 + 2 B(1) e'Y + |d|^2 B(1)^2,

e = sqrt(kappa / n) * sqrt(2/n) * DST-I(d): one weighted sum of squares and
one dot per beta, with no partial sums.  The weights are computed once per
call with one FFT per beta; for beta = 0, g(r) = r and d = 0, so that row has
no cross term.  The statistic is the one of the random-walk discretization,
in distribution, and its expanded form stays within 3e-14 relative of the
centered form on the path the draws imply.

Drawing the normals is the floor of the simulation's cost, so it is spread
over two cores.  The paths are split into two fixed halves, each drawn from
its own generator (``SeedSequence(seed).spawn(2)``) and simulated start to
end by its own worker thread; the generator and the sums release the GIL.
Each worker runs its paths in blocks of about 2**17 values (1 MB), the
number of paths per block fixed by the step count, in one buffer of its own
allocated once, so the working memory does not grow with the number of
replications.  The split depends on the number of paths alone, and each
path is reduced on its own with BLAS-free sums, so the sample depends
neither on the block size, nor on the timing, nor on the BLAS thread count,
nor on the number of cores (see ``simulate_statistics``).
``simulate_table`` reads its quantiles by partitioning the sample in place,
so a table run holds the sample once, 8 bytes per beta and replication,
plus the two draw buffers.

A pre-generated table ships with the package; inference never simulates at
runtime.  ``default_table`` reads it afresh on every call, so no caller sees
another's changes to it.  Regenerate with ``fedstat critvals``; tables it
writes record their seed.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from typing import IO

import numpy as np
import numpy.random  # noqa: F401  (numpy loads it lazily; load it with the package)

__all__ = [
    "CriticalValueTable",
    "simulate_table",
    "lookup",
    "save_csv",
    "load_csv",
    "default_table",
]

_BLOCK_VALUES = 1 << 17
_MATCH = 1e-9  # `lookup` matches a beta or a level within this distance
_STREAMS = 2  # seeded streams and worker threads; fixed, so the sample never varies


def _check_distinct(betas, levels) -> None:
    """Raise unless the betas, and the levels, differ pairwise by more than
    `_MATCH`, so that ``lookup`` can tell every entry apart."""
    for name, values in (("betas", betas), ("levels", levels)):
        if (np.diff(np.sort(values)) <= _MATCH).any():
            raise ValueError(f"{name} must differ by more than {_MATCH:g}")


@dataclass(frozen=True)
class CriticalValueTable:
    """Quantiles q such that P(t*(beta) <= q) = level, per (beta, level).

    A table read from outside must hold finite values that do not decrease
    as the level increases along a row, and no two betas, and no two levels,
    that ``lookup`` cannot tell apart (within 1e-9).  ``steps`` and
    ``replications`` must be >= 0, 0 when unknown, and ``seed`` None or
    >= 0.  Anything else raises ``ValueError``.
    """

    betas: tuple[float, ...]
    levels: tuple[float, ...]
    values: np.ndarray  # shape (len(betas), len(levels))
    steps: int
    replications: int
    seed: int | None = None  # None when unknown

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (len(self.betas), len(self.levels)):
            raise ValueError("values must be one row per beta, one column per level")
        _check_distinct(self.betas, self.levels)
        if not np.isfinite(values).all():
            raise ValueError("critical values must be finite")
        if (np.diff(values[:, np.argsort(self.levels)], axis=1) < 0.0).any():
            raise ValueError("critical values must not decrease as the level increases")
        for name in ("steps", "replications", "seed"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0")
        object.__setattr__(self, "values", values)


def simulate_statistics(
    beta_list: tuple[float, ...], steps: int, replications: int, seed: int
) -> np.ndarray:
    """Realizations of t*(beta), one row per beta.

    All betas share the same Brownian paths, and paths come in antithetic
    pairs: with P = ceil(replications / 2) paths, columns 0..P-1 of a row hold
    the statistics of paths 0..P-1 in order and columns P..2P-1 their
    negations.  When ``replications`` is odd, the negation of the last path
    is dropped, so every sample is exactly symmetric up to that one value.

    A path is ``steps`` = n standard normals: B(1), then the bridge's
    coordinates Y_1..Y_{n-1} in its sine basis (see the module docstring).
    ``seed`` seeds two generators, ``SeedSequence(seed).spawn(2)``: paths
    0..floor(P/2)-1 are drawn from the first, in path order, and the others
    from the second.  Each half runs in its own worker thread, from its first
    block to its last, so the two halves' draws and sums overlap.  A worker
    simulates ``_block_rows(steps)`` paths at a time (about 1 MB of normals
    per block) in one buffer of its own, allocated once, and writes only its
    own paths' columns of the output.

    Per block, the integral of every beta is

        (sum_k w_k Y_k^2 + B(1) (2 e'Y + |d|^2 B(1))) / n,

    from one ``np.einsum`` weighted sum of squares and one ``np.einsum`` of
    the dots e'Y of the betas above 0; w = kappa / n, e and |d|^2 come from
    ``_bridge_weights`` once per call.  Both sums are BLAS-free, so they
    give the same bits for any BLAS thread count; ``np.vecdot`` (ddot) on
    rows of 20000 values did not.

    Each path's arithmetic touches only that path's row, and the split into
    halves is fixed, so the sample depends only on (``beta_list``,
    ``steps``, ``replications``, ``seed``): not on the block size, the
    timing, the BLAS thread count or the number of cores.
    """
    if not beta_list:
        raise ValueError("beta_list must hold at least one beta")
    for beta in beta_list:
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    weights, cross, offset = _bridge_weights(beta_list, steps)
    crossed = np.flatnonzero(offset)  # beta = 0 has d = 0: no cross term
    cross = cross[crossed]
    pairs = (replications + 1) // 2
    rows = _block_rows(steps)
    out = np.empty((len(beta_list), 2 * pairs))

    def simulate(stream: np.random.SeedSequence, first: int, stop: int) -> None:
        rng = np.random.default_rng(stream)
        normals = np.zeros((max(rows, 2), steps))  # per path: B(1), Y_1..Y_{n-1}
        for start in range(first, stop, rows):
            count = min(rows, stop - start)
            rng.standard_normal(out=normals[:count])
            # At least two rows: einsum sums a one-row operand in pieces of
            # 8192 values, which changes the bits of longer paths.
            block = normals[: max(count, 2)]
            b_one = block[:, 0]
            y = block[:, 1:]
            squares = np.einsum("ij,ij,j->i", y, y, weights)
            dots = np.einsum("ij,kj->ki", y, cross)
            sums = [squares] * len(beta_list)
            for i, dot in zip(crossed, dots):
                sums[i] = squares + b_one * (2.0 * dot + b_one * offset[i])
            for row, total in zip(out, sums):
                integral = total[:count] / steps
                np.divide(b_one[:count], np.sqrt(integral), out=row[start : start + count])

    bounds = [pairs * k // _STREAMS for k in range(_STREAMS + 1)]
    streams = np.random.SeedSequence(seed).spawn(_STREAMS)
    with ThreadPoolExecutor(max_workers=_STREAMS) as pool:
        list(pool.map(simulate, streams, bounds, bounds[1:]))  # re-raises a worker's error
    np.negative(out[:, :pairs], out=out[:, pairs:])
    return out[:, :replications]


def _bridge_weights(
    beta_list: tuple[float, ...], steps: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integral's weights in the bridge's sine basis, for n = ``steps``.

    Returns w_k = kappa_k / n for k = 1..n-1, the bridge's eigenvalues; one
    row e per beta, e_k = sqrt(w_k) sqrt(2/n) sum_j d_j sin(k pi j / n); and
    |d|^2 per beta, with d_j = r_j - g(r_j) on the left endpoints r_j = j/n.
    The sine sums are the imaginary parts of one real FFT of d zero-padded
    to 2n points: O(n log n) time and O(n) memory per beta.
    """
    k = np.arange(1, steps)
    weights = 0.25 / np.sin(k * (math.pi / (2 * steps))) ** 2 / steps
    r = np.arange(steps) / steps
    d = np.stack([r - r ** (1.0 / (1.0 - beta)) for beta in beta_list])
    sines = -np.fft.rfft(d, 2 * steps, axis=1).imag[:, 1:steps]
    cross = np.sqrt(weights) * math.sqrt(2.0 / steps) * sines
    return weights, cross, np.einsum("ij,ij->i", d, d)


def _block_rows(steps: int) -> int:
    """Paths per block: about 2**17 values (1 MB) per buffer, whatever ``steps``."""
    return max(1, _BLOCK_VALUES // steps)


def simulate_table(
    betas,
    levels,
    steps: int = 1000,
    replications: int = 50000,
    seed: int = 0,
) -> CriticalValueTable:
    """Monte Carlo quantile table for the given betas and probability levels.

    The quantiles partition the simulated sample in place, so the run holds
    no copy of it.
    """
    betas = tuple(float(b) for b in betas)
    levels = tuple(float(p) for p in levels)
    if not betas or not levels:
        raise ValueError("need at least one beta and one level")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if replications < 1000:
        raise ValueError("replications must be >= 1000")
    if any(not 0.0 < p < 1.0 for p in levels):
        raise ValueError("levels must lie strictly inside (0, 1)")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    _check_distinct(betas, levels)
    stats = simulate_statistics(betas, steps, replications, seed)
    values = np.quantile(stats, levels, axis=1, overwrite_input=True).T
    return CriticalValueTable(
        betas=betas,
        levels=levels,
        values=values,
        steps=steps,
        replications=replications,
        seed=seed,
    )


def lookup(table: CriticalValueTable, alpha: float, beta: float) -> float:
    """Two-sided critical value: the (1 - alpha/2) quantile for row ``beta``.

    Exact-match contract: no interpolation across betas or levels.  The value
    must be positive: t*(beta) is symmetric about 0, and a value at or below
    0 would give zero-width intervals.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    level = 1.0 - alpha / 2.0
    beta_idx = [i for i, b in enumerate(table.betas) if abs(b - beta) <= _MATCH]
    if not beta_idx:
        raise KeyError(f"beta {beta!r} not tabulated (rows: {table.betas})")
    level_idx = [i for i, p in enumerate(table.levels) if abs(p - level) <= _MATCH]
    if not level_idx:
        raise KeyError(f"level {level!r} not tabulated (columns: {table.levels})")
    value = float(table.values[beta_idx[0], level_idx[0]])
    if value <= 0.0:
        raise ValueError(f"critical value {value:g} at beta {beta!r}, level {level!r} must be > 0")
    return value


def save_csv(table: CriticalValueTable, stream: IO[str]) -> None:
    """Header row of levels, one row per beta; metadata in leading comments."""
    seed = "" if table.seed is None else f" seed={table.seed}"
    stream.write(f"# steps={table.steps} replications={table.replications}{seed}\n")
    stream.write("beta," + ",".join(f"{p:.17g}" for p in table.levels) + "\n")
    for beta, row in zip(table.betas, table.values):
        stream.write(f"{beta:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def _numbers(cells: list[str], where: str, parse: type = float) -> list:
    """The cells read by ``parse`` (``float`` or ``int``).  A cell that does
    not parse raises ``ValueError`` naming ``where`` it came from: a line of
    a table, a header key on that line, or a command-line option."""
    values = []
    for cell in cells:
        try:
            values.append(parse(cell))
        except ValueError:
            noun = "an integer" if parse is int else "a number"
            raise ValueError(f"{where}: {cell!r} is not {noun}") from None
    return values


def load_csv(stream: IO[str]) -> CriticalValueTable:
    """Read a table written by ``save_csv``.  A header value or a cell that
    does not parse, or a ragged row, raises ``ValueError`` naming its line."""
    meta: dict[str, int | None] = {"steps": 0, "replications": 0, "seed": None}
    header: list[str] | None = None
    betas: list[float] = []
    rows: list[list[float]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                if key in meta:
                    meta[key] = _numbers([value], f"line {lineno}: {key}", int)[0]
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            levels = _numbers(cells[1:], f"line {lineno}")
            continue
        if len(cells) != len(header):
            raise ValueError(f"line {lineno}: {len(cells)} cells, the header has {len(header)}")
        beta, *values = _numbers(cells, f"line {lineno}")
        betas.append(beta)
        rows.append(values)
    if header is None or not rows:
        raise ValueError("malformed critical-value table")
    return CriticalValueTable(
        betas=tuple(betas),
        levels=tuple(levels),
        values=np.array(rows),
        **meta,
    )


def default_table() -> CriticalValueTable:
    """The table shipped with the package, read afresh on every call."""
    ref = resources.files("fedstat").joinpath("data/critical_values.csv")
    with ref.open("r") as stream:
        return load_csv(stream)

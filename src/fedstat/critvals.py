"""Critical values of the random-scaling statistic.

The studentized statistic converges to

    t*(beta) = B(1) / sqrt( integral_0^1 (B(r) - g_beta(r) B(1))^2 dr ),

with B a standard one-dimensional Brownian motion and g_beta(r) = r**(1/(1-beta)).
Quantiles are obtained by Monte Carlo: Brownian paths are discretized as
normalized partial sums of N(0,1) increments, the integral by a left-endpoint
rectangle rule on the same grid (value 0 at r = 0), and quantiles are read off
the empirical distribution.  Paths come in antithetic pairs (B, -B); since
t*(-B) = -t*(B) exactly, the realization sample is symmetric by construction,
which pins the median at zero and sharpens the extreme quantiles.

Drawing the normals is the floor of the simulation's cost, so it is spread
over two cores.  The paths are split into two fixed halves, each drawn from
its own generator (``SeedSequence(seed).spawn(2)``) and simulated start to
end by its own worker thread.  The generator releases the GIL while it
draws; ``np.cumsum`` holds it (two threads each running ``cumsum`` took
0.151 s against 0.107 s one after the other), so one worker's reduction
overlaps the other's draws.  Each worker runs its paths in blocks of about
2**18 values (2 MB), the number of paths per block fixed by the step count,
in two buffers of its own allocated once, so the working memory does not
grow with the number of replications.  The integral is expanded into
per-path sums, one dot per path and beta; the statistics stay within
1.2e-13 relative of those of the centered form.  The split depends on the
number of paths alone, and each path is reduced on its own with BLAS-free
sums, so the sample depends neither on the block size, nor on the timing,
nor on the BLAS thread count, nor on the number of cores (see
``simulate_statistics``).

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

__all__ = [
    "CriticalValueTable",
    "simulate_table",
    "lookup",
    "save_csv",
    "load_csv",
    "default_table",
]

_BLOCK_VALUES = 1 << 18
_STREAMS = 2  # seeded streams and worker threads; fixed, so the sample never varies


@dataclass(frozen=True)
class CriticalValueTable:
    """Quantiles q such that P(t*(beta) <= q) = level, per (beta, level)."""

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

    ``seed`` seeds two generators, ``SeedSequence(seed).spawn(2)``: paths
    0..floor(P/2)-1 are drawn from the first, in path order, and the others
    from the second.  Each half runs in its own worker thread, from its first
    block to its last, so the two halves' draws and reductions overlap.  A
    worker simulates ``_block_rows(steps)`` paths at a time (about 2 MB of
    increments per block) in two buffers of its own, allocated once: one for
    the increments and one for the grid (a zero column, then the partial
    sums).  It writes only its own paths' columns of the output.

    With n = ``steps`` and B_j the path at r_j = j/n, the integral is the
    expanded rectangle rule

        (1/n) sum_j (B_j - g_j B(1))^2
            = (S_BB - B(1) (2 S_gB - B(1) S_gg)) / n,

    with S_BB = sum_j B_j^2 once per block, S_gB = sum_j g_j B_j one dot per
    path and beta, and S_gg = sum_j g_j^2 once per call.  The statistics
    deviated from those of the centered form by at most 1.1e-13 relative on
    the table's inputs (1000 steps, 10^5 replications, four betas, seeds
    0-2).  The sums are BLAS-free ``np.einsum`` reductions, which give the
    same bits for any BLAS thread count; ``np.vecdot`` (ddot) on rows of
    20000 values did not.

    Each path's arithmetic (scale, sequential ``cumsum``, then its own sums)
    touches only that path's row, and the split into halves is fixed, so
    the sample depends only on (``beta_list``, ``steps``, ``replications``,
    ``seed``): not on the block size, the timing, the BLAS thread count or
    the number of cores.
    """
    for beta in beta_list:
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
    r = np.arange(steps) / steps  # left endpoints, r[0] = 0
    g = np.stack([r ** (1.0 / (1.0 - beta)) for beta in beta_list])
    g_sq = np.einsum("ij,ij->i", g, g)
    scale = 1.0 / math.sqrt(steps)
    pairs = (replications + 1) // 2
    rows = _block_rows(steps)
    out = np.empty((len(beta_list), 2 * pairs))

    def simulate(stream: np.random.SeedSequence, first: int, stop: int) -> None:
        rng = np.random.default_rng(stream)
        increments = np.empty((rows, steps))
        grid = np.zeros((max(rows, 2), steps + 1))  # column 0 stays 0: B(0)
        for start in range(first, stop, rows):
            n = min(rows, stop - start)
            inc = rng.standard_normal(out=increments[:n])
            np.multiply(inc, scale, out=inc)
            np.cumsum(inc, axis=1, out=grid[:n, 1:])
            # At least two rows: einsum sums a one-row operand in pieces of
            # 8192 values, which changes the bits of longer paths.
            path = grid[: max(n, 2)]
            b_one = path[:, steps]
            b_grid = path[:, :steps]
            b_sq = np.einsum("ij,ij->i", b_grid, b_grid)
            for i in range(len(beta_list)):
                g_b = np.einsum("ij,j->i", b_grid, g[i])
                integral = (b_sq - b_one * (2.0 * g_b - b_one * g_sq[i])) / steps
                np.divide(b_one[:n], np.sqrt(integral[:n]), out=out[i, start : start + n])

    bounds = [pairs * k // _STREAMS for k in range(_STREAMS + 1)]
    streams = np.random.SeedSequence(seed).spawn(_STREAMS)
    with ThreadPoolExecutor(max_workers=_STREAMS) as pool:
        list(pool.map(simulate, streams, bounds, bounds[1:]))  # re-raises a worker's error
    np.negative(out[:, :pairs], out=out[:, pairs:])
    return out[:, :replications]


def _block_rows(steps: int) -> int:
    """Paths per block: about 2**18 values (2 MB) per buffer, whatever ``steps``."""
    return max(1, _BLOCK_VALUES // steps)


def simulate_table(
    betas,
    levels,
    steps: int = 1000,
    replications: int = 50000,
    seed: int = 0,
) -> CriticalValueTable:
    """Monte Carlo quantile table for the given betas and probability levels."""
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
    stats = simulate_statistics(betas, steps, replications, seed)
    values = np.quantile(stats, levels, axis=1).T
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

    Exact-match contract: no interpolation across betas or levels.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    level = 1.0 - alpha / 2.0
    beta_idx = [i for i, b in enumerate(table.betas) if abs(b - beta) <= 1e-9]
    if not beta_idx:
        raise KeyError(f"beta {beta!r} not tabulated (rows: {table.betas})")
    level_idx = [i for i, p in enumerate(table.levels) if abs(p - level) <= 1e-9]
    if not level_idx:
        raise KeyError(f"level {level!r} not tabulated (columns: {table.levels})")
    return float(table.values[beta_idx[0], level_idx[0]])


def save_csv(table: CriticalValueTable, stream: IO[str]) -> None:
    """Header row of levels, one row per beta; metadata in leading comments."""
    seed = "" if table.seed is None else f" seed={table.seed}"
    stream.write(f"# steps={table.steps} replications={table.replications}{seed}\n")
    stream.write("beta," + ",".join(f"{p:.17g}" for p in table.levels) + "\n")
    for beta, row in zip(table.betas, table.values):
        stream.write(f"{beta:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def load_csv(stream: IO[str]) -> CriticalValueTable:
    steps = replications = 0
    seed: int | None = None
    header: list[str] | None = None
    betas: list[float] = []
    rows: list[list[float]] = []
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line[1:].split():
                key, _, value = token.partition("=")
                if key == "steps":
                    steps = int(value)
                elif key == "replications":
                    replications = int(value)
                elif key == "seed":
                    seed = int(value)
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        betas.append(float(cells[0]))
        rows.append([float(c) for c in cells[1:]])
    if header is None or not rows:
        raise ValueError("malformed critical-value table")
    levels = tuple(float(c) for c in header[1:])
    return CriticalValueTable(
        betas=tuple(betas),
        levels=levels,
        values=np.array(rows),
        steps=steps,
        replications=replications,
        seed=seed,
    )


def default_table() -> CriticalValueTable:
    """The table shipped with the package, read afresh on every call."""
    ref = resources.files("fedstat").joinpath("data/critical_values.csv")
    with ref.open("r") as stream:
        return load_csv(stream)

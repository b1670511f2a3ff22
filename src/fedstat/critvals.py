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

The simulation runs in blocks of about 2**18 path values (2 MB), the number
of paths per block fixed by the step count, in buffers allocated once, so its
working memory does not grow with the number of replications.  A one-worker
helper thread draws the next block's normals while the calling thread reduces
the current one.  The draws still come from one generator, one thread and in
path order, and each path is reduced on its own, so the sample does not
depend on the block size or on timing (see ``simulate_statistics``).

A pre-generated table ships with the package; inference never simulates at
runtime.  Regenerate with ``fedstat critvals``.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
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


@dataclass(frozen=True)
class CriticalValueTable:
    """Quantiles q such that P(t*(beta) <= q) = level, per (beta, level)."""

    betas: tuple[float, ...]
    levels: tuple[float, ...]
    values: np.ndarray  # shape (len(betas), len(levels))
    steps: int
    replications: int

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
    the statistics of paths 1..P in stream order and columns P..2P-1 their
    negations.  When ``replications`` is odd, the negation of the last path
    is dropped, so every sample is exactly symmetric up to that one value.

    Paths are simulated ``_block_rows(steps)`` at a time (about 2 MB of
    increments per block) in buffers allocated once: two increment buffers,
    one grid buffer (a zero column, then the partial sums) and one deviation
    buffer reused by every beta.  A one-worker thread draws the next block's
    normals into the idle increment buffer while this thread reduces the
    current block; numpy releases the GIL for both.  All draws come from one
    ``default_rng(seed)`` stream, in path order and from one thread, and each
    path's arithmetic (scale, sequential ``cumsum``, then per beta the
    deviation, its square and the row mean) touches only that path's row, so
    every statistic is the same whatever the block size or the timing.
    """
    for beta in beta_list:
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    r = np.arange(steps) / steps  # left endpoints, r[0] = 0
    g = np.stack([r ** (1.0 / (1.0 - beta)) for beta in beta_list])
    scale = 1.0 / math.sqrt(steps)
    pairs = (replications + 1) // 2
    rows = _block_rows(steps)
    increments = (np.empty((rows, steps)), np.empty((rows, steps)))
    grid = np.zeros((rows, steps + 1))  # column 0 stays 0: B(0)
    dev = np.empty((rows, steps))
    out = np.empty((len(beta_list), 2 * pairs))

    def draw(buffer: np.ndarray) -> np.ndarray:
        rng.standard_normal(out=buffer)
        return np.multiply(buffer, scale, out=buffer)

    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(draw, increments[0][:pairs])
        for block, start in enumerate(range(0, pairs, rows)):
            inc = pending.result()
            n = len(inc)
            if start + n < pairs:
                idle = increments[(block + 1) % 2]
                pending = pool.submit(draw, idle[: pairs - start - n])
            path = grid[:n]
            np.cumsum(inc, axis=1, out=path[:, 1:])
            b_one = path[:, steps]
            b_grid = path[:, :steps]
            d = dev[:n]
            for i in range(len(beta_list)):
                np.multiply.outer(b_one, g[i], out=d)
                np.subtract(b_grid, d, out=d)
                np.multiply(d, d, out=d)
                integral = np.mean(d, axis=1)
                np.divide(b_one, np.sqrt(integral), out=out[i, start : start + n])
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
    if steps < 100:
        raise ValueError("steps must be >= 100")
    if replications < 1000:
        raise ValueError("replications must be >= 1000")
    if any(not 0.0 < p < 1.0 for p in levels):
        raise ValueError("levels must lie strictly inside (0, 1)")
    stats = simulate_statistics(betas, steps, replications, seed)
    values = np.quantile(stats, levels, axis=1).T
    return CriticalValueTable(
        betas=betas, levels=levels, values=values, steps=steps, replications=replications
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
    stream.write(f"# steps={table.steps} replications={table.replications}\n")
    stream.write("beta," + ",".join(f"{p:.17g}" for p in table.levels) + "\n")
    for beta, row in zip(table.betas, table.values):
        stream.write(f"{beta:.17g}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def load_csv(stream: IO[str]) -> CriticalValueTable:
    steps = replications = 0
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
    )


@lru_cache(maxsize=1)
def default_table() -> CriticalValueTable:
    """The table shipped with the package."""
    ref = resources.files("fedstat").joinpath("data/critical_values.csv")
    with ref.open("r") as stream:
        return load_csv(stream)

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

A pre-generated table ships with the package; inference never simulates at
runtime.  Regenerate with ``fedstat critvals``.
"""

from __future__ import annotations

import math
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

_CHUNK = 4096


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
    pairs, so the returned sample per beta is exactly symmetric (up to one
    unpaired path when ``replications`` is odd).
    """
    for beta in beta_list:
        if not 0.0 <= beta < 1.0:
            raise ValueError("beta must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    r = np.arange(steps) / steps  # left endpoints, r[0] = 0
    g = np.stack([r ** (1.0 / (1.0 - beta)) for beta in beta_list])
    pairs = (replications + 1) // 2
    out = np.empty((len(beta_list), 2 * pairs))
    done = 0
    scale = 1.0 / math.sqrt(steps)
    while done < pairs:
        n = min(_CHUNK, pairs - done)
        increments = rng.standard_normal((n, steps)) * scale
        paths = np.cumsum(increments, axis=1)
        b_one = paths[:, -1]
        b_grid = np.concatenate([np.zeros((n, 1)), paths[:, :-1]], axis=1)
        for i in range(len(beta_list)):
            dev = b_grid - np.outer(b_one, g[i])
            integral = np.mean(dev * dev, axis=1)
            stats = b_one / np.sqrt(integral)
            out[i, 2 * done : 2 * done + n] = stats
            out[i, 2 * done + n : 2 * done + 2 * n] = -stats
        done += n
    return out[:, :replications]


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

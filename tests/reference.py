"""Reference expressions and inputs shared by the test modules."""

from importlib import resources

import numpy as np

from fedstat import models


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

"""Reference expressions shared by the kernel and engine tests."""

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

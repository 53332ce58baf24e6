"""Naive double-sum oracle for the L2 kernel discrepancies the ``disc``
workload computes.

Written from the kernel definitions alone, independently of
``lowdisc.discrepancy``: for the first P points,

    D^2 = c - (2/P) sum_i b(x_i) + (1/P^2) sum_i sum_j k(x_i, x_j)

where k is a product over coordinates of the one-dimensional kernel (each
factor f becomes 1 + gamma_j f under product weights), b is its integral over
the second argument and c its double integral.  The double sum covers the
full P x P square in row chunks, with no triangle and no running sums.
"""

from __future__ import annotations

import numpy as np

# family: (k(x, y), b(x) = int_0^1 k(x, y) dy, c = int_0^1 b(x) dx)
KERNELS_1D = {
    "star": (
        lambda x, y: 1.0 - np.maximum(x, y),
        lambda x: 0.5 * (1.0 - x * x),
        1.0 / 3.0,
    ),
    "sym": (
        lambda x, y: 0.25 - 0.5 * np.abs(x - y),
        lambda x: 0.5 * x * (1.0 - x),
        1.0 / 12.0,
    ),
    "ctr": (
        lambda x, y: 0.5 * (np.abs(x - 0.5) + np.abs(y - 0.5) - np.abs(x - y)),
        lambda x: 0.5 * np.abs(x - 0.5) - 0.5 * (x - 0.5) ** 2,
        1.0 / 12.0,
    ),
}


def prefix_discrepancies(points, family, weights, prefixes, chunk=256):
    """Discrepancy of the first P points for every P in ``prefixes``."""
    k, b, c = KERNELS_1D[family]
    pts = np.asarray(points, dtype=np.float64)
    d = pts.shape[1]
    gam = None if weights is None else np.asarray(weights, dtype=np.float64)
    prefixes = np.asarray(prefixes, dtype=np.int64)
    top = int(prefixes.max())

    def factor(vals, j):
        return vals if gam is None else 1.0 + gam[j] * vals

    c0 = float(np.prod([factor(c, j) for j in range(d)]))
    bsum = np.ones(top)
    for j in range(d):
        bsum *= factor(b(pts[:top, j]), j)
    bsum = np.cumsum(bsum)[prefixes - 1]

    ksum = np.zeros(len(prefixes))
    for lo in range(0, top, chunk):
        hi = min(lo + chunk, top)
        block = np.ones((hi - lo, top))
        for j in range(d):
            block *= factor(k(pts[lo:hi, j, None], pts[None, :top, j]), j)
        for t, p in enumerate(prefixes):
            if p > lo:
                ksum[t] += block[: min(hi, p) - lo, :p].sum()
    d2 = c0 - 2.0 * bsum / prefixes + ksum / prefixes.astype(np.float64) ** 2
    return np.sqrt(np.clip(d2, 0.0, None))

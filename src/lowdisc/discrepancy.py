"""Closed-form L2 discrepancy evaluation and differentiation.

Six product-kernel families are supported; for each, the squared
discrepancy of a point set is

    D^2 = c0 - (2/N) sum_i b(X_i) + (1/N^2) sum_{ij} k(X_i, X_j)

with per-family one-dimensional pieces ``k(x, y)``, ``b(x) = int k(x,y) dy``
and ``c = int int k``.  An incremental evaluator yields the discrepancy of
every prefix of a sequence in O(d N^2) total, and the prefix-weighted
squared-discrepancy aggregate and its analytic gradient with respect to the
coordinates are computed in the same budget via a linear-coefficient
reformulation.

All pair terms come from one tiled pass over the lower triangle of the
N x N pair matrix (``_tiles``): blocks of 64 rows against column blocks of
at most 2^13 pairs.  Work stays O(d N^2), while every temporary is one
cache-sized tile of at most 64 KB, whatever N is.  Row sums accumulate tile
by tile in an order fixed by N alone, so results are deterministic.  Points
must be finite and lie in the unit cube [0, 1]^d; anything else raises
``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

RADICAND_CLAMP = -1e-12


class NumericalError(ArithmeticError):
    """Raised when a squared discrepancy falls below the rounding clamp."""


# ---------------------------------------------------------------------------
# kernel families
#
# Subgradient conventions: d|u| at u=0 is 0 (np.sign), and d max(x,y)
# assigns 1/2 to each argument at ties.

def _dk_star(x, y):
    return np.where(x > y, -1.0, np.where(x == y, -0.5, 0.0))


def _dk_ext(x, y):
    return np.where(x < y, 1.0, np.where(x == y, 0.5, 0.0)) - y


@dataclass(frozen=True)
class KernelComponents:
    """One-dimensional pieces of a product kernel: the kernel, its
    coordinate integral b, the double integral c, and the derivatives used
    by the analytic gradient (``dk`` is the partial in the first slot,
    ``dkdiag`` is d/dx of k(x, x))."""

    c: float
    k: Callable
    b: Callable
    dk: Callable
    db: Callable
    kdiag: Callable
    dkdiag: Callable


KERNELS: dict[str, KernelComponents] = {
    "star": KernelComponents(
        c=1.0 / 3.0,
        k=lambda x, y: 1.0 - np.maximum(x, y),
        b=lambda x: 0.5 * (1.0 - x * x),
        dk=_dk_star,
        db=lambda x: -x,
        kdiag=lambda x: 1.0 - x,
        dkdiag=lambda x: np.full_like(x, -1.0),
    ),
    "ext": KernelComponents(
        c=1.0 / 12.0,
        k=lambda x, y: np.minimum(x, y) - x * y,
        b=lambda x: 0.5 * x * (1.0 - x),
        dk=_dk_ext,
        db=lambda x: 0.5 - x,
        kdiag=lambda x: x - x * x,
        dkdiag=lambda x: 1.0 - 2.0 * x,
    ),
    "per": KernelComponents(
        c=1.0 / 3.0,
        k=lambda x, y: 0.5 - np.abs(x - y) + (x - y) ** 2,
        b=lambda x: np.full_like(x, 1.0 / 3.0),
        dk=lambda x, y: -np.sign(x - y) + 2.0 * (x - y),
        db=lambda x: np.zeros_like(x),
        kdiag=lambda x: np.full_like(x, 0.5),
        dkdiag=lambda x: np.zeros_like(x),
    ),
    "ctr": KernelComponents(
        c=1.0 / 12.0,
        k=lambda x, y: 0.5 * (np.abs(x - 0.5) + np.abs(y - 0.5) - np.abs(x - y)),
        b=lambda x: 0.5 * (np.abs(x - 0.5) - (x - 0.5) ** 2),
        dk=lambda x, y: 0.5 * (np.sign(x - 0.5) - np.sign(x - y)),
        db=lambda x: 0.5 * (np.sign(x - 0.5) - 2.0 * (x - 0.5)),
        kdiag=lambda x: np.abs(x - 0.5),
        dkdiag=lambda x: np.sign(x - 0.5),
    ),
    "sym": KernelComponents(
        c=1.0 / 12.0,
        k=lambda x, y: 0.25 * (1.0 - 2.0 * np.abs(x - y)),
        b=lambda x: 0.5 * x * (1.0 - x),
        dk=lambda x, y: -0.5 * np.sign(x - y),
        db=lambda x: 0.5 - x,
        kdiag=lambda x: np.full_like(x, 0.25),
        dkdiag=lambda x: np.zeros_like(x),
    ),
    "asd": KernelComponents(
        c=1.0 / 3.0,
        k=lambda x, y: 0.5 * (1.0 - np.abs(x - y)),
        b=lambda x: 0.25 + 0.5 * x * (1.0 - x),
        dk=lambda x, y: -0.5 * np.sign(x - y),
        db=lambda x: 0.5 - x,
        kdiag=lambda x: np.full_like(x, 0.5),
        dkdiag=lambda x: np.zeros_like(x),
    ),
}

FAMILIES = tuple(KERNELS)


@dataclass(frozen=True)
class KernelSpec:
    """A discrepancy family plus optional per-coordinate product weights.

    With weights, every one-dimensional factor f becomes 1 + gamma_j * f,
    so the weighted constants are c0 = prod_j (1 + gamma_j c) and
    b-products prod_j (1 + gamma_j b(x_j)).
    """

    family: str
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.family not in KERNELS:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {FAMILIES}"
            )
        if self.weights is not None:
            w = tuple(float(g) for g in self.weights)
            if any(g <= 0 for g in w):
                raise ValueError("kernel weights must all be positive")
            object.__setattr__(self, "weights", w)

    def _check_dim(self, d: int) -> None:
        if self.weights is not None and len(self.weights) != d:
            raise ValueError(
                f"kernel weights have length {len(self.weights)}, points have dimension {d}"
            )


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a nonempty (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite coordinates")
    if pts.min() < 0.0 or pts.max() > 1.0:
        raise ValueError(
            f"points must lie in the unit cube [0, 1]^d; coordinates span "
            f"[{pts.min():.17g}, {pts.max():.17g}]"
        )
    return pts


def kernel_constant(spec: KernelSpec, d: int) -> float:
    """The double integral of the d-dimensional (possibly weighted) kernel."""
    spec._check_dim(d)
    c = KERNELS[spec.family].c
    if spec.weights is None:
        return c**d
    return float(np.prod([1.0 + g * c for g in spec.weights]))


def _products(spec: KernelSpec, piece: str, pts: np.ndarray) -> np.ndarray:
    """Per-point product over the coordinates of the one-dimensional
    ``piece`` (``"b"`` or ``"kdiag"``), weighted as in the kernel."""
    vals = getattr(KERNELS[spec.family], piece)(pts)
    if spec.weights is not None:
        vals = 1.0 + np.asarray(spec.weights) * vals
    return vals.prod(axis=1)


def _kernel_factors(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> list:
    """Per-dimension (len(a), len(b)) factors of the product kernel."""
    fam = KERNELS[spec.family]
    bt = np.ascontiguousarray(b.T)  # unit-stride rows for the inner loops
    out = []
    for j in range(a.shape[1]):
        kj = fam.k(a[:, j, None], bt[None, j])
        if spec.weights is not None:
            kj *= spec.weights[j]  # 1 + gamma_j k, in place
            kj += 1.0
        out.append(kj)
    return out


def _kernel_cross(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of d-dimensional kernel values."""
    factors = _kernel_factors(spec, a, b)
    out = factors[0]
    for kj in factors[1:]:
        out *= kj
    return out


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """The d-dimensional product kernel at a single pair of points."""
    x = _as_points(np.reshape(x, (1, -1)))
    y = _as_points(np.reshape(y, (1, -1)))
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[1:]} vs {y.shape[1:]}")
    spec._check_dim(x.shape[1])
    return float(_kernel_cross(spec, x, y)[0, 0])


# Pair terms are evaluated tile by tile over the lower triangle of the
# N x N pair matrix: row blocks of _TILE_ROWS points against column blocks
# holding at most _TILE_PAIRS pairs.  The kernel lambdas make several
# tile-sized temporaries per dimension.  At 2^13 float64 (64 KB) a tile stays
# in cache and below glibc's default 128 KB mmap threshold, so malloc reuses
# heap blocks.  At 2^14 pairs each temporary was mapped and faulted in
# afresh: on a 2-vCPU Xeon, the sym row sums at N=10^4, d=4 took ~290k page
# faults and 0.47 s of system time per pass, and none at 2^13.
_TILE_PAIRS = 1 << 13
_TILE_ROWS = 64


def _tiles(n: int):
    """Tiles (lo, hi, c0, c1) of rows lo:hi against columns c0:c1.

    Off-diagonal tiles have c1 <= lo, so every row index exceeds every
    column index; each row block ends with its square diagonal tile
    c0, c1 = lo, hi.  Together they cover every pair i > j exactly once.
    """
    width = _TILE_PAIRS // _TILE_ROWS
    for lo in range(0, n, _TILE_ROWS):
        hi = min(lo + _TILE_ROWS, n)
        for c0 in range(0, lo, width):
            yield lo, hi, c0, min(c0 + width, lo)
        yield lo, hi, lo, hi


def _pair_rowsums(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """r[j] = sum_{i<j} k(X_j, X_i), accumulated over the lower-triangle tiles."""
    r = np.zeros(len(pts))
    for lo, hi, c0, c1 in _tiles(len(pts)):
        block = _kernel_cross(spec, pts[lo:hi], pts[c0:c1])
        if c0 == lo:
            block = np.tril(block, -1)
        r[lo:hi] += block.sum(axis=1)
    return r


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sums; keeps O(N) prefix accumulations exact."""
    out = np.empty_like(values)
    total = 0.0
    comp = 0.0
    for t, v in enumerate(values):
        y = v - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
        out[t] = total
    return out


def _sqrt_clamped(d2):
    d2 = np.asarray(d2, dtype=np.float64)
    if (d2 < RADICAND_CLAMP).any():
        raise NumericalError(
            f"squared discrepancy {d2.min():.3e} fell below the "
            f"{RADICAND_CLAMP:.0e} rounding clamp"
        )
    return np.sqrt(np.clip(d2, 0.0, None))


def discrepancy_single(spec: KernelSpec, points) -> float:
    """Kernel discrepancy of the full point set."""
    pts = _as_points(points)
    n, d = pts.shape
    spec._check_dim(d)
    c0 = kernel_constant(spec, d)
    b = _products(spec, "b", pts)
    r = _pair_rowsums(spec, pts)
    kd = _products(spec, "kdiag", pts)
    d2 = c0 - 2.0 * b.sum() / n + (2.0 * r.sum() + kd.sum()) / n**2
    return float(_sqrt_clamped(d2))


def discrepancy_all_prefixes(spec: KernelSpec, points) -> np.ndarray:
    """Discrepancy of every prefix, entry P-1 covering the first P points.

    Running sums over the pair terms make the whole curve cost O(d N^2),
    the same order as the final entry alone.
    """
    pts = _as_points(points)
    n, d = pts.shape
    spec._check_dim(d)
    c0 = kernel_constant(spec, d)
    b = _products(spec, "b", pts)
    r = _pair_rowsums(spec, pts)
    kd = _products(spec, "kdiag", pts)
    s1 = _kahan_cumsum(b)
    s2 = _kahan_cumsum(2.0 * r + kd)
    p = np.arange(1, n + 1, dtype=np.float64)
    d2 = c0 - 2.0 * s1 / p + s2 / p**2
    return _sqrt_clamped(d2)


# ---------------------------------------------------------------------------
# prefix-weighted loss

PREFIX_WEIGHT_SCHEMES = ("uniform", "length-proportional", "custom")


@dataclass(frozen=True)
class PrefixWeights:
    """Weights w_P over prefixes P = 2..N of the squared-discrepancy loss.

    ``uniform`` is w_P = 1/(N-2) (with the single-prefix case N=2 pinned to
    w_2 = 1); ``length-proportional`` is w_P = 2P/(N^2+N-2).  Custom values
    are taken as given, one per prefix, unnormalized.
    """

    scheme: str = "uniform"
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.scheme not in PREFIX_WEIGHT_SCHEMES:
            raise ValueError(
                f"unknown weight scheme {self.scheme!r}; expected one of {PREFIX_WEIGHT_SCHEMES}"
            )
        if (self.scheme == "custom") != (self.values is not None):
            raise ValueError("values are required for, and only for, the custom scheme")
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if any(v < 0 for v in vals):
                raise ValueError("custom prefix weights must be nonnegative")
            object.__setattr__(self, "values", vals)

    def resolve(self, n: int) -> np.ndarray:
        """The weight vector for prefixes P = 2..n."""
        if n < 2:
            raise ValueError("prefix weights need n >= 2")
        if self.scheme == "uniform":
            return np.full(n - 1, 1.0 / max(n - 2, 1))
        if self.scheme == "length-proportional":
            p = np.arange(2, n + 1, dtype=np.float64)
            return 2.0 * p / (n**2 + n - 2)
        if len(self.values) != n - 1:
            raise ValueError(
                f"custom weights have length {len(self.values)}, need {n - 1} for n={n}"
            )
        return np.asarray(self.values, dtype=np.float64)


def _loss_coefficients(weights: PrefixWeights, n: int):
    """Per-point linear coefficients of the prefix-weighted loss.

    alpha[i] multiplies b(X_i), beta[i] multiplies k(X_i, X_i), and the
    off-diagonal pair (i < j) enters with coefficient 2 beta[j]; both are
    suffix sums over the prefixes that contain the point (P >= max(i, 2),
    1-based).
    """
    w = weights.resolve(n)
    p = np.arange(2, n + 1, dtype=np.float64)
    beta = np.empty(n)
    alpha = np.empty(n)
    beta[1:] = np.cumsum((w / p**2)[::-1])[::-1]
    alpha[1:] = np.cumsum((-2.0 * w / p)[::-1])[::-1]
    beta[0] = beta[1]
    alpha[0] = alpha[1]
    return w, alpha, beta


def prefix_loss(spec: KernelSpec, weights: PrefixWeights, points) -> float:
    """sum_P w_P D^2(first P points), in one O(d N^2) pass.

    Expanding each D^2(P) and collecting the coefficient of every b_i,
    k_ii, and k_ij term avoids the O(N^3) sum of per-prefix double sums.
    """
    pts = _as_points(points)
    n, d = pts.shape
    if n < 2:
        raise ValueError("prefix loss needs at least 2 points")
    spec._check_dim(d)
    w, alpha, beta = _loss_coefficients(weights, n)
    c0 = kernel_constant(spec, d)
    b = _products(spec, "b", pts)
    r = _pair_rowsums(spec, pts)
    kd = _products(spec, "kdiag", pts)
    return float(
        w.sum() * c0 + alpha @ b + beta @ kd + 2.0 * (beta @ r)
    )


def _loo_products(factors: list) -> list:
    """Leave-one-out products of equally shaped arrays, without division."""
    if len(factors) == 1:
        return [np.ones_like(factors[0])]
    left = [factors[0]]  # left[t] = product of factors[:t + 1]
    for f in factors[1:-1]:
        left.append(left[-1] * f)
    right = [factors[-1]]  # once reversed, right[t] = product of factors[t + 1:]
    for f in factors[-2:0:-1]:
        right.append(right[-1] * f)
    right.reverse()
    return [right[0]] + [lt * rt for lt, rt in zip(left[:-1], right[1:])] + [left[-1]]


def prefix_loss_grad(
    spec: KernelSpec, weights: PrefixWeights, points
) -> np.ndarray:
    """Gradient of :func:`prefix_loss` with respect to every coordinate."""
    pts = _as_points(points)
    n, d = pts.shape
    if n < 2:
        raise ValueError("prefix loss needs at least 2 points")
    spec._check_dim(d)
    _, alpha, beta = _loss_coefficients(weights, n)
    fam = KERNELS[spec.family]
    gam = None if spec.weights is None else np.asarray(spec.weights)

    bfac = fam.b(pts)
    bder = fam.db(pts)
    kdfac = fam.kdiag(pts)
    kdder = fam.dkdiag(pts)
    if gam is not None:
        bfac = 1.0 + gam * bfac
        bder = gam * bder
        kdfac = 1.0 + gam * kdfac
        kdder = gam * kdder

    grad = alpha[:, None] * bder * np.stack(_loo_products(list(bfac.T)), axis=1)
    grad += beta[:, None] * kdder * np.stack(_loo_products(list(kdfac.T)), axis=1)

    # pair term: 2 sum_{j != m} beta[max(m, j)] * d/dx_m k(X_m, X_j), where
    # beta[max(m, j)] == min(beta[m], beta[j]) because beta is a suffix sum
    # of nonnegative terms.  An off-diagonal tile adds each pair's derivative
    # in both slots; the square diagonal tile holds both orders of its pairs.
    cols = np.ascontiguousarray(pts.T)
    for lo, hi, c0, c1 in _tiles(n):
        loo = _loo_products(_kernel_factors(spec, pts[lo:hi], pts[c0:c1]))
        diagonal = c0 == lo
        if diagonal:
            coeff = np.minimum(beta[lo:hi, None], beta[None, lo:hi])
            np.fill_diagonal(coeff, 0.0)
        else:
            coeff = beta[lo:hi, None]
        for t in range(d):
            st = 2.0 if gam is None else 2.0 * gam[t]
            wt = coeff * loo[t]
            x, y = cols[t, lo:hi, None], cols[t, None, c0:c1]
            grad[lo:hi, t] += st * (wt * fam.dk(x, y)).sum(axis=1)
            if not diagonal:
                grad[c0:c1, t] += st * (wt * fam.dk(y, x)).sum(axis=0)
    return grad

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

All pair terms come from one pass over the lower triangle of the N x N
pair matrix, in blocks of 64 rows.  The row sums evaluate each block
against spans of up to 512 columns into scratch that each worker allocates
once per walk (768 KB), so memory stays flat in N.  ``prefix_loss_grad``
walks 64 x 128 tiles once and takes both the loss and its gradient from
them; its loss is the one ``prefix_loss`` gives, bit for bit.  Large walks split their row blocks over one worker thread
per CPU the process may run on.  Every row sum is grouped in an order fixed
by N alone and is summed by one worker, so results are deterministic and
the same at any worker count.  Points must be finite and lie in the unit
cube [0, 1]^d; anything else raises ``ValueError``.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import seqcore

RADICAND_CLAMP = -1e-12


class NumericalError(ArithmeticError):
    """Raised when a squared discrepancy falls below the rounding clamp."""


# ---------------------------------------------------------------------------
# kernel families
#
# Subgradient conventions: d|u| at u=0 is 0 (np.sign), and d max(x,y)
# assigns 1/2 to each argument at ties.
#
# Each k(x, y, out=None, tmp=None) writes the broadcast of x and y into
# ``out`` and uses ``tmp`` as a second buffer where the formula needs one;
# a buffer left as None is allocated.  The pair walk passes preallocated
# scratch, everyone else calls k(x, y).


def _new(x, y, buf):
    """``buf``, or a fresh array of the broadcast shape of x and y."""
    return np.empty(np.broadcast_shapes(np.shape(x), np.shape(y))) if buf is None else buf


def _k_star(x, y, out=None, tmp=None):  # 1 - max(x, y)
    out = np.maximum(x, y, out=_new(x, y, out))
    return np.subtract(1.0, out, out=out)


def _k_ext(x, y, out=None, tmp=None):  # min(x, y) - x y
    out = np.minimum(x, y, out=_new(x, y, out))
    return np.subtract(out, np.multiply(x, y, out=_new(x, y, tmp)), out=out)


def _k_per(x, y, out=None, tmp=None):  # 1/2 - |x - y| + (x - y)^2
    tmp = np.subtract(x, y, out=_new(x, y, tmp))
    out = np.abs(tmp, out=_new(x, y, out))
    np.subtract(0.5, out, out=out)
    return np.add(out, np.square(tmp, out=tmp), out=out)


def _k_ctr(x, y, out=None, tmp=None):  # (|x - 1/2| + |y - 1/2| - |x - y|) / 2
    out = np.add(np.abs(x - 0.5), np.abs(y - 0.5), out=_new(x, y, out))
    tmp = np.subtract(x, y, out=_new(x, y, tmp))
    np.subtract(out, np.abs(tmp, out=tmp), out=out)
    return np.multiply(0.5, out, out=out)


def _k_sym(x, y, out=None, tmp=None):  # (1 - 2 |x - y|) / 4
    out = np.subtract(x, y, out=_new(x, y, out))
    np.abs(out, out=out)
    np.multiply(2.0, out, out=out)
    np.subtract(1.0, out, out=out)
    return np.multiply(0.25, out, out=out)


def _k_asd(x, y, out=None, tmp=None):  # (1 - |x - y|) / 2
    out = np.subtract(x, y, out=_new(x, y, out))
    np.abs(out, out=out)
    np.subtract(1.0, out, out=out)
    return np.multiply(0.5, out, out=out)


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
        k=_k_star,
        b=lambda x: 0.5 * (1.0 - x * x),
        dk=_dk_star,
        db=lambda x: -x,
        kdiag=lambda x: 1.0 - x,
        dkdiag=lambda x: np.full_like(x, -1.0),
    ),
    "ext": KernelComponents(
        c=1.0 / 12.0,
        k=_k_ext,
        b=lambda x: 0.5 * x * (1.0 - x),
        dk=_dk_ext,
        db=lambda x: 0.5 - x,
        kdiag=lambda x: x - x * x,
        dkdiag=lambda x: 1.0 - 2.0 * x,
    ),
    "per": KernelComponents(
        c=1.0 / 3.0,
        k=_k_per,
        b=lambda x: np.full_like(x, 1.0 / 3.0),
        dk=lambda x, y: -np.sign(x - y) + 2.0 * (x - y),
        db=lambda x: np.zeros_like(x),
        kdiag=lambda x: np.full_like(x, 0.5),
        dkdiag=lambda x: np.zeros_like(x),
    ),
    "ctr": KernelComponents(
        c=1.0 / 12.0,
        k=_k_ctr,
        b=lambda x: 0.5 * (np.abs(x - 0.5) - (x - 0.5) ** 2),
        dk=lambda x, y: 0.5 * (np.sign(x - 0.5) - np.sign(x - y)),
        db=lambda x: 0.5 * (np.sign(x - 0.5) - 2.0 * (x - 0.5)),
        kdiag=lambda x: np.abs(x - 0.5),
        dkdiag=lambda x: np.sign(x - 0.5),
    ),
    "sym": KernelComponents(
        c=1.0 / 12.0,
        k=_k_sym,
        b=lambda x: 0.5 * x * (1.0 - x),
        dk=lambda x, y: -0.5 * np.sign(x - y),
        db=lambda x: 0.5 - x,
        kdiag=lambda x: np.full_like(x, 0.25),
        dkdiag=lambda x: np.zeros_like(x),
    ),
    "asd": KernelComponents(
        c=1.0 / 3.0,
        k=_k_asd,
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


def kernel_constant(spec: KernelSpec, d: int) -> float:
    """The double integral of the d-dimensional (possibly weighted) kernel."""
    spec._check_dim(d)
    c = KERNELS[spec.family].c
    if spec.weights is None:
        return c**d
    return float(np.prod([1.0 + g * c for g in spec.weights]))


def _factors(spec: KernelSpec, piece: str, pts: np.ndarray) -> np.ndarray:
    """Per-coordinate values of the one-dimensional ``piece`` (``"b"`` or
    ``"kdiag"``), weighted as in the kernel: 1 + gamma_j f."""
    vals = getattr(KERNELS[spec.family], piece)(pts)
    if spec.weights is not None:
        vals = 1.0 + np.asarray(spec.weights) * vals
    return vals


def _kernel_factor(spec: KernelSpec, j: int, x, y, out=None, tmp=None) -> np.ndarray:
    """Factor j of the product kernel between coordinate columns x (h, 1)
    and rows y (1, w): k(x, y), or 1 + gamma_j k(x, y) when weighted."""
    kj = KERNELS[spec.family].k(x, y, out, tmp)
    if spec.weights is not None:
        kj *= spec.weights[j]  # 1 + gamma_j k, in place
        kj += 1.0
    return kj


def _kernel_factors(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> list:
    """Per-dimension (len(a), len(b)) factors of the product kernel."""
    bt = np.ascontiguousarray(b.T)  # unit-stride rows for the inner loops
    return [_kernel_factor(spec, j, a[:, j, None], bt[None, j]) for j in range(a.shape[1])]


def _kernel_product(spec: KernelSpec, xs, ys, out=None, kj=None, tmp=None) -> np.ndarray:
    """(h, w) product kernel between the points whose coordinates are the
    rows of xs (d, h) and ys (d, w).  Factor 0 goes into ``out``, each later
    factor into ``kj`` and is then multiplied into ``out``."""
    out = _kernel_factor(spec, 0, xs[0, :, None], ys[0, None], out, tmp)
    for j in range(1, len(xs)):
        out *= _kernel_factor(spec, j, xs[j, :, None], ys[j, None], kj, tmp)
    return out


def _kernel_cross(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of d-dimensional kernel values."""
    return _kernel_product(spec, a.T, np.ascontiguousarray(b.T))


def kernel_eval(spec: KernelSpec, x, y) -> float:
    """The d-dimensional product kernel at a single pair of points."""
    x = seqcore.unit_cube_points(np.reshape(x, (1, -1)))
    y = seqcore.unit_cube_points(np.reshape(y, (1, -1)))
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape[1:]} vs {y.shape[1:]}")
    spec._check_dim(x.shape[1])
    return float(_kernel_cross(spec, x, y)[0, 0])


# Pair terms are evaluated over the lower triangle of the N x N pair matrix
# in row blocks of _TILE_ROWS points.  _tiles splits each block's columns
# into blocks of at most _TILE_PAIRS pairs; that split fixes how every row
# sum is grouped, and the loss-and-gradient walk evaluates one such tile at
# a time.  Its tile temporaries stay at 64 KB, below glibc's 128 KB mmap
# threshold, so malloc reuses heap blocks instead of faulting in fresh pages.
# The row sums instead evaluate _SPAN_COLS columns (four tiles) per kernel
# call into scratch that each worker allocates once per walk, three buffers
# of _TILE_ROWS x _SPAN_COLS float64 (768 KB), and sum each span tile by
# tile.  Wide in-place spans cut the per-call overhead and the allocations
# of the kernel ufuncs.  At 1024 columns the walk was faster still, but the
# peak memory of `lowdisc disc` at N = 10^4 rose by another 1 MB.
_TILE_PAIRS = 1 << 13
_TILE_ROWS = 64
_SPAN_COLS = 4 * (_TILE_PAIRS // _TILE_ROWS)
# Walks of fewer pairs run on the calling thread.  On a 2-vCPU Xeon, two
# workers took 1.3-2x the time of one at N = 256-1448 (d = 2 and 4), broke
# even near N = 2900 (2^22 pairs) and saved 10-20 % at N = 4096-10^4.
_INLINE_PAIRS = 1 << 22


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


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_block(spec: KernelSpec, cols: np.ndarray, lo: int, hi: int, r: np.ndarray, scratch) -> None:
    """Add to r[lo:hi] the kernel between rows lo:hi and every earlier point.

    Spans of _SPAN_COLS columns are evaluated into ``scratch`` and summed
    in the column blocks of _tiles, in their order; the square diagonal
    tile comes last.  Each row's sum is thus grouped as in a walk over
    _tiles.  ``cols`` holds the coordinates as rows, (d, N).
    """
    width = _TILE_PAIRS // _TILE_ROWS
    xs, h = cols[:, lo:hi], hi - lo

    def views(w):  # contiguous (h, w) views of the scratch buffers
        return [buf[: h * w].reshape(h, w) for buf in scratch]

    for s0 in range(0, lo, _SPAN_COLS):
        s1 = min(s0 + _SPAN_COLS, lo)
        span = _kernel_product(spec, xs, cols[:, s0:s1], *views(s1 - s0))
        for c0 in range(0, s1 - s0, width):
            r[lo:hi] += span[:, c0 : c0 + width].sum(axis=1)
    r[lo:hi] += np.tril(_kernel_product(spec, xs, xs, *views(h)), -1).sum(axis=1)


def _pair_rowsums(spec: KernelSpec, pts: np.ndarray) -> np.ndarray:
    """r[j] = sum_{i<j} k(X_j, X_i).

    Large walks share their row blocks, those with the most columns first,
    between the caller and a helper thread per further CPU the process may
    run on.  One worker sums each block, in a fixed order, so r is the same
    for any number of workers.  Helpers call no traced function, and share
    nothing with the caller but ``r`` and the queue of blocks.
    """
    n = len(pts)
    r = np.zeros(n)
    cols = np.ascontiguousarray(pts.T)
    blocks = deque(range(0, n, _TILE_ROWS)[::-1])
    size = _TILE_ROWS * min(_SPAN_COLS, n)

    def walk():
        scratch = np.empty((3, size))
        while True:
            try:
                lo = blocks.popleft()  # deque pops are thread-safe
            except IndexError:
                return
            _row_block(spec, cols, lo, min(lo + _TILE_ROWS, n), r, scratch)

    # Plain threads: importing concurrent.futures alone added 0.56 MB to the
    # peak memory of `lowdisc disc`.
    failures = []

    def helper():
        try:
            walk()
        except Exception as exc:  # noqa: BLE001 - re-raised by the caller
            failures.append(exc)

    workers = min(_cpu_count(), len(blocks)) if n * (n - 1) // 2 >= _INLINE_PAIRS else 1
    helpers = [threading.Thread(target=helper) for _ in range(workers - 1)]
    for t in helpers:
        t.start()
    try:
        walk()
    finally:
        for t in helpers:
            t.join()
    if failures:
        raise failures[0]
    return r


def _kahan_cumsum(values: np.ndarray) -> np.ndarray:
    """Compensated running sums; keeps O(N) prefix accumulations exact.
    Python floats are IEEE doubles, and faster to loop over than numpy's."""
    out = []
    total = 0.0
    comp = 0.0
    for v in values.tolist():
        y = v - comp
        tmp = total + y
        comp = (tmp - total) - y
        total = tmp
        out.append(total)
    return np.array(out, dtype=np.float64)


def _sqrt_clamped(d2):
    d2 = np.asarray(d2, dtype=np.float64)
    if (d2 < RADICAND_CLAMP).any():
        raise NumericalError(
            f"squared discrepancy {d2.min():.3e} fell below the "
            f"{RADICAND_CLAMP:.0e} rounding clamp"
        )
    return np.sqrt(np.clip(d2, 0.0, None))


def _terms(spec: KernelSpec, points):
    """Validated points and the terms of D^2: the constant c0, the
    per-point b- and kdiag-products, and the pair row sums."""
    pts = seqcore.unit_cube_points(points)
    c0 = kernel_constant(spec, pts.shape[1])  # checks the weights' length
    b = _factors(spec, "b", pts).prod(axis=1)
    r = _pair_rowsums(spec, pts)
    kd = _factors(spec, "kdiag", pts).prod(axis=1)
    return pts, c0, b, r, kd


def discrepancy_single(spec: KernelSpec, points) -> float:
    """Kernel discrepancy of the full point set."""
    pts, c0, b, r, kd = _terms(spec, points)
    n = len(pts)
    d2 = c0 - 2.0 * b.sum() / n + (2.0 * r.sum() + kd.sum()) / n**2
    return float(_sqrt_clamped(d2))


def discrepancy_all_prefixes(spec: KernelSpec, points) -> np.ndarray:
    """Discrepancy of every prefix, entry P-1 covering the first P points.

    Running sums over the pair terms make the whole curve cost O(d N^2),
    the same order as the final entry alone.
    """
    pts, c0, b, r, kd = _terms(spec, points)
    s1 = _kahan_cumsum(b)
    s2 = _kahan_cumsum(2.0 * r + kd)
    p = np.arange(1, len(pts) + 1, dtype=np.float64)
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
    if n < 2:
        raise ValueError("prefix loss needs at least 2 points")
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
    pts, c0, b, r, kd = _terms(spec, points)
    return _weighted_loss(_loss_coefficients(weights, len(pts)), c0, b, r, kd)


def _weighted_loss(coefficients, c0, b, r, kd) -> float:
    """The loss from the terms of D^2 and ``_loss_coefficients``."""
    w, alpha, beta = coefficients
    return float(w.sum() * c0 + alpha @ b + beta @ kd + 2.0 * (beta @ r))


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


def prefix_loss_grad(spec: KernelSpec, weights: PrefixWeights, points):
    """(:func:`prefix_loss`, its gradient with respect to every coordinate),
    from one walk over the pairs.

    Each tile's kernel product also gives its row sums, grouped as in
    ``_row_block``, so the loss equals ``prefix_loss`` bit for bit.
    """
    pts = seqcore.unit_cube_points(points)
    n, d = pts.shape
    const = kernel_constant(spec, d)  # checks the weights' length
    coefficients = _loss_coefficients(weights, n)
    _, alpha, beta = coefficients
    fam = KERNELS[spec.family]
    gam = None if spec.weights is None else np.asarray(spec.weights)

    bfac = _factors(spec, "b", pts)
    kdfac = _factors(spec, "kdiag", pts)
    bder = fam.db(pts)
    kdder = fam.dkdiag(pts)
    if gam is not None:
        bder = gam * bder
        kdder = gam * kdder

    grad = alpha[:, None] * bder * np.stack(_loo_products(list(bfac.T)), axis=1)
    grad += beta[:, None] * kdder * np.stack(_loo_products(list(kdfac.T)), axis=1)

    # pair term: 2 sum_{j != m} beta[max(m, j)] * d/dx_m k(X_m, X_j), where
    # beta[max(m, j)] == min(beta[m], beta[j]) because beta is a suffix sum
    # of nonnegative terms.  An off-diagonal tile adds each pair's derivative
    # in both slots; the square diagonal tile holds both orders of its pairs.
    # The factors, multiplied in _kernel_product's order, give the row sums r.
    r = np.zeros(n)
    cols = np.ascontiguousarray(pts.T)
    for lo, hi, c0, c1 in _tiles(n):
        factors = _kernel_factors(spec, pts[lo:hi], pts[c0:c1])
        kern = factors[0]
        for f in factors[1:]:
            kern = kern * f
        loo = _loo_products(factors)
        diagonal = c0 == lo
        if diagonal:
            r[lo:hi] += np.tril(kern, -1).sum(axis=1)
            coeff = np.minimum(beta[lo:hi, None], beta[None, lo:hi])
            np.fill_diagonal(coeff, 0.0)
        else:
            r[lo:hi] += kern.sum(axis=1)
            coeff = beta[lo:hi, None]
        for t in range(d):
            st = 2.0 if gam is None else 2.0 * gam[t]
            wt = coeff * loo[t]
            x, y = cols[t, lo:hi, None], cols[t, None, c0:c1]
            grad[lo:hi, t] += st * (wt * fam.dk(x, y)).sum(axis=1)
            if not diagonal:
                grad[c0:c1, t] += st * (wt * fam.dk(y, x)).sum(axis=0)
    loss = _weighted_loss(coefficients, const, bfac.prod(axis=1), r, kdfac.prod(axis=1))
    return loss, grad

"""Integration benchmarks: the eight-parameter borehole flow model, a QMC
error-study harness, Saltelli/Jansen sensitivity indices with the derived
coordinate-weight vector, and a closed-form geometric-average basket call
price for use as a smooth test integrand.

Integrands are called on row blocks of the generated points or of a
Monte Carlo draw and write into one value array, so the estimates are those
of whole-array calls while the integrand's temporaries stay block-sized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seqcore
from .seqcore import SequenceSpec

_SQRT2 = math.sqrt(2.0)

BOREHOLE_PARAMS = ("r_w", "r", "T_u", "H_u", "T_l", "H_l", "L", "K_w")

_BOREHOLE_RANGES = (
    (0.05, 0.15),  # borehole radius
    (100.0, 50000.0),  # radius of influence
    (63070.0, 115600.0),  # upper-aquifer transmissivity
    (990.0, 1110.0),  # upper-aquifer potentiometric head
    (63.1, 116.0),  # lower-aquifer transmissivity
    (700.0, 820.0),  # lower-aquifer potentiometric head
    (1120.0, 1680.0),  # borehole length
    (9855.0, 12045.0),  # borehole hydraulic conductivity
)

# default error-checkpoint grid for the integration study
CHECKPOINT_GRID = tuple(range(20, 501, 40))


@dataclass(frozen=True)
class BoreholeSpec:
    """Physical parameter ranges; the unit cube maps onto them affinely."""

    ranges: tuple[tuple[float, float], ...] = _BOREHOLE_RANGES

    def __post_init__(self):
        if len(self.ranges) != 8:
            raise ValueError("borehole takes exactly 8 parameter ranges")
        for lo, hi in self.ranges:
            if not lo < hi:
                raise ValueError("each range needs lo < hi")

    def scale(self, u: np.ndarray) -> np.ndarray:
        bounds = np.asarray(self.ranges)
        x = u * (bounds[:, 1] - bounds[:, 0])
        x += bounds[:, 0]
        return x


def borehole(u, spec: BoreholeSpec = BoreholeSpec()) -> np.ndarray:
    """Steady-state water flow rate through a borehole joining two aquifers.

    ``u`` holds points in the unit cube, shape (n, 8) or (8,); the affine
    map onto the physical ranges is applied internally.
    """
    u = np.atleast_2d(np.asarray(u, dtype=np.float64))
    if u.shape[1] != 8:
        raise ValueError("borehole expects 8 coordinates per point")
    x = spec.scale(u)
    r_w, r, t_u, h_u, t_l, h_l, length, k_w = x.T
    log_ratio = np.log(r / r_w)
    numer = 2.0 * np.pi * t_u * (h_u - h_l)
    denom = log_ratio * (
        1.0 + 2.0 * length * t_u / (log_ratio * r_w**2 * k_w) + t_u / t_l
    )
    out = numer / denom
    return out if out.size > 1 else float(out[0])


# ---------------------------------------------------------------------------
# integration study

@dataclass(frozen=True)
class IntegrationResult:
    estimate: float
    n: int
    checkpoints: tuple[int, ...]
    errors: tuple[float, ...] | None


_EVAL_ROWS = 1 << 13  # per integrand call; the borehole on 2^18 rows was 2.75x slower


def _values(f, points: np.ndarray) -> np.ndarray:
    """``f`` on ``points``, called on ``_EVAL_ROWS`` rows at a time."""
    out = np.empty(len(points))
    for lo in range(0, len(points), _EVAL_ROWS):
        values = np.atleast_1d(np.asarray(f(points[lo : lo + _EVAL_ROWS]), dtype=np.float64))
        if values.shape != out[lo : lo + _EVAL_ROWS].shape:
            raise ValueError("integrand must map (n, d) points to (n,) values")
        out[lo : lo + _EVAL_ROWS] = values
    return out


def integrate(
    spec: SequenceSpec,
    f,
    n: int,
    checkpoints: tuple[int, ...] = CHECKPOINT_GRID,
    reference: float | None = None,
) -> IntegrationResult:
    """Sample-mean estimate of the integral of ``f`` over the unit cube.

    ``f`` maps each point on its own; it sees one row block at a time.
    With a reference value, absolute errors of the running mean are
    reported at every checkpoint not exceeding ``n``; without one, only
    the estimate is returned.
    """
    values = _values(f, seqcore.generate(spec, n))
    cks = tuple(int(c) for c in checkpoints if c <= n)
    running = np.cumsum(values)
    errors = None
    if reference is not None:
        errors = tuple(abs(running[c - 1] / c - reference) for c in cks)
    return IntegrationResult(
        estimate=float(values.mean()), n=n, checkpoints=cks, errors=errors
    )


def mc_reference(f, dim: int, n_samples: int, seed: int) -> float:
    """Plain Monte Carlo reference value with a documented seed."""
    rng = np.random.default_rng(seed)
    block = 1 << 18
    total = 0.0
    remaining = n_samples
    while remaining > 0:
        m = min(block, remaining)
        total += float(np.sum(_values(f, rng.random((m, dim)))))
        remaining -= m
    return total / n_samples


# ---------------------------------------------------------------------------
# Saltelli sensitivity analysis

@dataclass(frozen=True)
class SensitivityResult:
    """First-order and total Sobol' indices per input, plus the budget."""

    first_order: tuple[float, ...]
    total: tuple[float, ...]
    base_n: int


def sensitivity(f, dim: int, base_n: int, seed: int) -> SensitivityResult:
    """Saltelli design with N(2d+2) evaluations and Jansen estimators.

    The paired base matrices come from a scrambled Sobol' sequence in 2d
    dimensions; each estimator is averaged over the two complementary
    radial sweeps so the full evaluation budget is used.
    """
    if base_n < 2:
        raise ValueError("base_n must be >= 2")
    pts = seqcore.generate(
        SequenceSpec(
            "sobol-scrambled", 2 * dim, seed=seqcore.split_seed(seed, "saltelli")
        ),
        base_n,
    )
    a, b = pts[:, :dim], pts[:, dim:]
    f_a = np.asarray(f(a), dtype=np.float64)
    f_b = np.asarray(f(b), dtype=np.float64)
    variance = float(np.var(np.concatenate([f_a, f_b])))
    if variance == 0.0:
        raise ValueError("integrand has zero output variance; indices undefined")
    first, total = [], []
    for i in range(dim):
        ab = a.copy()
        ab[:, i] = b[:, i]
        ba = b.copy()
        ba[:, i] = a[:, i]
        f_ab = np.asarray(f(ab), dtype=np.float64)
        f_ba = np.asarray(f(ba), dtype=np.float64)
        s_i = 0.5 * (
            (variance - 0.5 * np.mean((f_b - f_ab) ** 2))
            + (variance - 0.5 * np.mean((f_a - f_ba) ** 2))
        )
        st_i = 0.25 * (np.mean((f_a - f_ab) ** 2) + np.mean((f_b - f_ba) ** 2))
        first.append(float(s_i / variance))
        total.append(float(st_i / variance))
    return SensitivityResult(tuple(first), tuple(total), base_n)


def weights_from_sensitivity(result: SensitivityResult, floor: float) -> np.ndarray:
    """Coordinate weights from total indices: normalize by the maximum,
    add the floor, and clamp into [floor, 1]."""
    if floor <= 0:
        raise ValueError("floor must be positive")
    total = np.asarray(result.total, dtype=np.float64)
    top = total.max()
    if top <= 0:
        raise ValueError("all total indices are zero; weights undefined")
    return np.clip(total / top + floor, floor, 1.0)


# ---------------------------------------------------------------------------
# geometric-average basket call

@dataclass(frozen=True)
class BasketOptionSpec:
    """Contract and model parameters for a European geometric-average
    basket call under correlated geometric Brownian motion.

    ``vol`` is the d x d volatility loading matrix (asset i is driven by
    sum_j vol[i][j] dW_j).
    """

    dim: int = 2
    vol: tuple[tuple[float, ...], ...] | None = None
    maturity: float = 5.0
    strike: float = 0.08
    rate: float = 0.05

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.vol is None:
            eye = 1e-5 * np.eye(self.dim)
            object.__setattr__(self, "vol", tuple(tuple(row) for row in eye))
        vol = np.asarray(self.vol, dtype=np.float64)
        if vol.shape != (self.dim, self.dim):
            raise ValueError(f"vol must be a {self.dim}x{self.dim} matrix")
        if self.maturity <= 0:
            raise ValueError("maturity must be positive")
        if self.strike < 0:
            raise ValueError("strike must be nonnegative")

    def vol_matrix(self) -> np.ndarray:
        return np.asarray(self.vol, dtype=np.float64)


def norm_cdf(x):
    """Standard normal CDF via the complementary error function."""
    arr = np.asarray(x, dtype=np.float64)
    flat = arr.ravel()
    out = np.array([0.5 * math.erfc(-v / _SQRT2) for v in flat])
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def basket_price(s, spec: BasketOptionSpec | None = None) -> float:
    """Time-zero price of the geometric-average basket call.

    The geometric average of correlated lognormals is lognormal, so the
    discounted expectation has a Black-Scholes-style closed form with the
    average's drift m and volatility nu.
    """
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    if spec is None:
        spec = BasketOptionSpec(dim=s.size)
    if s.size != spec.dim:
        raise ValueError(f"expected {spec.dim} initial prices, got {s.size}")
    if (s <= 0).any():
        raise ValueError("initial asset prices must be positive")
    sig = spec.vol_matrix()
    d = spec.dim
    t = spec.maturity
    rate = spec.rate
    strike = spec.strike
    m = rate * t - t / (2.0 * d) * float((sig**2).sum())
    nu2 = t / d**2 * float((sig.sum(axis=0) ** 2).sum())
    nu = math.sqrt(nu2)
    s_avg = float(np.exp(np.mean(np.log(s))))
    m_shift = m + 0.5 * nu2
    discount = math.exp(-rate * t)
    forward = s_avg * math.exp(m_shift)
    if strike == 0.0:
        return discount * forward
    if nu == 0.0:
        return discount * max(forward - strike, 0.0)
    d1 = (math.log(s_avg / strike) + m + nu2) / nu
    d2 = d1 - nu
    return discount * (forward * norm_cdf(d1) - strike * norm_cdf(d2))


def basket_payoff_mc(
    s, spec: BasketOptionSpec, n_paths: int, seed: int
) -> float:
    """Monte Carlo value of the discounted terminal payoff under the same
    geometric Brownian dynamics (simulation oracle for the closed form)."""
    s = np.asarray(s, dtype=np.float64).reshape(-1)
    sig = spec.vol_matrix()
    t = spec.maturity
    drift = (spec.rate - 0.5 * (sig**2).sum(axis=1)) * t
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_paths, spec.dim))
    log_s_t = np.log(s) + drift + math.sqrt(t) * z @ sig.T
    g = np.exp(log_s_t.mean(axis=1))
    payoff = np.maximum(g - spec.strike, 0.0)
    return math.exp(-spec.rate * t) * float(payoff.mean())

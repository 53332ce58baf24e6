import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import discrepancy as disc

FAMILIES = disc.FAMILIES


def naive_squared(spec, pts):
    """Direct double-sum evaluation of the squared discrepancy (oracle)."""
    pts = np.asarray(pts, dtype=np.float64)
    n, d = pts.shape
    fam = disc.KERNELS[spec.family]
    gam = spec.weights

    def bprod(x):
        tot = 1.0
        for j in range(d):
            bj = float(fam.b(np.float64(x[j])))
            tot *= (1.0 + gam[j] * bj) if gam else bj
        return tot

    def kprod(x, y):
        tot = 1.0
        for j in range(d):
            kj = float(fam.k(np.float64(x[j]), np.float64(y[j])))
            tot *= (1.0 + gam[j] * kj) if gam else kj
        return tot

    c1 = fam.c
    c0 = math.prod(1.0 + g * c1 for g in gam) if gam else c1**d
    bsum = sum(bprod(x) for x in pts)
    pair = sum(kprod(x, y) for x in pts for y in pts)
    return c0 - 2.0 * bsum / n + pair / n**2


def naive_prefix_squared(spec, pts):
    """Squared discrepancy of every prefix, each from its own double sum over
    the leading block of the full pair matrix (oracle, O(N^3))."""
    pts = np.asarray(pts, dtype=np.float64)
    n, d = pts.shape
    fam = disc.KERNELS[spec.family]
    gam = spec.weights
    gram = np.ones((n, n))
    bprod = np.ones(n)
    for j in range(d):
        kj = fam.k(pts[:, None, j], pts[None, :, j])
        bj = fam.b(pts[:, j])
        gram *= (1.0 + gam[j] * kj) if gam else kj
        bprod *= (1.0 + gam[j] * bj) if gam else bj
    c1 = fam.c
    c0 = math.prod(1.0 + g * c1 for g in gam) if gam else c1**d
    return np.array(
        [c0 - 2.0 * bprod[:p].sum() / p + gram[:p, :p].sum() / p**2 for p in range(1, n + 1)]
    )


def naive_all_prefixes(spec, pts):
    return np.sqrt(np.maximum(naive_prefix_squared(spec, pts), 0.0))


# Pair terms are evaluated on tiles; this size spans at least three row
# blocks and two column blocks and is a multiple of neither.
TILE_ROWS = disc._TILE_ROWS
TILE_COLS = disc._TILE_PAIRS // disc._TILE_ROWS
TILED_N = max(3 * TILE_ROWS, TILE_COLS + TILE_ROWS) + TILE_ROWS // 2 + 1


def family_sizes(small_n):
    """Every family at ``small_n`` (ids: the family) and at TILED_N (ids:
    family-tiled)."""
    return pytest.mark.parametrize(
        "family, n",
        [(f, small_n) for f in FAMILIES] + [(f, TILED_N) for f in FAMILIES],
        ids=list(FAMILIES) + [f"{f}-tiled" for f in FAMILIES],
    )


def random_specs(rng, d, weighted=False):
    for family in FAMILIES:
        if weighted:
            yield disc.KernelSpec(family, tuple(rng.uniform(0.05, 3.0, d)))
        else:
            yield disc.KernelSpec(family)


class TestKernelComponents:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_b_matches_quadrature(self, family):
        quad = pytest.importorskip("scipy.integrate").quad
        fam = disc.KERNELS[family]
        rng = np.random.default_rng(2024)
        for x in rng.uniform(0, 1, 100):
            ref, err = quad(
                lambda y: float(fam.k(np.float64(x), np.float64(y))),
                0.0,
                1.0,
                points=[x, 0.5],  # kinks at y = x and (ctr) y = 1/2
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert float(fam.b(np.float64(x))) == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_c_matches_quadrature(self, family):
        # nested adaptive quadrature with the diagonal kink as a breakpoint
        quad = pytest.importorskip("scipy.integrate").quad
        fam = disc.KERNELS[family]

        def inner(x):
            val, _ = quad(
                lambda y: float(fam.k(np.float64(x), np.float64(y))),
                0.0,
                1.0,
                points=[x, 0.5],
                epsabs=1e-13,
                epsrel=1e-13,
            )
            return val

        ref, _ = quad(
            inner, 0.0, 1.0, points=[0.5], epsabs=1e-12, epsrel=1e-12, limit=200
        )
        assert fam.c == pytest.approx(ref, abs=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    @given(x=st.floats(0, 1), y=st.floats(0, 1))
    @settings(max_examples=50, deadline=None)
    def test_symmetry(self, family, x, y):
        fam = disc.KERNELS[family]
        assert float(fam.k(np.float64(x), np.float64(y))) == pytest.approx(
            float(fam.k(np.float64(y), np.float64(x))), abs=1e-15
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_kdiag_consistent(self, family):
        fam = disc.KERNELS[family]
        x = np.linspace(0, 1, 17)
        np.testing.assert_allclose(fam.kdiag(x), fam.k(x, x), atol=1e-15)


class TestKernelEval:
    def test_star_origin(self):
        assert disc.kernel_eval(disc.KernelSpec("star"), [0.0], [0.0]) == 1.0

    def test_sym_opposite_corners(self):
        assert disc.kernel_eval(disc.KernelSpec("sym"), [0.0], [1.0]) == -0.25

    def test_ctr_midpoint(self):
        spec = disc.KernelSpec("ctr")
        assert disc.kernel_eval(spec, [0.5, 0.5], [0.5, 0.5]) == 0.0

    def test_weighted_form(self):
        spec = disc.KernelSpec("star", weights=(2.0, 0.5))
        x, y = [0.25, 0.5], [0.75, 0.125]
        expected = (1 + 2.0 * (1 - 0.75)) * (1 + 0.5 * (1 - 0.5))
        assert disc.kernel_eval(spec, x, y) == pytest.approx(expected, rel=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            disc.kernel_eval(disc.KernelSpec("star"), [0.1], [0.1, 0.2])
        with pytest.raises(ValueError, match="weights"):
            disc.discrepancy_single(
                disc.KernelSpec("star", weights=(1.0,)), np.zeros((3, 2))
            )

    def test_bad_family_and_weights(self):
        with pytest.raises(ValueError, match="family"):
            disc.KernelSpec("l-infinity")
        with pytest.raises(ValueError, match="positive"):
            disc.KernelSpec("star", weights=(1.0, -2.0))


class TestDiscrepancySingle:
    def test_star_single_point_at_zero(self):
        # c=1/3, b(0)=1/2, k(0,0)=1 -> 1/3 - 1 + 1 = 1/3
        val = disc.discrepancy_single(disc.KernelSpec("star"), [[0.0]])
        assert val == pytest.approx(math.sqrt(1.0 / 3.0), rel=1e-12)

    def test_star_single_point_at_half(self):
        val = disc.discrepancy_single(disc.KernelSpec("star"), [[0.5]])
        assert val == pytest.approx(math.sqrt(1.0 / 12.0), rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_naive(self, family):
        rng = np.random.default_rng(5)
        for trial in range(3):
            n, d = int(rng.integers(1, 40)), int(rng.integers(1, 5))
            pts = rng.uniform(0, 1, (n, d))
            spec = disc.KernelSpec(family)
            ref = math.sqrt(max(naive_squared(spec, pts), 0.0))
            assert disc.discrepancy_single(spec, pts) == pytest.approx(ref, rel=1e-10)

    def test_weighted_matches_naive(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(0, 1, (24, 3))
        for spec in random_specs(rng, 3, weighted=True):
            ref = math.sqrt(max(naive_squared(spec, pts), 0.0))
            assert disc.discrepancy_single(spec, pts) == pytest.approx(ref, rel=1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_permutation_invariant(self, family):
        rng = np.random.default_rng(7)
        pts = rng.uniform(0, 1, (30, 3))
        spec = disc.KernelSpec(family)
        base = disc.discrepancy_single(spec, pts)
        shuffled = pts[rng.permutation(30)]
        assert disc.discrepancy_single(spec, shuffled) == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_nonnegative(self, family):
        rng = np.random.default_rng(8)
        for _ in range(5):
            pts = rng.uniform(0, 1, (int(rng.integers(1, 50)), 2))
            assert disc.discrepancy_single(disc.KernelSpec(family), pts) >= 0.0


class TestTiles:
    def test_cover_lower_triangle_once(self):
        n = TILED_N
        assert n % TILE_ROWS and n % TILE_COLS
        count = np.zeros((n, n), dtype=int)
        for lo, hi, c0, c1 in disc._tiles(n):
            assert (hi - lo) * (c1 - c0) <= disc._TILE_PAIRS
            if c0 == lo:
                assert c1 == hi
                count[lo:hi, c0:c1] += np.tri(hi - lo, k=-1, dtype=int)
            else:
                assert c1 <= lo
                count[lo:hi, c0:c1] += 1
        np.testing.assert_array_equal(count, np.tri(n, k=-1, dtype=int))
        blocks = {(lo, hi) for lo, hi, _, _ in disc._tiles(n)}
        assert len(blocks) >= 3
        last = max(blocks)
        assert sum(1 for lo, hi, c0, _ in disc._tiles(n) if (lo, hi) == last and c0 < lo) >= 2


class TestAllPrefixes:
    @family_sizes(40)
    def test_matches_naive(self, family, n):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0, 1, (n, 3))
        spec = disc.KernelSpec(family)
        got = disc.discrepancy_all_prefixes(spec, pts)
        ref = naive_all_prefixes(spec, pts)
        np.testing.assert_allclose(got, ref, rtol=1e-10, atol=1e-14)

    def check_weighted(self, n):
        rng = np.random.default_rng(12)
        pts = rng.uniform(0, 1, (n, 2))
        spec = disc.KernelSpec("sym", weights=(1.5, 0.25))
        np.testing.assert_allclose(
            disc.discrepancy_all_prefixes(spec, pts),
            naive_all_prefixes(spec, pts),
            rtol=1e-10,
        )

    def test_weighted_matches_naive(self):
        self.check_weighted(24)

    def test_weighted_matches_naive_across_tiles(self):
        self.check_weighted(TILED_N)

    @family_sizes(57)
    def test_last_entry_is_single(self, family, n):
        rng = np.random.default_rng(13)
        pts = rng.uniform(0, 1, (n, 4))
        spec = disc.KernelSpec(family)
        curve = disc.discrepancy_all_prefixes(spec, pts)
        assert curve[-1] == pytest.approx(
            disc.discrepancy_single(spec, pts), rel=1e-12
        )


class TestPrefixWeights:
    def test_uniform_single_prefix(self):
        w = disc.PrefixWeights("uniform").resolve(2)
        np.testing.assert_array_equal(w, [1.0])

    def test_uniform_formula(self):
        w = disc.PrefixWeights("uniform").resolve(10)
        np.testing.assert_allclose(w, np.full(9, 1.0 / 8.0))

    def test_length_proportional_sums_to_one(self):
        for n in (2, 3, 17, 100):
            w = disc.PrefixWeights("length-proportional").resolve(n)
            assert w.sum() == pytest.approx(1.0, rel=1e-12)
            p = np.arange(2, n + 1)
            np.testing.assert_allclose(w, 2.0 * p / (n**2 + n - 2))

    def test_final_prefix_emphasis(self):
        # 2N/(N^2+N-2) > 1/(N-2) exactly when N^2 - 5N + 2 > 0, i.e. N >= 5
        for n in (5, 10, 256):
            uni = disc.PrefixWeights("uniform").resolve(n)[-1]
            prop = disc.PrefixWeights("length-proportional").resolve(n)[-1]
            assert prop > uni
        assert (
            disc.PrefixWeights("length-proportional").resolve(4)[-1]
            < disc.PrefixWeights("uniform").resolve(4)[-1]
        )

    def test_custom_validation(self):
        with pytest.raises(ValueError, match="custom"):
            disc.PrefixWeights("uniform", values=(1.0,))
        with pytest.raises(ValueError, match="nonnegative"):
            disc.PrefixWeights("custom", values=(1.0, -1.0))
        with pytest.raises(ValueError, match="length"):
            disc.PrefixWeights("custom", values=(1.0,)).resolve(5)


class TestPrefixLoss:
    def naive_loss(self, spec, weights, pts):
        return weights.resolve(len(pts)) @ naive_prefix_squared(spec, pts)[1:]

    def test_two_points_equals_squared(self):
        rng = np.random.default_rng(20)
        pts = rng.uniform(0, 1, (2, 3))
        spec = disc.KernelSpec("star")
        loss = disc.prefix_loss(spec, disc.PrefixWeights("uniform"), pts)
        assert loss == pytest.approx(naive_squared(spec, pts), rel=1e-12)

    @family_sizes(30)
    @pytest.mark.parametrize("scheme", ["uniform", "length-proportional"])
    def test_matches_naive(self, family, n, scheme):
        rng = np.random.default_rng(21)
        pts = rng.uniform(0, 1, (n, 3))
        spec = disc.KernelSpec(family)
        weights = disc.PrefixWeights(scheme)
        assert disc.prefix_loss(spec, weights, pts) == pytest.approx(
            self.naive_loss(spec, weights, pts), rel=1e-10
        )

    def check_weighted_kernel(self, n):
        rng = np.random.default_rng(22)
        pts = rng.uniform(0, 1, (n, 4))
        spec = disc.KernelSpec("sym", weights=(0.9, 0.1, 2.0, 1.0))
        weights = disc.PrefixWeights("length-proportional")
        assert disc.prefix_loss(spec, weights, pts) == pytest.approx(
            self.naive_loss(spec, weights, pts), rel=1e-10
        )

    def test_weighted_kernel_matches_naive(self):
        self.check_weighted_kernel(20)

    def test_weighted_kernel_matches_naive_across_tiles(self):
        self.check_weighted_kernel(TILED_N)

    def test_custom_matches_naive(self):
        rng = np.random.default_rng(23)
        pts = rng.uniform(0, 1, (12, 2))
        weights = disc.PrefixWeights("custom", values=tuple(rng.uniform(0, 2, 11)))
        spec = disc.KernelSpec("ctr")
        assert disc.prefix_loss(spec, weights, pts) == pytest.approx(
            self.naive_loss(spec, weights, pts), rel=1e-10
        )

    def test_not_permutation_invariant(self):
        rng = np.random.default_rng(24)
        pts = rng.uniform(0, 1, (16, 2))
        spec = disc.KernelSpec("star")
        weights = disc.PrefixWeights("uniform")
        base = disc.prefix_loss(spec, weights, pts)
        flipped = disc.prefix_loss(spec, weights, pts[::-1].copy())
        assert abs(base - flipped) > 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="2 points"):
            disc.prefix_loss(
                disc.KernelSpec("star"), disc.PrefixWeights("uniform"), [[0.5]]
            )


def dense_grad_reference(spec, weights, pts):
    """The untiled gradient: whole (N, N, d) kernel and derivative tensors,
    leave-one-out products along the last axis and a gathered beta[max(m, j)]
    coefficient matrix (reference)."""
    n, d = pts.shape
    _, alpha, beta = disc._loss_coefficients(weights, n)
    fam = disc.KERNELS[spec.family]
    gam = None if spec.weights is None else np.asarray(spec.weights)

    def loo(factors):
        left = np.ones_like(factors)
        right = np.ones_like(factors)
        for t in range(1, d):
            left[..., t] = left[..., t - 1] * factors[..., t - 1]
        for t in range(d - 2, -1, -1):
            right[..., t] = right[..., t + 1] * factors[..., t + 1]
        return left * right

    bfac, bder = fam.b(pts), fam.db(pts)
    kdfac, kdder = fam.kdiag(pts), fam.dkdiag(pts)
    kfac = fam.k(pts[:, None, :], pts[None, :, :])
    dfac = fam.dk(pts[:, None, :], pts[None, :, :])
    if gam is not None:
        bfac, bder = 1.0 + gam * bfac, gam * bder
        kdfac, kdder = 1.0 + gam * kdfac, gam * kdder
        kfac, dfac = 1.0 + gam * kfac, gam * dfac
    grad = alpha[:, None] * bder * loo(bfac)
    grad += beta[:, None] * kdder * loo(kdfac)
    idx = np.arange(n)
    coeff = beta[np.maximum(idx[:, None], idx[None, :])]
    np.fill_diagonal(coeff, 0.0)
    grad += 2.0 * np.einsum("mj,mjt->mt", coeff, dfac * loo(kfac))
    return grad


class TestPrefixLossGrad:
    def fdiff(self, spec, weights, pts, h=1e-6, rows=None):
        grad = np.zeros_like(pts)
        for m in range(pts.shape[0]) if rows is None else rows:
            for t in range(pts.shape[1]):
                hi = pts.copy()
                lo = pts.copy()
                hi[m, t] += h
                lo[m, t] -= h
                grad[m, t] = (
                    disc.prefix_loss(spec, weights, hi)
                    - disc.prefix_loss(spec, weights, lo)
                ) / (2 * h)
        return grad

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("scheme", ["uniform", "length-proportional"])
    def test_matches_finite_differences(self, family, scheme):
        rng = np.random.default_rng(31)
        spec = disc.KernelSpec(family)
        weights = disc.PrefixWeights(scheme)
        pts = rng.uniform(0.02, 0.98, (16, 3))
        got = disc.prefix_loss_grad(spec, weights, pts)
        ref = self.fdiff(spec, weights, pts)
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-10)

    def test_weighted_matches_finite_differences(self):
        rng = np.random.default_rng(32)
        spec = disc.KernelSpec("star", weights=(2.0, 0.3, 1.1))
        weights = disc.PrefixWeights("length-proportional")
        pts = rng.uniform(0.02, 0.98, (12, 3))
        np.testing.assert_allclose(
            disc.prefix_loss_grad(spec, weights, pts),
            self.fdiff(spec, weights, pts),
            rtol=1e-5,
            atol=1e-10,
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_matches_finite_differences_across_tiles(self, family, d):
        # rows at both edges of tile boundaries, plus the last point
        rng = np.random.default_rng(35 + d)
        spec = disc.KernelSpec(family)
        weights = disc.PrefixWeights("uniform")
        pts = rng.uniform(0.02, 0.98, (TILED_N, d))
        rows = sorted({0, TILE_ROWS - 1, TILE_ROWS, TILE_COLS - 1, TILE_COLS, TILED_N - 1})
        got = disc.prefix_loss_grad(spec, weights, pts)[rows]
        ref = self.fdiff(spec, weights, pts, rows=rows)[rows]
        np.testing.assert_allclose(got, ref, rtol=1e-5, atol=1e-10)

    @pytest.mark.parametrize(
        "spec",
        [disc.KernelSpec(f) for f in FAMILIES]
        + [disc.KernelSpec("star", weights=(2.0, 0.3, 1.1))],
        ids=list(FAMILIES) + ["star-weighted"],
    )
    @pytest.mark.parametrize("scheme", ["uniform", "length-proportional"])
    @pytest.mark.parametrize("n", [16, TILED_N])
    def test_matches_dense_reference(self, spec, scheme, n):
        rng = np.random.default_rng(36)
        weights = disc.PrefixWeights(scheme)
        pts = rng.uniform(0, 1, (n, 3))
        np.testing.assert_allclose(
            disc.prefix_loss_grad(spec, weights, pts),
            dense_grad_reference(spec, weights, pts),
            rtol=1e-12,
            atol=1e-15,
        )

    def test_ctr_gradient_antisymmetric(self):
        # a configuration symmetric about 0.5 maps to itself under x -> 1-x,
        # and the ctr kernel is invariant, so the gradient flips sign
        pts = np.array([[0.2], [0.8], [0.35], [0.65]])
        spec = disc.KernelSpec("ctr")
        weights = disc.PrefixWeights("uniform")
        g = disc.prefix_loss_grad(spec, weights, pts)
        g_ref = disc.prefix_loss_grad(spec, weights, 1.0 - pts)
        np.testing.assert_allclose(g, -g_ref, atol=1e-12)

    def test_duplicate_points_finite(self):
        pts = np.array([[0.3, 0.7], [0.3, 0.7], [0.6, 0.1]])
        g = disc.prefix_loss_grad(
            disc.KernelSpec("sym"), disc.PrefixWeights("uniform"), pts
        )
        assert np.isfinite(g).all()

    def test_descent_direction(self):
        # a small step against the gradient must not increase the loss
        rng = np.random.default_rng(33)
        spec = disc.KernelSpec("star")
        weights = disc.PrefixWeights("uniform")
        for _ in range(20):
            pts = rng.uniform(0.05, 0.95, (10, 2))
            loss = disc.prefix_loss(spec, weights, pts)
            g = disc.prefix_loss_grad(spec, weights, pts)
            stepped = pts - 1e-7 * g
            assert disc.prefix_loss(spec, weights, stepped) <= loss + 1e-14


class TestWeightedArgminInvariance:
    def test_equal_weights_scale_objective_d1(self):
        # in d=1 the weighted squared discrepancy is exactly gamma times the
        # unweighted one, so argmin configurations coincide
        grid = np.linspace(0.01, 0.99, 41)
        plain = disc.KernelSpec("star")
        weighted = disc.KernelSpec("star", weights=(2.5,))
        vals_plain = np.empty((41, 41))
        vals_weighted = np.empty((41, 41))
        for a, x1 in enumerate(grid):
            for b, x2 in enumerate(grid):
                pts = np.array([[x1], [x2]])
                vals_plain[a, b] = disc.discrepancy_single(plain, pts) ** 2
                vals_weighted[a, b] = disc.discrepancy_single(weighted, pts) ** 2
        np.testing.assert_allclose(vals_weighted, 2.5 * vals_plain, rtol=1e-10, atol=1e-14)
        assert np.argmin(vals_plain) == np.argmin(vals_weighted)


class TestNumericalGuards:
    def test_radicand_clamp(self):
        # tiny negative radicands are clamped to zero rather than erroring
        assert disc._sqrt_clamped(np.array([-1e-13])) == 0.0

    def test_radicand_error(self):
        with pytest.raises(disc.NumericalError):
            disc._sqrt_clamped(np.array([-1e-9]))


class TestDeterminism:
    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(40)
        pts = rng.uniform(0, 1, (TILED_N, 3))
        spec = disc.KernelSpec("ctr", weights=(1.0, 0.5, 0.25))
        weights = disc.PrefixWeights("uniform")
        for fn in (
            lambda: disc.discrepancy_single(spec, pts),
            lambda: disc.discrepancy_all_prefixes(spec, pts),
            lambda: disc.prefix_loss(spec, weights, pts),
            lambda: disc.prefix_loss_grad(spec, weights, pts),
        ):
            assert np.array_equal(fn(), fn())


class TestPointValidation:
    ENTRY_POINTS = {
        "discrepancy_single": lambda pts: disc.discrepancy_single(disc.KernelSpec("star"), pts),
        "discrepancy_all_prefixes": lambda pts: disc.discrepancy_all_prefixes(
            disc.KernelSpec("star"), pts
        ),
        "prefix_loss": lambda pts: disc.prefix_loss(
            disc.KernelSpec("star"), disc.PrefixWeights("uniform"), pts
        ),
        "prefix_loss_grad": lambda pts: disc.prefix_loss_grad(
            disc.KernelSpec("star"), disc.PrefixWeights("uniform"), pts
        ),
        "kernel_eval": lambda pts: disc.kernel_eval(
            disc.KernelSpec("star"), pts[0], pts[len(pts) // 2]
        ),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "bad, match",
        [(np.nan, "non-finite"), (np.inf, "non-finite"), (3.0, "unit cube"), (-0.25, "unit cube")],
    )
    def test_rejects_bad_point(self, entry, bad, match):
        pts = np.random.default_rng(41).uniform(0, 1, (6, 2))
        pts[3, 1] = bad
        with pytest.raises(ValueError, match=match):
            self.ENTRY_POINTS[entry](pts)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_accepts_cube_faces(self, entry):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        assert np.isfinite(self.ENTRY_POINTS[entry](pts)).all()


# The one-line, allocating kernel formulas that the in-place kernels
# replaced; the reference walk below evaluates them.
REFERENCE_K = {
    "star": lambda x, y: 1.0 - np.maximum(x, y),
    "ext": lambda x, y: np.minimum(x, y) - x * y,
    "per": lambda x, y: 0.5 - np.abs(x - y) + (x - y) ** 2,
    "ctr": lambda x, y: 0.5 * (np.abs(x - 0.5) + np.abs(y - 0.5) - np.abs(x - y)),
    "sym": lambda x, y: 0.25 * (1.0 - 2.0 * np.abs(x - y)),
    "asd": lambda x, y: 0.5 * (1.0 - np.abs(x - y)),
}


def reference_kahan_cumsum(values):
    """Compensated running sums over numpy scalars (reference)."""
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


def reference_pair_rowsums(spec, pts):
    """r[j] = sum_{i<j} k(X_j, X_i), one allocated _tiles tile at a time on
    the calling thread, with the REFERENCE_K formulas (reference)."""
    k = REFERENCE_K[spec.family]
    r = np.zeros(len(pts))
    bt = np.ascontiguousarray(pts.T)
    for lo, hi, c0, c1 in disc._tiles(len(pts)):
        block = None
        for j in range(pts.shape[1]):
            kj = k(pts[lo:hi, j, None], bt[None, j, c0:c1])
            if spec.weights is not None:
                kj *= spec.weights[j]
                kj += 1.0
            block = kj if block is None else block * kj
        if c0 == lo:
            block = np.tril(block, -1)
        r[lo:hi] += block.sum(axis=1)
    return r


def reference_outputs(monkeypatch, spec, weights, pts):
    """_pair_rowsums, discrepancy_all_prefixes, prefix_loss and
    prefix_loss_grad with the reference walk, cumulative sum and kernel
    formulas patched in."""
    with monkeypatch.context() as m:
        fam = disc.KERNELS[spec.family]
        ref_k = REFERENCE_K[spec.family]
        m.setitem(disc.KERNELS, spec.family, dataclasses.replace(fam, k=lambda x, y, out=None, tmp=None: ref_k(x, y)))
        m.setattr(disc, "_pair_rowsums", reference_pair_rowsums)
        m.setattr(disc, "_kahan_cumsum", reference_kahan_cumsum)
        return program_outputs(spec, weights, pts)


def program_outputs(spec, weights, pts):
    return (
        disc._pair_rowsums(spec, pts),
        disc.discrepancy_all_prefixes(spec, pts),
        disc.prefix_loss(spec, weights, pts) if len(pts) > 1 else None,
        disc.prefix_loss_grad(spec, weights, pts) if len(pts) > 1 else None,
    )


def force_workers(monkeypatch, workers):
    """Run every walk on ``workers`` workers, however few its pairs."""
    monkeypatch.setattr(disc, "_cpu_count", lambda: workers)
    monkeypatch.setattr(disc, "_INLINE_PAIRS", 0)


class TestPairWalk:
    SIZES = (1, 2, 63, 64, 65, 127, 128, 129, 511, 512, 513, 1025, 3000)

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", SIZES)
    def test_matches_reference_at_any_worker_count(self, monkeypatch, family, weighted, n):
        rng = np.random.default_rng([42, n])
        pts = rng.uniform(0, 1, (n, 2))
        pts[rng.random(n) < 0.1, 0] = 0.5  # ties and the ctr centre
        spec = disc.KernelSpec(family, (1.5, 0.25) if weighted else None)
        weights = disc.PrefixWeights("length-proportional")
        ref = reference_outputs(monkeypatch, spec, weights, pts)
        for workers in (1, 2, 3):
            force_workers(monkeypatch, workers)
            for got, want in zip(program_outputs(spec, weights, pts), ref):
                assert np.array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 700),
        d=st.integers(1, 4),
        family=st.sampled_from(FAMILIES),
        weighted=st.booleans(),
        workers=st.integers(1, 3),
        grid=st.sampled_from([0, 4, 1 << 20]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_hypothesis(self, n, d, family, weighted, workers, grid, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 1, (n, d)) if grid == 0 else rng.integers(0, grid + 1, (n, d)) / grid
        spec = disc.KernelSpec(family, tuple(rng.uniform(0.05, 3.0, d)) if weighted else None)
        weights = disc.PrefixWeights("uniform")
        with pytest.MonkeyPatch.context() as m:
            ref = reference_outputs(m, spec, weights, pts)
            force_workers(m, workers)
            for got, want in zip(program_outputs(spec, weights, pts), ref):
                assert np.array_equal(got, want)

    def test_kahan_cumsum_matches_reference(self):
        rng = np.random.default_rng(43)
        for values in (rng.normal(size=5000) * 10.0 ** rng.integers(-8, 8, 5000), np.zeros(0)):
            assert np.array_equal(disc._kahan_cumsum(values), reference_kahan_cumsum(values))

    def test_small_walk_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
        monkeypatch.setattr(disc, "_cpu_count", lambda: 4)
        n = 256
        assert n * (n - 1) // 2 < disc._INLINE_PAIRS
        pts = np.random.default_rng(44).uniform(0, 1, (n, 2))
        disc.discrepancy_all_prefixes(disc.KernelSpec("sym"), pts)
        assert started == []
        monkeypatch.setattr(disc, "_INLINE_PAIRS", 0)  # the same walk, threaded
        disc.discrepancy_all_prefixes(disc.KernelSpec("sym"), pts)
        assert len(started) == 3  # helpers beside the caller

    def test_helper_failure_reaches_caller(self, monkeypatch):
        row_block = disc._row_block

        def fail_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("helper out of memory")
            row_block(*args)

        monkeypatch.setattr(disc, "_row_block", fail_off_main)
        force_workers(monkeypatch, 2)
        pts = np.random.default_rng(47).uniform(0, 1, (2000, 2))
        with pytest.raises(MemoryError, match="helper"):
            disc._pair_rowsums(disc.KernelSpec("sym"), pts)

    def test_workers_call_no_traced_function(self, monkeypatch):
        # perfbench wraps _kernel_cross with one span stack per process
        callers = []
        cross = disc._kernel_cross
        monkeypatch.setattr(disc, "_kernel_cross", lambda *a: callers.append(threading.current_thread()) or cross(*a))
        force_workers(monkeypatch, 3)
        pts = np.random.default_rng(45).uniform(0, 1, (300, 3))
        disc.discrepancy_all_prefixes(disc.KernelSpec("star"), pts)
        disc.kernel_eval(disc.KernelSpec("star"), pts[0], pts[1])
        assert callers == [threading.main_thread()]

    def test_stress_many_workers_short_switch_interval(self, monkeypatch):
        n = 1025
        pts = np.random.default_rng(46).uniform(0, 1, (n, 3))
        spec = disc.KernelSpec("ext", (0.5, 1.0, 2.0))
        want = reference_pair_rowsums(spec, pts)
        force_workers(monkeypatch, 8)  # more workers than cores
        got = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: got.append(disc._pair_rowsums(spec, pts)))
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(got) == 1 and np.array_equal(got[0], want)

import math

import numpy as np
import pytest

from lowdisc import bench
from lowdisc import seqcore
from lowdisc.seqcore import SequenceSpec


def borehole_reference(u):
    """Independent scalar re-evaluation of the flow-rate formula (oracle)."""
    lo_hi = [
        (0.05, 0.15),
        (100, 50000),
        (63070, 115600),
        (990, 1110),
        (63.1, 116),
        (700, 820),
        (1120, 1680),
        (9855, 12045),
    ]
    x = [lo + ui * (hi - lo) for ui, (lo, hi) in zip(u, lo_hi)]
    r_w, r, t_u, h_u, t_l, h_l, length, k_w = x
    top = 2 * math.pi * t_u * (h_u - h_l)
    lg = math.log(r / r_w)
    bottom = lg + 2 * length * t_u / (r_w**2 * k_w) + lg * t_u / t_l
    return top / bottom


class TestBorehole:
    def test_midpoint_matches_independent_evaluation(self):
        u = np.full(8, 0.5)
        assert bench.borehole(u) == pytest.approx(borehole_reference(u), rel=1e-12)

    def test_random_points_match_oracle(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 1, (50, 8))
        got = bench.borehole(pts)
        ref = [borehole_reference(u) for u in pts]
        np.testing.assert_allclose(got, ref, rtol=1e-12)

    def test_monotone_in_upper_head(self):
        u = np.full(8, 0.5)
        lo, hi = u.copy(), u.copy()
        lo[3], hi[3] = 0.0, 1.0
        assert bench.borehole(hi) > bench.borehole(lo)

    def test_monotone_in_lower_transmissivity(self):
        # raising T_l shrinks the T_u/T_l term, so the flow rate grows
        u = np.full(8, 0.5)
        lo, hi = u.copy(), u.copy()
        lo[4], hi[4] = 0.25, 0.75
        assert bench.borehole(hi) > bench.borehole(lo)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="8 coordinates"):
            bench.borehole(np.zeros((3, 4)))


class TestIntegrate:
    def test_constant_integrand_zero_error(self):
        res = bench.integrate(
            SequenceSpec("sobol", 3),
            lambda x: np.full(len(x), 2.5),
            n=500,
            reference=2.5,
        )
        assert res.estimate == 2.5
        assert all(e == 0.0 for e in res.errors)

    def test_errors_omitted_without_reference(self):
        res = bench.integrate(SequenceSpec("halton", 2), lambda x: x.sum(axis=1), n=100)
        assert res.errors is None
        assert res.estimate == pytest.approx(1.0, abs=0.05)

    def test_checkpoints_clipped_to_n(self):
        res = bench.integrate(
            SequenceSpec("sobol", 2),
            lambda x: x[:, 0],
            n=100,
            checkpoints=(20, 60, 100, 500),
            reference=0.5,
        )
        assert res.checkpoints == (20, 60, 100)
        assert len(res.errors) == 3

    def test_estimate_within_sampled_hull(self):
        res = bench.integrate(
            SequenceSpec("uniform", 2, seed=3),
            lambda x: np.prod(x, axis=1),
            n=256,
        )
        assert 0.0 <= res.estimate <= 1.0

    def test_product_integrand_beats_mc_spread(self):
        # Sobol' error at N=256 under the mean absolute error of 32 MC seeds
        f = lambda x: np.prod(x, axis=1)
        exact = 0.25
        sob = bench.integrate(SequenceSpec("sobol", 2), f, 256, reference=exact)
        sob_err = abs(sob.estimate - exact)
        mc_errs = []
        for seed in range(32):
            est = bench.integrate(
                SequenceSpec("uniform", 2, seed=seed), f, 256, reference=exact
            )
            mc_errs.append(abs(est.estimate - exact))
        assert sob_err < np.mean(mc_errs)

    def test_mc_reference_reproducible(self):
        f = lambda x: x[:, 0]
        a = bench.mc_reference(f, 1, 2**16, seed=42)
        b = bench.mc_reference(f, 1, 2**16, seed=42)
        assert a == b
        assert a == pytest.approx(0.5, abs=0.01)

    def test_borehole_error_magnitudes(self):
        # qualitative only: the reference seed behind the published error
        # table is unknown, but the magnitudes should be comparable
        reference = bench.mc_reference(bench.borehole, 8, 2**18, seed=7)
        for kind in ("sobol", "halton"):
            res = bench.integrate(
                SequenceSpec(kind, 8), bench.borehole, 500, reference=reference
            )
            errs = np.asarray(res.errors)
            assert errs.max() < 15.0
            assert errs[-1] < 1.0


class TestSensitivity:
    def test_additive_function_equal_indices(self):
        res = bench.sensitivity(lambda x: x.sum(axis=1), dim=3, base_n=2**12, seed=1)
        for s, st in zip(res.first_order, res.total):
            assert s == pytest.approx(1 / 3, abs=0.02)
            assert st == pytest.approx(s, abs=0.02)

    def test_single_active_coordinate(self):
        res = bench.sensitivity(lambda x: x[:, 0], dim=4, base_n=2**12, seed=2)
        assert res.first_order[0] == pytest.approx(1.0, abs=0.02)
        for s in res.first_order[1:]:
            assert abs(s) < 0.02
        for st in res.total[1:]:
            assert abs(st) < 0.02

    def test_first_order_bounded_by_total(self):
        res = bench.sensitivity(bench.borehole, dim=8, base_n=2**12, seed=3)
        for s, st in zip(res.first_order, res.total):
            assert s <= st + 0.02

    def test_sum_of_first_order_bounded(self):
        # no-interaction surrogate: sum S_i stays near (and below) one
        res = bench.sensitivity(
            lambda x: 2 * x[:, 0] + 0.5 * x[:, 1], dim=2, base_n=2**12, seed=4
        )
        assert sum(res.first_order) <= 1.0 + 0.03

    def test_budget_recorded(self):
        res = bench.sensitivity(lambda x: x[:, 0], dim=2, base_n=64, seed=0)
        assert res.base_n == 64

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError, match="variance"):
            bench.sensitivity(lambda x: np.ones(len(x)), dim=2, base_n=64, seed=0)


class TestWeightsFromSensitivity:
    def test_dominant_coordinate_gets_one(self):
        res = bench.SensitivityResult((0.9, 0.01), (0.95, 0.02), 64)
        gamma = bench.weights_from_sensitivity(res, floor=0.001)
        assert gamma[0] == 1.0

    def test_uniform_indices_give_equal_weights(self):
        res = bench.SensitivityResult((0.25,) * 4, (0.25,) * 4, 64)
        gamma = bench.weights_from_sensitivity(res, floor=0.01)
        assert np.allclose(gamma, gamma[0])

    def test_floor_applied_to_negligible_indices(self):
        res = bench.SensitivityResult((0.9, 0.0), (0.9, -0.002), 64)
        gamma = bench.weights_from_sensitivity(res, floor=0.001)
        assert gamma[1] == 0.001

    def test_all_zero_rejected(self):
        res = bench.SensitivityResult((0.0, 0.0), (0.0, 0.0), 64)
        with pytest.raises(ValueError, match="zero"):
            bench.weights_from_sensitivity(res, floor=0.001)
        with pytest.raises(ValueError, match="floor"):
            bench.weights_from_sensitivity(
                bench.SensitivityResult((1.0,), (1.0,), 8), floor=0.0
            )


class TestNormCdf:
    def test_against_quadrature_table(self):
        # high-order Gauss-Legendre integration of the normal density
        nodes, wts = np.polynomial.legendre.leggauss(200)
        xs = np.linspace(-8.0, 8.0, 10_000)

        def phi_quad(x):
            # integrate pdf over [0, x] and add 1/2
            half = 0.5 * x
            t = half * nodes + half
            pdf = np.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
            return 0.5 + half * (wts * pdf).sum()

        got = bench.norm_cdf(xs)
        ref = np.array([phi_quad(x) for x in xs])
        np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_tails_and_center(self):
        assert bench.norm_cdf(0.0) == 0.5
        assert bench.norm_cdf(40.0) == 1.0
        assert bench.norm_cdf(-40.0) >= 0.0


class TestBasketPrice:
    def test_zero_strike_limit(self):
        spec = bench.BasketOptionSpec(dim=2, strike=0.0)
        s = np.array([0.4, 0.9])
        sig = spec.vol_matrix()
        t, d = spec.maturity, 2
        m = spec.rate * t - t / (2 * d) * (sig**2).sum()
        nu2 = t / d**2 * (sig.sum(axis=0) ** 2).sum()
        s_avg = math.exp(np.mean(np.log(s)))
        expected = math.exp(-spec.rate * t) * s_avg * math.exp(m + nu2 / 2)
        assert bench.basket_price(s, spec) == pytest.approx(expected, rel=1e-14)

    def test_matches_gbm_simulation_default_spec(self):
        spec = bench.BasketOptionSpec(dim=2)
        rng = np.random.default_rng(5)
        for trial in range(3):
            s = rng.uniform(0.05, 1.0, 2)
            cf = bench.basket_price(s, spec)
            mc = bench.basket_payoff_mc(s, spec, n_paths=10**6, seed=trial)
            assert cf == pytest.approx(mc, rel=5e-4)

    def test_matches_gbm_simulation_large_vol(self):
        spec = bench.BasketOptionSpec(
            dim=3,
            vol=((0.3, 0.05, 0.0), (0.0, 0.25, 0.1), (0.02, 0.0, 0.4)),
            maturity=2.0,
            strike=0.9,
            rate=0.03,
        )
        s = np.array([1.0, 1.1, 0.95])
        cf = bench.basket_price(s, spec)
        mc = bench.basket_payoff_mc(s, spec, n_paths=4 * 10**6, seed=9)
        assert cf == pytest.approx(mc, rel=5e-3)

    def test_monotone_in_each_price(self):
        spec = bench.BasketOptionSpec(dim=2)
        base = np.array([0.3, 0.5])
        p0 = bench.basket_price(base, spec)
        for j in range(2):
            bumped = base.copy()
            bumped[j] += 0.05
            assert bench.basket_price(bumped, spec) >= p0

    def test_price_bounds(self):
        spec = bench.BasketOptionSpec(dim=2, strike=0.3)
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = rng.uniform(0.01, 2.0, 2)
            price = bench.basket_price(s, spec)
            sig = spec.vol_matrix()
            t, d = spec.maturity, 2
            m = spec.rate * t - t / (2 * d) * (sig**2).sum()
            nu2 = t / d**2 * (sig.sum(axis=0) ** 2).sum()
            upper = math.exp(-spec.rate * t) * math.exp(np.mean(np.log(s))) * math.exp(m + nu2 / 2)
            assert 0.0 <= price <= upper + 1e-15

    def test_nonpositive_prices_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            bench.basket_price([0.5, 0.0], bench.BasketOptionSpec(dim=2))


def whole_array_integrate(spec, f, n, checkpoints, reference):
    """The one-piece form: generate every point, then evaluate them all."""
    values = np.atleast_1d(np.asarray(f(seqcore.generate(spec, n)), dtype=np.float64))
    running = np.cumsum(values)
    cks = tuple(int(c) for c in checkpoints if c <= n)
    return float(values.mean()), tuple(abs(running[c - 1] / c - reference) for c in cks)


def whole_array_mc_reference(f, dim, n_samples, seed):
    """The one-piece form: each 2^18-point draw evaluated in one call."""
    rng = np.random.default_rng(seed)
    total, remaining = 0.0, n_samples
    while remaining > 0:
        m = min(1 << 18, remaining)
        total += float(np.sum(f(rng.random((m, dim)))))
        remaining -= m
    return total / n_samples


class TestBlockwiseIntegration:
    """``integrate`` and ``mc_reference`` evaluate the integrand block by
    block; the estimates must not move a bit."""

    CHECKPOINTS = (1, 2, 20, 500, 4096, 4097, 16385, 40000)

    @pytest.mark.parametrize(
        "spec",
        [
            SequenceSpec("sobol", 8, burn_in=3),
            SequenceSpec("sobol-scrambled", 8, seed=5),
            SequenceSpec("halton", 8),
            SequenceSpec("uniform", 8, burn_in=1, seed=2),
        ],
        ids=lambda s: s.kind,
    )
    @pytest.mark.parametrize("n", [1, 4097, 16385, 40000])
    def test_borehole_matches_whole_array(self, spec, n):
        got = bench.integrate(spec, bench.borehole, n, self.CHECKPOINTS, reference=72.9)
        estimate, errors = whole_array_integrate(spec, bench.borehole, n, self.CHECKPOINTS, 72.9)
        assert got.estimate == estimate
        assert got.errors == errors

    def test_neural_matches_whole_array(self, tmp_path):
        from lowdisc import neuralnet as nn

        model = nn.init_mlp(nn.EncodingConfig(bands=2, n_norm=10**4), 3, 8, 2, seed=1)
        nn.save_model(model, tmp_path / "m.nn")
        spec = SequenceSpec("neural", 3, model_path=str(tmp_path / "m.nn"))
        f = lambda x: np.prod(x, axis=1)
        got = bench.integrate(spec, f, 9000, self.CHECKPOINTS, reference=0.125)
        assert (got.estimate, got.errors) == whole_array_integrate(spec, f, 9000, self.CHECKPOINTS, 0.125)

    @pytest.mark.parametrize(
        "f, dim, n_samples",
        [
            (bench.borehole, 8, 2**18 + 2**13 + 1),
            (lambda x: x[:, 0], 1, 2**16),
            (lambda x: np.prod(x, axis=1), 3, 3 * 2**18 + 5),
        ],
        ids=["borehole", "first-coordinate", "product"],
    )
    def test_mc_reference_matches_whole_draws(self, f, dim, n_samples):
        assert bench.mc_reference(f, dim, n_samples, 7) == whole_array_mc_reference(f, dim, n_samples, 7)

    def test_integrand_sees_blocks(self):
        rows = []
        f = lambda x: rows.append(len(x)) or np.ones(len(x))
        bench.integrate(SequenceSpec("sobol", 2), f, 3 * bench._EVAL_ROWS + 1)
        assert rows == [bench._EVAL_ROWS] * 3 + [1]

    def test_integrand_shape_checked(self):
        with pytest.raises(ValueError, match=r"\(n,\) values"):
            bench.integrate(SequenceSpec("sobol", 2), lambda x: x, 10)

    def test_points_come_from_one_generate_call(self, monkeypatch):
        # per-layer tracing times the generator as the seqcore.generate call
        # inside integrate
        calls = []
        generate = seqcore.generate
        monkeypatch.setattr(seqcore, "generate", lambda spec, n: calls.append(n) or generate(spec, n))
        bench.integrate(SequenceSpec("halton", 3), lambda x: x[:, 0], 20000)
        assert calls == [20000]

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  The training criteria (5 and 6) share one set of desk-scale runs
through a module-scoped fixture and dominate the runtime (a few minutes).
"""

import copy
import math
import time

import numpy as np
import pytest

from lowdisc import bench
from lowdisc import discrepancy as disc
from lowdisc import neuralnet as nn
from lowdisc import rrtplan as rp
from lowdisc import seqcore as sq
from lowdisc import trainer as tr
from lowdisc.seqcore import SequenceSpec

# documented seed for the in-run plain-MC borehole reference
REFERENCE_MC_SEED = 123456789


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def naive_prefix_curve(spec: disc.KernelSpec, pts: np.ndarray) -> np.ndarray:
    """Direct per-prefix double-sum evaluation (the independent oracle)."""
    n, d = pts.shape
    fam = disc.KERNELS[spec.family]
    kmat = np.ones((n, n))
    for j in range(d):
        kmat *= fam.k(pts[:, j, None], pts[None, :, j])
    b = fam.b(pts).prod(axis=1)
    c0 = fam.c**d
    out = np.empty(n)
    for p in range(1, n + 1):
        d2 = c0 - 2.0 * b[:p].sum() / p + kmat[:p, :p].sum() / p**2
        out[p - 1] = math.sqrt(max(d2, 0.0))
    return out


def test_criterion_1_incremental_matches_naive_double_sums():
    rng = np.random.default_rng(20240801)
    t0 = time.perf_counter()
    worst = 0.0
    n_sets = 0
    for family in disc.FAMILIES:
        for _ in range(17):
            n = int(rng.integers(2, 65))
            d = int(rng.integers(1, 6))
            pts = rng.uniform(0.0, 1.0, (n, d))
            spec = disc.KernelSpec(family)
            got = disc.discrepancy_all_prefixes(spec, pts)
            ref = naive_prefix_curve(spec, pts)
            denom = np.maximum(np.abs(ref), 1e-300)
            worst = max(worst, float(np.max(np.abs(got - ref) / denom)))
            n_sets += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"{n_sets} random sets, all six kernels: worst relative deviation "
        f"{worst:.2e} (<=1e-10), runtime {elapsed:.1f}s (<10s)",
    )


HALTON_SYM_TARGETS = {100: 0.005020, 500: 0.001608, 1000: 0.001002, 10000: 0.000168}
SOBOL_SYM_TARGETS = {100: 0.004840, 500: 0.001615, 1000: 0.000972, 10000: 0.000167}


def test_criterion_2_halton_baseline_reproduction():
    t0 = time.perf_counter()
    pts = sq.generate(SequenceSpec("halton", 4, burn_in=128), 10_000)
    curve = disc.discrepancy_all_prefixes(disc.KernelSpec("sym"), pts)
    curve_again = disc.discrepancy_all_prefixes(disc.KernelSpec("sym"), pts)
    deterministic = np.array_equal(curve, curve_again)
    rels = {
        n: abs(curve[n - 1] - target) / target
        for n, target in HALTON_SYM_TARGETS.items()
    }
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"N={n}: {r:.3%}" for n, r in rels.items())
    report(
        2,
        max(rels.values()) <= 0.01 and deterministic and elapsed < 30.0,
        f"halton d=4 burn-in 128 relative deviations {detail} (tol 1%), "
        f"deterministic={deterministic}, runtime {elapsed:.1f}s (<30s)",
    )


def test_criterion_3_sobol_baseline_reproduction():
    pts = sq.generate(SequenceSpec("sobol", 4, burn_in=128), 10_000)
    curve = disc.discrepancy_all_prefixes(disc.KernelSpec("sym"), pts)
    rels = {
        n: abs(curve[n - 1] - target) / target
        for n, target in SOBOL_SYM_TARGETS.items()
    }
    within = max(rels.values()) <= 0.05
    detail = ", ".join(f"N={n}: {r:.3%}" for n, r in rels.items())
    if not within:
        detail += (
            "; deviation attributed to the direction-number set: the published "
            "baseline's direction numbers are unnamed, and different standard "
            "sets shift small prefixes"
        )
    report(3, within, f"sobol d=4 burn-in 128 relative deviations {detail} (tol 5%)")


def test_criterion_4_gradient_correctness():
    rng = np.random.default_rng(20240804)
    # prefix-loss gradient vs central differences; the comparison carries an
    # absolute floor of 1e-10 because the secant itself has roundoff noise
    # of order eps*loss/h on near-zero components
    worst_loss = 0.0
    trials = 0
    h = 1e-6
    for family in disc.FAMILIES:
        for scheme in ("uniform", "length-proportional"):
            spec = disc.KernelSpec(family)
            weights = disc.PrefixWeights(scheme)
            for _ in range(5):
                pts = rng.uniform(0.02, 0.98, (16, 3))
                got = disc.prefix_loss_grad(spec, weights, pts)[1]
                for m in range(16):
                    for t in range(3):
                        hi = pts.copy()
                        lo = pts.copy()
                        hi[m, t] += h
                        lo[m, t] -= h
                        ref = (
                            disc.prefix_loss(spec, weights, hi)
                            - disc.prefix_loss(spec, weights, lo)
                        ) / (2 * h)
                        excess = (abs(got[m, t] - ref) - 1e-10) / max(abs(ref), 1e-300)
                        worst_loss = max(worst_loss, excess)
                trials += 1
    # MLP backward vs finite differences on tiny models
    worst_mlp = 0.0
    for trial in range(12):
        model = nn.init_mlp(
            nn.EncodingConfig(bands=int(rng.integers(1, 3)), n_norm=16),
            out_dim=int(rng.integers(1, 3)),
            hidden=int(rng.integers(2, 8)),
            layers=int(rng.integers(1, 4)),
            seed=trial,
        )
        for b in model.biases:  # keep pre-activations off the ReLU kinks
            b += rng.normal(scale=0.1, size=b.shape)
        indices = rng.integers(1, 16, size=4)
        direction = rng.normal(size=(4, model.out_dim))
        grads = nn.backward(model, indices, direction)
        for p, g in zip(model.params(), grads):
            fp, fg = p.ravel(), g.ravel()
            for slot in rng.choice(fp.size, size=min(4, fp.size), replace=False):
                orig = fp[slot]
                fp[slot] = orig + h
                up = float((nn.forward(model, indices) * direction).sum())
                fp[slot] = orig - h
                dn = float((nn.forward(model, indices) * direction).sum())
                fp[slot] = orig
                ref = (up - dn) / (2 * h)
                excess = (abs(fg[slot] - ref) - 1e-10) / max(abs(ref), 1e-300)
                worst_mlp = max(worst_mlp, excess)
    report(
        4,
        worst_loss <= 1e-5 and worst_mlp <= 1e-5,
        f"{trials} prefix-gradient trials worst rel beyond the 1e-10 noise "
        f"floor {worst_loss:.2e}, MLP backward worst {worst_mlp:.2e} (both <=1e-5)",
    )


TRAIN_SEEDS = (0, 1, 2)


@pytest.fixture(scope="module")
def desk_scale_training():
    """Criteria 5 and 6 share these runs: per seed, one pretrain and one
    fine-tune per weight scheme on the scaled default configuration."""
    spec = disc.KernelSpec("sym")
    sobol_curve = disc.discrepancy_all_prefixes(
        spec, sq.generate(SequenceSpec("sobol", 2, burn_in=128), 256)
    )
    results = {}
    t0 = time.perf_counter()
    for seed in TRAIN_SEEDS:
        base = dict(
            dim=2,
            n_points=256,
            loss_family="sym",
            hidden=128,
            layers=4,
            bands=16,
            pretrain_epochs=2000,
            finetune_epochs=2000,
            burn_in=128,
            seed=seed,
        )
        pre, _ = tr.pretrain(tr.TrainConfig(**base))
        per_scheme = {}
        for scheme in ("uniform", "length-proportional"):
            model = copy.deepcopy(pre)
            model, _ = tr.finetune(model, tr.TrainConfig(**base, weight_scheme=scheme))
            pts = nn.forward(model, np.arange(1, 257))
            curve = disc.discrepancy_all_prefixes(spec, pts)
            per_scheme[scheme] = curve
        results[seed] = {
            "pretrain_mse": pre.meta["pretrain_mse"],
            "curves": per_scheme,
        }
    return {
        "results": results,
        "sobol_curve": sobol_curve,
        "elapsed": time.perf_counter() - t0,
    }


def test_criterion_5_desk_scale_training(desk_scale_training):
    data = desk_scale_training
    sobol_mean = data["sobol_curve"][1:].mean()
    mse_ok = all(
        r["pretrain_mse"] <= 1e-4 for r in data["results"].values()
    )
    wins = sum(
        r["curves"]["uniform"][1:].mean() < sobol_mean
        for r in data["results"].values()
    )
    per_seed = ", ".join(
        f"seed {s}: mse={r['pretrain_mse']:.1e} mean-D={r['curves']['uniform'][1:].mean():.6f}"
        for s, r in data["results"].items()
    )
    ok = mse_ok and wins >= 2 and data["elapsed"] < 900.0
    report(
        5,
        ok,
        f"{per_seed} vs sobol mean-D {sobol_mean:.6f}; beats baseline in "
        f"{wins}/3 seeds (need >=2), all pretrain MSE <=1e-4: {mse_ok}, "
        f"runtime {data['elapsed']:.0f}s (<900s)",
    )


def test_criterion_6_weight_scheme_ablation(desk_scale_training):
    data = desk_scale_training
    wins = 0
    details = []
    for seed, r in data["results"].items():
        uni = r["curves"]["uniform"][-1]
        prop = r["curves"]["length-proportional"][-1]
        wins += prop <= uni
        details.append(f"seed {seed}: lp={prop:.6f} uni={uni:.6f}")
    report(
        6,
        wins >= 2,
        f"final-prefix D2-sym, length-proportional vs uniform: "
        f"{'; '.join(details)}; lp no worse in {wins}/3 seeds (need >=2)",
    )


def test_criterion_7_scrambling_preserves_stratification():
    ok = True
    for seed in range(8):
        for m in range(1, 9):
            n = 1 << m
            raw = sq.sobol_raw(np.arange(n), 4)
            pts = sq.owen_scramble(raw, seed=seed)
            for j in range(4):
                bins = np.floor(pts[:, j] * n).astype(int)
                if sorted(bins) != list(range(n)):
                    ok = False
    report(
        7,
        ok,
        "first 2^m Owen-scrambled Sobol' points occupy one dyadic bin per "
        "coordinate for m<=8, 8 seeds, d=4",
    )


def test_criterion_8_borehole_sensitivity():
    t0 = time.perf_counter()
    result = bench.sensitivity(bench.borehole, dim=8, base_n=2**13, seed=0)
    gamma = bench.weights_from_sensitivity(result, floor=0.001)
    published = np.array([1.0000, 0.0010, 0.0010, 0.0633, 0.0010, 0.0634, 0.0610, 0.0158])
    s1 = result.first_order[0]
    gap = float(np.abs(gamma - published).max())
    elapsed = time.perf_counter() - t0
    report(
        8,
        0.78 <= s1 <= 0.88 and gap <= 0.01 and elapsed < 60.0,
        f"S1(r_w)={s1:.4f} (in [0.78,0.88]), max |gamma - published| = {gap:.4f} "
        f"(<=0.01), runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_9_borehole_integration_sanity():
    # Exact published error values are non-binding: the published reference
    # seed is unknown, so the reference is recomputed in-run.
    reference = bench.mc_reference(bench.borehole, 8, 2**21, seed=REFERENCE_MC_SEED)
    sobol_res = bench.integrate(
        SequenceSpec("sobol", 8), bench.borehole, 500, checkpoints=(500,), reference=reference
    )
    sobol_err = sobol_res.errors[0]
    mc_errs = []
    for seed in range(32):
        res = bench.integrate(
            SequenceSpec("uniform", 8, seed=seed),
            bench.borehole,
            500,
            checkpoints=(500,),
            reference=reference,
        )
        mc_errs.append(res.errors[0])
    mc_mean = float(np.mean(mc_errs))
    report(
        9,
        sobol_err < mc_mean,
        f"borehole N=500: sobol abs error {sobol_err:.4f} < mean of 32 plain-MC "
        f"seeds {mc_mean:.4f} (reference: 2^21 MC samples, seed {REFERENCE_MC_SEED})",
    )


def test_criterion_10_basket_price_oracle():
    spec = bench.BasketOptionSpec(dim=2)
    rng = np.random.default_rng(20240810)
    worst = 0.0
    for trial in range(10):
        s = rng.uniform(0.05, 1.0, 2)
        closed = bench.basket_price(s, spec)
        mc = bench.basket_payoff_mc(s, spec, n_paths=10**6, seed=trial)
        worst = max(worst, abs(closed - mc) / abs(mc))
    report(
        10,
        worst <= 5e-4,
        f"closed form vs 1e6-path simulation on 10 random price vectors: "
        f"worst relative gap {worst:.2e} (3 significant digits)",
    )


def test_criterion_11_rrt_properties():
    # (a) obstacle-free success within the analytic iteration bound
    start = rp.angles_to_config([0.3, 2.4, -2.4, 2.4])
    goal = np.asarray(start) + np.array([0.12, 0.0, 0.0, 0.0])
    env = rp.ChainEnv.open_env(start, goal)
    cfg = rp.RrtConfig(max_iters=100, step=0.05, goal_tol=1e-9)
    res = rp.rrt_plan(env, cfg, np.tile(goal, (100, 1)))
    bound = math.ceil(float(np.linalg.norm(goal - np.asarray(start))) / cfg.step) + 1
    open_ok = res.success and res.iterations <= bound

    # (b) determinism: identical tree bytes for a fixed env and sequence
    env_d = rp.ChainEnv.tunnel_env(0.52, seed=4)
    cfg_d = rp.RrtConfig(max_iters=4000, step=0.05, goal_tol=0.05)
    samples = sq.generate(SequenceSpec("sobol", 4), 4000)
    r1 = rp.rrt_plan(env_d, cfg_d, samples)
    r2 = rp.rrt_plan(env_d, cfg_d, samples)
    deterministic = (
        r1.nodes.tobytes() == r2.nodes.tobytes()
        and r1.parents.tobytes() == r2.parents.tobytes()
    )

    # (c) path validity on every success across a 20-rep sweep (published
    # success percentages are non-reproducible: geometry is declared here)
    cfg_s = rp.RrtConfig(max_iters=8000, step=0.05, goal_tol=0.05)
    sobol_samples = sq.generate(SequenceSpec("sobol", 4), 8000)
    successes = 0
    valid = True
    for rep in range(20):
        env_r = rp.ChainEnv.tunnel_env(0.52, seed=sq.split_seed(7, "acceptance-env", rep))
        uniform_samples = sq.generate(
            SequenceSpec("uniform", 4, seed=sq.split_seed(7, "acceptance-src", rep)), 8000
        )
        for src in (sobol_samples, uniform_samples):
            res_r = rp.rrt_plan(env_r, cfg_s, src)
            if not res_r.success:
                continue
            successes += 1
            steps = np.linalg.norm(np.diff(res_r.path, axis=0), axis=1)
            if (steps > cfg_s.step + 1e-12).any():
                valid = False
            if any(rp.chain_collision(env_r, q) for q in res_r.path):
                valid = False
            if np.linalg.norm(res_r.path[-1] - np.asarray(env_r.goal)) > cfg_s.goal_tol:
                valid = False
    report(
        11,
        open_ok and deterministic and valid and successes > 0,
        f"open-env success in {res.iterations} iters (bound {bound}); "
        f"deterministic trees: {deterministic}; {successes} successful plans in "
        f"the 20-rep sweep, all paths valid: {valid}",
    )


def test_criterion_12_all_prefix_performance(monkeypatch):
    monkeypatch.setattr(disc, "_cpu_count", lambda: 1)  # the criterion is single-threaded
    pts = sq.generate(SequenceSpec("halton", 4, burn_in=128), 10_000)
    t0 = time.perf_counter()
    disc.discrepancy_all_prefixes(disc.KernelSpec("sym"), pts)
    elapsed = time.perf_counter() - t0
    report(
        12,
        elapsed <= 10.0,
        f"all-prefix D2-sym at N=10^4, d=4 in {elapsed:.2f}s (<=10s, single-threaded)",
    )

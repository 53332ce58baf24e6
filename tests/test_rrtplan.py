import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lowdisc import rrtplan as rp
from lowdisc import seqcore as sq


def open_env(start, goal):
    return rp.ChainEnv.open_env(start, goal)


def folded(heading=0.0):
    """A zig-zag configuration whose chain stays within ~0.33 of the anchor."""
    headings = np.array([heading, heading + 2.4, heading, heading + 2.4])
    rel = np.diff(headings, prepend=0.0)
    return rp.angles_to_config([rp._wrap_angle(a) for a in rel])


class TestForwardKinematics:
    def test_straight_chain_along_x(self):
        pts = rp.chain_forward_kinematics([0, 0, 0, 0], anchor=(0, 0))
        expected = np.array([[0, 0], [0.2, 0], [0.4, 0], [0.6, 0], [0.8, 0]])
        np.testing.assert_allclose(pts, expected, atol=1e-15)

    def test_first_joint_rotates_whole_chain(self):
        pts = rp.chain_forward_kinematics([np.pi / 2, 0, 0, 0], anchor=(0, 0))
        expected = np.array([[0, 0], [0, 0.2], [0, 0.4], [0, 0.6], [0, 0.8]])
        np.testing.assert_allclose(pts, expected, atol=1e-15)

    def test_segment_lengths(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.uniform(-np.pi, np.pi, 4)
            pts = rp.chain_forward_kinematics(q)
            seg = np.diff(pts, axis=0)
            np.testing.assert_allclose(
                np.linalg.norm(seg, axis=1), rp.LINK_LENGTH, atol=1e-12
            )

    def test_config_angle_mapping(self):
        np.testing.assert_allclose(rp.config_to_angles([0.5] * 4), 0.0, atol=1e-15)
        np.testing.assert_allclose(rp.config_to_angles([0.0]), -np.pi)
        np.testing.assert_allclose(rp.config_to_angles([1.0]), np.pi)
        q = np.array([0.1, 0.4, 0.9, 0.5])
        np.testing.assert_allclose(
            rp.angles_to_config(rp.config_to_angles(q)), q, atol=1e-14
        )


class TestChainCollision:
    def test_open_env_is_free(self):
        env = open_env(folded(0.0), folded(1.0))
        assert not rp.chain_collision(env, env.start)

    def test_leaving_workspace_collides(self):
        # anchor near the box edge, chain stretched outward
        env = rp.ChainEnv.open_env([0.5] * 4, [0.6] * 4, anchor=(0.95, 0.5))
        straight_out = rp.angles_to_config([0.0, 0.0, 0.0, 0.0])  # along +x
        assert rp.chain_collision(env, straight_out)

    def test_tunnel_start_and_goal_are_free(self):
        for seed in range(25):
            env = rp.ChainEnv.tunnel_env(0.48, seed=seed)
            assert not rp.chain_collision(env, env.start)
            assert not rp.chain_collision(env, env.goal)

    def test_chain_through_wall_collides(self):
        # fixture: chain pointing radially into the walled half-plane
        # crosses both the inner and outer wall bands
        env = rp.ChainEnv.tunnel_env(0.48, seed=3)
        mid_span = env.phi0 + np.pi / 2
        rel = np.diff(np.array([mid_span, mid_span, mid_span, mid_span]), prepend=0.0)
        q = rp.angles_to_config([rp._wrap_angle(a) for a in rel])
        assert rp.chain_collision(env, q)

    def test_widening_passage_only_frees(self):
        # free space is nested: anything free at width w stays free at w' > w
        rng = np.random.default_rng(7)
        narrow = rp.ChainEnv.tunnel_env(0.40, seed=11)
        wide = rp.ChainEnv.tunnel_env(0.64, seed=11)
        assert narrow.phi0 == wide.phi0 and narrow.anchor == wide.anchor
        configs = rng.uniform(0, 1, (300, 4))
        for q in configs:
            if not rp.chain_collision(narrow, q):
                assert not rp.chain_collision(wide, q)


class TestRrtPlan:
    def test_goal_adjacent_straight_line_bound(self):
        start = folded(0.3)
        goal = start + np.array([0.12, 0.0, 0.0, 0.0])
        env = open_env(start, goal)
        cfg = rp.RrtConfig(max_iters=100, step=0.05, goal_tol=1e-9)
        samples = np.tile(goal, (100, 1))  # sample source aimed at the goal
        res = rp.rrt_plan(env, cfg, samples)
        assert res.success
        bound = math.ceil(np.linalg.norm(goal - start) / cfg.step) + 1
        assert res.iterations <= bound

    def test_goal_region_everything(self):
        env = open_env(folded(0.0), folded(0.0))
        cfg = rp.RrtConfig(max_iters=10, step=0.05, goal_tol=10.0)
        samples = sq.generate(sq.SequenceSpec("sobol", 4), 10)
        res = rp.rrt_plan(env, cfg, samples)
        assert res.success and res.iterations == 1

    def test_deterministic(self):
        env = rp.ChainEnv.tunnel_env(0.52, seed=5)
        cfg = rp.RrtConfig(max_iters=3000, step=0.05, goal_tol=0.05)
        samples = sq.generate(sq.SequenceSpec("halton", 4), 3000)
        a = rp.rrt_plan(env, cfg, samples)
        b = rp.rrt_plan(env, cfg, samples)
        assert a.success == b.success
        np.testing.assert_array_equal(a.nodes, b.nodes)
        np.testing.assert_array_equal(a.parents, b.parents)

    def test_start_in_collision_raises(self):
        env = rp.ChainEnv.open_env([0.5] * 4, [0.6] * 4, anchor=(0.99, 0.5))
        bad_start = rp.angles_to_config([0.0, 0.0, 0.0, 0.0])
        env = rp.ChainEnv.open_env(bad_start, [0.6] * 4, anchor=(0.99, 0.5))
        cfg = rp.RrtConfig(max_iters=10)
        with pytest.raises(ValueError, match="collision"):
            rp.rrt_plan(env, cfg, np.full((10, 4), 0.5))

    def test_exhausted_samples_fail(self):
        env = open_env(folded(0.0), folded(3.0))
        cfg = rp.RrtConfig(max_iters=1000, step=0.01, goal_tol=1e-6)
        samples = np.tile(folded(1.5), (5, 1))
        res = rp.rrt_plan(env, cfg, samples)
        assert not res.success and res.path is None
        assert res.iterations == 5

    def test_tree_invariants(self):
        env = rp.ChainEnv.tunnel_env(0.56, seed=2)
        cfg = rp.RrtConfig(max_iters=2000, step=0.05, goal_tol=0.05)
        samples = sq.generate(sq.SequenceSpec("sobol", 4), 2000)
        res = rp.rrt_plan(env, cfg, samples)
        assert res.n_nodes <= cfg.max_iters + 1
        for i in range(1, res.n_nodes):
            assert res.parents[i] < i
        # every node reachable from the root
        for i in range(res.n_nodes):
            j, hops = i, 0
            while res.parents[j] >= 0:
                j = res.parents[j]
                hops += 1
                assert hops <= res.n_nodes
            assert j == 0

    def test_path_validity(self):
        env = rp.ChainEnv.tunnel_env(0.60, seed=8)
        cfg = rp.RrtConfig(max_iters=8000, step=0.05, goal_tol=0.05)
        samples = sq.generate(sq.SequenceSpec("sobol", 4), 8000)
        res = rp.rrt_plan(env, cfg, samples)
        if not res.success:
            pytest.skip("this sweep cell did not find a path")
        assert np.array_equal(res.path[0], np.asarray(env.start))
        steps = np.linalg.norm(np.diff(res.path, axis=0), axis=1)
        assert (steps <= cfg.step + 1e-12).all()
        for q in res.path:
            assert not rp.chain_collision(env, q)
        assert np.linalg.norm(res.path[-1] - np.asarray(env.goal)) <= cfg.goal_tol

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_raise(self, bad):
        env = rp.ChainEnv.tunnel_env(0.52, 3)
        samples = sq.generate(sq.SequenceSpec("sobol", 4), 500)
        samples[40, 2] = bad
        samples[300] = bad
        with pytest.raises(ValueError, match="samples row 40 "):
            rp.rrt_plan(env, rp.RrtConfig(max_iters=500), samples)

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_goal_at_the_tolerance(self, ulps):
        # one sample lands exactly at distance goal_tol from the goal, or an
        # ulp of goal_tol inside or outside it
        start = folded(0.3)
        goal = start + np.array([0.01, 0.02, 0.0, 0.0])
        near = start + np.array([0.013, 0.017, 0.002, 0.001])
        tol = np.linalg.norm(near - goal)
        tol = np.nextafter(tol, tol + ulps * np.inf) if ulps else tol
        rng = np.random.default_rng(1)
        samples = start + rng.uniform(0.2, 0.4, (80, 4)) * rng.choice([-1, 1], (80, 4))
        samples[37] = near
        res = plan_both(open_env(start, goal), rp.RrtConfig(max_iters=80, step=0.05, goal_tol=tol), samples)
        assert res.success == (ulps >= 0)

    def test_tree_dump(self, tmp_path):
        env = open_env(folded(0.0), folded(0.5))
        cfg = rp.RrtConfig(max_iters=50, step=0.05, goal_tol=0.02)
        samples = sq.generate(sq.SequenceSpec("halton", 4), 50)
        res = rp.rrt_plan(env, cfg, samples)
        path = tmp_path / "tree.csv"
        rp.write_tree_csv(res, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "index,parent,c1,c2,c3,c4"
        assert len(lines) == 1 + res.n_nodes
        assert lines[1].startswith("0,-1,")


class TestSuccessRate:
    def test_obstacle_free_family_is_certain(self):
        # when nothing can collide, every source succeeds
        start = folded(0.0)
        goal = folded(0.9)

        def factory(width, seed):
            return rp.ChainEnv.open_env(start, goal)

        cfg = rp.RrtConfig(max_iters=2000, step=0.05, goal_tol=0.15)
        sources = [
            sq.SequenceSpec("sobol", 4),
            sq.SequenceSpec("halton", 4),
            sq.SequenceSpec("uniform", 4, seed=1),
        ]
        rows = rp.success_rate(
            widths=[0.4],
            reps=4,
            sources=sources,
            cfg=cfg,
            seed=0,
            sequence_length=2000,
            env_factory=factory,
        )
        assert all(pct == 100.0 for _, _, pct in rows)

    def test_rejects_zero_reps(self):
        with pytest.raises(ValueError, match="reps"):
            rp.success_rate([0.4], 0, [sq.SequenceSpec("sobol", 4)], rp.RrtConfig())

    def test_table_shape_and_determinism(self):
        cfg = rp.RrtConfig(max_iters=400, step=0.05, goal_tol=0.05)
        sources = [sq.SequenceSpec("sobol", 4), sq.SequenceSpec("uniform", 4, seed=3)]
        kwargs = dict(
            widths=[0.44, 0.64],
            reps=3,
            sources=sources,
            cfg=cfg,
            seed=1,
            sequence_length=400,
        )
        rows = rp.success_rate(**kwargs)
        assert len(rows) == 4
        labels = {r[0] for r in rows}
        assert labels == {"sobol", "uniform"}
        assert rows == rp.success_rate(**kwargs)

    def test_threads_match_serial(self):
        cfg = rp.RrtConfig(max_iters=300, step=0.05, goal_tol=0.05)
        sources = [sq.SequenceSpec("halton", 4)]
        kwargs = dict(
            widths=[0.48],
            reps=4,
            sources=sources,
            cfg=cfg,
            seed=2,
            sequence_length=300,
        )
        serial = rp.success_rate(**kwargs, threads=1)
        threaded = rp.success_rate(**kwargs, threads=4)
        assert serial == threaded


# ---------------------------------------------------------------------------
# The one-sample-at-a-time planner and the single-configuration collision
# test the batched planner replaced.  They are the oracle: the batched
# planner must grow the same tree, and the batched collision test must give
# each row the answer of the single one.

def reference_forward_kinematics(angles, anchor=(0.5, 0.5), link_length=rp.LINK_LENGTH):
    angles = np.asarray(angles, dtype=np.float64)
    heading = np.cumsum(angles)
    steps = link_length * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    pts = np.empty((angles.size + 1, 2))
    pts[0] = anchor
    pts[1:] = anchor + np.cumsum(steps, axis=0)
    return pts


def reference_link_points(env, q, collision_samples=16):
    joints = reference_forward_kinematics(
        rp.config_to_angles(q), anchor=env.anchor, link_length=env.link_length
    )
    frac = np.linspace(0.0, 1.0, collision_samples)[:, None, None]
    pts = joints[:-1][None, :, :] * (1.0 - frac) + joints[1:][None, :, :] * frac
    return pts.reshape(-1, 2)


def reference_chain_collision(env, q, collision_samples=16):
    pts = reference_link_points(env, q, collision_samples)

    (x_lo, x_hi), (y_lo, y_hi) = env.bounds
    outside = (
        (pts[:, 0] < x_lo)
        | (pts[:, 0] > x_hi)
        | (pts[:, 1] < y_lo)
        | (pts[:, 1] > y_hi)
    )
    if outside.any():
        return True
    if not env.has_tunnel:
        return False

    rel = pts - np.asarray(env.anchor)
    radius = np.hypot(rel[:, 0], rel[:, 1])
    angle = np.arctan2(rel[:, 1], rel[:, 0])
    in_span = (angle - env.phi0) % (2.0 * np.pi) <= np.pi
    inner = (radius >= rp.INNER_WALL_FLOOR) & (radius <= env.r_inner)
    outer = (radius >= env.r_outer) & (radius <= rp.OUTER_WALL_CEIL)
    if (in_span & (inner | outer)).any():
        return True
    cap_dir = np.array([np.cos(env.phi0), np.sin(env.phi0)])
    along = rel @ cap_dir
    perp = rel @ np.array([-cap_dir[1], cap_dir[0]])
    near_cap = (
        (np.abs(perp) <= rp.CAP_HALF_WIDTH)
        & (along >= rp.INNER_WALL_FLOOR)
        & (along <= rp.OUTER_WALL_CEIL)
    )
    return bool(near_cap.any())


def reference_rrt_plan(env, cfg, samples):
    samples = np.asarray(samples, dtype=np.float64)
    dim = len(env.start)
    start = np.asarray(env.start, dtype=np.float64)
    goal = np.asarray(env.goal, dtype=np.float64)
    budget = min(cfg.max_iters, len(samples))
    nodes = np.empty((budget + 1, dim))
    parents = np.full(budget + 1, -1, dtype=np.int64)
    nodes[0] = start
    n = 1
    for it in range(budget):
        x_rand = samples[it]
        d2 = ((nodes[:n] - x_rand) ** 2).sum(axis=1)
        nearest = int(np.argmin(d2))
        dist = float(np.sqrt(d2[nearest]))
        if dist <= cfg.step:
            x_new = x_rand
        else:
            x_new = nodes[nearest] + cfg.step * (x_rand - nodes[nearest]) / dist
        if reference_chain_collision(env, x_new, cfg.collision_samples):
            continue
        nodes[n] = x_new
        parents[n] = nearest
        n += 1
        if np.linalg.norm(x_new - goal) <= cfg.goal_tol:
            path = [n - 1]
            while parents[path[-1]] >= 0:
                path.append(int(parents[path[-1]]))
            return rp.RrtResult(
                success=True,
                path=nodes[path[::-1]].copy(),
                nodes=nodes[:n].copy(),
                parents=parents[:n].copy(),
                iterations=it + 1,
            )
    return rp.RrtResult(
        success=False,
        path=None,
        nodes=nodes[:n].copy(),
        parents=parents[:n].copy(),
        iterations=budget,
    )


def assert_same_tree(got, want):
    assert (got.success, got.iterations) == (want.success, want.iterations)
    np.testing.assert_array_equal(got.nodes, want.nodes)
    np.testing.assert_array_equal(got.parents, want.parents)
    if want.path is None:
        assert got.path is None
    else:
        np.testing.assert_array_equal(got.path, want.path)


def plan_both(env, cfg, samples):
    got = rp.rrt_plan(env, cfg, samples)
    assert_same_tree(got, reference_rrt_plan(env, cfg, samples))
    return got


def plan_workload_cells():
    """The 8 cells of ``lowdisc plan --widths 0.52,0.64 --reps 2 --sources
    sobol,uniform --k 6000 --seed 11``, derived as the CLI derives them."""
    seed = 11
    for source in ("sobol", "uniform"):
        for width in (0.52, 0.64):
            for rep in range(2):
                env_seed = sq.split_seed(sq.split_seed(seed, "plan-envs"), "rrt-env", rep)
                spec = sq.SequenceSpec("sobol", 4)
                if source == "uniform":
                    src_seed = sq.split_seed(seed, "plan-source", source)
                    spec = sq.SequenceSpec(source, 4, seed=sq.split_seed(src_seed, "rrt-sequence", rep))
                yield rp.ChainEnv.tunnel_env(width, env_seed), sq.generate(spec, 6000)


class TestBatchedPlannerMatchesReference:
    def test_plan_workload_cells(self):
        cfg = rp.RrtConfig(max_iters=6000, step=0.05, goal_tol=0.08)
        results = [plan_both(env, cfg, samples) for env, samples in plan_workload_cells()]
        # the sweep mixes early successes with exhausted budgets
        assert {r.success for r in results} == {True, False}

    @pytest.mark.parametrize("width", [0.40, 0.48, 0.56, 0.64])
    @pytest.mark.parametrize("source", [sq.SequenceSpec("sobol", 4), sq.SequenceSpec("halton", 4),
                                        sq.SequenceSpec("uniform", 4, seed=5)],
                             ids=["sobol", "halton", "uniform"])
    def test_tunnel_widths_and_sources(self, width, source):
        cfg = rp.RrtConfig(max_iters=1500, step=0.05, goal_tol=0.08)
        plan_both(rp.ChainEnv.tunnel_env(width, seed=4), cfg, sq.generate(source, 1500))

    @pytest.mark.parametrize("budget", [1, rp._BATCH - 1, rp._BATCH, rp._BATCH + 1, 2 * rp._BATCH + 3])
    def test_budgets_around_the_batch(self, budget):
        env = rp.ChainEnv.tunnel_env(0.56, seed=2)
        samples = sq.generate(sq.SequenceSpec("halton", 4), 400)
        res = plan_both(env, rp.RrtConfig(max_iters=budget, step=0.05, goal_tol=0.08), samples)
        assert res.iterations == budget
        # the same budget given as the sample count instead of max_iters
        plan_both(env, rp.RrtConfig(max_iters=400, step=0.05, goal_tol=0.08), samples[:budget])

    @pytest.mark.parametrize("goal_at", [0, rp._BATCH - 1, rp._BATCH, 2 * rp._BATCH + 3])
    def test_stops_inside_a_batch(self, goal_at):
        # the sample at index goal_at is the goal itself, within a step of the start
        start = folded(0.3)
        goal = start + np.array([0.01, 0.0, 0.0, 0.0])
        env = open_env(start, goal)
        rng = np.random.default_rng(goal_at)
        samples = start + rng.uniform(0.3, 0.5, (200, 4)) * rng.choice([-1, 1], (200, 4))
        samples[goal_at] = goal
        res = plan_both(env, rp.RrtConfig(max_iters=200, step=0.05, goal_tol=1e-9), samples)
        assert res.success and res.iterations <= goal_at + 1

    @pytest.mark.parametrize("env_seed", [0, 7])
    def test_repeated_samples_break_ties_like_argmin(self, env_seed):
        # samples drawn with repetition from a small pool near the start: the
        # tree gets coincident nodes, so later samples meet exact distance ties
        env = rp.ChainEnv.tunnel_env(0.64, seed=env_seed)
        rng = np.random.default_rng(env_seed)
        start = np.asarray(env.start)
        pool = np.clip(start + rng.uniform(-0.06, 0.06, (12, 4)), 0.0, 1.0)
        samples = pool[rng.integers(0, len(pool), 600)]
        res = plan_both(env, rp.RrtConfig(max_iters=600, step=0.05, goal_tol=1e-9), samples)
        assert len(np.unique(res.nodes, axis=0)) < res.n_nodes

    def test_open_environment(self):
        env = open_env(folded(0.0), folded(0.9))
        cfg = rp.RrtConfig(max_iters=3000, step=0.05, goal_tol=0.05)
        plan_both(env, cfg, sq.generate(sq.SequenceSpec("sobol", 4), 3000))
        plan_both(env, cfg, sq.generate(sq.SequenceSpec("uniform", 4, seed=2), 3000))


class TestNearestSearchSum:
    def test_column_sum_matches_row_sum(self):
        # the planner's nearest search must rank nodes by exactly the values
        # ((nodes - x) ** 2).sum(axis=1) gives, so it sums columns left to right
        rng = np.random.default_rng(0)
        nodes = rng.uniform(0.0, 1.0, (200_000, 4))
        nodes[::7] *= rng.uniform(1e-6, 1e3, (len(nodes[::7]), 1))
        x = rng.uniform(0.0, 1.0, (3, 4))
        got = rp._sq_dist(np.ascontiguousarray(nodes.T), x)
        for row, x_i in zip(got, x):
            np.testing.assert_array_equal(row, ((nodes - x_i) ** 2).sum(axis=1))


def node_cols(nodes):
    """The planner's node buffer: coordinates by column, squared norms last."""
    cols = np.empty((nodes.shape[1] + 1, len(nodes)))
    cols[:-1] = nodes.T
    cols[-1] = np.einsum("ij,ij->j", cols[:-1], cols[:-1])
    return cols


def slack(x, nodes):
    """The rounding slack of ``rrtplan._nearest`` for the rows of ``x``."""
    s = np.linalg.norm(x, axis=1) + np.sqrt((nodes**2).sum(axis=1).max())
    return 6 * (nodes.shape[1] + 1) * np.finfo(float).eps * s * s


def near_ties(nodes, a, b, gaps):
    """Samples on the bisector of the close nodes ``a`` and ``b``, each moved
    so that ``|x - a|^2 - |x - b|^2`` is one of ``gaps`` times the slack."""
    h = nodes[b] - nodes[a]
    mid = nodes[a] + h / 2
    return mid + (np.asarray(gaps) * slack(mid[None], nodes)[0] / (2 * h @ h))[:, None] * h


class TestNearestFilter:
    @given(seed=st.integers(0, 2**32 - 1),
           n=st.sampled_from([1, 2, 7, 300, rp._COL_BLOCK - 1, rp._COL_BLOCK, rp._COL_BLOCK + 1, 2500]),
           scaled=st.booleans(), dup=st.booleans(),
           pair=st.tuples(st.integers(0, 2499), st.integers(0, 2499)),
           exponent=st.floats(-4.0, 0.6), ulps=st.integers(-6, 6))
    @settings(max_examples=80, deadline=None)
    def test_matches_argmin_of_sq_dist(self, seed, n, scaled, dup, pair, exponent, ulps):
        rng = np.random.default_rng(seed)
        nodes = rng.uniform(0.0, 1.0, (n, 4))
        if scaled:  # some nodes far out, as in TestNearestSearchSum
            nodes[::7] *= rng.uniform(1e-6, 1e3, (len(nodes[::7]), 1))
        if dup:  # exact duplicates, some in another column block
            nodes[rng.integers(0, n, n // 3)] = nodes[rng.integers(0, n, n // 3)]
        x = rng.uniform(0.0, 1.0, (rp._BATCH, 4))
        x[:4] = nodes[rng.integers(0, n, 4)]  # samples on nodes
        a, b = pair[0] % n, pair[1] % n
        if a != b:
            # near-ties of nodes a and b from 10^exponent times the slack
            # down by halves, either side, each nudged a few ulp
            nodes[b] = nodes[a] + rng.uniform(-1e-3, 1e-3, 4)
            gaps = 10.0**exponent * 0.5 ** np.arange(8) * np.tile([1, -1], 4)
            x[4:12] = near_ties(nodes, a, b, gaps)
            if ulps:
                x[4:12] = np.nextafter(x[4:12], np.sign(ulps) * np.inf)
        got_j, got_d2 = rp._nearest(node_cols(nodes), x)
        d2 = rp._sq_dist(nodes.T, x)
        want_j = d2.argmin(axis=1)
        np.testing.assert_array_equal(got_j, want_j)
        np.testing.assert_array_equal(got_d2, d2[np.arange(len(x)), want_j])

    @staticmethod
    def misranked_near_ties():
        """Rows of 100 trees whose ``_nearest`` index differs from the argmin
        of ``_sq_dist``, each tree's samples a near-tie of two close nodes at
        1e-4 to 2 times the slack, either side."""
        rng = np.random.default_rng(0)
        gaps = np.geomspace(1e-4, 2.0, 16)
        gaps = np.concatenate([-gaps, gaps])
        wrong = 0
        for _ in range(100):
            nodes = rng.uniform(0.0, 1.0, (50, 4))
            nodes[1] = nodes[0] + rng.uniform(-1e-3, 1e-3, 4)
            x = near_ties(nodes, 0, 1, gaps)
            d2 = rp._sq_dist(nodes.T, x)
            wrong += int((rp._nearest(node_cols(nodes), x)[0] != d2.argmin(axis=1)).sum())
        return wrong

    def test_near_ties_straddle_the_slack(self):
        assert self.misranked_near_ties() == 0

    def test_product_alone_misranks_near_ties(self, monkeypatch):
        # with no slack the filter trusts the product, which misranks some
        # of the same near-ties: the slack is what keeps the search exact
        monkeypatch.setattr(rp, "_EPS", 0.0)
        monkeypatch.setattr(rp, "_TINY", 0.0)
        assert self.misranked_near_ties() > 0

    def test_ties_take_the_first_node(self):
        nodes = np.tile([0.2, 0.4, 0.6, 0.8], (rp._COL_BLOCK + 5, 1))
        x = np.array([[0.3, 0.3, 0.3, 0.3], [0.2, 0.4, 0.6, 0.8]])
        j, d2 = rp._nearest(node_cols(nodes), x)
        assert j.tolist() == [0, 0]
        assert d2.tolist() == [rp._sq_dist(nodes[:1].T, x)[0, 0], 0.0]


CONFIG = st.floats(0.0, 1.0, allow_nan=False)
CONFIGS = st.lists(st.tuples(CONFIG, CONFIG, CONFIG, CONFIG), min_size=1, max_size=40)


class TestChainCollisionMany:
    @given(qs=CONFIGS, width=st.sampled_from([0.40, 0.52, 0.64]), seed=st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_rows(self, qs, width, seed):
        env = rp.ChainEnv.tunnel_env(width, seed)
        got = rp.chain_collision_many(env, np.array(qs))
        assert got.tolist() == [reference_chain_collision(env, q) for q in qs]
        assert [rp.chain_collision(env, q) for q in qs] == got.tolist()

    @given(qs=CONFIGS, which=st.integers(0, 3), tunnel=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_points_on_the_box_bounds(self, qs, which, tunnel):
        # each box side passes exactly through a sampled point of one row, so
        # that row sits on the bound; the strict comparisons keep it inside
        base = rp.ChainEnv.tunnel_env(0.52, 3) if tunnel else open_env(folded(0.0), folded(1.0))
        pts = reference_link_points(base, qs[which % len(qs)])
        env = replace(base, bounds=((pts[:, 0].min(), pts[:, 0].max()),
                                    (pts[:, 1].min(), pts[:, 1].max())))
        got = rp.chain_collision_many(env, np.array(qs))
        assert got.tolist() == [reference_chain_collision(env, q) for q in qs]

    def test_uniform_configurations_every_batch_size(self):
        rng = np.random.default_rng(1)
        qs = rng.uniform(0.0, 1.0, (2000, 4))
        for seed, width in [(0, 0.40), (5, 0.52), (9, 0.64)]:
            env = rp.ChainEnv.tunnel_env(width, seed)
            want = [reference_chain_collision(env, q) for q in qs]
            for b in (1, 7, rp._BATCH, len(qs)):
                got = np.concatenate([rp.chain_collision_many(env, qs[i:i + b])
                                      for i in range(0, len(qs), b)])
                assert got.tolist() == want

    def test_batched_kinematics_match_rows(self):
        rng = np.random.default_rng(2)
        angles = rng.uniform(-np.pi, np.pi, (3, 5, 4))
        got = rp.chain_forward_kinematics(angles, anchor=(0.4, 0.6))
        assert got.shape == (3, 5, 5, 2)
        for idx in np.ndindex(3, 5):
            np.testing.assert_array_equal(got[idx], reference_forward_kinematics(angles[idx], anchor=(0.4, 0.6)))

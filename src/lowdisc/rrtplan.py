"""Rapidly-exploring random tree planning with a pluggable sample source,
a planar four-joint kinematic chain threading a semi-circular tunnel, and a
batch success-rate harness.

Configurations live in the unit cube [0,1]^4 and map affinely onto joint
angles in [-pi, pi]^4.  The planner consumes a precomputed array of sample
configurations in order, so a fixed environment plus a fixed sequence gives
a fixed tree.  It takes them in batches, with one collision call per batch,
and grows the same tree as a loop over one sample at a time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import seqcore
from .seqcore import SequenceSpec

N_JOINTS = 4
LINK_LENGTH = 0.2
TUNNEL_INNER_RADIUS = 0.35
TUNNEL_GAP_SCALE = 0.2
# walls are solid radial bands; their far extents are fixed so that widening
# the passage only removes obstacle material (free space grows with width)
INNER_WALL_FLOOR = 0.30
OUTER_WALL_CEIL = TUNNEL_INNER_RADIUS + TUNNEL_GAP_SCALE * 0.64 + 0.02
CAP_HALF_WIDTH = 0.01


@dataclass(frozen=True)
class RrtConfig:
    """Planner knobs: iteration budget, extension step, goal tolerance, and
    the per-link collision sampling resolution.

    The default tolerance is sized so that threading the passage, not
    finding the goal ball, is the binding difficulty at the default budget.
    """

    max_iters: int = 10_000
    step: float = 0.05
    goal_tol: float = 0.08
    collision_samples: int = 16

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step <= 0:
            raise ValueError("step must be positive")
        if self.goal_tol < 0:
            raise ValueError("goal_tol must be nonnegative")
        if self.collision_samples < 2:
            raise ValueError("collision_samples must be >= 2")


def config_to_angles(q) -> np.ndarray:
    """Affine map from the unit cube to joint angles in [-pi, pi]."""
    return (2.0 * np.asarray(q, dtype=np.float64) - 1.0) * np.pi


def angles_to_config(angles) -> np.ndarray:
    return (np.asarray(angles, dtype=np.float64) / np.pi + 1.0) / 2.0


def chain_forward_kinematics(
    angles, anchor=(0.5, 0.5), link_length: float = LINK_LENGTH
) -> np.ndarray:
    """Joint positions of the planar chain: 5 points from base to tip.

    Angles are relative (each joint rotates the remaining links), so the
    heading of link k is the cumulative sum of the first k angles.  Leading
    axes are batch axes: ``(..., J)`` angles give ``(..., J + 1, 2)`` points.
    """
    angles = np.asarray(angles, dtype=np.float64)
    heading = np.cumsum(angles, axis=-1)
    steps = link_length * np.stack([np.cos(heading), np.sin(heading)], axis=-1)
    pts = np.empty(angles.shape[:-1] + (angles.shape[-1] + 1, 2))
    pts[..., 0, :] = anchor
    pts[..., 1:, :] = anchor + np.cumsum(steps, axis=-2)
    return pts


def _wrap_angle(a: float) -> float:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


@dataclass(frozen=True)
class ChainEnv:
    """The chain's workspace: a unit box, an anchored 4-link arm, and an
    optional semi-circular tunnel made of two solid concentric wall bands
    plus a radial cap closing one end.

    The corridor is the annular gap ``r_inner < r < r_outer`` around the
    anchor; the inner wall occupies [INNER_WALL_FLOOR, r_inner], the outer
    wall [r_outer, OUTER_WALL_CEIL].  Walls span half a turn starting at
    ``phi0``, leaving the mouth at ``phi0 + pi`` open.  ``start`` threads
    the arm through the mouth into the corridor; ``goal`` folds it up in
    the open half-plane.
    """

    start: tuple[float, ...]
    goal: tuple[float, ...]
    anchor: tuple[float, float] = (0.5, 0.5)
    link_length: float = LINK_LENGTH
    n_joints: int = N_JOINTS
    r_inner: float | None = None
    r_outer: float | None = None
    phi0: float = 0.0
    bounds: tuple[tuple[float, float], tuple[float, float]] = ((0.0, 1.0), (0.0, 1.0))

    @property
    def has_tunnel(self) -> bool:
        return self.r_inner is not None

    @classmethod
    def open_env(cls, start, goal, anchor=(0.5, 0.5)) -> "ChainEnv":
        """Obstacle-free workspace (only the bounding box constrains)."""
        return cls(start=tuple(start), goal=tuple(goal), anchor=tuple(anchor))

    @classmethod
    def tunnel_env(cls, passage_width: float, seed: int) -> "ChainEnv":
        """Randomized tunnel instance at the given passage width.

        The rotation of the tunnel and a small jitter of its center are
        drawn from the seed; the start configuration is built along the
        corridor's mid-circle and is collision-free by construction.
        """
        if passage_width <= 0:
            raise ValueError("passage_width must be positive")
        rng = np.random.default_rng(seed)
        phi0 = float(rng.uniform(0.0, 2.0 * np.pi))
        anchor = tuple(0.5 + rng.uniform(-0.015, 0.015, size=2))
        r_inner = TUNNEL_INNER_RADIUS
        r_outer = TUNNEL_INNER_RADIUS + TUNNEL_GAP_SCALE * passage_width

        # start: two radial links reaching the mid-circle just outside the
        # mouth, then two chord links wrapping into the corridor
        link = LINK_LENGTH
        rho = 2.0 * link
        delta = 2.0 * np.arcsin(link / (2.0 * rho))
        entry = phi0 + np.pi + 0.35
        headings = np.array(
            [
                entry,
                entry,
                entry - delta / 2.0 - np.pi / 2.0,
                entry - 3.0 * delta / 2.0 - np.pi / 2.0,
            ]
        )
        rel = np.diff(headings, prepend=0.0)
        start = angles_to_config([_wrap_angle(a) for a in rel])

        # goal: a zig-zag fold well inside the open half-plane, radius < r_inner
        fold = phi0 + np.pi + 2.2
        headings_goal = np.array([fold, fold + 2.4, fold, fold + 2.4])
        rel_goal = np.diff(headings_goal, prepend=0.0)
        goal = angles_to_config([_wrap_angle(a) for a in rel_goal])

        env = cls(
            start=tuple(start),
            goal=tuple(goal),
            anchor=anchor,
            r_inner=r_inner,
            r_outer=r_outer,
            phi0=phi0,
        )
        if chain_collision(env, start):
            raise RuntimeError("constructed start configuration is in collision")
        if chain_collision(env, goal):
            raise RuntimeError("constructed goal configuration is in collision")
        return env


@lru_cache(maxsize=None)
def _link_fractions(collision_samples: int) -> np.ndarray:
    """Where along each link the collision test samples, as ``(S, 1, 1)``."""
    frac = np.linspace(0.0, 1.0, collision_samples)[:, None, None]
    frac.flags.writeable = False
    return frac


def chain_collision(env: ChainEnv, q, collision_samples: int = 16) -> bool:
    """True when any sampled point of any link leaves the workspace box or
    touches a tunnel wall (arcs and end cap have finite half-width)."""
    qs = np.asarray(q, dtype=np.float64)[None]
    return bool(chain_collision_many(env, qs, collision_samples)[0])


def chain_collision_many(env: ChainEnv, qs, collision_samples: int = 16) -> np.ndarray:
    """``chain_collision`` of each row of a ``(B, J)`` array: B booleans.

    Every row goes through the same elementwise operations in the same
    order as a single configuration, so a row's answer does not depend on
    the batch it is tested in.
    """
    joints = chain_forward_kinematics(
        config_to_angles(qs), anchor=env.anchor, link_length=env.link_length
    )
    frac = _link_fractions(collision_samples)
    # (B, sample, link, xy) -> (B, point, xy)
    pts = joints[:, None, :-1, :] * (1.0 - frac) + joints[:, None, 1:, :] * frac
    pts = pts.reshape(len(joints), -1, 2)

    (x_lo, x_hi), (y_lo, y_hi) = env.bounds
    hit = (
        (pts[..., 0] < x_lo)
        | (pts[..., 0] > x_hi)
        | (pts[..., 1] < y_lo)
        | (pts[..., 1] > y_hi)
    ).any(axis=1)
    if not env.has_tunnel:
        return hit

    rel = pts - np.asarray(env.anchor)
    radius = np.hypot(rel[..., 0], rel[..., 1])
    angle = np.arctan2(rel[..., 1], rel[..., 0])
    in_span = (angle - env.phi0) % (2.0 * np.pi) <= np.pi
    inner = (radius >= INNER_WALL_FLOOR) & (radius <= env.r_inner)
    outer = (radius >= env.r_outer) & (radius <= OUTER_WALL_CEIL)
    # radial cap closing the phi0 end of the corridor
    cap_dir = np.array([np.cos(env.phi0), np.sin(env.phi0)])
    along = rel @ cap_dir
    perp = rel @ np.array([-cap_dir[1], cap_dir[0]])
    near_cap = (
        (np.abs(perp) <= CAP_HALF_WIDTH)
        & (along >= INNER_WALL_FLOOR)
        & (along <= OUTER_WALL_CEIL)
    )
    return hit | (in_span & (inner | outer) | near_cap).any(axis=1)


@dataclass
class RrtResult:
    """Planner outcome: the path when one was found, plus the full tree."""

    success: bool
    path: np.ndarray | None
    nodes: np.ndarray
    parents: np.ndarray
    iterations: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)


# samples per speculative batch of ``rrt_plan``
_BATCH = 32
# nodes per column block of the nearest-node search: a batch's block of
# products is 128 KB (blocks of 1024 grew the peak memory twice as much)
_COL_BLOCK = 512
_EPS = np.finfo(np.float64).eps
# covers the absolute error of products that underflow, at most 2^-1075 each
_TINY = np.finfo(np.float64).tiny


def _sq_dist(cols: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(B, n)`` squared distances from each row of ``x`` to each node of
    ``cols``, the ``(dim, n)`` node coordinates by column.  The coordinate
    squares are summed left to right, as ``((nodes - x_i) ** 2).sum(axis=1)``
    sums a node's four.  Given ``(dim, B, 1)`` columns, one node per row, it
    gives each row's ``(B, 1)`` distance to its own node."""
    d2 = np.square(cols[0] - x[:, :1])
    for k in range(1, len(cols)):
        t = cols[k] - x[:, k : k + 1]
        d2 += np.square(t, out=t)
    return d2


def _scan(cols: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact search: ``_sq_dist`` to every node of ``cols`` and the first
    of equals, as ``argmin`` picks it, searched in column blocks."""
    rows = np.arange(len(x))
    nearest = np.zeros(len(x), dtype=np.int64)
    best = np.full(len(x), np.inf)
    for lo in range(0, cols.shape[1], _COL_BLOCK):
        d2 = _sq_dist(cols[:, lo : lo + _COL_BLOCK], x)
        j = d2.argmin(axis=1)
        d2_j = d2[rows, j]
        closer = d2_j < best
        nearest[closer] = lo + j[closer]
        best[closer] = d2_j[closer]
    return nearest, best


def _nearest(cols: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index of each row's nearest node and its squared distance, both as
    :func:`_scan` finds them.  ``cols`` holds the ``(dim, n)`` node
    coordinates by column and each node's squared norm in an extra last row.

    A filter ranks the nodes by ``|c|^2 - 2 x.c``, one matrix product per
    column block, and keeps each row's best and runner-up.  When the
    runner-up trails by more than the rounding slack below, the best is the
    one node nearest by ``_sq_dist`` too, so only its distance is summed;
    the other rows (ties and near-ties) take the exact scan.

    The slack.  Let u = eps / 2, m = dim, g_k = k u / (1 - k u), and for a
    row x and any node c, d = |c - x|^2 and s = (|x| + max |c|)^2 >= d.
    ``_sq_dist`` rounds each difference, each square and m - 1 sums of
    nonnegative terms, so its D is within g_(m+2) d <= g_(m+2) s of d.  The
    stored norm is within g_m |c|^2 of |c|^2, and the product, a dot
    product of m + 1 terms in any order BLAS picks, fused or not, is within
    g_(m+1) (2 sum |x_k c_k| + |c|^2) of its exact value; so P is within
    g_(2m+1) s of d - |x|^2.  For two nodes j, w of one row this gives
    D_j - D_w >= P_j - P_w - 2 (g_(2m+1) + g_(m+2)) s, about
    P_j - P_w - 3 (m + 1) eps s.  The slack is twice that bound: the factor
    covers the second-order terms and the few roundings of s, of the
    runner-up's gap and of the slack itself, each relative and of order u,
    while ``_TINY`` covers underflow.  A gap above it means D_j > D_w for
    every other node j.  An overflow makes the slack inf and a NaN the
    gap, and both rows take the scan.
    """
    dim = len(cols) - 1
    b = len(x)
    rows = np.arange(b)
    lhs = np.column_stack((-2.0 * x, np.ones(b)))
    nearest = np.zeros(b, dtype=np.int64)
    best = np.full(b, np.inf)
    second = np.full(b, np.inf)
    for lo in range(0, cols.shape[1], _COL_BLOCK):
        p = lhs @ cols[:, lo : lo + _COL_BLOCK]
        j = p.argmin(axis=1)
        p_j = p[rows, j]
        p[rows, j] = np.inf
        closer = p_j < best
        second = np.where(closer, np.minimum(best, p.min(axis=1)), np.minimum(second, p_j))
        nearest[closer] = lo + j[closer]
        best[closer] = p_j[closer]
    s = np.sqrt(np.einsum("ij,ij->i", x, x)) + np.sqrt(cols[dim].max())
    sure = second - best > 6 * (dim + 1) * _EPS * s * s + _TINY
    d2 = _sq_dist(cols[:dim, nearest][:, :, None], x)[:, 0]
    if not sure.all():
        nearest[~sure], d2[~sure] = _scan(cols[:dim], x[~sure])
    return nearest, d2


def _steer(near: np.ndarray, x: np.ndarray, dist: np.ndarray, step: float) -> np.ndarray:
    """Rows of ``x``, each moved to ``step`` from its ``near`` row when it
    lies farther than that."""
    out = x.copy()
    far = dist > step
    out[far] = near[far] + step * (x[far] - near[far]) / dist[far, None]
    return out


def rrt_plan(env: ChainEnv, cfg: RrtConfig, samples: np.ndarray) -> RrtResult:
    """Grow a tree from the start toward samples consumed in order.

    Per iteration: take the next sample, find the nearest tree node in
    configuration space, step at most ``cfg.step`` toward the sample, keep
    the new node if collision-free, and stop as soon as a kept node lands
    within ``cfg.goal_tol`` of the goal.

    Samples are processed in batches of ``_BATCH`` with the tree that one
    sample at a time would grow.  A batch finds every sample's nearest node
    in the tree as it stood at the start of the batch and tests all new
    nodes in one ``chain_collision_many`` call.  A walk in sample order then
    keeps the nodes, and redoes the nearest node, step and collision test of
    any sample to which a node kept earlier in the batch is strictly closer
    (a tie goes to the older, lower-indexed node, as ``argmin`` does).  The
    goal test's norm runs only on the kept nodes that the batch's goal
    distances put within rounding of ``cfg.goal_tol``.  Every sample must
    be finite.
    """
    samples = np.asarray(samples, dtype=np.float64)
    dim = len(env.start)
    if samples.ndim != 2 or samples.shape[1] != dim:
        raise ValueError(f"samples must be (k, {dim})")
    bad = ~np.isfinite(samples).all(axis=1)
    if bad.any():
        raise ValueError(f"samples row {int(bad.argmax())} is not finite")
    start = np.asarray(env.start, dtype=np.float64)
    goal = np.asarray(env.goal, dtype=np.float64)
    if chain_collision(env, start, cfg.collision_samples):
        raise ValueError("start configuration is in collision")

    budget = min(cfg.max_iters, len(samples))
    nodes = np.empty((budget + 1, dim))
    # the nodes by coordinate and their squared norms, for _nearest
    cols = np.empty((dim + 1, budget + 1))
    parents = np.full(budget + 1, -1, dtype=np.int64)
    nodes[0] = cols[:dim, 0] = start
    cols[dim, 0] = start @ start
    # A row passes the goal test only if its _sq_dist to the goal is at most
    # this.  The test's norm and _sq_dist square the same differences, each
    # sums them within g_dim of the exact sum (see _nearest), and the norm's
    # sqrt rounds once more; so a passing row is within about (dim + 1) eps
    # of goal_tol^2.  Twice that, plus underflow, leaves the test to decide.
    goal_bound = cfg.goal_tol * cfg.goal_tol * (1.0 + 2 * (dim + 1) * _EPS) + _TINY
    n = 1
    for lo in range(0, budget, _BATCH):
        x_rand = samples[lo : min(lo + _BATCH, budget)]
        b, n0 = len(x_rand), n
        nearest, best = _nearest(cols[:, :n0], x_rand)
        x_new = _steer(nodes[nearest], x_rand, np.sqrt(best), cfg.step)
        hit = chain_collision_many(env, x_new, cfg.collision_samples)
        near_goal = _sq_dist(goal[:, None, None], x_new)[:, 0] <= goal_bound
        # cross[i, j]: squared distance from sample i to the node that sample
        # j adds, inf if it adds none; slot[j] is that node's index
        cross = _sq_dist(x_new.T, x_rand)
        cross[:, hit] = np.inf
        slot = np.empty(b, dtype=np.int64)
        for i in range(b):
            if n > n0:
                j = int(cross[i, :i].argmin())
                if cross[i, j] < best[i]:
                    nearest[i] = slot[j]
                    x_new[i] = _steer(nodes[slot[j]][None], x_rand[i : i + 1],
                                      np.sqrt(cross[i, j : j + 1]), cfg.step)[0]
                    hit[i] = chain_collision(env, x_new[i], cfg.collision_samples)
                    near_goal[i] = True  # its batched goal distance is stale
                    cross[:, i] = np.inf if hit[i] else _sq_dist(x_new[i][:, None], x_rand)[:, 0]
            if hit[i]:
                continue
            nodes[n] = cols[:dim, n] = x_new[i]
            parents[n] = nearest[i]
            slot[i] = n
            n += 1
            if near_goal[i] and np.linalg.norm(x_new[i] - goal) <= cfg.goal_tol:
                path = [n - 1]
                while parents[path[-1]] >= 0:
                    path.append(int(parents[path[-1]]))
                return RrtResult(
                    success=True,
                    path=nodes[path[::-1]].copy(),
                    nodes=nodes[:n].copy(),
                    parents=parents[:n].copy(),
                    iterations=lo + i + 1,
                )
        cols[dim, n0:n] = np.einsum("ij,ij->j", cols[:dim, n0:n], cols[:dim, n0:n])
    return RrtResult(
        success=False,
        path=None,
        nodes=nodes[:n].copy(),
        parents=parents[:n].copy(),
        iterations=budget,
    )


def write_tree_csv(result: RrtResult, path) -> None:
    """Tree dump for external visualization: index, parent, coordinates."""
    dim = result.nodes.shape[1]
    header = "index,parent," + ",".join(f"c{j + 1}" for j in range(dim))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i, (parent, node) in enumerate(zip(result.parents, result.nodes)):
            coords = ",".join(f"{c:.17g}" for c in node)
            fh.write(f"{i},{parent},{coords}\n")


N_PRECOMPUTED_SEQUENCES = 10


def success_rate(
    widths,
    reps: int,
    sources: list[SequenceSpec],
    cfg: RrtConfig,
    seed: int = 0,
    sequence_length: int = 100_000,
    threads: int = 1,
    env_factory=None,
    progress=None,
) -> list[tuple[str, float, float]]:
    """Success percentage per (source, passage width) over randomized
    environment placements.

    ``env_factory(width, seed)`` builds one environment instance; the
    default is the randomized tunnel.  Each source contributes up to 10
    precomputed sequences that are reused across repetitions; repetition r
    of every source and every width sees the same placement (widths are
    paired, so the free space genuinely grows along a row).  Returns rows
    (source label, width, success percent).  ``progress(label, width,
    successes, reps, seconds)``, when given, is called after each cell.

    Cells run one after another in a fixed order.  Each plan batches its
    samples (see ``rrt_plan``) and grows the tree a one-sample loop would.
    ``threads`` is accepted for compatibility and ignored: a thread pool
    made the sweep slower, not faster, because the planner's many small
    numpy calls run under the interpreter lock.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if env_factory is None:
        env_factory = ChainEnv.tunnel_env
    n = min(sequence_length, cfg.max_iters)
    rows = []
    for spec in sources:
        if spec.kind in seqcore.RANDOMIZED_KINDS:
            seqs = [
                seqcore.generate(replace(spec, seed=seqcore.split_seed(spec.seed, "rrt-sequence", v)), n)
                for v in range(min(reps, N_PRECOMPUTED_SEQUENCES))
            ]
        else:
            seqs = [seqcore.generate(spec, n)]
        for width in widths:
            t0 = time.perf_counter()
            hits = [
                rrt_plan(
                    env_factory(width, seqcore.split_seed(seed, "rrt-env", rep)),
                    cfg,
                    seqs[rep % len(seqs)],
                ).success
                for rep in range(reps)
            ]
            rows.append((spec.kind, float(width), 100.0 * np.mean(hits)))
            if progress is not None:
                progress(spec.kind, float(width), sum(hits), reps, time.perf_counter() - t0)
    return rows

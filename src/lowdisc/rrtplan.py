"""Rapidly-exploring random tree planning with a pluggable sample source,
a planar four-joint kinematic chain threading a semi-circular tunnel, and a
batch success-rate harness.

Configurations live in the unit cube [0,1]^4 and map affinely onto joint
angles in [-pi, pi]^4.  The planner consumes a precomputed array of sample
configurations in order, so a fixed environment plus a fixed sequence gives
a fixed tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
    heading of link k is the cumulative sum of the first k angles.
    """
    angles = np.asarray(angles, dtype=np.float64)
    heading = np.cumsum(angles)
    steps = link_length * np.stack([np.cos(heading), np.sin(heading)], axis=1)
    pts = np.empty((angles.size + 1, 2))
    pts[0] = anchor
    pts[1:] = anchor + np.cumsum(steps, axis=0)
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


def chain_collision(env: ChainEnv, q, collision_samples: int = 16) -> bool:
    """True when any sampled point of any link leaves the workspace box or
    touches a tunnel wall (arcs and end cap have finite half-width)."""
    joints = chain_forward_kinematics(
        config_to_angles(q), anchor=env.anchor, link_length=env.link_length
    )
    frac = np.linspace(0.0, 1.0, collision_samples)[:, None, None]
    pts = joints[:-1][None, :, :] * (1.0 - frac) + joints[1:][None, :, :] * frac
    pts = pts.reshape(-1, 2)

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
    inner = (radius >= INNER_WALL_FLOOR) & (radius <= env.r_inner)
    outer = (radius >= env.r_outer) & (radius <= OUTER_WALL_CEIL)
    if (in_span & (inner | outer)).any():
        return True
    # radial cap closing the phi0 end of the corridor
    cap_dir = np.array([np.cos(env.phi0), np.sin(env.phi0)])
    along = rel @ cap_dir
    perp = rel @ np.array([-cap_dir[1], cap_dir[0]])
    near_cap = (
        (np.abs(perp) <= CAP_HALF_WIDTH)
        & (along >= INNER_WALL_FLOOR)
        & (along <= OUTER_WALL_CEIL)
    )
    return bool(near_cap.any())


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


def rrt_plan(env: ChainEnv, cfg: RrtConfig, samples: np.ndarray) -> RrtResult:
    """Grow a tree from the start toward samples consumed in order.

    Per iteration: take the next sample, find the nearest tree node in
    configuration space, step at most ``cfg.step`` toward the sample, keep
    the new node if collision-free, and stop as soon as a kept node lands
    within ``cfg.goal_tol`` of the goal.
    """
    samples = np.asarray(samples, dtype=np.float64)
    dim = len(env.start)
    if samples.ndim != 2 or samples.shape[1] != dim:
        raise ValueError(f"samples must be (k, {dim})")
    start = np.asarray(env.start, dtype=np.float64)
    goal = np.asarray(env.goal, dtype=np.float64)
    if chain_collision(env, start, cfg.collision_samples):
        raise ValueError("start configuration is in collision")

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
        if chain_collision(env, x_new, cfg.collision_samples):
            continue
        nodes[n] = x_new
        parents[n] = nearest
        n += 1
        if np.linalg.norm(x_new - goal) <= cfg.goal_tol:
            path = [n - 1]
            while parents[path[-1]] >= 0:
                path.append(int(parents[path[-1]]))
            return RrtResult(
                success=True,
                path=nodes[path[::-1]].copy(),
                nodes=nodes[:n].copy(),
                parents=parents[:n].copy(),
                iterations=it + 1,
            )
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
) -> list[tuple[str, float, float]]:
    """Success percentage per (source, passage width) over randomized
    environment placements.

    ``env_factory(width, seed)`` builds one environment instance; the
    default is the randomized tunnel.  Each source contributes up to 10
    precomputed sequences that are reused across repetitions; repetition r
    of every source and every width sees the same placement (widths are
    paired, so the free space genuinely grows along a row).  Returns rows
    (source label, width, success percent).

    Cells run one after another in a fixed order.  ``threads`` is accepted
    for compatibility and ignored: a thread pool made the sweep slower, not
    faster, because the planner's many small numpy calls run under the
    interpreter lock.
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
            hits = [
                rrt_plan(
                    env_factory(width, seqcore.split_seed(seed, "rrt-env", rep)),
                    cfg,
                    seqs[rep % len(seqs)],
                ).success
                for rep in range(reps)
            ]
            rows.append((spec.kind, float(width), 100.0 * np.mean(hits)))
    return rows

"""Batch command-line front end.

Subcommands cover generation, discrepancy curves, training, scrambling,
integration studies, sensitivity analysis, and RRT planning sweeps; every
output is CSV so external tools can plot it.  All randomized behavior keys
off one ``--seed``; sub-seeds are derived with ``seqcore.split_seed``.
Every command is deterministic.  Large discrepancy pair walks use every CPU
the process may run on, with results identical at any CPU count;
``--threads`` and ``--deterministic`` are accepted on every subcommand for
compatibility and change nothing.  Exit codes: 0 success, 1 runtime error,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bench, discrepancy, neuralnet, rrtplan, seqcore, trainer
from .seqcore import SequenceSpec


def _build_spec(args, kind=None, label="sequence") -> SequenceSpec:
    kind = kind or args.kind
    seed = None
    if kind in seqcore.RANDOMIZED_KINDS:
        if args.seed is None:
            raise ValueError(f"kind {kind!r} needs --seed")
        seed = seqcore.split_seed(args.seed, label, kind)
    model_path = getattr(args, "model", None) if kind == "neural" else None
    return SequenceSpec(
        kind=kind,
        dim=args.dim,
        burn_in=args.burn_in,
        seed=seed,
        model_path=model_path,
    )


def _save_points(points, path, fmt) -> None:
    if fmt == "bin":
        seqcore.save_points_bin(points, path)
    else:
        seqcore.save_points_csv(points, path)


def _cmd_generate(args) -> None:
    spec = _build_spec(args)
    points = seqcore.generate(spec, args.n)
    _save_points(points, args.out, args.format)


def _cmd_scramble(args) -> None:
    if args.seed is None:
        raise ValueError("scramble needs --seed")
    spec = SequenceSpec(
        "sobol-scrambled", args.dim, burn_in=args.burn_in, seed=seqcore.split_seed(args.seed, "scramble")
    )
    _save_points(seqcore.generate(spec, args.n), args.out, args.format)


def _cmd_disc(args) -> None:
    points = seqcore.load_points(args.points)
    kernels = args.kernel or ["sym"]
    weights = None
    if args.weights:
        weights = tuple(float(w) for w in args.weights.split(","))
    curves = {}
    for family in kernels:
        spec = discrepancy.KernelSpec(family, weights)
        curves[family] = discrepancy.discrepancy_all_prefixes(spec, points)
    with open(args.out, "w") as fh:
        fh.write("P," + ",".join(kernels) + "\n")
        for row in range(len(points)):
            vals = ",".join(f"{curves[f][row]:.17g}" for f in kernels)
            fh.write(f"{row + 1},{vals}\n")


def _train_progress(stage, epoch, epochs, loss, seconds) -> None:
    print(f"progress: {stage} epoch {epoch}/{epochs}, loss {loss:.6e}, {seconds:.2f} s", file=sys.stderr)


def _cmd_train(args) -> None:
    cfg = trainer.load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    model, log = trainer.train_full(cfg, progress=_train_progress)
    for note in log.notes:
        print(f"note: {note}", file=sys.stderr)
    for stage in ("pretrain", "finetune"):
        rows = [r for r in log.records if r.stage == stage]
        print(f"train: {stage}: {rows[-1].epoch} epochs, last loss {rows[-1].loss:.6e}, "
              f"best loss {min(r.loss for r in rows):.6e}, {rows[-1].seconds:.2f} s", file=sys.stderr)
    neuralnet.save_model(model, args.out_model)
    if args.log:
        log.write_csv(args.log)


_INTEGRANDS = {
    "borehole": (bench.borehole, 8),
    "product": (lambda x: np.prod(x, axis=1), None),
}


def _cmd_integrate(args) -> None:
    integrand, required_dim = _INTEGRANDS[args.integrand]
    if required_dim is not None and args.dim != required_dim:
        raise ValueError(f"integrand {args.integrand!r} needs --dim {required_dim}")
    spec = _build_spec(args)
    checkpoints = (
        tuple(int(c) for c in args.checkpoints.split(","))
        if args.checkpoints
        else bench.CHECKPOINT_GRID
    )
    reference = args.reference
    if reference is None:
        reference = bench.mc_reference(
            integrand,
            args.dim,
            args.mc_reference_n,
            seqcore.split_seed(args.seed or 0, "mc-reference"),
        )
    result = bench.integrate(spec, integrand, args.n, checkpoints, reference)
    with open(args.out, "w") as fh:
        fh.write("N,abs_error\n")
        for n_ck, err in zip(result.checkpoints, result.errors):
            fh.write(f"{n_ck},{err:.17g}\n")
    print(f"estimate: {result.estimate:.17g}")
    print(f"reference: {reference:.17g}")


def _cmd_sensitivity(args) -> None:
    integrand, required_dim = _INTEGRANDS[args.integrand]
    dim = required_dim or args.dim
    result = bench.sensitivity(
        integrand, dim, args.base_n, seqcore.split_seed(args.seed or 0, "sensitivity")
    )
    names = (
        bench.BOREHOLE_PARAMS
        if args.integrand == "borehole"
        else tuple(f"x{j + 1}" for j in range(dim))
    )
    with open(args.out, "w") as fh:
        fh.write("param,S1,ST\n")
        for name, s1, st in zip(names, result.first_order, result.total):
            fh.write(f"{name},{s1:.17g},{st:.17g}\n")
    if args.gamma_floor is not None:
        gamma = bench.weights_from_sensitivity(result, args.gamma_floor)
        print("gamma: " + ",".join(f"{g:.4f}" for g in gamma))


def _plan_progress(label, width, successes, reps, seconds) -> None:
    print(f"plan: {label} width {width:g}: {successes}/{reps} succeeded in {seconds:.2f} s", file=sys.stderr)


def _cmd_plan(args) -> None:
    widths = [float(w) for w in args.widths.split(",")]
    sources = [_build_spec(args, kind.strip(), "plan-source") for kind in args.sources.split(",")]
    cfg = rrtplan.RrtConfig(
        max_iters=args.k, step=args.step, goal_tol=args.goal_tol
    )
    rows = rrtplan.success_rate(
        widths,
        args.reps,
        sources,
        cfg,
        seed=seqcore.split_seed(args.seed, "plan-envs"),
        sequence_length=args.k,
        progress=_plan_progress,
    )
    with open(args.out, "w") as fh:
        fh.write("source,width,success_pct\n")
        for label, width, pct in rows:
            fh.write(f"{label},{width:g},{pct:.2f}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowdisc",
        description="Low-discrepancy sequence toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, seed_help="master seed for randomized behavior"):
        p.add_argument("--seed", type=int, default=None, help=seed_help)
        compat = ("accepted for compatibility and changes nothing; large discrepancy pair walks "
                  "use every available CPU, with results identical at any count")
        p.add_argument("--threads", type=int, default=1, help=compat)
        p.add_argument("--deterministic", action="store_true", help=compat)

    p = sub.add_parser("generate", help="write points of a sequence to a file")
    p.add_argument("--kind", choices=seqcore.KINDS, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument("--model", help="model file (kind=neural)")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    shared(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("scramble", help="write Owen-scrambled Sobol' points")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "bin"), default="csv")
    shared(p)
    p.set_defaults(func=_cmd_scramble)

    p = sub.add_parser("disc", help="all-prefix discrepancy curves of a point file")
    p.add_argument("--points", required=True, help="input point file (csv or bin)")
    p.add_argument(
        "--kernel",
        action="append",
        choices=discrepancy.FAMILIES,
        help="kernel family (repeatable; default sym)",
    )
    p.add_argument("--weights", help="comma-separated per-coordinate weights")
    p.add_argument("--out", required=True)
    shared(p)
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("train", help="two-stage training from a config file")
    p.add_argument("--config", required=True, help="key: value training config")
    p.add_argument("--out-model", required=True, dest="out_model")
    p.add_argument("--log", help="CSV training log path")
    shared(p, seed_help="override the config seed")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("integrate", help="QMC integration error study")
    p.add_argument("--kind", choices=seqcore.KINDS, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=0, dest="burn_in")
    p.add_argument("--model", help="model file (kind=neural)")
    p.add_argument("--integrand", choices=tuple(_INTEGRANDS), default="borehole")
    p.add_argument("--checkpoints", help="comma-separated checkpoint sizes")
    p.add_argument("--reference", type=float, help="reference integral value")
    p.add_argument(
        "--mc-reference-n",
        type=int,
        default=2**21,
        dest="mc_reference_n",
        help="plain-MC sample count when no --reference is given",
    )
    p.add_argument("--out", required=True)
    shared(p)
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("sensitivity", help="Saltelli sensitivity indices")
    p.add_argument("--integrand", choices=tuple(_INTEGRANDS), default="borehole")
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--base-n", type=int, default=2**13, dest="base_n")
    p.add_argument(
        "--gamma-floor",
        type=float,
        default=None,
        dest="gamma_floor",
        help="also print the derived coordinate weights with this floor",
    )
    p.add_argument("--out", required=True)
    shared(p)
    p.set_defaults(func=_cmd_sensitivity)

    p = sub.add_parser("plan", help="RRT success-rate sweep")
    p.add_argument("--widths", default="0.40,0.44,0.48,0.52,0.56,0.60,0.64")
    p.add_argument("--reps", type=int, default=20)
    p.add_argument("--sources", default="sobol,halton,uniform", help="comma-separated sequence kinds")
    p.add_argument("--model", help="model file (source neural)")
    p.add_argument("--k", type=int, default=10_000, help="iteration budget per plan")
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--goal-tol", type=float, default=0.08, dest="goal_tol")
    p.add_argument("--out", required=True)
    shared(p, seed_help="master seed for randomized behavior (default 0)")
    # the sweep's sequences are 4-d configurations consumed from raw index 0
    p.set_defaults(func=_cmd_plan, seed=0, dim=4, burn_in=0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

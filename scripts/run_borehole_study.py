#!/usr/bin/env python3
"""Borehole benchmark: sensitivity indices, the derived coordinate weights,
and a QMC integration error table against an in-run Monte Carlo reference.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from lowdisc import cli


def lowdisc(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code:
        raise SystemExit(code)


def read_table(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, dtype=str)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--base-n", type=int, default=2**13, dest="base_n")
    ap.add_argument("--gamma-floor", type=float, default=0.001, dest="gamma_floor")
    ap.add_argument("--n", type=int, default=500, help="points per sequence in the error table")
    ap.add_argument("--mc-reference-n", type=int, default=2**21, dest="mc_reference_n")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--model", help="optional neural model file to include")
    ap.add_argument("--sens-out", default="borehole_sensitivity.csv", dest="sens_out")
    ap.add_argument("--errors-out", default="borehole_errors.csv", dest="errors_out")
    args = ap.parse_args()

    lowdisc("sensitivity", "--integrand", "borehole", "--base-n", args.base_n, "--seed", args.seed,
            "--gamma-floor", args.gamma_floor, "--out", args.sens_out)
    print(f"sensitivity ({args.base_n} base samples) -> {args.sens_out}")
    for name, s1, st in read_table(args.sens_out):
        print(f"  {name:>4}: S1={float(s1):8.4f}  ST={float(st):8.4f}")

    # every integrate run draws the same Monte Carlo reference from --seed
    kinds = ["sobol", "halton"] + (["neural"] if args.model else [])
    errors = {}
    with tempfile.TemporaryDirectory() as tmp:
        for kind in kinds:
            path = Path(tmp) / f"{kind}.csv"
            print(f"\n{kind}:")
            model = ["--model", args.model] if kind == "neural" else []
            lowdisc("integrate", "--kind", kind, "--dim", 8, "--n", args.n, "--integrand", "borehole",
                    "--mc-reference-n", args.mc_reference_n, "--seed", args.seed, "--out", path, *model)
            errors[kind] = read_table(path)
    checkpoints = errors["sobol"][:, 0]
    with open(args.errors_out, "w") as fh:
        fh.write("N," + ",".join(kinds) + "\n")
        for row, n_ck in enumerate(checkpoints):
            fh.write(f"{n_ck}," + ",".join(errors[k][row, 1] for k in kinds) + "\n")
    print(f"\nerror table -> {args.errors_out}")
    print("      N " + "".join(f"{k:>12}" for k in kinds))
    for row, n_ck in enumerate(checkpoints):
        print(f"{n_ck:>7} " + "".join(f"{float(errors[k][row, 1]):>12.4f}" for k in kinds))


if __name__ == "__main__":
    main()

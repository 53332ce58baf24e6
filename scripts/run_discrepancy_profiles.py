#!/usr/bin/env python3
"""Prefix-discrepancy profiles of the classical baselines.

Writes one CSV of full curves (P, one column per sequence) per kernel and
prints the values at selected prefix lengths, including the mean over
scrambled-Sobol' seeds.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from lowdisc import cli

SELECTED = (100, 500, 1000, 2000, 5000, 10000)


def lowdisc(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code:
        raise SystemExit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=4)
    ap.add_argument("--n", type=int, default=10_000)
    ap.add_argument("--burn-in", type=int, default=128, dest="burn_in")
    ap.add_argument("--kernels", default="sym,star,ctr")
    ap.add_argument("--scrambles", type=int, default=32,
                    help="scrambled-Sobol' sequences to average, with seeds --seed, --seed + 1, ...")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-dir", default="profiles", dest="out_dir")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    kernels = args.kernels.split(",")
    runs = {"sobol": ["--kind", "sobol"], "halton": ["--kind", "halton"]}
    for rep in range(args.scrambles):
        runs[f"scrambled-{rep}"] = ["--kind", "sobol-scrambled", "--seed", args.seed + rep]

    curves = {}  # sequence name -> (n, len(kernels)) curves
    with tempfile.TemporaryDirectory() as tmp:
        points, table = Path(tmp) / "points.bin", Path(tmp) / "curves.csv"
        for name, kind in runs.items():
            lowdisc("generate", *kind, "--dim", args.dim, "--n", args.n, "--burn-in", args.burn_in,
                    "--format", "bin", "--out", points)
            lowdisc("disc", "--points", points, *(f"--kernel={k}" for k in kernels), "--out", table)
            curves[name] = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
    scrambled = [curves.pop(f"scrambled-{rep}") for rep in range(args.scrambles)]
    curves["scrambled-sobol-mean"] = np.mean(scrambled, axis=0)

    names = list(curves)
    for col, family in enumerate(kernels):
        path = out_dir / f"profile_{family}_d{args.dim}.csv"
        with open(path, "w") as fh:
            fh.write("P," + ",".join(names) + "\n")
            for p in range(args.n):
                fh.write(f"{p + 1}," + ",".join(f"{curves[n][p, col]:.17g}" for n in names) + "\n")
        print(f"\n{family} discrepancy, d={args.dim}, burn-in {args.burn_in} -> {path}")
        print("      N " + "".join(f"{n:>22}" for n in names))
        for sel in SELECTED:
            if sel <= args.n:
                print(f"{sel:>7} " + "".join(f"{curves[n][sel - 1, col]:>22.6f}" for n in names))


if __name__ == "__main__":
    main()

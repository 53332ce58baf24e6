#!/usr/bin/env python3
"""End-to-end demo: train a sequence model at desk scale, save it, and
compare its prefix-discrepancy curve against the classical baselines."""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from lowdisc import cli

BURN_IN = 128  # the training config's reference burn-in, shared by the baselines


def lowdisc(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code:
        raise SystemExit(code)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=2)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--loss", default="sym", help="loss family: sym, star or ctr")
    ap.add_argument("--hidden", type=int, default=128)
    ap.add_argument("--layers", type=int, default=4)
    ap.add_argument("--bands", type=int, default=16)
    ap.add_argument("--epochs", type=int, default=2000, help="per stage")
    ap.add_argument("--weight-scheme", default="uniform", dest="weight_scheme",
                    help="uniform or length-proportional")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out-model", default="sequence_model.nn", dest="out_model")
    ap.add_argument("--out-curve", default="trained_profile.csv", dest="out_curve")
    args = ap.parse_args()

    config = dict(dim=args.dim, n_points=args.n, loss_family=args.loss, hidden=args.hidden,
                  layers=args.layers, bands=args.bands, pretrain_epochs=args.epochs,
                  finetune_epochs=args.epochs, weight_scheme=args.weight_scheme, burn_in=BURN_IN)
    runs = {
        "trained": ["--kind", "neural", "--model", args.out_model],
        "sobol": ["--kind", "sobol", "--burn-in", BURN_IN],
        "halton": ["--kind", "halton", "--burn-in", BURN_IN],
    }
    curves = {}
    with tempfile.TemporaryDirectory() as tmp:
        cfg, points, table = (Path(tmp) / name for name in ("train.cfg", "points.bin", "curve.csv"))
        cfg.write_text("".join(f"{key}: {value}\n" for key, value in config.items()))
        lowdisc("train", "--config", cfg, "--seed", args.seed, "--out-model", args.out_model)
        for name, kind in runs.items():
            lowdisc("generate", *kind, "--dim", args.dim, "--n", args.n, "--format", "bin", "--out", points)
            lowdisc("disc", "--points", points, "--kernel", args.loss, "--out", table)
            curves[name] = np.loadtxt(table, delimiter=",", skiprows=1, ndmin=2)[:, 1]
    meta = dict(line.split(": ", 1) for line in Path(args.out_model + ".meta").read_text().splitlines())
    print(f"model -> {args.out_model}  (pretrain MSE {float(meta['pretrain_mse']):.2e}, "
          f"loss {float(meta['finetune_loss']):.6e})")

    with open(args.out_curve, "w") as fh:
        fh.write("P," + ",".join(curves) + "\n")
        for p in range(args.n):
            fh.write(f"{p + 1}," + ",".join(f"{c[p]:.17g}" for c in curves.values()) + "\n")
    print(f"curves -> {args.out_curve}")
    for name, curve in curves.items():
        print(f"  {name:>8}: mean D over prefixes {curve[1:].mean():.6f}, final {curve[-1]:.6f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/measure.py --workloads disc,plan --seeds 0-9 --seconds 20

Each run is a fresh ``run.py`` process with ``--trace 0``.  For every
end-to-end metric the summary gives the ten values, their median and the
spread: the distance between the first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median.
With ``--traced SEED`` one traced run per workload follows, and its
per-layer metrics are kept.  The summary is printed and written as JSON.
"""

from __future__ import annotations

import argparse
import gzip
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run(workload, seed, seconds, trace):
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, cwd=HERE.parent)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["meta"], elapsed


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def _spans(workload, seed):
    """Spans of a traced run grouped by pass, in start order."""
    runs = {}
    with gzip.open(HERE / "out" / f"spans-{workload}-seed{seed}.jsonl.gz", "rt") as fh:
        spans = [json.loads(line) for line in fh]
    for idx, span in enumerate(spans):
        span["dur"] = span["end"] - span["start"]
        span["parent_name"] = spans[span["parent"]]["name"] if span["parent"] >= 0 else None
        span["index"] = idx
        runs.setdefault(span["run"], []).append(span)
    return list(runs.values())


def roadmap_rows(summary, seed):
    """The ROADMAP "Open items" table, re-measured where a workload covers it."""
    rows = {}
    layer = {w: e["traced"]["per_layer"] for w, e in summary.items() if "traced" in e}

    def per_call(m, fn):
        return 1e3 * m[f"{fn}.s"] / m[f"{fn}.calls"]

    if "disc" in layer:
        sym, rowsums = [], []
        for spans in _spans("disc", seed):
            first = next(s for s in spans if s["name"] == "discrepancy.discrepancy_all_prefixes")
            sym.append(first["dur"])
            rowsums.append(sum(s["dur"] for s in spans if s["name"] == "discrepancy.pair_rowsums"
                               and s["parent"] == first["index"]))
        rows["discrepancy_all_prefixes (sym), N=10^4, d=4"] = {
            "s": statistics.median(sym), "pair_rowsums_s": statistics.median(rowsums),
            "pair_useful_ratio": layer["disc"]["discrepancy.pair_useful_ratio"]}
    if "train" in layer:
        m = layer["train"]
        rows["prefix_loss_grad / prefix_loss, N=256, d=2"] = {
            "prefix_loss_grad_ms": per_call(m, "discrepancy.prefix_loss_grad"),
            "prefix_loss_ms": per_call(m, "discrepancy.prefix_loss"),
            "pair_useful_ratio": m["discrepancy.pair_useful_ratio"]}
        rows["fine-tune epoch, desk scale (128x4, 16 bands), N=256, d=2"] = {
            "epoch_ms_p50": summary["train"]["traced"]["per_layer"]["epoch_ms.p50"],
            "loss_grad_ms": per_call(m, "discrepancy.prefix_loss_grad"),
            "forward_ms_each": per_call(m, "neuralnet.forward"),
            "forwards_per_epoch": m["neuralnet.forwards_per_epoch"],
            "backward_ms": per_call(m, "neuralnet.backward"),
            "adam_ms": per_call(m, "neuralnet.adam_step"),
            "copy_params_ms": per_call(m, "neuralnet.copy_params")}
    if "integrate" in layer:
        # per pass, the integrate calls generate sobol, halton, sobol-scrambled, uniform
        gen = [[s["dur"] for s in spans if s["name"] == "seqcore.generate"
                and s["parent_name"] == "bench.integrate"] for spans in _spans("integrate", seed)]
        rows["sobol_points / halton_points, 2^20 x 8"] = {
            "sobol_s": statistics.median(g[0] for g in gen),
            "halton_s": statistics.median(g[1] for g in gen)}
        rows["owen_scramble(sobol_raw(...)), 2^18 x 8"] = {"s": statistics.median(g[2] for g in gen)}
    if "plan" in layer:
        m = layer["plan"]
        rows["rrt_plan, widths 0.52/0.64, k=6000"] = {
            "ms_per_plan": per_call(m, "rrtplan.rrt_plan"),
            "chain_collision_share": m["rrtplan.chain_collision.s"] / m["rrtplan.rrt_plan.s"],
            "collision_us_per_call": m["rrtplan.collision_us_per_call"]}
    for row in ("prefix_loss_grad, N=2048, d=4", "fine-tune epoch, sym defaults (768x7, 64 bands)",
                "success_rate threads=1 vs 2"):
        rows[row] = "not covered by a workload"
    return rows


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="disc,train,integrate,plan")
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--traced", type=int, metavar="SEED", help="add one traced run on SEED")
    parser.add_argument("--out", default=str(HERE / "out" / "summary.json"))
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        results, elapsed, meta = [], [], None
        for seed in args.seeds:
            result, meta, secs = run(workload, seed, args.seconds, 0)
            results.append(result)
            elapsed.append(secs)
            print(f"{workload} seed {seed}: {secs:.1f} s, correct={result['correct']}, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        entry = {
            "meta": meta,
            "seeds": args.seeds,
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "run_elapsed_s": spread(elapsed),
            "end_to_end": {
                name: dict(spread([r["metrics"][name]["value"] for r in results]),
                           unit=results[0]["metrics"][name]["unit"])
                for name in results[0]["metrics"]
            },
        }
        if args.traced is not None:
            result, _, secs = run(workload, args.traced, args.seconds, 1)
            entry["traced"] = {"seed": args.traced, "correct": result["correct"],
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()}}
        summary[workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload} {name}: median {stats['median']:.4g} {stats['unit']}, "
                  f"spread {stats['spread']:.4f} (bound {BOUNDS[name]})", flush=True)
    if args.traced is not None:
        summary["roadmap_rows"] = roadmap_rows(summary, args.traced)
    Path(args.out).parent.mkdir(exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()

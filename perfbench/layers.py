"""Per-layer tracing by wrapping functions at the module boundaries of
``lowdisc``, and the per-layer metrics derived from the spans.

The wrappers replace module (or class) attributes inside the benchmark
process only while a traced phase runs; the program's source is untouched.
Calls made through a module attribute or a module global pick the wrapper
up.  Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import gzip
import json
import os
from collections import defaultdict
from time import perf_counter

import numpy as np

from lowdisc import bench, cli, discrepancy, neuralnet, rrtplan, seqcore, trainer

# (span name, owner, attribute, private).  A private helper is wrapped only
# when it exists; when it is gone, the metrics that need it are absent.
BOUNDARIES = (
    ("cli.main", cli, "main", False),
    ("seqcore.sobol_raw", seqcore, "sobol_raw", False),
    ("seqcore.halton_points", seqcore, "halton_points", False),
    ("seqcore.owen_scramble", seqcore, "owen_scramble", False),
    ("seqcore.generate", seqcore, "generate", False),
    ("seqcore.load_points", seqcore, "load_points", False),
    ("seqcore.save_points", seqcore, "save_points_csv", False),
    ("seqcore.save_points", seqcore, "save_points_bin", False),
    ("discrepancy.discrepancy_all_prefixes", discrepancy, "discrepancy_all_prefixes", False),
    ("discrepancy.pair_rowsums", discrepancy, "_pair_rowsums", True),
    ("discrepancy.kernel_cross", discrepancy, "_kernel_cross", True),
    ("discrepancy.prefix_loss", discrepancy, "prefix_loss", False),
    ("discrepancy.prefix_loss_grad", discrepancy, "prefix_loss_grad", False),
    ("neuralnet.forward", neuralnet, "_forward_encoded", True),
    ("neuralnet.backward", neuralnet, "_backward_encoded", True),
    ("neuralnet.adam_step", neuralnet, "adam_step", False),
    ("neuralnet.copy_params", neuralnet.MlpModel, "copy_params", False),
    ("trainer.pretrain", trainer, "pretrain", False),
    ("trainer.finetune", trainer, "finetune", False),
    ("bench.borehole", bench, "borehole", False),
    ("bench.mc_reference", bench, "mc_reference", False),
    ("bench.integrate", bench, "integrate", False),
    ("bench.sensitivity", bench, "sensitivity", False),
    ("rrtplan.rrt_plan", rrtplan, "rrt_plan", False),
    ("rrtplan.chain_collision", rrtplan, "chain_collision", False),
    ("rrtplan.tunnel_env", rrtplan.ChainEnv, "tunnel_env", False),
)


# counters recorded at the same boundaries: fn(args, result) -> increments
COUNTERS = {
    "seqcore.generate": lambda a, r: {"seqcore.generate.coords": r.size},
    "seqcore.load_points": lambda a, r: {"seqcore.load_points.bytes": os.path.getsize(a[0])},
    "seqcore.save_points": lambda a, r: {"seqcore.save_points.bytes": os.path.getsize(a[1])},
    "discrepancy.pair_rowsums": lambda a, r: {"discrepancy.pairs_useful": len(a[1]) * (len(a[1]) - 1) // 2},
    "discrepancy.kernel_cross": lambda a, r: {"discrepancy.pairs_evaluated": len(a[1]) * len(a[2])},
    "bench.borehole": lambda a, r: {"bench.borehole.rows": np.size(r)},
    "rrtplan.rrt_plan": lambda a, r: {
        "rrtplan.iterations": r.iterations,
        "rrtplan.nodes_kept": r.n_nodes - 1,
        "rrtplan.successes": int(r.success),
    },
}


class Tracer:
    """Spans and counters of the traced passes of one run."""

    def __init__(self, run_prefix: str):
        self.run_prefix = run_prefix
        self.run = 0
        self.spans = []  # [name, start, end, parent index, run]
        self._stack = []
        self.counters = defaultdict(float)
        self.absent = set()
        self._restore = []

    def _wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.run])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count is not None:
                for key, value in count(args, result).items():
                    self.counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, owner, attr, private in BOUNDARIES:
            if attr not in vars(owner):
                if private:
                    self.absent.add(name)
                    continue
                raise AttributeError(f"{owner.__name__}.{attr} is gone; update perfbench/layers.py")
            original = vars(owner)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            setattr(owner, attr, wrapped)
            self._restore.append((owner, attr, original))
        # the CLI binds its integrands in a table at import time
        self._integrands = dict(cli._INTEGRANDS)
        for key, (fn, dim) in self._integrands.items():
            if fn is bench.borehole.__wrapped__:
                cli._INTEGRANDS[key] = (bench.borehole, dim)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        cli._INTEGRANDS.clear()
        cli._INTEGRANDS.update(self._integrands)

    def totals(self):
        """name -> [calls, inclusive seconds, self seconds] over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _), inner in zip(self.spans, child):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - inner
        return out

    def write(self, path):
        """All spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, run in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent,
                                     "run": f"{self.run_prefix}:{run}"}) + "\n")


FUNCS = {
    "cli": ("main",),
    "seqcore": ("sobol_raw", "halton_points", "owen_scramble", "generate"),
    "discrepancy": ("discrepancy_all_prefixes", "prefix_loss", "prefix_loss_grad"),
    "neuralnet": ("forward", "backward", "adam_step", "copy_params"),
    "bench": ("borehole", "mc_reference", "integrate", "sensitivity"),
    "rrtplan": ("rrt_plan", "chain_collision", "tunnel_env"),
}

# (name, unit, better) of every per-layer metric, in output order.  The
# first block are the workloads' own figures, measured in the untraced phase
# of a traced run; a workload that has no such figure reports 0.
CATALOG = [
    ("pairs_per_s", "1/s", "higher"),
    ("epoch_ms.p50", "ms", "lower"),
    ("epoch_ms.p95", "ms", "lower"),
    ("pretrain_epoch_ms.p50", "ms", "lower"),
    ("finetune_loss", "loss", "lower"),
    ("points_per_s", "1/s", "higher"),
    ("fail_ratio", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]
for _layer, _fns in FUNCS.items():
    for _fn in _fns:
        CATALOG += [(f"{_layer}.{_fn}.calls", "count", "lower"), (f"{_layer}.{_fn}.s", "s", "lower")]
CATALOG += [
    ("cli.self_s", "s", "lower"),
    ("seqcore.generate.coords", "count", "lower"),
    ("seqcore.coords_per_s", "1/s", "higher"),
    ("seqcore.load_points.s", "s", "lower"),
    ("seqcore.load_points.bytes", "B", "lower"),
    ("seqcore.save_points.s", "s", "lower"),
    ("seqcore.save_points.bytes", "B", "lower"),
    ("discrepancy.pair_rowsums.self_s", "s", "lower"),
    ("discrepancy.pairs_evaluated", "count", "lower"),
    ("discrepancy.pairs_useful", "count", "lower"),
    ("discrepancy.pair_useful_ratio", "ratio", "higher"),
    ("discrepancy.pairs_per_s", "1/s", "higher"),
    ("discrepancy.pair_passes_per_epoch", "1/epoch", "lower"),
    ("neuralnet.forwards_per_epoch", "1/epoch", "lower"),
    ("neuralnet.flops_per_epoch", "flop", "lower"),
    ("trainer.pretrain.s", "s", "lower"),
    ("trainer.pretrain.self_s", "s", "lower"),
    ("trainer.finetune.s", "s", "lower"),
    ("trainer.finetune.self_s", "s", "lower"),
]
for _fn in FUNCS["bench"]:
    CATALOG.append((f"bench.{_fn}.self_s", "s", "lower"))
CATALOG += [
    ("bench.borehole.rows", "count", "lower"),
    ("rrtplan.iterations", "count", "lower"),
    ("rrtplan.nodes_kept", "count", "lower"),
    ("rrtplan.kept_ratio", "ratio", "higher"),
    ("rrtplan.successes", "count", "higher"),
    ("rrtplan.collision_us_per_call", "us", "lower"),
]

# span names whose functions the derived metrics need, by metric
_NEEDS = {
    "neuralnet.forward": ("neuralnet.forward", "neuralnet.forwards_per_epoch", "neuralnet.flops_per_epoch"),
    "neuralnet.backward": ("neuralnet.backward", "neuralnet.flops_per_epoch"),
    "discrepancy.pair_rowsums": ("discrepancy.pair_rowsums", "discrepancy.pairs_useful",
                                 "discrepancy.pair_useful_ratio", "discrepancy.pairs_per_s"),
    "discrepancy.kernel_cross": ("discrepancy.pairs_evaluated", "discrepancy.pair_useful_ratio"),
}


def absent_metrics(tracer: Tracer) -> list:
    """Catalog names that need a private helper the program no longer has."""
    needs = [name for helper in tracer.absent for name in _NEEDS.get(helper, ())]
    return [
        name for name, _, _ in CATALOG
        if any(name == need or name.startswith(need + ".") for need in needs)
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, workload) -> dict:
    """Per-pass means of the traced spans and counters, plus derived ratios."""
    tot = tracer.totals()
    per = {name: [v / passes for v in row] for name, row in tot.items()}
    cnt = {name: v / passes for name, v in tracer.counters.items()}

    def calls(name):
        return per.get(name, [0, 0.0, 0.0])[0]

    def secs(name, which=1):
        return per.get(name, [0, 0.0, 0.0])[which]

    m = {}
    for layer, fns in FUNCS.items():
        for fn in fns:
            m[f"{layer}.{fn}.calls"] = calls(f"{layer}.{fn}")
            m[f"{layer}.{fn}.s"] = secs(f"{layer}.{fn}")
    m["cli.self_s"] = secs("cli.main", 2)
    coords = cnt.get("seqcore.generate.coords", 0.0)
    m["seqcore.generate.coords"] = coords
    m["seqcore.coords_per_s"] = _ratio(coords, secs("seqcore.generate"))
    for io_fn in ("load_points", "save_points"):
        m[f"seqcore.{io_fn}.s"] = secs(f"seqcore.{io_fn}")
        m[f"seqcore.{io_fn}.bytes"] = cnt.get(f"seqcore.{io_fn}.bytes", 0.0)

    useful = cnt.get("discrepancy.pairs_useful", 0.0)
    evaluated = cnt.get("discrepancy.pairs_evaluated", 0.0)
    m["discrepancy.pair_rowsums.self_s"] = secs("discrepancy.pair_rowsums", 2)
    m["discrepancy.pairs_evaluated"] = evaluated
    m["discrepancy.pairs_useful"] = useful
    m["discrepancy.pair_useful_ratio"] = _ratio(useful, evaluated)
    m["discrepancy.pairs_per_s"] = _ratio(useful, secs("discrepancy.pair_rowsums"))

    # every training stage evaluates once before its first epoch
    ep_pre, ep_ft = workload.epochs()
    stages_pre, stages_ft = calls("trainer.pretrain"), calls("trainer.finetune")
    epochs_ft = stages_ft * ep_ft
    epochs = stages_pre * ep_pre + epochs_ft
    passes_ft = calls("discrepancy.prefix_loss") + calls("discrepancy.prefix_loss_grad") - stages_ft
    m["discrepancy.pair_passes_per_epoch"] = _ratio(passes_ft, epochs_ft)
    fwd = _ratio(calls("neuralnet.forward") - stages_pre - stages_ft, epochs)
    bwd = _ratio(calls("neuralnet.backward"), epochs)
    m["neuralnet.forwards_per_epoch"] = fwd
    dims, rows = workload.layer_dims(), workload.size.get("n", 0)
    macs = [a * b for a, b in zip(dims[:-1], dims[1:])]
    # matmul flops only: forward x @ W per layer; backward the weight
    # gradient per layer and the input gradient for all but the first layer
    m["neuralnet.flops_per_epoch"] = 2.0 * rows * (fwd * sum(macs) + bwd * (sum(macs) + sum(macs[1:])))
    for stage in ("pretrain", "finetune"):
        m[f"trainer.{stage}.s"] = secs(f"trainer.{stage}")
        m[f"trainer.{stage}.self_s"] = secs(f"trainer.{stage}", 2)

    for fn in FUNCS["bench"]:
        m[f"bench.{fn}.self_s"] = secs(f"bench.{fn}", 2)
    m["bench.borehole.rows"] = cnt.get("bench.borehole.rows", 0.0)

    iters = cnt.get("rrtplan.iterations", 0.0)
    kept = cnt.get("rrtplan.nodes_kept", 0.0)
    m["rrtplan.iterations"] = iters
    m["rrtplan.nodes_kept"] = kept
    m["rrtplan.kept_ratio"] = _ratio(kept, iters)
    m["rrtplan.successes"] = cnt.get("rrtplan.successes", 0.0)
    m["rrtplan.collision_us_per_call"] = 1e6 * _ratio(
        secs("rrtplan.chain_collision"), calls("rrtplan.chain_collision"))

    return m

#!/usr/bin/env python3
"""Benchmark of the lowdisc CLI workloads ``disc``, ``train``, ``integrate``
and ``plan``, run from the root of a source checkout:

    python3 perfbench/run.py --workload disc --seed 0 --seconds 25 --trace 0

One process runs one workload.  With ``--trace 0`` it measures the set-up
time (median of seven fresh set-up processes), then repeats the workload's
timed CLI calls for ``--seconds`` and reports the median pass time and the
peak resident memory.  With ``--trace 1`` it spends half the time on
untraced passes (the workload's own figures and the untraced reference for
the tracing overhead) and half on passes traced at the module boundaries
(see ``layers.py``), and reports the per-layer metrics.  Either way it then
checks the last pass's outputs against oracles.  The last line of stdout is
one JSON object: ``correct``, ``attempted`` and ``failed`` operations (CLI
calls and output checks) and the ``metrics``.  The line before it carries
the run metadata; the spans of a traced run go to ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7


def import_program():
    """Import lowdisc from this checkout's ``src``, and only from there."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import lowdisc
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import lowdisc from {ROOT / 'src'}: {exc}")
    if Path(lowdisc.__file__).resolve().parent != ROOT / "src" / "lowdisc":
        raise SystemExit(f"perfbench: lowdisc was imported from {lowdisc.__file__}, not this checkout")


def prepare(wl):
    """Set-up: write the inputs, then one warm-up pass at the tiny sizes,
    which fills the program's lazy caches.  Returns the CLI calls made."""
    warm = type(wl)(wl.work / "warmup", wl.seed, type(wl).tiny)
    warm.work.mkdir(parents=True)
    return wl.prepare() + warm.prepare() + warm.body()


def probe_setup(args) -> float:
    """Seconds from the start of a fresh process until its set-up is done."""
    work = OUT / f"probe-{args.workload}-{os.getpid()}"
    argv = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed",
            str(args.seed), "--setup-probe", str(work)] + (["--tiny"] if args.tiny else [])
    try:
        t0 = time.time()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        return float(proc.stdout.split()[-1]) - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)


class Ledger:
    """Operations attempted and failed: CLI calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def calls(self, calls):
        for call in calls:
            self.attempted += 1
            if call.rc != 0:
                self.failed += 1
                print(f"perfbench: exit {call.rc} from {' '.join(call.argv)}", file=sys.stderr)

    def check(self, name, ok, detail):
        self.attempted += 1
        self.failed += not ok
        print(f"perfbench: check {'ok  ' if ok else 'FAIL'} {name}: {detail}", file=sys.stderr)


def timed_passes(wl, budget, ledger, tracer=None):
    """Repeat the workload's CLI calls while the next pass still fits in
    ``budget`` seconds (at least one pass).  Returns (pass seconds, records,
    calls of the last pass)."""
    walls, records = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.run = len(walls)
        t0 = time.perf_counter()
        calls = wl.body()
        walls.append(time.perf_counter() - t0)
        ledger.calls(calls)
        if tracer is None and all(call.rc == 0 for call in calls):
            records.append(wl.record(calls))
        if time.perf_counter() - start + walls[-1] > budget:
            return walls, records, calls


def _blas_threads():
    """OpenBLAS thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args):
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lowdisc").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("disc", "train", "integrate", "plan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes (harness smoke test)")
    parser.add_argument("--setup-probe", metavar="DIR", help="set up in DIR, print the wall-clock time, exit")
    args = parser.parse_args(argv)

    import_program()
    import layers
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    size = cls.tiny if args.tiny else cls.full

    if args.setup_probe:
        work = Path(args.setup_probe)
        work.mkdir(parents=True)
        ledger = Ledger()
        ledger.calls(prepare(cls(work, args.seed, size)))
        if ledger.failed:
            return 1
        print(time.time())
        return 0

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        ledger = Ledger()
        meta = metadata(args)
        setup = [probe_setup(args) for _ in range(SETUP_PROBES)] if args.trace == 0 else []
        wl = cls(work, args.seed, size)
        ledger.calls(prepare(wl))

        budget = args.seconds if args.trace == 0 else args.seconds / 2
        walls, records, last = timed_passes(wl, budget, ledger)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer = layers.Tracer(f"{args.workload}:{args.seed}")
            tracer.install()
            try:
                traced, _, last = timed_passes(wl, budget, ledger, tracer)
            finally:
                tracer.uninstall()
        try:
            for name, ok, detail in wl.checks(last):
                ledger.check(name, ok, detail)
        except Exception:  # noqa: BLE001 - a crashing check is a failed one
            traceback.print_exc()
            ledger.check("output checks ran", False, "raised")

        fail_ratio = ledger.failed / ledger.attempted
        if args.trace == 0:
            metrics = {
                "wall_s": (statistics.median(walls), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        else:
            values = {name: 0.0 for name, _, _ in layers.CATALOG}
            if records:
                values.update(wl.figures(records))
            values["fail_ratio"] = fail_ratio
            values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(walls) - 1.0
            values.update(layers.layer_metrics(tracer, len(traced), wl))
            for name in layers.absent_metrics(tracer):
                del values[name]
            units = {name: unit for name, unit, _ in layers.CATALOG}
            metrics = {name: (float(v), units[name]) for name, v in values.items()}
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        result = {
            "correct": ledger.failed == 0,
            "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        }
        meta["pass_s"] = walls
        meta["setup_probe_s"] = setup
        if args.trace:
            meta["traced_pass_s"] = traced
        meta["fail_ratio"] = fail_ratio
        (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
        print(json.dumps({"meta": meta}))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark harness (no wall-clock gate).

    python3 -m pytest perfbench/test_harness.py -q

Runs every workload at its tiny sizes through the same code as a real run
and checks the result line against BENCHMARK.json: metric names, units and
JSON shape.  Also checks span bookkeeping, the handling of a missing private
helper, and that a checkout without the program fails without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
from lowdisc import neuralnet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    argv = [sys.executable, "perfbench/run.py", *map(str, args)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line_matches_the_spec(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", 5, "--seconds", 1, "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_catalog_is_the_declared_per_layer_list():
    declared = [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
    assert declared == [tuple(entry) for entry in layers.CATALOG]


def test_self_time_subtracts_direct_children():
    tracer = layers.Tracer("t")
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["inner", 5.0, 6.0, 0, 0],
    ]
    totals = tracer.totals()
    assert totals["outer"] == [1, 10.0, 6.0]
    assert totals["inner"] == [2, 4.0, 3.0]
    assert totals["leaf"] == [1, 1.0, 1.0]


def test_missing_private_helper_is_absent_not_fatal(monkeypatch):
    monkeypatch.delattr(neuralnet, "_backward_encoded")
    tracer = layers.Tracer("t")
    tracer.install()
    try:
        assert tracer.absent == {"neuralnet.backward"}
    finally:
        tracer.uninstall()
    gone = layers.absent_metrics(tracer)
    assert gone == ["neuralnet.backward.calls", "neuralnet.backward.s", "neuralnet.flops_per_epoch"]


def test_install_and_uninstall_restore_every_attribute():
    before = {(id(owner), attr): vars(owner)[attr] for _, owner, attr, _ in layers.BOUNDARIES}
    tracer = layers.Tracer("t")
    tracer.install()
    tracer.uninstall()
    after = {(id(owner), attr): vars(owner)[attr] for _, owner, attr, _ in layers.BOUNDARIES}
    assert before == after


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", "disc", "--seed", 0, "--seconds", 1, "--trace", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

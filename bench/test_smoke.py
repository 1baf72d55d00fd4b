"""Smoke test of the benchmark itself, at tiny sizes.

    python -m pytest bench/test_smoke.py -q

Runs bench/run.py as the benchmark command is run (a subprocess from the
checkout root) and checks the result line against BENCHMARK.json.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    return res["metrics"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_reports_every_end_to_end_metric(workload):
    metrics = result(bench(ROOT, workload, 0))
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    assert metrics["pass_ratio"]["value"] == 1.0


def test_traced_reports_every_per_layer_metric():
    metrics = result(bench(ROOT, "calculus", 1))
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["paradiff.weyl_apply.separable.calls"]["value"] == 6
    assert metrics["paradiff.weyl_apply.general.calls"]["value"] == 2
    assert metrics["trace.overhead_s"]["value"] > 0
    spans = json.loads((ROOT / ".bench_out" / "calculus-seed5-trace1.json").read_text())["spans"]
    ops = [s for s in spans if s["name"] == "op"]
    assert {s["workload"] for s in ops} == {w["name"] for w in SPEC["workloads"]}
    assert all(s["end"] >= s["start"] for s in spans)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "dynamics", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

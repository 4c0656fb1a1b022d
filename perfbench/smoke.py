"""The benchmark's own tests, on reduced inputs (``run.py --smoke``).

    python3 -m pytest -q perfbench/smoke.py

Every workload runs once untraced and once traced. The tests require correct
outputs, exactly the metric names and units BENCHMARK.json lists, passing
trace cross-checks, a compare that refuses mismatched manifests, and a
non-zero exit where no okplanar sources exist. The file name keeps it out
of the repository's default pytest collection.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload: str, trace: int, seed: int = 7) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    full = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{trace}-smoke.json"
    return summary, json.loads(full.read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_emitted_and_outputs_correct(workload, trace, key):
    summary, full = run(workload, trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0, full["failures"]
    assert summary["attempted"] == full["requests_per_pass"] * (1 + trace) >= 1
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == want
    if trace:
        assert full["cross_checks"]["pass"], full["cross_checks"]
    for field in ("git_revision", "python", "nproc", "cpu_model", "loadavg_start"):
        assert field in full["metadata"]


def test_compare_refuses_other_inputs():
    _, a = run("mso2", 0, seed=7)
    _, b = run("mso2", 0, seed=8)
    paths = []
    for i, doc in enumerate((a, b)):
        p = ROOT / ".bench_results" / f"compare-{i}.json"
        p.write_text(json.dumps(doc))
        paths.append(str(p))
    compare = [sys.executable, str(HERE / "compare.py")]
    assert subprocess.run(compare + [paths[0], paths[0]], capture_output=True).returncode == 0
    assert subprocess.run(compare + paths, capture_output=True).returncode == 2


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in BENCH["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(BENCH["command"] + ["--workload", WORKLOADS[0], "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))

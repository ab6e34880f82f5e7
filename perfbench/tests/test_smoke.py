"""Smoke test of the benchmark at tiny sizes: every workload, untraced and traced.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("tensor.conv2d.calls", "tensor.conv2d.gflop", "tensor.conv2d.im2col_mb",
         "tensor.graph_nodes", "metrics.sweep_points", "metrics.sweep_mb", "checkpoint.save_mb")


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result(workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = result(workload, trace=0)["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_exact_counts_repeat(workload):
    first, second = (result(workload, trace=1)["metrics"] for _ in range(2))
    assert [m["name"] for m in SPEC["per_layer"]] == list(first)
    assert first["trace.coverage"]["value"] >= 0.9
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout

"""Smoke run of the benchmark harness, so that it cannot rot unnoticed.

Each workload runs once, traced, on the harness's small inputs; the run
must finish, report a correct verdict and name every per-layer metric the
benchmark declares.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_benchmark_workload_runs_traced(workload):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1", "--quick"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert {m["name"] for m in DECLARED["per_layer"]} <= set(result["metrics"])

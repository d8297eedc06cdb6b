"""Tests of the benchmark itself: known answers with a negative control,
the oracles, and the shape of run.py's output.

    python3 -m pytest bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import sweep

ROOT = Path(__file__).resolve().parent.parent
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())

# One known answer per workload, made wrong on purpose.
WRONG_ANSWERS = {
    "assoc": ("ASSOC_EXPECTED_PASS", False),
    "scan": ("SCAN_EXPECTED_LAST_LINE", "[FAIL] conjecture.scan"),
    "qseries": ("ramanujan_tau", lambda count: [0] + [1] * (count - 1)),
    "atlas": ("ATLAS_EXPECTED_PASS", False),
}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_known_answers_hold_and_a_wrong_one_fails(workload, monkeypatch):
    assert sweep.run_sweep(workload, seed=11, quick=True)["failed"] == 0
    name, wrong = WRONG_ANSWERS[workload]
    monkeypatch.setattr(sweep, name, wrong)
    result = sweep.run_sweep(workload, seed=11, quick=True)
    assert 0 < result["failed"] <= result["ops"]


def test_ramanujan_tau():
    assert sweep.ramanujan_tau(8) == [0, 1, -24, 252, -1472, 4830, -6048, -16744]


def test_eichler_zagier_oracle_flags_a_broken_series():
    sweep._import_library()
    from jacobiforms import make_bundle
    from jacobiforms.qseries import LaurentPolyW, QSeries

    b = make_bundle(6, 18).b
    assert sweep.eichler_zagier_mismatch(b, 1) is None
    coeffs = list(b.coeffs)
    coeffs[3] = coeffs[3] + LaurentPolyW({2: 1})
    assert sweep.eichler_zagier_mismatch(QSeries(coeffs), 1) is not None


def test_monomial_count_matches_library_basis():
    sweep._import_library()
    from jacobiforms import monomial_basis

    for weight_cap in (4, 6, 10, 12):
        assert sweep.jtilde_monomial_count(weight_cap, 2) == len(monomial_basis(weight_cap, 2))


def test_inputs_depend_only_on_the_seed():
    sweep._import_library()

    def names(seed):
        return [op.name for op in sweep.atlas_ops(random.Random(f"atlas:{seed}"), sweep.Sizes())]

    assert names(5) == names(5)
    assert names(5) != names(6)


def test_metric_tables_match_the_contract():
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in CONTRACT["workloads"]] == list(run.WORKLOADS)


def test_tail_percentile_leaves_ten_ops_beyond():
    for ops_per_sweep in (3, 5, 15, 16, 24):
        least = run.MIN_SWEEPS * ops_per_sweep
        assert least * (1 - run.tail_percentile(ops_per_sweep) / 100) == pytest.approx(10)


def test_percentile_interpolates_between_ranks():
    values = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert run.percentile(values, 0) == 1.0
    assert run.percentile(values, 50) == 3.0
    assert run.percentile(values, 60) == pytest.approx(3.4)
    assert run.percentile(values, 100) == 5.0


def test_memo_statistics_survive_the_clearing_between_scan_ops():
    result = sweep.run_sweep("scan", seed=3, trace=True, quick=True)
    assert result["failed"] == 0
    layers = result["layers"]
    assert 0 < layers["derivations.iterate.hit_ratio"] < 1
    assert layers["derivations.iterate.cache_entries"] > 0
    assert layers["brackets.gbinom.hit_ratio"] > 0


def _run(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_quick_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(["--workload", workload, "--seed", "4", "--seconds", "1", "--trace", trace, "--quick"])
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = CONTRACT["per_layer" if trace == "1" else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for key in ("python", "nproc", "git_revision", "seed", "loadavg_at_start", "fail_ratio"):
        assert key in record
    if workload == "scan":
        assert len(record["scan_stdout_sha256"]) == sweep.QUICK.scan_u


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "assoc", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


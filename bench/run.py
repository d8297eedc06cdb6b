"""Benchmark of jacobiforms: time to verdict on four exact-verification
workloads.  See README.md in this directory for the workloads and metrics.

    python3 bench/run.py --workload assoc --seed 1 --seconds 30 --trace 0

The run repeats sweeps of the workload, each in a fresh process started
from this one, while another sweep fits in --seconds (and until at least
MIN_SWEEPS have run), and reports statistics over the sweeps.  All sweeps of a run use the
inputs generated from --seed.  With --trace 1 it runs one untraced sweep
and then traced sweeps, and reports the per-layer metrics instead.

The last line of standard output is the result: {"correct", "attempted",
"failed", "metrics"}.  The line before it is a record of the run (machine,
revision, per-sweep figures, scan stdout digests).  A failed sweep process
or a missing library ends the run with a nonzero exit code and no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from sweep import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
LIBRARY = ROOT / "src" / "jacobiforms"

MIN_SWEEPS = 5
RUN_LIMIT_S = 170  # every run ends well inside three minutes

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "elements.mul.calls": "count",
    "elements.mul.self_ms": "ms",
    "elements.mul.terms_out": "count",
    "elements.add.calls": "count",
    "elements.add.self_ms": "ms",
    "derivations.apply.calls": "count",
    "derivations.apply.self_ms": "ms",
    "derivations.apply.terms_out": "count",
    "derivations.iterate.calls": "count",
    "derivations.iterate.hit_ratio": "ratio",
    "derivations.iterate.cache_entries": "count",
    "brackets.bracket_n.calls": "count",
    "brackets.bracket_n.ms": "ms",
    "brackets.bracket_n.self_ms": "ms",
    "brackets.cm_bracket.ms": "ms",
    "brackets.gbinom.hit_ratio": "ratio",
    "verifier.check.calls": "count",
    "verifier.check.self_ms": "ms",
    "verifier.identities": "count",
    "qseries.wmul.calls": "count",
    "qseries.wmul.self_ms": "ms",
    "qseries.wmul.coeff_products": "count",
    "qseries.qmul.calls": "count",
    "qseries.qmul.self_ms": "ms",
    "qseries.make_bundle.ms": "ms",
    "qseries.evaluate.ms": "ms",
    "qseries.generator_power.hit_ratio": "ratio",
    "classifier.poisson_call.calls": "count",
    "classifier.poisson_call.self_ms": "ms",
    "classifier.relations.ms": "ms",
    "cli.main.self_ms": "ms",
    "cli.stdout_bytes": "B",
    "import.ms": "ms",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def run_sweep(workload: str, seed: int, trace: bool, quick: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "sweep.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--quick"] * quick
    started = time.monotonic_ns()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"sweep of {workload} exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"sweep of {workload} exited with {proc.returncode}:\n{err.strip()}")
    try:
        sweep = json.loads(out.splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"sweep of {workload} printed no result")
    sweep["setup_s"] = (sweep["first_op_monotonic_ns"] - started) / 1e9
    return sweep


def tail_percentile(ops_per_sweep: int) -> float:
    """Percentile of op_tail_ms: the highest that leaves ten op runs beyond
    it in the smallest run (MIN_SWEEPS sweeps), so every run of a workload
    reports the same percentile whatever its sweep count."""
    least = MIN_SWEEPS * ops_per_sweep
    if least <= 10:
        raise ValueError("too few ops per sweep for a tail latency")
    return 100 * (least - 10) / least


def percentile(values: list, pct: float) -> float:
    """pct-th percentile of values, interpolating linearly between ranks."""
    ranked = sorted(values)
    position = (len(ranked) - 1) * pct / 100
    below = int(position)
    above = min(below + 1, len(ranked) - 1)
    return ranked[below] + (ranked[above] - ranked[below]) * (position - below)


def end_to_end(sweeps: list) -> tuple[dict, dict]:
    # Every sweep of a run runs the same ops in the same order.  Latency
    # statistics are taken over each op's mean latency across the sweeps,
    # for the reason wall_s is a mean: the machine switches between speeds
    # for seconds to minutes at a time, and a quantile of single latencies
    # snaps to whichever speed most of them ran at, where a mean weighs each
    # speed by the time the run spent in it.
    per_op_ms = [statistics.mean(ns) / 1e6 for ns in zip(*(s["op_ns"] for s in sweeps))]
    tail = tail_percentile(len(per_op_ms))
    wall_s = statistics.mean(s["wall_ns"] / 1e9 for s in sweeps)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in sweeps),
        "wall_s": wall_s,
        "checks_per_s": sweeps[0]["checks"] / wall_s,
        "op_p50_ms": statistics.median(per_op_ms),
        "op_tail_ms": percentile(per_op_ms, tail),
        "peak_rss_mib": statistics.median(s["peak_rss_kib"] / 1024 for s in sweeps),
    }
    notes = {"op_tail_percentile": tail, "op_count": len(per_op_ms) * len(sweeps)}
    return values, notes


def per_layer(untraced: dict, traced: list) -> dict:
    values = {
        name: statistics.median(s["layers"].get(name, 0) for s in traced)
        for name in PER_LAYER
        if name != "trace.overhead_s"
    }
    values["trace.overhead_s"] = statistics.median(s["wall_ns"] for s in traced) / 1e9 - untraced["wall_ns"] / 1e9
    return values


def scan_digests(sweeps: list) -> tuple[dict, int]:
    """sha256 of each scan op's stdout, and how many sweeps disagree with
    the first sweep (CLI stdout must be byte-deterministic)."""
    first = sweeps[0]["stdout_sha256"]
    return first, sum(s["stdout_sha256"] != first for s in sweeps[1:])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(LIBRARY.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_revision():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="jacobiforms benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    start = time.monotonic()
    if not (LIBRARY / "__init__.py").is_file():
        print(f"error: no library at {LIBRARY}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "loadavg_at_start": os.getloadavg(),
    }

    def elapsed():
        return time.monotonic() - start

    last_sweep_s = 0.0

    def sweep(trace):
        nonlocal last_sweep_s
        begin = elapsed()
        if begin >= RUN_LIMIT_S:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        result = run_sweep(args.workload, args.seed, trace, args.quick, RUN_LIMIT_S - begin)
        last_sweep_s = elapsed() - begin
        return result

    def room():
        """Whether another sweep as long as the last one ends within --seconds."""
        return elapsed() + last_sweep_s <= args.seconds

    try:
        if args.trace:
            untraced = sweep(False)
            traced = [sweep(True)]
            while room():
                traced.append(sweep(True))
            sweeps = [untraced] + traced
            metrics = per_layer(untraced, traced)
            units = PER_LAYER
        else:
            sweeps = [sweep(False)]
            while len(sweeps) < MIN_SWEEPS or room():
                sweeps.append(sweep(False))
            metrics, notes = end_to_end(sweeps)
            record.update(notes)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests, digest_mismatches = scan_digests(sweeps)
    attempted = sum(s["ops"] for s in sweeps)
    failed = sum(s["failed"] for s in sweeps) + digest_mismatches
    record.update(
        sweeps=len(sweeps),
        fail_ratio=failed / attempted,
        failures=[f for s in sweeps for f in s["failures"]][:10],
        scan_stdout_sha256=digests,
        per_sweep=[
            {"setup_s": s["setup_s"], "wall_s": s["wall_ns"] / 1e9, "peak_rss_kib": s["peak_rss_kib"], "traced": "layers" in s}
            for s in sweeps
        ],
        elapsed_s=elapsed(),
    )
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

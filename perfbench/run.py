"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload fit_scans --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout; it imports tsui from that checkout's
``src/`` and from nowhere else.  Workloads and metrics are the ones named
in ``BENCHMARK.json``.

``--trace 0`` measures set-up time in fresh processes (import tsui plus
one warm-up op), then runs the workload's closed loop (one client, one op
at a time) in one more fresh process with no wrappers installed, and
reports the end-to-end metrics.  ``--trace 1`` runs the loop untraced and
then traced in one process and reports the per-layer metrics.
``--smoke`` shrinks every workload to a few small ops, for the
benchmark's own tests.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it is the full report: machine facts, seed,
source version, the tail percentile and its sample count, failures.  The
report is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / "perfbench" / "out"

# Set-up is sampled in this many throwaway processes plus the measuring one.
SETUP_PROBES = 2
# Every worker must be done this long after start, inside the 180 s limit.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--smoke", action="store_true", help="a few small ops per workload")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be >= 0")
    return args


def _spawn(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--root", str(ROOT), "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, "--seconds", repr(args.seconds),
    ]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish before the deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child.
    result["setup_s"] = result["ready"] - t0
    return result


def _tail(values: list[float]) -> dict:
    """Value at the highest percentile with at least ten samples above it.

    That percentile is never taken below the 80th (nearest rank): with
    fewer than 50 samples it would fall toward the median, and a 22 s run
    has 12-50 ops.  The percentile and the samples above it are returned
    with the value.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = max(math.ceil(0.8 * n), n - 10) - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / n, "samples_beyond": n - 1 - k, "n": n}


def _end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics of a measured phase, and the report's extras.

    Op times are divided by the reference time measured around each op
    (the mean of the runs before and after it), so the metrics hold still
    while the host's speed drifts.  The raw wall-clock figures go to the
    report.
    """
    phase = result["phase"]
    attempted = phase["attempted"]
    correct = attempted - phase["failed"]
    ref = [(a + b) / 2.0 for a, b in zip(phase["reference_ms"], phase["reference_ms"][1:])]
    lat = phase["latencies_ms"]
    norm = [t / r for t, r in zip(lat, ref)]
    tail = _tail(norm)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_kref": 1e3 * correct / sum(c / r for c, r in zip(phase["cycle_ms"], ref)),
        "op_p50_ref": statistics.median(norm),
        "op_tail_ref": tail["value"],
        "cpu_per_op_ref": statistics.median(c / r for c, r in zip(phase["cpu_ms"], ref)),
        "peak_rss_mb": result["peak_rss_mib"],
        "correct_ratio": correct / attempted,
    }
    raw = {
        "ops_per_s": correct / phase["wall_s"],
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": _tail(lat)["value"],
        "cpu_ms_per_op": sum(phase["cpu_ms"]) / attempted,
        "reference_ms_p50": statistics.median(ref),
    }
    extra = {
        "op_tail": tail,
        "raw": raw,
        "setup_samples_s": setups,
        "fail_ratio": phase["failed"] / attempted,
        "latencies_ms": lat,
        "reference_ms": phase["reference_ms"],
    }
    return metrics, extra


def _machine(worker: dict) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "blas": worker.get("blas"),
        "blas_version": worker.get("blas_version"),
        "blas_threads": worker.get("blas_threads"),
    }


def _source_version() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def run(args) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    if not (ROOT / "src" / "tsui" / "__init__.py").is_file():
        raise BenchError(f"no tsui sources under {ROOT / 'src'}")
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    if args.trace == 0:
        probes = 1 if args.smoke else SETUP_PROBES
        setups = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(probes)]
        worker = _spawn(args, "measure", deadline)
        setups.append(worker["setup_s"])
        values, extra = _end_to_end(worker, setups)
        phases = [worker["phase"]]
        wanted = spec["end_to_end"]
    else:
        worker = _spawn(args, "trace", deadline)
        values = worker["layers"]
        phases = [worker["phase"], worker["traced_phase"]]
        extra = {"spans_file": worker["spans_file"]}
        wanted = spec["per_layer"]

    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"])
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {entry['name']} missing or not finite: {value!r}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    summary = {
        "correct": failed == 0 and not worker["warmup_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        **_source_version(),
        "machine": _machine(worker),
        **extra,
        "failures": [f for p in phases for f in p["failures"]],
        "warmup_failures": worker["warmup_failures"],
        "notes": worker["notes"],
        **summary,
    }
    return summary, report


def main(argv=None) -> int:
    args = _parse(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running worker before this process ends.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        summary, report = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    name = f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps(report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

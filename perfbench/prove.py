"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/prove.py --runs 10                  # every workload, trace 0
    python3 perfbench/prove.py --workload sim_jitter --runs 5
    python3 perfbench/prove.py --runs 10 --out perfbench/out/prove.json

Each run is one ``run.py`` invocation with its own seed, one after the
other.  For every end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread ``(q3 - q1) / median``
and the metric's bound from ``BENCHMARK.json``; a spread at or above a
third of its bound is flagged.  ``setup_s`` is flagged on no spread: only
its median is compared between sets of runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run.py invocation; returns its report line and its result line."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    *_, report, result = proc.stdout.strip().splitlines()
    return json.loads(report), json.loads(result)


def summarize(values: list[float], bound: float | None) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else None
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    bounds = {m["name"]: m.get("bound") for m in wanted}
    summary: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        runs, run_s = [], []
        for k in range(args.runs):
            start = time.monotonic()
            runs.append(run_once(workload, args.first_seed + k, args.seconds, args.trace))
            run_s.append(time.monotonic() - start)
        results = [result for _, result in runs]
        for key in ("git_commit", "src_sha256", "machine"):
            summary.setdefault(key, runs[0][0][key])
        metrics = {
            name: summarize([r["metrics"][name]["value"] for r in results], bounds[name])
            for name in bounds
        }
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        notes = sum((Counter(report["notes"]) for report, _ in runs), Counter())
        summary["workloads"][workload] = {
            "seeds": [args.first_seed + k for k in range(args.runs)],
            "attempted": attempted,
            "failed": failed,
            "notes": dict(notes),
            "run_s": run_s,
            "metrics": metrics,
        }
        if args.trace == 0:
            # Wall-clock figures, unnormalized, as the report carries them.
            summary["workloads"][workload]["raw_medians"] = {
                key: statistics.median(report["raw"][key] for report, _ in runs)
                for key in runs[0][0]["raw"]
            }
        print(
            f"{workload}: {attempted} ops, {failed} failed, notes {dict(notes)}, "
            f"longest run {max(run_s):.1f} s"
        )
        for name, m in metrics.items():
            flag = ""
            if m["bound"] is not None and name != "setup_s" and (m["spread"] is None or m["spread"] >= m["bound"] / 3.0):
                flag = "  <-- spread >= bound/3"
                steady = False
            bound = "-" if m["bound"] is None else f"{m['bound']:.3f}"
            spread = "-" if m["spread"] is None else f"{m['spread']:.4f}"
            print(
                f"  {name:<28s} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                f"q3 {m['q3']:<12.6g} spread {spread} bound {bound}{flag}"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())

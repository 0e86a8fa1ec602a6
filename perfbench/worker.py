"""One workload process: import tsui, run one warm-up op, then measure.

Started by ``run.py``, never by hand.  Modes:

* ``setup``: import and warm up, report when done, exit.
* ``measure``: then run the closed loop with no wrappers installed.
* ``trace``: run the loop untraced for half the time, install the tracer,
  and run it traced for the other half (and at least the workload's
  ``counted_ops`` ops), then report the per-layer metrics.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

import numpy as np

# Inputs of the warm-up op come from an index no measured op uses.
WARMUP_INDEX = 2**31 - 1


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _blas_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line})
    except OSError:  # no /proc: leave the thread count unknown
        return facts
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.argtypes = []
                func.restype = ctypes.c_int
                facts["blas_threads"] = func()
                return facts
    return facts


def reference_ms() -> float:
    """Wall time of a fixed piece of work that does not use tsui.

    Run between ops, it tracks how fast the host runs at that moment: on a
    shared virtual machine the same op takes 20-40% longer or shorter from
    one minute to the next.  It mixes interpreter work, FFTs and sorts, as
    the ops do, and uses no BLAS, so a thread setting cannot move it.
    """
    t0 = time.perf_counter()
    total = 0.0
    for k in range(20000):
        total += k * 0.5
    data = np.random.default_rng(0).standard_normal(2**16)
    for _ in range(20):
        np.fft.rfft(data)
        np.sort(data)
    return (time.perf_counter() - t0) * 1e3


def run_phase(
    workload, seconds: float, min_ops: int, tracer=None, first: int = 0, reference: bool = True
) -> dict:
    """Closed loop: each op starts when the previous one and its check end.

    Runs at least ``min_ops`` ops and goes on starting ops until
    ``seconds`` have passed.  Op ``n`` gets the inputs of index
    ``first + n``.  With ``reference``, ``reference_ms`` runs before the
    first op and after every op, outside the op and cycle times.
    """
    measure_reference = reference_ms if reference else lambda: 0.0
    latencies: list[float] = []
    cpu: list[float] = []
    cycles: list[float] = []
    reference_times = [measure_reference()]
    failures: list[str] = []
    workload.workdir = tempfile.mkdtemp(prefix="phase-", dir=workload.basedir)
    start = time.perf_counter()
    n = 0
    while n < min_ops or time.perf_counter() - start < seconds:
        c0 = time.perf_counter()
        i = first + n
        inputs = workload.make_input(i)
        error = None
        if tracer is not None:
            tracer.begin_op()
        t0, p0 = time.perf_counter(), time.process_time()
        try:
            out = workload.op(inputs)
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=-2)
        t1, p1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            if error is None:
                for key, value in workload.op_counters(out).items():
                    tracer.count(key, value)
            tracer.end_op()
        if error is None:
            try:
                workload.check(inputs, out)
            except Exception as exc:  # malformed output fails the check too
                error = f"{type(exc).__name__}: {exc}"
        workload.cleanup(inputs)
        cycles.append((time.perf_counter() - c0) * 1e3)
        latencies.append((t1 - t0) * 1e3)
        cpu.append((p1 - p0) * 1e3)
        if error is not None:
            failures.append(f"op {i}: {error}")
        reference_times.append(measure_reference())
        n += 1
    wall = time.perf_counter() - start
    shutil.rmtree(workload.workdir, ignore_errors=True)
    return {
        "attempted": len(latencies),
        "failed": len(failures),
        "failures": failures[:5],
        "latencies_ms": latencies,
        "cpu_ms": cpu,
        "cycle_ms": cycles,
        "reference_ms": reference_times,
        "wall_s": wall,
    }


def _per_reference(phase: dict) -> list[float]:
    """Each op's time over the mean of the reference times around it."""
    ref = phase["reference_ms"]
    return [t / ((a + b) / 2.0) for t, a, b in zip(phase["latencies_ms"], ref, ref[1:])]


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tsui

    if not os.path.abspath(tsui.__file__).startswith(src + os.sep):
        print(f"error: tsui imported from {tsui.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    basedir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, "perfbench", "out"))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, basedir)
        # Set-up ends with the warm-up op, so no reference job runs here.
        warm = run_phase(workload, 0.0, 1, first=WARMUP_INDEX, reference=False)
        ready = time.perf_counter()
        workload.notes.clear()
        result = {"ready": ready, "warmup_failures": warm["failures"]}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0
        result.update(_blas_facts())
        min_ops = 3 if args.smoke else 1
        if args.mode == "measure":
            result["phase"] = run_phase(workload, args.seconds, min_ops)
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            from tracer import Tracer

            counted = min(workload.counted_ops, 2) if args.smoke else workload.counted_ops
            plain = run_phase(workload, args.seconds / 2.0, min_ops)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, args.seconds / 2.0, max(min_ops, counted), tracer)
            finally:
                tracer.uninstall()
            result["phase"] = plain
            result["traced_phase"] = traced
            result["layers"] = tracer.layer_metrics(counted, _per_reference(plain), _per_reference(traced))
            spans = os.path.join(root, "perfbench", "out", f"spans-{args.workload}-{args.seed}.jsonl")
            tracer.write(spans)
            result["spans_file"] = os.path.relpath(spans, root)
        result["notes"] = dict(workload.notes)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(basedir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())

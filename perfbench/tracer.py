"""Spans and counters for the benchmark's traced run.

The tracer wraps public tsui functions at every tsui module attribute that
holds them, so a call from one module into another (``tsui.simulate``
calling ``seeded_tmss``, ``tsui.fitting`` calling its imported
``least_squares``) is caught as well as a direct call.  ``numpy.fft.rfft``
is wrapped for counts only: it is the readout's inner kernel, and a span
around it would hide readout time from ``simulate.readout_ms``.

Spans live in memory as ``[name, start, end, parent, op]`` rows and are
written out once, when the run ends.  Nothing is recorded outside an op,
so input generation and correctness checks never show up in the trace.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter

MIB = 2.0**20

# Time metrics: median over traced ops of the time one op spends in the
# named spans.  A span nested inside another span of the same set is not
# counted twice.  "self" subtracts the time covered by child spans.
_TIME_METRICS = {
    "fitting.fit_ms": ({"fitting.fit"}, "total"),
    "fitting.bootstrap_ms": ({"fitting.bootstrap"}, "total"),
    "fitting.overlay_ms": ({"fitting.overlay"}, "total"),
    "metrology.curve_table_ms": ({"metrology.curve_table"}, "total"),
    "simulate.records_ms": ({"simulate.records"}, "total"),
    "simulate.readout_ms": ({"simulate.scan"}, "self"),
    "fock.build_ms": ({"fock.build"}, "total"),
    "fock.loss_ms": ({"fock.loss"}, "total"),
    "fock.bundle_ms": ({"fock.bundle"}, "total"),
    "gaussian.state_build_ms": ({"gaussian.seeded_tmss", "gaussian.apply_loss"}, "total"),
    "cli.simulate_ms": ({"cli.simulate"}, "total"),
    "cli.fit_ms": ({"cli.fit"}, "total"),
}

# Counters averaged per op over the deterministic prefix.
_PER_OP_COUNTERS = {
    "metrology.model_evals": "model_evals",
    "metrology.lambda_opt_calls": "lambda_opt_calls",
    "simulate.records_calls": "records_calls",
    "simulate.records_mb": "records_bytes",
    "simulate.rfft_calls": "rfft_calls",
    "simulate.rfft_rows": "rfft_rows",
    "fock.branches": "branches",
    "fock.branch_mb": "branch_bytes",
    "gaussian.state_build_calls": "state_build_calls",
    "cli.bytes_written": "bytes_written",
}


class Tracer:
    """In-memory span and counter store; one instance per traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op_counts: list[Counter] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._best_cost: dict[int, float] = {}

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self) -> None:
        self._op = len(self.op_counts)
        self.op_counts.append(Counter())
        self._open("op")

    def end_op(self) -> None:
        # Wrapped spans close themselves, even when the call raises.
        self._close(self._stack[-1])
        self._op = None

    def count(self, key: str, amount: float = 1) -> None:
        if self._op is not None:
            self.op_counts[self._op][key] += amount

    # -- wrapping --------------------------------------------------------

    def _replace(self, original, wrapper, modules) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def _span_wrapper(self, func, name, after=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            idx = tracer._open(name(args) if callable(name) else name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(idx)
            if after is not None:
                after(idx, result)
            return result

        return wrapper

    def _count_wrapper(self, func, key, rows=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            result = func(*args, **kwargs)
            if tracer._op is not None:
                counts = tracer.op_counts[tracer._op]
                counts[key] += 1
                if rows is not None:
                    counts[rows] += _rows(args, kwargs)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the public entry points of every tsui layer."""
        import numpy
        from tsui import cli, fitting, fock, gaussian, metrology, simulate

        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "tsui"]

        def after_fit_start(idx, res):
            fit_idx = self.spans[idx][3]
            self.count("starts")
            self.count("nfev", res.nfev)
            self.count("njev", res.njev or 0)
            best = self._best_cost.get(fit_idx)
            if res.status > 0 and (best is None or res.cost < best * (1.0 - 1e-9)):
                self._best_cost[fit_idx] = res.cost
                self.count("useful_starts")

        def after_fit(idx, res):
            self.count("fits")

        def after_records(idx, record):
            self.count("records_calls")
            self.count("records_bytes", record.probe.nbytes + record.conjugate.nbytes)

        def after_build(idx, result):
            deficit = result[1].norm_deficit
            counts = self.op_counts[self._op]
            counts["norm_deficit_max"] = max(counts["norm_deficit_max"], deficit)

        def after_loss(idx, ensemble):
            counts = self.op_counts[self._op]
            counts["branches"] = max(counts["branches"], ensemble.branches.shape[0])
            counts["branch_bytes"] = max(counts["branch_bytes"], ensemble.branches.nbytes)

        def after_state(idx, state):
            self.count("state_build_calls")

        spans = [
            (gaussian.seeded_tmss, "gaussian.seeded_tmss", after_state),
            (gaussian.apply_loss, "gaussian.apply_loss", after_state),
            (metrology.curve_noise_vs_lambda, "metrology.curve_table", None),
            (metrology.curve_lambda_opt_vs_gain, "metrology.curve_table", None),
            (metrology.curve_sensitivity_vs_gain, "metrology.curve_table", None),
            (metrology.curve_snri_vs_lambda, "metrology.curve_table", None),
            (fitting.fit_noise_curve, "fitting.fit", after_fit),
            (fitting.least_squares, "fitting.least_squares", after_fit_start),
            (fitting.extract_lambda_opt, "fitting.bootstrap", None),
            (fitting.overlay_theory, "fitting.overlay", None),
            (simulate.simulate_records, "simulate.records", after_records),
            (simulate.measure_noise_vs_lambda, "simulate.scan", None),
            (fock.build_seeded_tmss_fock, "fock.build", after_build),
            (fock.apply_loss_fock, "fock.loss", after_loss),
            (fock.oracle_moment_bundle, "fock.bundle", None),
            (cli.main, lambda args: "cli." + str(args[0][0]), None),
        ]
        for func, name, after in spans:
            self._replace(func, self._span_wrapper(func, name, after), modules)
        counted = [
            (metrology.joint_variance_quadratic, "model_evals", None, modules),
            (metrology.lambda_opt, "lambda_opt_calls", None, modules),
            (numpy.fft.rfft, "rfft_calls", "rfft_rows", [numpy.fft]),
        ]
        for func, key, rows, where in counted:
            self._replace(func, self._count_wrapper(func, key, rows), where)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # -- reduction -------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line."""
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, n_det: int, plain: list[float], traced: list[float]) -> dict:
        """Reduce spans and counters to the per-layer metrics.

        Args:
            n_det: number of leading traced ops the deterministic counters
                are taken over.
            plain: op times with no wrappers installed, each over the
                reference time around it.
            traced: the same for the traced ops.  Op ``i`` of both lists
                had the same inputs, so the tracing overhead is the median
                of the paired ratios.
        """
        n_ops = len(self.op_counts)
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child_ms[parent] += (end - start) * 1e3
        per_op: dict[str, list[float]] = {key: [0.0] * n_ops for key in _TIME_METRICS}
        op_ms = [0.0] * n_ops
        covered_ms = [0.0] * n_ops
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            dur = (end - start) * 1e3
            if name == "op":
                op_ms[op] = dur
                covered_ms[op] = child_ms[idx]
                continue
            parent_name = self.spans[parent][0] if parent is not None else None
            for key, (names, mode) in _TIME_METRICS.items():
                if name in names and parent_name not in names:
                    per_op[key][op] += dur if mode == "total" else dur - child_ms[idx]

        out = {key: statistics.median(values) for key, values in per_op.items()}
        det = self.op_counts[:n_det]
        total = sum(det, Counter())
        fits = total["fits"]
        starts = total["starts"]
        out["fitting.starts_per_fit"] = starts / fits if fits else 0.0
        out["fitting.nfev_per_fit"] = total["nfev"] / fits if fits else 0.0
        out["fitting.njev_per_fit"] = total["njev"] / fits if fits else 0.0
        out["fitting.useful_start_ratio"] = total["useful_starts"] / starts if starts else 0.0
        for key, counter in _PER_OP_COUNTERS.items():
            value = total[counter] / len(det)
            out[key] = value / MIB if key.endswith("_mb") else value
        out["fock.norm_deficit_max"] = max(c["norm_deficit_max"] for c in det)
        ratios = [t / p for p, t in zip(plain, traced)]
        out["trace_overhead_pct"] = 100.0 * (statistics.median(ratios) - 1.0)
        out["trace.span_coverage_pct"] = 100.0 * sum(covered_ms) / sum(op_ms)
        return out


def _rows(args, kwargs) -> int:
    # Number of 1-D transforms in one rfft(a, n, axis) call.
    shape = getattr(args[0], "shape", ())
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    if not shape or not shape[axis]:
        return 1
    rows = 1
    for i, size in enumerate(shape):
        if i != axis % len(shape):
            rows *= size
    return rows

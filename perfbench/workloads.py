"""The benchmark's workloads: inputs, one op, and its correctness check.

An op is one user-visible result.  Each workload makes the inputs of op
``i`` from ``(seed, i)`` alone, so a run is reproducible from its seed,
runs the op through public tsui entry points only, and checks the
result against a closed form or an independent code path.  ``smoke``
shrinks the sizes where the checks allow it (bootstrap draws, scan
weights, trials) so the benchmark's own tests run in seconds; the checks
stay the same.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
import shutil

import numpy as np
from tsui import cli, fitting, fock, gaussian, metrology, simulate


class CheckFailed(Exception):
    """An op finished but its output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _quiet_main(argv: list[str]) -> int:
    # The CLI reports to stdout; keep it off the benchmark's result stream.
    # ``cli.main`` is looked up at call time so the traced run sees it.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _theory_db(params: gaussian.InterferometerParams, lam: np.ndarray, extra: float = 0.0):
    v_p, v_c, cross = metrology.joint_variance_quadratic(params.gain, params.eta_p, params.eta_c)
    return 10.0 * np.log10(v_p + lam * lam * v_c + 2.0 * lam * cross + extra * (1.0 + lam * lam))


class Workload:
    """Base: subclasses define ``make_input``, ``op`` and ``check``."""

    name = ""
    # Leading traced ops the deterministic per-layer counters cover.
    counted_ops = 1

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        # Files of one run live under basedir; ops write into workdir.
        self.basedir = self.workdir = workdir
        # Findings that do not fail an op, carried into the report.
        self.notes: collections.Counter = collections.Counter()

    def rng(self, i: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, i])

    def op_counters(self, out) -> dict:
        """Counters the op's output carries, recorded in the traced run."""
        return {}

    def check_scan(self, dataset, theory_db: np.ndarray) -> None:
        """Every point of a simulated scan within 0.1 dB of theory.

        The points of one scan share their records, so the largest of 21
        gaps exceeds 0.1 dB (about 3 quoted standard errors at 2 trials)
        for about 2% of seeds: 3 of 150 reached up to 0.146 dB, at most
        3.97 sigma_db.  A point fails only beyond the larger of 0.1 dB and
        5 sigma_db; points past 0.1 dB alone are counted in the report's
        notes.
        """
        gap = np.abs(dataset.noise_db - theory_db)
        self.notes["scan_points_over_0.1dB"] += int(np.sum(gap > 0.1))
        worst = int(np.argmax(gap / np.maximum(0.1, 5.0 * dataset.sigma_db)))
        _require(
            gap[worst] <= max(0.1, 5.0 * dataset.sigma_db[worst]),
            f"scan point {gap[worst]:.4f} dB from theory "
            f"(tol max(0.1, 5 x {dataset.sigma_db[worst]:.4f}))",
        )

    def cleanup(self, inputs) -> None:
        """Remove what ``make_input`` or the op left on disk."""


class FitScans(Workload):
    """Fit synthetic 21-point scans at the two criterion-6 settings.

    One op is one repetition of acceptance criterion 6: a scan at each
    setting, each fitted, its weight extracted and its overlays written.
    At G=1.2 the fit needs either about 400 or about 700 residual
    evaluations, depending on the noise draw.  With one scan per op, the
    per-run median therefore moved with how many of a run's ~40 scans
    fell in the slow group: 11% spread over ten seeds from evaluation
    counts alone, against 5% with both settings in one op.
    """

    name = "fit_scans"
    counted_ops = 5
    SETTINGS = (
        gaussian.InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79),
        gaussian.InterferometerParams(gain=1.2, eta_p=0.73, eta_c=0.76),
    )
    NOISE_DB = 0.05

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.lam = np.linspace(0.0, 1.0, 21)
        self.clean = [_theory_db(p, self.lam) for p in self.SETTINGS]
        self.targets = [metrology.lambda_opt(p) for p in self.SETTINGS]
        self.overlay_grid = np.linspace(0.0, 1.0, 101)
        self.n_bootstrap = 20 if smoke else 200

    def make_input(self, i: int):
        rng = self.rng(i)
        return [
            fitting.NoiseDataset(
                lam=self.lam,
                noise_db=clean + rng.normal(0.0, self.NOISE_DB, self.lam.size),
                sigma_db=np.full(self.lam.size, self.NOISE_DB),
            )
            for clean in self.clean
        ]

    def op(self, datasets):
        results = []
        for dataset in datasets:
            fit = fitting.fit_noise_curve(dataset)
            est = fitting.extract_lambda_opt(dataset, fit, n_bootstrap=self.n_bootstrap)
            overlays = [
                fitting.overlay_theory(fit, kind, self.overlay_grid)
                for kind in (metrology.SqlKind.SQL1, metrology.SqlKind.SQL2)
            ]
            results.append((est, overlays))
        return results

    def check(self, datasets, out) -> None:
        for target, (est, overlays) in zip(self.targets, out):
            err = abs(est.value - target)
            _require(err <= 0.02, f"lambda_opt estimate off by {err:.4f} > 0.02")
            gap = overlays[0].rows[:, 1] - overlays[1].rows[:, 1]
            _require(
                np.allclose(gap, metrology.LOG2_DB, rtol=0.0, atol=1e-12),
                "SQL1 and SQL2 overlays do not differ by 10 log10 2",
            )


class SimScan(Workload):
    """``tsui simulate`` then ``tsui fit --overlay``, through ``cli.main``."""

    name = "sim_scan"
    counted_ops = 3
    PARAMS = gaussian.InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79, alpha=50.0)

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.lambdas = "0:1:0.25" if smoke else "0:1:0.05"
        self.n_points = 5 if smoke else 21

    def make_input(self, i: int):
        directory = os.path.join(self.workdir, f"sim_scan-{i}")
        os.makedirs(directory)
        config = os.path.join(directory, "run.cfg")
        p = self.PARAMS
        with open(config, "w") as fh:
            fh.write(
                f"gain = {p.gain}\neta_p = {p.eta_p}\neta_c = {p.eta_c}\nalpha = {p.alpha}\n"
                f"rng_seed = {self.seed * 100003 + i}\n"
            )
        return directory, config

    def op(self, inputs):
        directory, config = inputs
        scan = os.path.join(directory, "scan.csv")
        fit = os.path.join(directory, "fit.json")
        overlay = os.path.join(directory, "overlay")
        codes = (
            _quiet_main(
                ["simulate", "--config", config, "--lambdas", self.lambdas,
                 "--trials", "2", "--out", scan]
            ),
            _quiet_main(["fit", "--data", scan, "--out", fit, "--overlay", overlay]),
        )
        outputs = [scan, fit, overlay + "_sql1.csv", overlay + "_sql2.csv"]
        return codes, outputs

    def op_counters(self, out) -> dict:
        _, outputs = out
        return {"bytes_written": sum(os.path.getsize(p) for p in outputs if os.path.exists(p))}

    def check(self, inputs, out) -> None:
        codes, (scan, fit, *overlays) = out
        _require(codes == (0, 0), f"CLI exit codes {codes}, expected (0, 0)")
        data = fitting.load_noise_csv(scan)
        _require(len(data) == self.n_points, f"scan CSV has {len(data)} rows, not {self.n_points}")
        self.check_scan(data, _theory_db(self.PARAMS, data.lam))
        with open(fit) as fh:
            result = json.load(fh)
        _require(math.isfinite(result["gain"]), "fit.json has no finite gain")
        for path in overlays:
            with open(path) as fh:
                _require(sum(1 for line in fh if not line.startswith("#")) == 102,
                         f"{os.path.basename(path)} does not hold 101 rows")

    def cleanup(self, inputs) -> None:
        shutil.rmtree(inputs[0], ignore_errors=True)


class SimJitter(Workload):
    """Noisy multi-trial scan: lock jitter, electronic noise, 8 trials."""

    name = "sim_jitter"
    counted_ops = 3
    PARAMS = SimScan.PARAMS
    ELECTRONIC = 0.1

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.grid = np.linspace(0.6, 1.0, 5)
        self.trials = 2 if smoke else 8

    def make_input(self, i: int):
        return simulate.SimConfig(
            params=self.PARAMS,
            lock_jitter_rms=0.02,
            electronic_noise_var=self.ELECTRONIC,
            rng_seed=self.seed * 100003 + i,
        )

    def op(self, config):
        dataset = simulate.measure_noise_vs_lambda(config, self.grid, trials=self.trials)
        fit = fitting.fit_noise_curve(dataset)
        est = fitting.extract_lambda_opt(dataset, fit)
        return dataset, est

    def check(self, config, out) -> None:
        dataset, est = out
        self.check_scan(dataset, _theory_db(self.PARAMS, dataset.lam, self.ELECTRONIC))
        _require(0.0 <= est.value <= 1.0, f"lambda_opt estimate {est.value} outside [0, 1]")


class Theory(Workload):
    """Fock oracle against the Gaussian model, then one curve table.

    Like ``tsui verify``, one op checks a (gain, alpha) setting both
    lossless and after loss eta = 0.76 on each arm.  Alternating the two
    transmissions between ops instead made op times bimodal (12-60 ms
    lossless, 330-760 ms lossy) and the median jump between the modes.
    """

    name = "theory"
    counted_ops = 6
    GRID = [(g, a) for g in (1.2, 1.5, 2.0) for a in (0.0, 0.5, 1.0)]
    ETA = 0.76
    FIGURES = ("fig3", "fig4a", "fig4b", "fig6", "fig8")
    LAMBDAS = (0.0, 0.5, 1.0)

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        super().__init__(seed, smoke, workdir)
        self.order = np.random.default_rng([seed, 1 << 30]).permutation(len(self.GRID))

    def make_input(self, i: int):
        gain, alpha = self.GRID[self.order[i % len(self.GRID)]]
        figure = self.FIGURES[i % len(self.FIGURES)]
        path = os.path.join(self.workdir, f"theory-{i}-{figure}.csv")
        return gain, alpha, figure, path

    def op(self, inputs):
        gain, alpha, figure, path = inputs
        eta = self.ETA
        pure, _ = fock.build_seeded_tmss_fock(gain, alpha, cutoff=40)
        lossy = fock.apply_loss_fock(fock.apply_loss_fock(pure, eta, "probe"), eta, "conjugate")
        pure_gauss = gaussian.seeded_tmss(gaussian.InterferometerParams(gain=gain, alpha=alpha))
        pairs = [
            (fock.oracle_moment_bundle(pure, self.LAMBDAS), pure_gauss),
            (fock.oracle_moment_bundle(lossy, self.LAMBDAS), gaussian.apply_loss(pure_gauss, eta, eta)),
        ]
        code = _quiet_main(["curves", figure, "--out", path])
        return pairs, code

    def check(self, inputs, out) -> None:
        *_, figure, path = inputs
        pairs, code = out
        # The moment set of acceptance criterion 5: joint readout and
        # single-mode quadrature means and variances.
        gaps = []
        for bundle, gauss in pairs:
            for lam, mean, var in bundle["joint"]:
                g_mean, g_var = gaussian.joint_quadrature_stats(gauss, lam)
                gaps += [abs(mean - g_mean), abs(var - g_var)]
            for base, mode in ((0, "probe"), (2, "conjugate")):
                for idx, quad in ((0, "x"), (1, "y")):
                    mean, var = bundle[mode][quad]
                    gaps += [abs(mean - gauss.mean[base + idx]),
                             abs(var - gauss.cov[base + idx, base + idx])]
                # Photon-number moments are not part of criterion 5; at
                # cutoff 40 they miss 1e-6 for G=2, alpha=1 (see README).
                mean_n, var_n = bundle[mode]["n"]
                moments = gaussian.photon_moments(gauss, mode)
                if max(abs(mean_n - moments.mean_n), abs(var_n - moments.var_n)) > 1e-6:
                    self.notes["photon_moments_over_1e-6"] += 1
        _require(max(gaps) <= 1e-6, f"oracle-vs-Gaussian moment gap {max(gaps):.3e} > 1e-6")
        _require(code == 0, f"tsui curves {figure} exited {code}")
        _check_curve_csv(path)

    def cleanup(self, inputs) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(inputs[-1])


def _check_curve_csv(path: str) -> None:
    """Parse a curve table CSV back and put it through CurveTable validation."""
    label, columns, rows = None, None, []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("# label = "):
                label = line[len("# label = "):]
            elif line.startswith("#"):
                continue
            elif columns is None:
                columns = tuple(line.split(","))
            else:
                rows.append([float(v) for v in line.split(",")])
    _require(label is not None and columns is not None, f"{path}: no label or header")
    try:
        metrology.CurveTable(label, columns, np.array(rows))
    except ValueError as exc:
        raise CheckFailed(f"{path}: {exc}") from None


WORKLOADS = {w.name: w for w in (FitScans, SimScan, SimJitter, Theory)}

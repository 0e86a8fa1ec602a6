import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult

import tsui
from tsui import cli, fock, simulate
from tsui.cli import main, parse_span
from tsui.data import NoiseDataset, format_csv, load_noise_csv
from tsui.gaussian import (
    InterferometerParams,
    apply_loss,
    joint_quadrature_stats,
    photon_moments,
    seeded_tmss,
)
from tsui.metrology import joint_variance_quadratic, lambda_opt


def read_csv(path):
    lines = [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def write_scan_csv(path, gain, eta_p, eta_c, n=21):
    lam = np.linspace(0.0, 1.0, n)
    vp, vc, cr = joint_variance_quadratic(gain, eta_p, eta_c)
    db = 10.0 * np.log10(vp + lam**2 * vc + 2.0 * lam * cr)
    NoiseDataset(lam=lam, noise_db=db, sigma_db=np.full(n, 0.05)).to_csv(str(path))


class TestParseSpan:
    def test_grid_includes_endpoint(self):
        grid = parse_span("1:5:0.1")
        assert grid.size == 41
        assert grid[0] == 1.0
        assert math.isclose(grid[-1], 5.0, abs_tol=1e-12)
        assert parse_span("0:1:0.05").size == 21

    def test_comma_list_and_scalar(self):
        assert np.allclose(parse_span("0,0.5,1"), [0.0, 0.5, 1.0])
        assert np.allclose(parse_span("0.3"), [0.3])

    def test_bad_spans_rejected(self):
        for text in ("5:1:0.1", "1:2:0", "1:2:-0.5", "a:b:c", "1:2:0.1:9", ""):
            with pytest.raises(ValueError):
                parse_span(text)

    def test_unbounded_spans_rejected_before_allocating(self, monkeypatch):
        # Each of these would overflow or ask for a huge grid; fail the
        # test instead of allocating if the guard ever lets one through.
        real_arange = np.arange

        def guarded_arange(n, *args, **kwargs):
            assert n <= cli.MAX_GRID_POINTS + 1
            return real_arange(n, *args, **kwargs)

        monkeypatch.setattr(np, "arange", guarded_arange)
        for text in ("0:1e300:1e-300", "0:1:1e-9", "0:inf:1", "nan:1:0.1", "-1e308:1e308:1"):
            with pytest.raises(ValueError):
                parse_span(text)
        assert parse_span("0:1:0.01").size == 101

    def test_unbounded_spans_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np, "arange", None)  # nothing may be allocated
        out = tmp_path / "x.csv"
        for text in ("0:1e300:1e-300", "0:1:1e-9"):
            assert main(["curves", "fig4a", "--lambdas", text, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
        assert not out.exists()


    @settings(derandomize=True, deadline=None)
    @given(
        start=st.floats(-1e3, 1e3),
        width=st.floats(0.0, 1e3),
        step=st.floats(1e-3, 1e3),
    )
    def test_range_properties(self, start, width, step):
        # Any valid range: evenly spaced from start, never past stop, and
        # no grid point left out before it.  A range of MAX_GRID_POINTS
        # steps or more is refused, as width 391 at step 2^-8 is.
        stop = start + width
        text = f"{start!r}:{stop!r}:{step!r}"
        if not (stop - start) / step < cli.MAX_GRID_POINTS:
            with pytest.raises(ValueError, match="exceeds"):
                parse_span(text)
            return
        values = parse_span(text)
        n = values.size
        assert n >= 1 and values[0] == start
        assert np.array_equal(values, start + step * np.arange(n))
        assert values[-1] <= stop + 1e-12
        assert start + step * n > stop - 1e-9 * max(1.0, abs(stop))

    @settings(derandomize=True, deadline=None)
    @given(
        eighths=st.integers(-80, 80),
        exponent=st.integers(0, 8),
        steps=st.integers(0, 5000),
    )
    def test_exact_range_count(self, eighths, exponent, steps):
        # Dyadic grids are exact, so the count and the endpoint are too.
        start, step = eighths / 8, 2.0**-exponent
        stop = start + steps * step
        values = parse_span(f"{start!r}:{stop!r}:{step!r}")
        assert values.size == steps + 1
        assert values[-1] == stop

    @settings(derandomize=True, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20
        ),
        st.sampled_from([",", ", ", " ,"]),
    )
    def test_comma_list_round_trip(self, values, sep):
        text = sep.join(repr(v) for v in values)
        assert np.array_equal(parse_span(text), values)
        assert np.array_equal(parse_span(text + ","), values)


class TestCurves:
    def test_fig4b_lossless_row(self, tmp_path):
        out = tmp_path / "w.csv"
        code = main(
            ["curves", "fig4b", "--eta", "1.0", "--gain", "1:5:0.1", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header[0] == "gain"
        assert rows.shape == (41, 2)
        idx = int(np.argmin(np.abs(rows[:, 0] - 2.0)))
        assert rows[idx, 0] == 2.0
        # Full-precision serialization: the stored weight round-trips.
        assert rows[idx, 1] == lambda_opt(InterferometerParams(gain=2.0))
        assert rows[0, 1] == 0.0

    def test_fig4b_default_etas(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["curves", "fig4b"]) == 0
        header, rows = read_csv(tmp_path / "fig4b.csv")
        assert len(header) == 4
        assert rows.shape[0] == 81

    def test_fig6_low_gain_crossover(self, tmp_path):
        out = tmp_path / "snri.csv"
        assert main(["curves", "fig6", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["lambda", "snri_sql2_G1.1", "snri_sql1_G1.1"]
        assert rows.shape[0] == 101
        balanced = rows[-1]
        assert math.isclose(balanced[0], 1.0, abs_tol=1e-12)
        assert math.isclose(balanced[1], -0.3075, abs_tol=1e-3)
        assert balanced[1] < 0.0 < balanced[2]
        assert np.min(rows[:, 1]) < -0.75

    def test_fig3_coherent_limit_row(self, tmp_path):
        out = tmp_path / "sens.csv"
        assert main(["curves", "fig3", "--gain", "1:2:0.5", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "gain",
            "alpha_dphi_balanced",
            "alpha_dphi_optimal",
            "alpha_dphi_qcrb",
        ]
        g1 = rows[0]
        assert math.isclose(g1[1], math.sqrt(2.0) / 2.0, rel_tol=1e-12)
        assert math.isclose(g1[2], 0.5, rel_tol=1e-12)
        assert math.isclose(g1[3], 0.5, rel_tol=1e-9)

    def test_fig4a_json_output(self, tmp_path):
        out = tmp_path / "noise.json"
        code = main(
            ["curves", "fig4a", "--gain", "2.0", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["columns"] == ["lambda", "variance", "noise_db"]
        assert len(data["rows"]) == 101
        assert math.isclose(data["meta"]["lambda_opt"], 0.9428090415820631, rel_tol=1e-12)

    def test_fig4a_rejects_multiple_etas(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(
            ["curves", "fig4a", "--eta", "1.0", "--eta", "0.9", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    # Each figure with every flag it reads (all must work) and the flags
    # it does not read (each must exit 2, naming the flag, writing nothing).
    FLAGS = {
        "fig3": ({"--gain": "1:2:0.5", "--alpha": "3"}, ("--eta", "--lambdas")),
        "fig4a": (
            {"--gain": "2", "--eta": "0.9,0.8", "--alpha": "3", "--lambdas": "0:1:0.5"},
            (),
        ),
        "fig4b": ({"--gain": "1:2:0.5", "--eta": "0.9"}, ("--alpha", "--lambdas")),
        "fig6": (
            {"--gain": "1.1,1.2", "--eta": "0.9", "--lambdas": "0:1:0.5"},
            ("--alpha",),
        ),
        "fig8": ({"--gain": "1:2:0.5", "--eta": "0.9"}, ("--alpha", "--lambdas")),
    }
    UNREAD_VALUES = {"--eta": "0.5", "--lambdas": "0:1:0.5", "--alpha": "3"}

    @pytest.mark.parametrize("figure", sorted(FLAGS))
    def test_flags_the_figure_does_not_read_exit_2(self, figure, tmp_path, capsys):
        reads, unread = self.FLAGS[figure]
        out = tmp_path / "x.csv"
        argv = ["curves", figure, "--out", str(out)]
        assert main(argv + [t for kv in reads.items() for t in kv]) == 0
        out.unlink()
        for flag in unread:
            assert main(argv + [flag, self.UNREAD_VALUES[flag]]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {figure} does not read {flag}")
            assert not out.exists()

    def test_all_unread_flags_named(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        argv = ["curves", "fig4b", "--lambdas", "0:1:0.5", "--alpha", "3", "--out", str(out)]
        assert main(argv) == 2
        assert "fig4b does not read --alpha, --lambdas" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_defaults_to_100(self, tmp_path):
        for figure in ("fig3", "fig4a"):
            default, explicit = tmp_path / "d.json", tmp_path / "e.json"
            assert main(["curves", figure, "--format", "json", "--out", str(default)]) == 0
            argv = ["curves", figure, "--alpha", "100", "--format", "json"]
            assert main(argv + ["--out", str(explicit)]) == 0
            assert default.read_bytes() == explicit.read_bytes()
            assert json.loads(default.read_text())["meta"]["alpha"] == 100.0

    def test_fig6_rejects_multiple_etas(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["curves", "fig6", "--eta", "1.0", "--eta", "0.9", "--out", str(out)])
        assert code == 2
        assert "fig6 takes a single --eta setting" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_grid_exits_2(self, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["curves", "fig4b", "--gain", "5:1:0.1", "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_figure_exits_2(self, capsys):
        assert main(["curves", "fig9"]) == 2

    def test_missing_output_dir_leaves_no_file(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        assert main(["curves", "fig4b", "--out", str(out)]) == 2
        assert not out.exists()
        assert not out.parent.exists()

    def test_directory_as_output_exits_2(self, tmp_path, capsys):
        assert main(["curves", "fig3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path}: it is a directory" in err
        assert list(tmp_path.iterdir()) == []

    def test_output_mode_follows_umask(self, tmp_path):
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        old = os.umask(0o027)
        try:
            assert main(["curves", "fig4b", "--out", str(tmp_path / "w.csv")]) == 0
            assert main(["curves", "fig4a", "--format", "json",
                         "--out", str(tmp_path / "n.json")]) == 0
            assert main(["fit", "--data", str(data), "--out", str(tmp_path / "f.json"),
                         "--overlay", str(tmp_path / "ov")]) == 0
        finally:
            os.umask(old)
        for name in ("w.csv", "n.json", "f.json", "ov_sql1.csv", "ov_sql2.csv"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640, name


class TestLambdaOpt:
    def test_prints_full_precision(self, capsys):
        code = main(
            ["lambda-opt", "--gain", "1.67", "--eta-p", "0.76", "--eta-c", "0.79"]
        )
        assert code == 0
        line = capsys.readouterr().out.splitlines()[0]
        assert float(line) == 0.7962950314799236

    def test_no_gain_no_weight(self, capsys):
        assert main(["lambda-opt", "--gain", "1.0"]) == 0
        assert float(capsys.readouterr().out.splitlines()[0]) == 0.0

    def test_numeric_check_line(self, capsys):
        assert main(["lambda-opt", "--gain", "2.0", "--numeric"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert float(out[0]) == lambda_opt(InterferometerParams(gain=2.0))
        assert out[1].startswith("numeric check:")

    def test_unphysical_gain_exits_2(self, capsys):
        # Above MAX_GAIN, G (G - 1) used to overflow into a printed nan
        # (1e308) or a silent 1.0 (1e160, eta 0.5/0.9; the answer is 0.7454).
        for gain in ("0.9", "1e160", "1e308"):
            argv = ["lambda-opt", "--gain", gain, "--eta-p", "0.5", "--eta-c", "0.9"]
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: gain must lie in [1, 1e+150]")

    def test_missing_required_flag(self, capsys):
        assert main(["lambda-opt"]) == 2


class TestSimulate:
    def test_scan_written_and_loadable(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "gain = 1.67\neta_p = 0.76\neta_c = 0.79\n"
            "duration = 0.004\nrng_seed = 3\n"
        )
        out = tmp_path / "scan.csv"
        code = main(
            [
                "simulate",
                "--config",
                str(cfg),
                "--lambdas",
                "0:1:0.25",
                "--trials",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        ds = load_noise_csv(str(out))
        assert len(ds) == 5
        assert ds.source == "simulated"
        assert np.all(ds.sigma_db > 0.0)

    def test_scan_settings_reach_the_csv_and_fit(self, tmp_path):
        # The header records every setting the scan's numbers depend on,
        # and a jittered, noisy scan still fits.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(
            "gain = 1.67\neta_p = 0.76\neta_c = 0.79\nalpha = 50\n"
            "duration = 0.004\nrng_seed = 3\nlock_jitter_rms = 0.02\n"
            "jitter_block = 0.0005\nelectronic_noise_var = 0.1\ntone_depth = 0.01\n"
        )
        out = tmp_path / "scan.csv"
        argv = ["simulate", "--config", str(cfg), "--lambdas", "0:1:0.25", "--trials", "2"]
        assert main(argv + ["--out", str(out)]) == 0
        meta = load_noise_csv(str(out)).meta
        expected = {
            "sample_rate": 8e6,
            "n_samples": 32000,
            "nperseg": 640,
            "segments": 100,
            "lock_jitter_rms": 0.02,
            "jitter_block": 0.0005,
            "electronic_noise_var": 0.1,
            "tone_depth": 0.01,
        }
        assert {key: float(meta[key]) for key in expected} == expected
        # Every parameter and acquisition field, the defaults included.
        keys = {f.name for f in dataclasses.fields(InterferometerParams)}
        keys |= {f.name for f in dataclasses.fields(simulate.SimConfig)} - {"params"}
        assert keys - meta.keys() == set()
        assert float(meta["tone_freq"]) == 1e6
        assert float(meta["duration"]) == 0.004
        fit = tmp_path / "fit.json"
        assert main(["fit", "--data", str(out), "--out", str(fit)]) == 0
        assert math.isfinite(json.loads(fit.read_text())["gain"])

    def test_high_gain_lossless_scan_reads_the_squeezed_floor(self, tmp_path):
        # At G = 1e8 with no loss the balanced readout sits at 2 exp(-2r),
        # -83.01 dB, where LAPACK found each block's covariance not
        # positive definite.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("gain = 1e8\nrng_seed = 3\n")
        out = tmp_path / "scan.csv"
        argv = ["simulate", "--config", str(cfg), "--lambdas", "0:1:0.25", "--out", str(out)]
        assert main(argv) == 0
        ds = load_noise_csv(str(out))
        exp_m2r = 1.0 / (math.sqrt(1e8) + math.sqrt(1e8 - 1.0)) ** 2
        assert ds.lam[-1] == 1.0
        assert abs(ds.noise_db[-1] - 10.0 * math.log10(2.0 * exp_m2r)) <= 0.5

    def test_gain_past_the_simulator_cap_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("gain = 1e13\nduration = 0.004\n")
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "gain (simulated) must lie in" in err
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            ["simulate", "--config", str(tmp_path / "nope.cfg"), "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_non_finite_config_values_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "scan.csv"
        for line in ("rng_seed = inf", "rng_seed = nan", "electronic_noise_var = nan",
                     "electronic_noise_var = inf"):
            cfg.write_text(f"gain = 1.67\nduration = 0.004\n{line}\n")
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and "Traceback" not in err
            assert line.split()[0] in err
            if line.startswith("rng_seed"):
                assert str(cfg) in err
        assert not out.exists()

    def test_oversized_inputs_exit_2_before_allocating(self, tmp_path, capsys, monkeypatch):
        # Fail the test instead of allocating if a cap ever lets one through.
        def guarded(real):
            def alloc(shape, *args, **kwargs):
                assert np.prod(shape) <= 2**16
                return real(shape, *args, **kwargs)

            return alloc

        monkeypatch.setattr(np, "empty", guarded(np.empty))
        monkeypatch.setattr(np, "zeros", guarded(np.zeros))
        cfg = tmp_path / "sim.cfg"
        out = tmp_path / "scan.csv"
        for duration, trials, word in (("1.5", "1", "too long"), ("0.004", "1001", "trials")):
            cfg.write_text(f"gain = 1.67\nduration = {duration}\n")
            argv = ["simulate", "--config", str(cfg), "--trials", trials, "--out", str(out)]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and word in err and "Traceback" not in err
        assert not out.exists()
        assert main(["verify", "--cutoff", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cutoff" in err

    def test_single_segment_scan_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        draws = []
        monkeypatch.setattr(simulate, "_segment_sums", lambda *args: draws.append(args))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"gain = 1.67\nduration = {2**14 / 8e6!r}\n")
        out = tmp_path / "scan.csv"
        argv = ["simulate", "--config", str(cfg), "--trials", "1", "--rbw", "3906.25"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "1 segment" in err and "Traceback" not in err
        assert draws == []
        assert not out.exists()

    def test_jitter_block_shorter_than_a_segment_exits_2(self, tmp_path, capsys, monkeypatch):
        # At --rbw 5e3 a segment is 12,800 samples; the default 1 ms jitter
        # block is 8,000.  The message names both lengths and the fix.
        draws = []
        monkeypatch.setattr(simulate, "_segment_sums", lambda *args: draws.append(args))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("gain = 1.67\nduration = 0.004\nlock_jitter_rms = 0.02\n")
        out = tmp_path / "scan.csv"
        assert main(["simulate", "--config", str(cfg), "--rbw", "5e3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert "8000 samples" in err and "12800-sample" in err and "jitter_block" in err
        assert draws == []
        assert not out.exists()

    def test_bad_band_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch):
        # The band is checked before a 2^23-sample record is drawn.
        draws = []
        monkeypatch.setattr(simulate, "_segment_sums", lambda *args: draws.append(args))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"gain = 1.67\nduration = {2**23 / 8e6!r}\n")
        out = tmp_path / "scan.csv"
        for flags, word in ((["--center-freq", "5e6"], "inside"), (["--rbw", "1"], "too short")):
            argv = ["simulate", "--config", str(cfg), "--trials", "2", "--out", str(out), *flags]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and word in err and "Traceback" not in err
        assert draws == []
        assert not out.exists()

    @pytest.mark.parametrize("where", ["missing", "directory"])
    def test_bad_out_exits_2_before_drawing(self, tmp_path, capsys, monkeypatch, where):
        # A path that cannot be written fails before the scan, naming it.
        draws = []
        monkeypatch.setattr(simulate, "_segment_sums", lambda *args: draws.append(args))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("gain = 1.67\nduration = 0.004\n")
        out = tmp_path / "missing" / "scan.csv" if where == "missing" else tmp_path
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}:") and "tsui-tmp" not in err
        assert draws == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sim.cfg"]


class TestFit:
    def test_fit_with_overlays(self, tmp_path, capsys):
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        out = tmp_path / "fit.json"
        prefix = tmp_path / "overlay"
        code = main(
            [
                "fit",
                "--data",
                str(data),
                "--out",
                str(out),
                "--overlay",
                str(prefix),
            ]
        )
        assert code == 0
        result = json.loads(out.read_text())
        assert abs(result["gain"] - 1.67) < 1e-3
        assert abs(result["eta_c"] - 0.79) < 1e-3
        assert abs(result["lambda_opt_fit"] - 0.7962950314799236) < 1e-4
        # Solver diagnostics: one solve, the coefficient fit, converged.
        assert (result["n_starts"], result["winning_start"]) == (1, "coefficients")
        assert result["status"] > 0 and result["nfev"] > 0
        stdout = capsys.readouterr().out
        assert "lambda_opt estimate" in stdout
        assert "coefficients path" in stdout
        for kind in ("sql2", "sql1"):
            path = tmp_path / f"overlay_{kind}.csv"
            assert path.exists()
            header, rows = read_csv(path)
            assert header == ["lambda", "snri_db"]
            assert rows.shape[0] == 101

    def test_unconstrained_flag(self, tmp_path, capsys):
        # Four parameters for three coefficients cannot be identified, so
        # the mode is gone: the flag is a usage error, and nothing is written.
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.2, 0.73, 0.76)
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", str(data), "--out", str(out), "--unconstrained"])
        assert code == 2
        assert "--unconstrained" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_bad_initial_exits_2(self, tmp_path):
        # The fit takes no start point: --initial is a usage error.
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        code = main(
            ["fit", "--data", str(data), "--out", str(tmp_path / "f.json"),
             "--initial", "1.5,0.8"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags, word",
        [
            (["--overlay", "missing/ov"], "cannot write"),
            (["--out", "missing/f.json"], "cannot write"),
            (["--overlay", "ov", "--lambdas", "0:2:0.5"], "lam must lie in"),
        ],
    )
    def test_bad_output_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch, flags, word):
        # Every output is checked before the fit: nothing is written.
        fits = []
        monkeypatch.setattr(cli.fitting, "fit_noise_curve", lambda *args: fits.append(args))
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        flags = [str(tmp_path / f) if f.startswith(("missing", "ov")) else f for f in flags]
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "f.json"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and word in err
        if word == "cannot write":
            assert str(tmp_path / "missing") in err
        assert fits == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    @pytest.mark.parametrize(
        "column, value", [("sigma_db", 1e300), ("sigma_db", 1e-300), ("noise_db", 1e308)]
    )
    def test_out_of_range_column_exits_2(self, tmp_path, capsys, column, value):
        # Used to end in a ZeroDivisionError traceback (sigma_db 1e300: the
        # sum of 1 / sigma^2 underflows) or in scipy's "Residuals are not
        # finite", which does not name the input.
        lam = np.linspace(0.0, 1.0, 11)
        cols = {"noise_db": 10.0 * np.log10(1.0 + lam**2), "sigma_db": np.full(11, 0.05)}
        cols[column] = np.full(11, value)
        data = tmp_path / "scan.csv"
        rows = zip(lam, cols["noise_db"], cols["sigma_db"])
        data.write_text(format_csv([], ("lambda", "noise_db", "sigma_db"), rows))
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "f.json")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {column} must lie in")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_fit_failure_exits_1_with_the_lowest_cost(self, tmp_path, capsys, monkeypatch):
        costs = iter([6.5, 2.75] + [9.0] * 20)

        def unconverged(fun, x0, **kwargs):
            return OptimizeResult(x=x0, cost=next(costs), fun=fun(x0), status=0, nfev=1, njev=1)

        monkeypatch.setattr(cli.fitting, "least_squares", unconverged)
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "f.json")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: no fit start converged within 400 evaluations (best residual cost 2.75)\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_missing_data_file_exits_2(self, tmp_path):
        code = main(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.json")]
        )
        assert code == 2


class TestVerify:
    def test_default_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "verification PASSED" in out
        assert "FAIL" not in out

    def test_lossless_bright_seed(self, capsys):
        code = main(
            ["verify", "--gain", "1.5", "--alpha", "0.8", "--eta", "1.0",
             "--cutoff", "40", "--lambdas", "0,1"]
        )
        assert code == 0
        assert "verification PASSED" in capsys.readouterr().out

    def test_dense_weight_grid(self, capsys, monkeypatch):
        # 100,000 weights.  The oracle reads seven pair-sum tables per
        # moment bundle whatever the grid; the guard fails a per-weight
        # regression on the count instead of letting it run for minutes.
        pair_sum = fock._pair_sum
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            assert calls <= 14, "table passes grow with the grid"
            return pair_sum(*args)

        monkeypatch.setattr(fock, "_pair_sum", counted)
        assert main(["verify", "--lambdas", "0:1:1e-5"]) == 0
        assert "verification PASSED" in capsys.readouterr().out
        assert calls == 14

    def test_joint_errors_match_per_weight_loop(self, capsys, monkeypatch):
        # The reported joint errors equal the per-weight comparison
        # through gaussian.joint_quadrature_stats, the loop the
        # vectorized evaluation replaced.
        reported = {}
        check = cli._check

        def recording(name, err, tol, lines):
            reported[name] = err
            return check(name, err, tol, lines)

        monkeypatch.setattr(cli, "_check", recording)
        lambdas = [float(v) for v in parse_span("0:1:0.001")]
        assert len(lambdas) == 1001
        args = ["--gain", "1.67", "--alpha", "1", "--eta", "0.76,0.79"]
        assert main(["verify", *args, "--lambdas", "0:1:0.001"]) == 0
        params = InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79, alpha=1.0)
        pure, _ = fock.build_seeded_tmss_fock(params.gain, params.alpha)
        assert f"state build: cutoff={pure.cutoff} " in capsys.readouterr().out

        pure_gauss = seeded_tmss(params)
        cases = {
            "lossless": (pure, pure_gauss),
            "lossy (eta_p=0.76, eta_c=0.79)": (
                fock.apply_loss_fock(
                    fock.apply_loss_fock(pure, 0.76, "probe"), 0.79, "conjugate"
                ),
                apply_loss(pure_gauss, 0.76, 0.79),
            ),
        }
        for tag, (fock_state, gauss_state) in cases.items():
            mean_err = var_err = 0.0
            for lam, fm, fv in fock.oracle_moment_bundle(fock_state, lambdas)["joint"]:
                gm, gv = joint_quadrature_stats(gauss_state, lam)
                mean_err = max(mean_err, abs(fm - gm))
                var_err = max(var_err, abs(fv - gv))
            assert abs(reported[f"{tag}: joint quadrature means"] - mean_err) <= 1e-12
            assert abs(reported[f"{tag}: joint quadrature variances"] - var_err) <= 1e-12

    @pytest.mark.parametrize(
        "gain, alpha, eta_p, eta_c",
        [(1.67, 1.0, 0.76, 0.79), (2.0, 0.0, 0.76, 0.76), (1.5, 0.8, 1.0, 1.0)],
    )
    def test_every_check_matches_elementwise_reference(
        self, capsys, monkeypatch, gain, alpha, eta_p, eta_c
    ):
        # Every row of the table, in order, with its tolerance, and each
        # reported error against the largest elementwise gap between the
        # oracle bundle and the Gaussian state: per quadrature for the
        # single-mode moments (probe x, y, then conjugate x, y), per
        # photon-number mean and variance of each mode.
        reported = []
        check = cli._check

        def recording(name, err, tol, lines):
            reported.append((name, err, tol))
            return check(name, err, tol, lines)

        monkeypatch.setattr(cli, "_check", recording)
        argv = ["verify", "--gain", str(gain), "--alpha", str(alpha)]
        assert main([*argv, "--eta", f"{eta_p},{eta_c}", "--lambdas", "0:1:0.25"]) == 0
        capsys.readouterr()

        params = InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c, alpha=alpha)
        pure, _ = fock.build_seeded_tmss_fock(gain, alpha)
        pure_gauss = seeded_tmss(params)
        expected = []
        if alpha == 0.0:
            r = params.r
            ladder = np.tanh(r) ** np.arange(pure.cutoff + 1) / np.cosh(r)
            err = max(
                float(np.abs(np.diag(pure.amplitudes) - ladder).max()),
                float(np.abs(pure.amplitudes - np.diag(np.diag(pure.amplitudes))).max()),
            )
            expected.append(("photon-pair ladder amplitudes", err, 1e-8))
        cases = [("lossless", pure, pure_gauss)]
        if eta_p < 1.0 or eta_c < 1.0:
            lossy = fock.apply_loss_fock(
                fock.apply_loss_fock(pure, eta_p, "probe"), eta_c, "conjugate"
            )
            tag = f"lossy (eta_p={eta_p:g}, eta_c={eta_c:g})"
            cases.append((tag, lossy, apply_loss(pure_gauss, eta_p, eta_c)))
        lambdas = parse_span("0:1:0.25")
        for tag, fock_state, gauss in cases:
            bundle = fock.oracle_moment_bundle(fock_state, lambdas)
            gm, gv = joint_quadrature_stats(gauss, lambdas)
            mode_mean, mode_var, photon = [], [], []
            for base, mode in ((0, "probe"), (2, "conjugate")):
                for idx, quad in ((0, "x"), (1, "y")):
                    fm, fv = bundle[mode][quad]
                    mode_mean.append(abs(fm - gauss.mean[base + idx]))
                    mode_var.append(abs(fv - gauss.cov[base + idx, base + idx]))
                fn, fvar = bundle[mode]["n"]
                moments = photon_moments(gauss, mode)
                photon += [abs(fn - moments.mean_n), abs(fvar - moments.var_n)]
            expected += [
                (f"{tag}: joint quadrature means",
                 float(np.abs(bundle["joint"][:, 1] - gm).max()), 1e-7),
                (f"{tag}: joint quadrature variances",
                 float(np.abs(bundle["joint"][:, 2] - gv).max()), 1e-6),
                (f"{tag}: single-mode quadrature means", max(mode_mean), 1e-7),
                (f"{tag}: single-mode quadrature variances", max(mode_var), 1e-6),
                (f"{tag}: photon number moments", max(photon), 1e-6),
            ]
        assert [(n, t) for n, _, t in reported] == [(n, t) for n, _, t in expected]
        for (name, err, _), (_, ref, _) in zip(reported, expected):
            assert err == pytest.approx(ref, rel=1e-9, abs=1e-15), name

    def test_default_cutoff_bounds_second_moments(self, capsys):
        # At cutoff 40 this state passes the norm gate (deficit 5.4e-9) but
        # misses the photon-number tolerance; without --cutoff, verify
        # picks the smallest cutoff whose n^2-weighted tail is <= 1e-7 and
        # prints it.  The bright seed of the paper's regime passes too.
        args = ["verify", "--gain", "2", "--alpha", "1", "--eta", "1"]
        assert main([*args, "--cutoff", "40"]) == 1
        assert "photon number moments                      FAIL" in capsys.readouterr().out
        bright = ["verify", "--gain", "1.67", "--alpha", "5", "--eta", "0.76,0.79"]
        for argv, cutoff in ((args, 49), (bright, 135)):
            assert main(argv) == 0
            out = capsys.readouterr().out
            assert f"state build: cutoff={cutoff} (smallest with n^2-weighted tail <= 1e-07)" in out
            assert "FAIL" not in out and "verification PASSED" in out

    def test_cutoff_above_the_cap_exits_2(self, capsys):
        assert main(["verify", "--cutoff", str(fock.MAX_CUTOFF + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "cutoff must lie in [1, 400]" in err
        assert main(["verify", "--gain", "1.67", "--alpha", "12"]) == 2
        assert "no cutoff up to 400" in capsys.readouterr().err

    def test_tight_cutoff_exits_1(self, capsys):
        assert main(["verify", "--cutoff", "12", "--gain", "2.0"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_eta_exits_2(self):
        assert main(["verify", "--eta", "1.2"]) == 2


class TestParser:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2


class TestStartup:
    # Runs each argv through cli.main in a fresh interpreter and prints,
    # per command, its exit code and whether any scipy module is loaded.
    SCRIPT = (
        "import contextlib, io, json, sys\n"
        "from tsui import cli\n"
        "seen = []\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(argv)\n"
        "    seen.append([code, any(m.partition('.')[0] == 'scipy' for m in sys.modules)])\n"
        "print(json.dumps(seen))\n"
    )

    def test_only_a_fit_loads_scipy(self, tmp_path):
        # The solver is imported on the first fit: curves, verify,
        # lambda-opt and simulate run without scipy, and the fit after
        # them loads it.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("gain = 1.67\neta_p = 0.76\neta_c = 0.79\nduration = 0.004\nrng_seed = 3\n")
        scan = str(tmp_path / "scan.csv")
        runs = [
            ["curves", "fig3", "--gain", "1:2:0.5", "--out", str(tmp_path / "fig3.csv")],
            ["verify"],
            ["lambda-opt", "--gain", "2.0", "--numeric"],
            ["simulate", "--config", str(cfg), "--lambdas", "0:1:0.25", "--trials", "1",
             "--out", scan],
            ["fit", "--data", scan, "--out", str(tmp_path / "fit.json")],
        ]
        src = os.path.dirname(os.path.dirname(tsui.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, json.dumps(runs)],
            capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [[0, False]] * 4 + [[0, True]]

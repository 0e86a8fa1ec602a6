import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tsui
from tsui import cli, fock, simulate
from tsui.cli import main, parse_span
from tsui.data import NoiseDataset, format_csv, format_float, load_noise_csv
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
        for text in ("5:1:0.1", "1:2:0", "1:2:-0.5", "a:b:c", "1:2:0.1:9"):
            with pytest.raises(ValueError):
                parse_span(text)
        # A list of no values is as empty as no text; a trailing comma is not.
        for text in ("", " ", ",", " , ", ",,"):
            with pytest.raises(ValueError, match="^empty grid specification$"):
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
        # At G = 1e7 and 1e8 the balanced readout stays above the quantum
        # bound (its variance used to cancel to 0).
        assert main(["curves", "fig3", "--gain", "1e7,1e8", "--out", str(out)]) == 0
        balanced, _, bound = read_csv(out)[1][:, 1:].T
        assert np.all(balanced >= bound) and np.all(bound > 0.0)

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

    @pytest.mark.parametrize(
        "figure, flag",
        [(figure, flag) for figure, (reads, _) in sorted(FLAGS.items())
         for flag in ("--gain", "--lambdas") if flag in reads],
    )
    def test_empty_grid_flag_exits_2(self, figure, flag, tmp_path, capsys):
        # An empty grid is a grid to parse, not an absent flag: it exits 2
        # like a blank one instead of writing the default table.
        out = tmp_path / "x.csv"
        for value in ("", " "):
            assert main(["curves", figure, flag, value, "--out", str(out)]) == 2
            assert capsys.readouterr().err == "error: empty grid specification\n"
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
        # and a jittered, noisy scan still fits.  At --rbw 5e3 a segment
        # (12,800 samples) is longer than the cached basis (8,192 rows),
        # and with jitter it needs blocks of at least one segment (2 ms).
        noisy = "lock_jitter_rms = 0.02\nelectronic_noise_var = 0.1\ntone_depth = 0.01\n"
        cases = [
            ("1e5", noisy + "jitter_block = 0.0005\n", 640, 100),
            ("5e3", "", 12800, 4),
            ("5e3", noisy + "jitter_block = 0.002\n", 12800, 4),
        ]
        # Every parameter and acquisition field, the defaults included.
        keys = {f.name for f in dataclasses.fields(InterferometerParams)}
        keys |= {f.name for f in dataclasses.fields(simulate.SimConfig)} - {"params"}
        cfg, out, fit = tmp_path / "sim.cfg", tmp_path / "scan.csv", tmp_path / "fit.json"
        for rbw, extra, nperseg, segments in cases:
            cfg.write_text(
                "gain = 1.67\neta_p = 0.76\neta_c = 0.79\nalpha = 50\n"
                "duration = 0.004\nrng_seed = 3\n" + extra
            )
            argv = ["simulate", "--config", str(cfg), "--lambdas", "0:1:0.25", "--trials", "2"]
            assert main(argv + ["--rbw", rbw, "--out", str(out)]) == 0
            meta = load_noise_csv(str(out)).meta
            expected = {"sample_rate": 8e6, "n_samples": 32000, "nperseg": nperseg,
                        "segments": segments, "rbw": float(rbw)}
            expected |= {k: float(v) for k, v in (ln.split(" = ") for ln in extra.splitlines())}
            assert {key: float(meta[key]) for key in expected} == expected
            assert keys - meta.keys() == set()
            assert float(meta["tone_freq"]) == 1e6
            assert float(meta["duration"]) == 0.004
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
        # Solver diagnostics: the free solve alone, converged.
        assert (result["n_starts"], result["winning_start"]) == (0, "coefficients")
        assert result["status"] > 0 and result["nfev"] > 0
        stdout = capsys.readouterr().out
        assert f"+/- {result['sigma_lambda_opt_fit']:.4f} (fit)" in stdout
        assert "coefficients path" in stdout
        for kind in ("sql2", "sql1"):
            path = tmp_path / f"overlay_{kind}.csv"
            assert path.exists()
            header, rows = read_csv(path)
            assert header == ["lambda", "snri_db"]
            assert rows.shape[0] == 101

    def test_fit_draws_no_bootstrap(self, tmp_path, capsys, monkeypatch):
        # The estimate line comes from the fit alone: its weight and sigma.
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.2, 0.73, 0.76)
        fit = cli.fitting.fit_noise_curve(load_noise_csv(str(data)))

        def no_bootstrap(*args, **kwargs):
            raise AssertionError("tsui fit drew a bootstrap")

        monkeypatch.setattr(cli.fitting, "extract_lambda_opt", no_bootstrap)
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "f.json")]) == 0
        value, sigma = fit.lambda_opt_fit, fit.sigma_lambda_opt_fit
        line = f"  lambda_opt estimate = {value:.4f} +/- {sigma:.4f} (fit)"
        assert line in capsys.readouterr().out.splitlines()
        result = json.loads((tmp_path / "f.json").read_text())
        assert result["sigma_lambda_opt_fit"] == sigma

    @pytest.mark.parametrize(
        "setting, edge",
        [((1.0, 1.0, 1.0), True), ((5.0, 1.0, 1.0), True), ((1.67, 0.76, 0.79), False)],
    )
    def test_edge_warning_when_the_minimum_is_at_an_end(self, tmp_path, capsys, setting, edge):
        # Vacuum (G = 1) reads lowest at weight 0, G = 5 without loss at 1
        # (lambda_opt 0.994 on an 11-point grid).
        data = tmp_path / "scan.csv"
        write_scan_csv(data, *setting, n=11)
        assert main(["fit", "--data", str(data), "--out", str(tmp_path / "f.json")]) == 0
        warning = "  warning: measured minimum sits at the edge of the scanned range"
        assert (warning in capsys.readouterr().out.splitlines()) == edge

    def test_lambdas_without_overlay_exits_2(self, tmp_path, capsys, monkeypatch):
        # The flag sets the overlay grid only: refused before the scan is
        # read or fitted, and nothing is written.
        calls = []
        monkeypatch.setattr(cli, "load_noise_csv", lambda *args: calls.append(args))
        monkeypatch.setattr(cli.fitting, "fit_noise_curve", lambda *args: calls.append(args))
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "f.json")]
        assert main([*argv, "--lambdas", "0:1:0.5"]) == 2
        assert capsys.readouterr().err == (
            "error: --lambdas sets the overlay grid and needs --overlay\n"
        )
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_exactly_singular_fit_writes_strict_json(self, tmp_path, capsys):
        # A noiseless vacuum scan at offset 0 has an exactly singular J^T J.
        # Its condition number, inf, is written as null, since JSON has no
        # Infinity, and printed as inf.
        lam = np.linspace(0.0, 1.0, 21)
        data, out = tmp_path / "scan.csv", tmp_path / "fit.json"
        NoiseDataset(lam, 10.0 * np.log10(1.0 + lam**2), np.full(21, 0.05)).to_csv(str(data))
        assert main(["fit", "--data", str(data), "--out", str(out), "--offset", "0"]) == 0

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        result = json.loads(out.read_text(), parse_constant=reject)
        assert result["condition_number"] is None
        assert "condition number   = inf" in capsys.readouterr().out

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
            (["--overlay", "ov", "--lambdas", ""], "empty grid specification"),
            # An empty prefix used to write the fit and no overlay, or, with
            # --lambdas, to ask for the --overlay it was given.
            (["--overlay", ""], "--overlay needs a nonempty prefix"),
            (["--overlay", "", "--lambdas", "0:1:0.5"], "--overlay needs a nonempty prefix"),
            # A blank path or prefix used to be written under that name, and
            # "-" as a file named -.
            (["--out", " "], "cannot write an empty output path"),
            (["--out", "-"], "tsui writes files, not standard output"),
            (["--overlay", " "], "--overlay needs a nonempty prefix"),
        ],
    )
    def test_bad_output_exits_2_before_fitting(self, tmp_path, capsys, monkeypatch, flags, word):
        # Every output is checked before the scan is read: nothing is written.
        calls = []
        monkeypatch.setattr(cli, "load_noise_csv", lambda *args: calls.append(args))
        monkeypatch.setattr(cli.fitting, "fit_noise_curve", lambda *args: calls.append(args))
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        flags = [str(tmp_path / f) if f.startswith(("missing", "ov")) else f for f in flags]
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "f.json"), *flags]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and word in err
        if word == "cannot write":
            assert str(tmp_path / "missing") in err
        assert calls == []
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    @pytest.mark.parametrize(
        "column, value",
        [("sigma_db", 1e300), ("sigma_db", 1e-300), ("noise_db", 1e308), ("loss_offset", 0.5)],
    )
    def test_out_of_range_column_exits_2(self, tmp_path, capsys, column, value):
        # Used to end in a ZeroDivisionError traceback (sigma_db 1e300: the
        # sum of 1 / sigma^2 underflows) or in scipy's "Residuals are not
        # finite", which does not name the input.  loss_offset is no column
        # but the --offset flag, read with the scan.
        lam = np.linspace(0.0, 1.0, 11)
        cols = {"noise_db": 10.0 * np.log10(1.0 + lam**2), "sigma_db": np.full(11, 0.05)}
        if column == "loss_offset":
            flags = ["--offset", repr(value)]
        else:
            flags = []
            cols[column] = np.full(11, value)
        data = tmp_path / "scan.csv"
        rows = zip(lam, cols["noise_db"], cols["sigma_db"])
        data.write_text(format_csv([], ("lambda", "noise_db", "sigma_db"), rows))
        argv = ["fit", "--data", str(data), "--out", str(tmp_path / "f.json"), *flags]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {column} must lie in")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scan.csv"]

    def test_fit_failure_exits_1_with_the_lowest_cost(self, tmp_path, capsys, monkeypatch):
        costs = iter([6.5, 2.75] + [9.0] * 20)

        def unconverged(fun, x0, jac, lower, upper):
            return cli.fitting._Solve(x=x0, cost=next(costs), status=0, nfev=1, njev=1)

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

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(5, 25),
        offset=st.floats(-0.2, 0.2),
    )
    def test_junk_scan_exits_0_or_1_with_a_message(self, data, n, offset):
        # Scans no model curve resembles fit, or fail with exit 1 and an
        # error line; no other exception escapes main.
        lam = np.linspace(0.0, 1.0, n)
        noise_db = data.draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n))
        sigma_db = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        with tempfile.TemporaryDirectory() as tmp:
            scan, out = os.path.join(tmp, "scan.csv"), os.path.join(tmp, "fit.json")
            NoiseDataset(lam=lam, noise_db=noise_db, sigma_db=sigma_db).to_csv(scan)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(["fit", "--data", scan, "--out", out, f"--offset={offset!r}"])
            if code == 0:
                assert "noise-curve fit" in stdout.getvalue() and os.path.exists(out)
            else:
                assert code == 1, stderr.getvalue()
                assert stderr.getvalue().startswith("error: no fit start converged")
                assert not os.path.exists(out)

    def test_missing_data_file_exits_2(self, tmp_path):
        code = main(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "f.json")]
        )
        assert code == 2


# Output names that are no file to write, each with its id suffix and
# message.  A blank name used to be written as a file of that name, and so
# did "-", which elsewhere means standard output.
_NO_FILE = {
    "": ("", "error: cannot write an empty output path\n"),
    " ": ("-blank", "error: cannot write an empty output path\n"),
    "-": ("-dash", "error: cannot write -: tsui writes files, not standard output"
                   " (./- names a file)\n"),
}


class TestEmptyOutput:
    @pytest.mark.parametrize(
        "command, out",
        [pytest.param(c, out, id=c + tag) for out, (tag, _) in _NO_FILE.items()
         for c in ("fit", "simulate")],
    )
    def test_empty_out_exits_2_before_the_work(self, tmp_path, capsys, monkeypatch, command, out):
        # "" is no directory, and the directory of its absolute path (the
        # parent of the working one) exists: it used to pass the check, so
        # the scan or fit ran and only the write failed.
        calls = []
        monkeypatch.setattr(simulate, "measure_noise_vs_lambda", lambda *a, **k: calls.append(a))
        monkeypatch.setattr(cli.fitting, "fit_noise_curve", lambda *args: calls.append(args))
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("gain = 1.67\nduration = 0.004\n")
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        source = ["--config", str(cfg)] if command == "simulate" else ["--data", str(data)]
        assert main([command, *source, "--out", out]) == 2
        assert capsys.readouterr().err == _NO_FILE[out][1]
        assert calls == []
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["scan.csv", "sim.cfg", "work"]

    @pytest.mark.parametrize(
        "figure, fmt, out",
        [pytest.param(figure, fmt, out, id=f"{figure}-{fmt}{tag}")
         for out, (tag, _) in _NO_FILE.items()
         for figure in sorted(cli._CURVE_FLAGS) for fmt in ("csv", "json")],
    )
    def test_empty_curves_out_exits_2(self, tmp_path, capsys, monkeypatch, figure, fmt, out):
        # An empty --out is a path to check, not an absent flag: it used to
        # write <figure>.<format> in the working directory.
        monkeypatch.chdir(tmp_path)
        assert main(["curves", figure, "--format", fmt, "--out", out]) == 2
        assert capsys.readouterr().err == _NO_FILE[out][1]
        assert list(tmp_path.iterdir()) == []


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
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("lambdas", [",", " , "])
    def test_empty_weight_list_exits_2_before_the_build(self, capsys, monkeypatch, lambdas):
        # A list of no weights used to build the state and end in numpy's
        # "zero-size array to reduction operation maximum".
        builds = []
        monkeypatch.setattr(fock, "build_seeded_tmss_fock", lambda *args: builds.append(args))
        assert main(["verify", "--lambdas", lambdas]) == 2
        assert capsys.readouterr().err == "error: empty grid specification\n"
        assert builds == []

    def test_bad_eta_exits_2(self):
        assert main(["verify", "--eta", "1.2"]) == 2


class TestParser:
    def test_no_command_exits_2(self):
        assert main([]) == 2

    def test_unknown_command_exits_2(self):
        assert main(["frobnicate"]) == 2

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    @pytest.mark.parametrize(
        "argv, text",
        [
            (["verify", "--eta", ","], ","),
            (["verify", "--eta", "abc"], "abc"),
            (["curves", "fig4a", "--eta", ",", "--out", "x.csv"], ","),
            (["curves", "fig8", "--eta", "0.7,x", "--out", "x.csv"], "0.7,x"),
        ],
        ids=["verify-comma", "verify-word", "fig4a-comma", "fig8-second"],
    )
    def test_unparsable_eta_exits_2_naming_flag_and_text(
        self, tmp_path, capsys, monkeypatch, argv, text
    ):
        # float()'s "could not convert string to float: ''" named neither.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: could not parse --eta {text!r}\n"
        assert list(tmp_path.iterdir()) == []

    # Every call of main shares one parser; none may leave state in it
    # that a later call sees.

    @pytest.mark.parametrize(
        "interruption",
        [["curves", "fig3", "--bogus"], ["--help"], ["curves", "fig3", "--lambdas", "0:1:0.5"]],
    )
    def test_rejected_or_help_argv_leaves_later_runs_unchanged(
        self, tmp_path, capsys, interruption
    ):
        # Every figure's default table, and a two-gain one.
        argvs = [[fig] for fig in sorted(cli._CURVE_FLAGS)] + [["fig6", "--gain", "1.1,1.3"]]
        out = tmp_path / "table.csv"

        def run():
            tables = []
            for argv in argvs:
                assert main(["curves", *argv, "--out", str(out)]) == 0
                tables.append(out.read_bytes())
            return tables

        first = run()
        assert main(interruption) == (0 if interruption == ["--help"] else 2)
        assert run() == first
        capsys.readouterr()

    def test_appended_eta_does_not_carry_over(self, tmp_path):
        def columns(*flags):
            out = tmp_path / "fig8.csv"
            assert main(["curves", "fig8", *flags, "--out", str(out)]) == 0
            return read_csv(out)[0]

        assert len(columns("--eta", "0.9", "--eta", "0.8", "--eta", "0.7")) == 4
        assert len(columns("--eta", "0.9")) == 2
        default = columns()
        cli._build_parser.cache_clear()
        assert columns() == default and len(default) == 3

    def test_overlay_does_not_carry_over(self, tmp_path):
        data = tmp_path / "scan.csv"
        write_scan_csv(data, 1.67, 0.76, 0.79)
        fit = ["fit", "--data", str(data), "--out"]
        assert main([*fit, str(tmp_path / "a.json"), "--overlay", str(tmp_path / "ov")]) == 0
        listing = {"scan.csv", "a.json", "ov_sql1.csv", "ov_sql2.csv"}
        assert {p.name for p in tmp_path.iterdir()} == listing
        assert main([*fit, str(tmp_path / "b.json")]) == 0
        assert {p.name for p in tmp_path.iterdir()} == listing | {"b.json"}


# numpy's shortest positional form: what every table held before repr.
def _numpy_float(value: float) -> str:
    return np.format_float_positional(value, unique=True, trim="0")


class TestFloatFormat:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(5e-324)  # the smallest subnormal
    @example(2.2250738585072009e-308)  # the largest subnormal
    @example(0.0)
    @example(-0.0)
    @example(1e-4)
    @example(np.nextafter(1e-4, 0.0))
    @example(-1e-4)
    @example(1e16)
    @example(np.nextafter(1e16, 0.0))
    @example(-np.nextafter(1e16, 0.0))
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    @settings(max_examples=2000)
    def test_every_float_writes_as_numpy_did(self, value):
        value = float(value)
        for scalar in (value, np.float64(value), np.float32(value) if abs(value) < 3e38 else value):
            assert format_float(scalar) == _numpy_float(scalar)
        # A one-value float64 array takes the whole-table route, a list
        # the value-by-value one.
        for table in (np.array([[value]]), [[value]]):
            assert format_csv([], ("x",), table) == f"x\n{_numpy_float(value)}\n"

    def test_magnitude_bands_write_as_numpy_did(self):
        # 20,000 values spread over every decade from 1e-7 to 1e19, both
        # signs, written as one table per band: the band in range goes
        # through repr, the two outside it through numpy.
        rng = np.random.default_rng(5)
        values = rng.uniform(1.0, 10.0, 20_000) * 10.0 ** rng.integers(-7, 20, 20_000)
        values *= rng.choice([-1.0, 1.0], values.size)
        mag = np.abs(values)
        for band in (mag < 1e-4, (mag >= 1e-4) & (mag < 1e16), mag >= 1e16):
            column = values[band]
            written = format_csv([], ("x",), column[:, None]).splitlines()[1:]
            wrong = [(v, w) for v, w in zip(column, written) if w != _numpy_float(v)]
            assert (len(written), wrong[:3]) == (column.size, [])

    def test_table_with_out_of_range_values_writes_as_numpy_did(self):
        rows = np.array([[0.1, 1e-5, 2.5], [1.0 / 3.0, 7.0, 1e17], [-0.0, 123456.789, 1e-4]])
        text = format_csv([("label", "mixed")], ("a", "b", "c"), rows)
        body = [",".join(_numpy_float(v) for v in row) for row in rows]
        assert text == "\n".join(["# label = mixed", "a,b,c", *body]) + "\n"
        assert "1e-05" not in text and "0.00001" in text
        assert "100000000000000000.0" in text

    def test_other_tables_write_value_by_value(self):
        # float32 keeps its own shortest digits, and rows need not be
        # of one length, as when every table went through format_float.
        text = format_csv([], ("a", "b"), np.array([[0.1, 2.5]], dtype=np.float32))
        assert text == "a,b\n0.1,2.5\n"
        assert format_csv([], ("a", "b"), [[0.1, 2.5], [3.0]]) == "a,b\n0.1,2.5\n3.0\n"


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

    def test_no_command_loads_scipy(self, tmp_path):
        # The fit's solver is numpy's: curves, verify, lambda-opt,
        # simulate and the fit after them all run without scipy.
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
        assert json.loads(done.stdout) == [[0, False]] * 5

    def test_no_fit_or_scan_loads_numpy_ma(self, tmp_path):
        # np.unique imports numpy.ma (8-9 ms) on first use; nothing a fit,
        # a jittered scan or the simulate-then-fit commands run needs it.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("gain = 1.67\neta_p = 0.76\neta_c = 0.79\nduration = 0.004\nrng_seed = 3\n")
        scan, fit = str(tmp_path / "scan.csv"), str(tmp_path / "fit.json")
        script = (
            "import contextlib, io, sys\n"
            "import numpy as np\n"
            "from tsui import cli, fitting, simulate\n"
            "from tsui.data import NoiseDataset\n"
            "from tsui.gaussian import InterferometerParams\n"
            "seen = ['numpy.ma' in sys.modules]\n"
            "lam = np.linspace(0.0, 1.0, 11)\n"
            "fitting.fit_noise_curve(NoiseDataset(lam, 10 * np.log10(1 + lam**2), np.ones(11)))\n"
            "seen.append('numpy.ma' in sys.modules)\n"
            "params = InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79)\n"
            "config = simulate.SimConfig(params, duration=0.004, lock_jitter_rms=0.02)\n"
            "simulate.measure_noise_vs_lambda(config, lam, trials=2)\n"
            "seen.append('numpy.ma' in sys.modules)\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [cli.main(['simulate', '--config', {str(cfg)!r}, '--out', {scan!r}]),\n"
            f"             cli.main(['fit', '--data', {scan!r}, '--out', {fit!r}])]\n"
            "seen.append('numpy.ma' in sys.modules)\n"
            "print(codes, seen)\n"
        )
        src = os.path.dirname(os.path.dirname(tsui.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=300, env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[0, 0] [False, False, False, False]"

import dataclasses
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import OptimizeResult, least_squares

from tsui import fitting

from tsui.fitting import (
    FitFailure,
    FitOptions,
    NoiseDataset,
    _direct_lambda_opt,
    _model_db,
    extract_lambda_opt,
    fit_noise_curve,
    load_noise_csv,
    overlay_theory,
)
from tsui.data import format_float
from tsui.gaussian import InterferometerParams
from tsui.metrology import (
    SqlKind,
    joint_variance,
    joint_variance_quadratic,
    lambda_opt,
    snri,
)


def synthetic(
    gain, eta_p, eta_c, scale_db=0.0, n=21, sigma=0.05, noise_seed=None, lam_range=(0.0, 1.0)
):
    lam = np.linspace(*lam_range, n)
    vp, vc, cr = joint_variance_quadratic(gain, eta_p, eta_c)
    db = 10.0 * np.log10(vp + lam**2 * vc + 2.0 * lam * cr) + scale_db
    if noise_seed is not None:
        db = db + np.random.default_rng(noise_seed).normal(0.0, sigma, n)
    return NoiseDataset(lam=lam, noise_db=db, sigma_db=np.full(n, sigma))


class TestNoiseDataset:
    def test_sorts_by_weight(self):
        ds = NoiseDataset(
            lam=[1.0, 0.0, 0.5, 0.25, 0.75],
            noise_db=[5.0, 1.0, 3.0, 2.0, 4.0],
            sigma_db=[0.1] * 5,
        )
        assert np.array_equal(ds.lam, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert np.array_equal(ds.noise_db, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert len(ds) == 5
        assert ds.n_distinct() == 5

    def test_duplicate_weights_allowed(self):
        ds = NoiseDataset(
            lam=[0.0, 0.0, 0.5, 0.5, 1.0],
            noise_db=[1.0, 1.1, 0.5, 0.6, 2.0],
            sigma_db=[0.1] * 5,
        )
        assert ds.n_distinct() == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="at least 5"):
            NoiseDataset(lam=[0, 0.5, 1], noise_db=[1, 2, 3], sigma_db=[0.1] * 3)
        with pytest.raises(ValueError, match="sigma_db"):
            NoiseDataset(
                lam=[0, 0.2, 0.5, 0.7, 1],
                noise_db=[1, 2, 3, 4, 5],
                sigma_db=[0.1, 0.1, 0.0, 0.1, 0.1],
            )
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            NoiseDataset(
                lam=[0, 0.2, 0.5, 0.7, 1.5],
                noise_db=[1, 2, 3, 4, 5],
                sigma_db=[0.1] * 5,
            )
        with pytest.raises(ValueError, match="equal-length"):
            NoiseDataset(lam=[0, 0.5, 1, 0.2], noise_db=[1, 2, 3, 4, 5], sigma_db=[0.1] * 5)
        with pytest.raises(ValueError, match=r"noise_db must lie in .*, got inf at index 2"):
            NoiseDataset(
                lam=[0, 0.2, 0.5, 0.7, 1],
                noise_db=[1, 2, math.inf, 4, 5],
                sigma_db=[0.1] * 5,
            )

    def test_csv_round_trip(self, tmp_path):
        ds = synthetic(1.67, 0.76, 0.79, scale_db=2.5, noise_seed=1)
        ds.meta["center_freq"] = 1e6
        path = tmp_path / "scan.csv"
        ds.to_csv(str(path))
        back = load_noise_csv(str(path))
        assert np.array_equal(back.lam, ds.lam)
        assert np.array_equal(back.noise_db, ds.noise_db)
        assert np.array_equal(back.sigma_db, ds.sigma_db)
        assert back.source == ds.source
        assert float(back.meta["center_freq"]) == 1e6
        assert path.read_text() == ds.csv_text()

    @settings(derandomize=True, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.floats(0.0, 1.0),
                st.floats(-1e3, 1e3),
                st.floats(1e-6, 1e3),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=5,
            max_size=30,
        )
    )
    def test_csv_round_trip_is_bit_exact(self, rows):
        # format_float writes the shortest string that parses back to the
        # same double, so every value survives the file bit for bit: the
        # columns within their accepted ranges, and any finite float.
        lam, noise, sigma, anything = (np.array(col) for col in zip(*rows))
        assert all(float(format_float(v)) == v for v in anything)
        ds = NoiseDataset(lam=lam, noise_db=noise, sigma_db=sigma, source="simulated")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "scan.csv")
            ds.to_csv(path)
            back = load_noise_csv(path)
        for name in ("lam", "noise_db", "sigma_db"):
            assert getattr(back, name).tobytes() == getattr(ds, name).tobytes()
        assert back.source == "simulated"
        assert back.csv_text() == ds.csv_text()

    def test_to_csv_into_missing_directory(self, tmp_path):
        ds = synthetic(1.67, 0.76, 0.79)
        with pytest.raises(OSError):
            ds.to_csv(str(tmp_path / "missing" / "scan.csv"))
        assert list(tmp_path.iterdir()) == []


class TestLoadNoiseCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "scan.csv"
        path.write_text(text)
        return str(path)

    GOOD = (
        "# source = simulated\nlambda,noise_db,sigma_db\n"
        "0.0,1.0,0.1\n0.25,0.5,0.1\n0.5,0.2,0.1\n0.75,0.4,0.1\n1.0,0.9,0.1\n"
    )

    def test_reads_source(self, tmp_path):
        ds = load_noise_csv(self.write(tmp_path, self.GOOD))
        assert ds.source == "simulated"
        assert len(ds) == 5

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n0,1,0.1\n")
        with pytest.raises(ValueError, match="expected header"):
            load_noise_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = self.write(
            tmp_path, "lambda,noise_db,sigma_db\n0.0,1.0\n"
        )
        with pytest.raises(ValueError, match=":2: expected 3 columns"):
            load_noise_csv(path)

    def test_bad_row_value(self, tmp_path):
        path = self.write(
            tmp_path, "lambda,noise_db,sigma_db\n0.0,one,0.1\n"
        )
        with pytest.raises(ValueError, match=":2: could not parse"):
            load_noise_csv(path)

    def test_no_rows(self, tmp_path):
        path = self.write(tmp_path, "lambda,noise_db,sigma_db\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_noise_csv(path)

    def test_missing_header(self, tmp_path):
        path = self.write(tmp_path, "# only a comment\n")
        with pytest.raises(ValueError, match="missing"):
            load_noise_csv(path)


class TestFitNoiseCurve:
    def test_noiseless_round_trip(self):
        ds = synthetic(1.67, 0.76, 0.79, scale_db=3.2)
        fit = fit_noise_curve(ds)
        assert abs(fit.gain - 1.67) < 1e-4 * 1.67
        assert abs(fit.eta_p - 0.76) < 1e-4
        assert abs(fit.eta_c - 0.79) < 1e-4
        assert abs(fit.scale_db - 3.2) < 1e-4
        assert abs(fit.lambda_opt_fit - 0.7962950314799236) < 1e-6
        assert fit.chi_square < 1e-10
        assert fit.loss_offset == 0.03
        assert fit.param_names == ("gain", "eta_c", "scale_db")
        assert not fit.warnings

    def test_second_configuration(self):
        ds = synthetic(1.2, 0.73, 0.76)
        fit = fit_noise_curve(ds)
        assert abs(fit.gain - 1.2) < 1e-4
        assert abs(fit.eta_p - 0.73) < 1e-4
        assert abs(fit.eta_c - 0.76) < 1e-4

    def test_constraint_ties_transmissions(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        assert math.isclose(fit.eta_c - fit.eta_p, 0.03, abs_tol=1e-12)
        assert fit.sigma_eta_p == fit.sigma_eta_c

    def test_scale_invariance(self):
        ds = synthetic(1.67, 0.76, 0.79, noise_seed=2)
        shifted = NoiseDataset(
            lam=ds.lam, noise_db=ds.noise_db + 7.0, sigma_db=ds.sigma_db
        )
        a = fit_noise_curve(ds)
        b = fit_noise_curve(shifted)
        assert abs(b.gain - a.gain) < 1e-5
        assert abs(b.eta_c - a.eta_c) < 1e-5
        assert abs((b.scale_db - a.scale_db) - 7.0) < 1e-5

    def test_deterministic(self):
        ds = synthetic(1.67, 0.76, 0.79, noise_seed=3)
        a = fit_noise_curve(ds)
        b = fit_noise_curve(ds)
        assert np.array_equal(a.param_values, b.param_values)
        assert np.array_equal(a.param_cov, b.param_cov)

    def test_noisy_recovery(self):
        ds = synthetic(1.67, 0.76, 0.79, noise_seed=4)
        fit = fit_noise_curve(ds)
        assert abs(fit.gain - 1.67) < 5.0 * fit.sigma_gain
        assert abs(fit.lambda_opt_fit - 0.7962950314799236) < 0.05
        assert fit.sigma_gain > 0.0

    def test_unconstrained_mode_flags_degeneracy(self):
        ds = synthetic(1.67, 0.76, 0.79)
        fit = fit_noise_curve(ds, FitOptions(loss_offset=None))
        assert fit.loss_offset is None
        assert fit.param_names == ("gain", "eta_p", "eta_c", "scale_db")
        assert fit.condition_number > 1e10
        assert any("ill-conditioned" in w for w in fit.warnings)
        # The degenerate family still reproduces the measured curve.
        assert fit.chi_square < 1e-6

    def test_vacuum_data_pins_gain_at_bound(self):
        lam = np.linspace(0.0, 1.0, 11)
        ds = NoiseDataset(
            lam=lam,
            noise_db=10.0 * np.log10(1.0 + lam**2),
            sigma_db=np.full(11, 0.05),
        )
        fit = fit_noise_curve(ds, FitOptions(loss_offset=0.0))
        assert fit.gain < 1.0 + 1e-6
        assert fit.lambda_opt_fit < 1e-3
        assert any("bound" in w for w in fit.warnings)
        # d sqrt(G (G - 1)) / dG is infinite at the bound G = 1 (and
        # d sqrt(eta_p eta_c) / d eta at eta = 0); the Jacobian stays finite
        # there and the fit still reproduces the flat curve.
        for offset, theta in ((0.0, [1.0, 0.0]), (None, [1.0, 0.0, 0.0])):
            assert np.all(np.isfinite(_model_db(lam, np.array(theta), offset)[1]))
        assert fit.chi_square <= 1e-9
        assert np.all(np.isfinite(fit.param_cov))

    def test_scale_clipped_at_its_bound(self):
        # The profiled scale_db would be ~85 dB; it stops at the bound.
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, scale_db=85.0, noise_seed=1))
        assert fit.scale_db == 80.0
        assert "parameter scale_db sits at a fit bound" in fit.warnings

    def test_clipped_scale_runs_the_grid(self):
        # 200 dB up, the data start converges with the scale clipped into
        # the eta_p = 0 cusp (eta_c 0.03, chi2 1.150e8); the grid, run
        # because the scale sits at its bound, finds a lower cost.
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, scale_db=200.0))
        assert fit.scale_db == 80.0
        assert fit.n_starts == 11 and fit.winning_start.startswith("grid:")
        assert fit.eta_c > 0.9 and fit.chi_square < 1.01e8

    def test_custom_initial_point(self):
        ds = synthetic(1.67, 0.76, 0.79)
        fit = fit_noise_curve(
            ds, FitOptions(initial=(1.7, 0.75, 0.78, 0.0))
        )
        assert abs(fit.gain - 1.67) < 1e-3

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(loss_offset=0.5)
        with pytest.raises(ValueError):
            FitOptions(initial=(1.5, 0.8))

    def test_result_serialization(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        data = json.loads(fit.json_text())
        for key in (
            "nfev",
            "n_starts",
            "winning_start",
            "status",
            "gain",
            "eta_p",
            "eta_c",
            "scale_db",
            "sigma_gain",
            "chi_square",
            "lambda_opt_fit",
            "lambda_opt_direct",
            "condition_number",
            "param_cov",
        ):
            assert key in data
        assert data["gain"] == fit.gain
        text = fit.summary()
        assert "gain" in text and "lambda_opt" in text
        assert "start data won" in text

    def test_serialized_keys_are_the_fields_in_order(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, noise_seed=3))
        data = json.loads(fit.json_text())
        assert list(data) == [f.name for f in dataclasses.fields(fit)]
        assert data["param_names"] == list(fit.param_names)
        assert data["param_values"] == [float(v) for v in fit.param_values]
        assert data["param_cov"] == [[float(v) for v in row] for row in fit.param_cov]
        assert all(type(v) is float for v in data["param_values"])

    def test_one_start_when_it_converges(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, noise_seed=6))
        assert (fit.n_starts, fit.winning_start) == (1, "data")
        assert fit.status > 0 and 0 < fit.nfev <= 2 * 400
        user = fit_noise_curve(
            synthetic(1.67, 0.76, 0.79, noise_seed=6), FitOptions(initial=(1.7, 0.75, 0.78, 0.0))
        )
        assert user.n_starts == 2 and user.winning_start in ("initial", "data")
        assert user.chi_square <= fit.chi_square * (1.0 + 1e-9) + 1e-9

    @pytest.mark.parametrize("offset", [0.03, None])
    @pytest.mark.parametrize("gain", [1.05, 1.67, 3.0])
    @pytest.mark.parametrize("eta_c", [0.79, 1.0])
    def test_analytic_jacobian_matches_central_difference(self, offset, gain, eta_c):
        # eta_c = 1.0 is the upper fit bound in both modes.
        lam = np.linspace(0.0, 1.0, 21)
        theta = np.array([gain, eta_c] if offset is not None else [gain, eta_c - 0.03, eta_c])
        _, jac = _model_db(lam, theta, offset)
        for i in range(theta.size):
            h = 1e-6 * max(1.0, abs(theta[i]))
            step = np.zeros(theta.size)
            step[i] = h
            numeric = (
                _model_db(lam, theta + step, offset)[0] - _model_db(lam, theta - step, offset)[0]
            ) / (2.0 * h)
            assert np.max(np.abs(jac[:, i] - numeric)) <= 1e-6 * np.max(np.abs(jac[:, i]))

    def test_never_worse_than_the_start_grid(self):
        # Test-only reference: the ten-start grid over all three parameters
        # with finite-difference Jacobians and the scale centred on the data.
        def grid_chi_square(ds):
            def residuals(x):
                model = 10.0 * np.log10(joint_variance(x[0], x[1] - 0.03, x[1], ds.lam))
                return (model + x[2] - ds.noise_db) / ds.sigma_db

            lower = np.array([1.0, 0.03, -80.0])
            upper = np.array([50.0, 1.0, 80.0])
            best = math.inf
            for g0 in (1.05, 1.3, 1.8, 2.6, 3.6):
                for e0 in (0.6, 0.9):
                    x0 = np.clip([g0, e0, 0.0], lower + 1e-9, upper - 1e-9)
                    x0[2] = np.clip(np.median(-residuals(x0) * ds.sigma_db), -80.0, 80.0)
                    res = least_squares(
                        residuals, x0, bounds=(lower, upper), method="trf",
                        ftol=1e-10, xtol=1e-10, gtol=1e-10, max_nfev=400,
                    )
                    if res.status > 0:
                        best = min(best, float(np.sum(res.fun**2)))
            return best

        scans = []
        for gain, eta_p, eta_c in ((1.67, 0.76, 0.79), (1.2, 0.73, 0.76)):
            scans += [synthetic(gain, eta_p, eta_c, noise_seed=1000 + k) for k in range(7)]
            scans += [
                synthetic(gain, eta_p, eta_c, n=5, noise_seed=2000 + k, lam_range=(0.6, 1.0))
                for k in range(3)
            ]
        for ds in scans:
            reference = grid_chi_square(ds)
            assert fit_noise_curve(ds).chi_square <= reference * (1.0 + 1e-9) + 1e-9

    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(
        gain=st.floats(1.05, 4.0),
        eta_c=st.floats(0.5, 1.0),
        scale_db=st.floats(-5.0, 5.0),
    )
    def test_noiseless_scans_fit_exactly(self, gain, eta_c, scale_db):
        fit = fit_noise_curve(synthetic(gain, eta_c - 0.03, eta_c, scale_db=scale_db))
        truth = InterferometerParams(gain=gain, eta_p=eta_c - 0.03, eta_c=eta_c)
        assert fit.chi_square < 1e-12
        assert abs(fit.lambda_opt_fit - lambda_opt(truth)) < 1e-6

    def test_failure_carries_the_lowest_cost(self, monkeypatch):
        # Every start stops unconverged (status 0); the failure names the
        # lowest cost over all of them, whichever start it came from.
        costs = iter([9.5, 4.25, 7.0] + [8.0] * 20)
        calls = []

        def unconverged(fun, x0, **kwargs):
            calls.append(x0)
            return OptimizeResult(
                x=x0, cost=next(costs), fun=fun(x0), status=0, nfev=3, njev=2
            )

        monkeypatch.setattr(fitting, "least_squares", unconverged)
        with pytest.raises(FitFailure, match=r"\(best residual cost 4\.25\)") as info:
            fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        assert info.value.best_cost == 4.25
        assert len(calls) == 11  # the data start, then the ten-start grid

    def test_params_accessor(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        p = fit.params()
        assert isinstance(p, InterferometerParams)
        assert p.gain == fit.gain


class TestExtractLambdaOpt:
    def test_direct_vertex_exact_on_parabola(self):
        lam = np.linspace(0.0, 1.0, 21)
        ds = NoiseDataset(
            lam=lam,
            noise_db=3.0 * (lam - 0.6) ** 2 + 1.0,
            sigma_db=np.full(21, 0.05),
        )
        est = extract_lambda_opt(ds)
        assert est.method == "direct"
        assert abs(est.direct_value - 0.6) < 1e-9
        assert est.sigma > 0.0
        assert est.fit_value is None
        assert not est.boundary_warning

    @staticmethod
    def reference_direct(lam, noise_db):
        # The per-scan estimate as written before it was batched: walk the
        # points from the lowest reading, skip repeated weights, fit a
        # parabola through three with np.polyfit.
        lams, ys = [], []
        for idx in np.argsort(noise_db, kind="stable"):
            if all(abs(lam[idx] - seen) >= 1e-12 for seen in lams):
                lams.append(float(lam[idx]))
                ys.append(float(noise_db[idx]))
            if len(lams) == 3:
                break
        order = np.argsort(lams)
        x, y = np.array(lams)[order], np.array(ys)[order]
        a, b, _ = np.polyfit(x, y, 2)
        if a <= 0.0 or not math.isfinite(a):
            return float(x[int(np.argmin(y))])
        return float(min(max(-b / (2.0 * a), 0.0), 1.0))

    def test_batched_direct_matches_per_row_loop(self):
        rng = np.random.default_rng(7)
        plain = synthetic(1.67, 0.76, 0.79)
        replicates = NoiseDataset(
            lam=[0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 0.75, 1.0, 1.0],
            noise_db=np.zeros(10),
            sigma_db=np.full(10, 0.1),
        )
        for ds, spread in ((plain, 0.05), (plain, 0.5), (replicates, 0.3)):
            rows = ds.noise_db + rng.normal(0.0, spread, (400, len(ds)))
            # A concave row falls back to its lowest sample; a vertex past 1
            # is clamped.
            rows = np.vstack([rows, -((ds.lam - 0.5) ** 2), (ds.lam - 1.3) ** 2])
            batched = _direct_lambda_opt(ds.lam, rows)
            looped = np.array([self.reference_direct(ds.lam, row) for row in rows])
            assert np.max(np.abs(batched - looped)) <= 1e-12
            assert (batched[-2], batched[-1]) == (0.0, 1.0)
            assert _direct_lambda_opt(ds.lam, rows[0]) == batched[0]

    def test_bootstrap_keeps_the_per_draw_stream(self):
        # More draws than one block, so the stream crosses a block edge.
        ds = synthetic(1.67, 0.76, 0.79, noise_seed=8)
        est = extract_lambda_opt(ds, n_bootstrap=1500, rng_seed=11)
        rng = np.random.default_rng(11)
        draws = [
            self.reference_direct(ds.lam, ds.noise_db + rng.normal(0.0, ds.sigma_db))
            for _ in range(1500)
        ]
        assert math.isclose(est.direct_sigma, float(np.std(draws, ddof=1)), rel_tol=1e-12)

    def test_bootstrap_deterministic(self):
        ds = synthetic(1.67, 0.76, 0.79, noise_seed=5)
        a = extract_lambda_opt(ds)
        b = extract_lambda_opt(ds)
        assert a.direct_sigma == b.direct_sigma

    def test_fit_method_preferred(self):
        ds = synthetic(1.67, 0.76, 0.79)
        fit = fit_noise_curve(ds)
        est = extract_lambda_opt(ds, fit)
        assert est.method == "fit"
        assert abs(est.value - 0.7962950314799236) < 1e-5
        assert est.fit_sigma is not None and est.fit_sigma >= 0.0

    @pytest.mark.parametrize("offset", [0.03, None])
    def test_fit_sigma_equals_per_parameter_loop(self, offset):
        # Reference: one central difference of the unclamped weight
        # 2 sqrt(eta_p eta_c G (G - 1)) / V_c per parameter, as scalar
        # calls; the steps are not clipped into the physical range, so a
        # fit at eta_c = 1 gets its whole gradient.
        ds = synthetic(1.2, 0.73, 0.76, noise_seed=2)
        fit = fit_noise_curve(ds, FitOptions(loss_offset=offset))
        x_hat = fit.param_values

        def weight(x):
            gain, eta_c = x[0], x[-2]
            eta_p = x[1] if offset is None else eta_c - offset
            return 2.0 * math.sqrt(eta_p * eta_c * gain * (gain - 1.0)) / (
                1.0 + 2.0 * eta_c * (gain - 1.0)
            )

        grad = np.zeros(x_hat.size)
        for i in range(x_hat.size):
            h = 1e-6 * max(1.0, abs(x_hat[i]))
            step = np.zeros(x_hat.size)
            step[i] = h
            grad[i] = (weight(x_hat + step) - weight(x_hat - step)) / (2.0 * h)
        expected = math.sqrt(max(grad @ fit.param_cov @ grad, 0.0))
        got = extract_lambda_opt(ds, fit, n_bootstrap=10).fit_sigma
        assert got == pytest.approx(expected, rel=1e-6)

    def test_fit_sigma_at_the_eta_c_bound(self):
        # Criterion 6's second setting, repetition 1: eta_c sits at its
        # bound of 1.  A step clipped at the bound halved one gradient
        # component and quoted 0.1755; the closed form gives 0.0037.
        ds = synthetic(1.2, 0.73, 0.76, noise_seed=1001)
        fit = fit_noise_curve(ds)
        assert "parameter eta_c sits at a fit bound" in fit.warnings
        est = extract_lambda_opt(ds, fit, n_bootstrap=10)
        assert abs(est.value - 0.55967) < 0.02
        assert est.fit_sigma < 0.01

    def test_boundary_warning_when_min_at_edge(self):
        lam = np.linspace(0.0, 1.0, 11)
        edge = NoiseDataset(
            lam=lam,
            noise_db=10.0 * np.log10(1.0 + lam**2),
            sigma_db=np.full(11, 0.05),
        )
        # Edge weight 0 twice, with the minimum on the second of those rows.
        dup = NoiseDataset(
            lam=np.concatenate([[0.0], lam]),
            noise_db=np.concatenate([[0.1], edge.noise_db]),
            sigma_db=np.full(12, 0.05),
        )
        assert int(np.argmin(dup.noise_db)) == 1
        for ds in (edge, dup):
            assert extract_lambda_opt(ds).boundary_warning

    def test_needs_three_distinct(self):
        ds = NoiseDataset(
            lam=[0.0, 0.0, 0.0, 1.0, 1.0],
            noise_db=[1.0, 1.1, 0.9, 2.0, 2.1],
            sigma_db=[0.1] * 5,
        )
        with pytest.raises(ValueError, match="3 distinct"):
            extract_lambda_opt(ds)

    def test_bootstrap_count_validation(self):
        ds = synthetic(1.67, 0.76, 0.79)
        with pytest.raises(ValueError):
            extract_lambda_opt(ds, n_bootstrap=1)


class TestOverlayTheory:
    def test_matches_snri_at_fitted_params(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        grid = np.linspace(0.0, 1.0, 9)
        table = overlay_theory(fit, SqlKind.SQL2, grid)
        assert table.columns == ("lambda", "snri_db")
        for lam, db in table.rows:
            assert math.isclose(db, snri(fit.params(), lam, SqlKind.SQL2), rel_tol=1e-12)
        assert table.meta["sql_kind"] == SqlKind.SQL2.value

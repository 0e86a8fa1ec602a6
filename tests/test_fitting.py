import dataclasses
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from fit_reference import grid_box_start
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from tsui import fitting

from tsui.fitting import (
    FitFailure,
    FitOptions,
    _basis,
    _chart_jac,
    _coefficient_jac,
    _direct_lambda_opt,
    _shape_roots,
    extract_lambda_opt,
    fit_noise_curve,
    overlay_theory,
)
from tsui.data import NoiseDataset, format_float, load_noise_csv
from tsui.gaussian import InterferometerParams
from tsui.metrology import (
    SqlKind,
    joint_variance,
    joint_variance_quadratic,
    lambda_opt,
    snri,
)
from tsui.simulate import SimConfig, measure_noise_vs_lambda


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

    @pytest.mark.parametrize("noise_seed", [1, 2, 3])
    def test_offset_zero_flags_degeneracy(self, noise_seed):
        # At eta_c = eta_p, V_p = V_c: a0 = a2, and gain and eta_c enter
        # the curve only through C / V_c.  No root maps inside the bounds
        # (k = 0), and the bounded solve's Jacobian has rank 2.
        ds = synthetic(1.67, 0.79, 0.79, noise_seed=noise_seed)
        fit = fit_noise_curve(ds, FitOptions(loss_offset=0.0))
        assert fit.winning_start == "bound" and fit.status > 0
        assert fit.condition_number > 1e12
        assert any("ill-conditioned" in w for w in fit.warnings)

    @pytest.mark.parametrize("n, offset", [(n, o) for n in (11, 21) for o in (0.0, 0.03, 0.1)])
    def test_vacuum_data_pins_gain_at_bound(self, n, offset):
        # Off offset 0 the solution is the chart's origin (u, v, scale_db)
        # = 0, where only the step test's absolute term xtol^2 can stop
        # the solve: without it these scans ran out of evaluations.
        lam = np.linspace(0.0, 1.0, n)
        ds = NoiseDataset(
            lam=lam,
            noise_db=10.0 * np.log10(1.0 + lam**2),
            sigma_db=np.full(n, 0.05),
        )
        fit = fit_noise_curve(ds, FitOptions(loss_offset=offset))
        assert fit.gain < 1.0 + 1e-6
        assert fit.lambda_opt_fit < 1e-3
        assert any("bound" in w for w in fit.warnings)
        # d sqrt(G (G - 1)) / dG is infinite at the bound G = 1; the
        # covariance stays finite there and the fit reproduces the flat
        # curve to round-off.
        assert fit.chi_square <= 1e-15
        assert np.all(np.isfinite(fit.param_cov))

    def test_scale_clipped_at_its_bound(self):
        # The profiled scale_db would be ~85 dB; it stops at the bound.
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, scale_db=85.0, noise_seed=1))
        assert fit.scale_db == 80.0
        assert "parameter scale_db sits at a fit bound" in fit.warnings

    def test_clipped_scale_runs_the_grid(self):
        # 200 dB up, the coefficients map to the truth with a scale past
        # its bound, so the one solve runs from the box start.  There the
        # best grid point (G 50, eta_c 0.903, chi2 1.005e8) beats the
        # clipped map (chi2 1.210e8) and keeps the solve out of the
        # eta_p = 0 cusp (eta_c 0.03, chi2 1.150e8).
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, scale_db=200.0))
        assert fit.scale_db == 80.0
        assert fit.n_starts == 1 and fit.winning_start == "bound"
        assert fit.eta_c > 0.9 and fit.chi_square < 1.01e8

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(loss_offset=0.5)

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
        assert "coefficients path" in text

    def test_serialized_keys_are_the_fields_in_order(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, noise_seed=3))
        data = json.loads(fit.json_text())
        assert list(data) == [f.name for f in dataclasses.fields(fit)]
        assert data["param_names"] == list(fit.param_names)
        assert data["param_values"] == [float(v) for v in fit.param_values]
        assert data["param_cov"] == [[float(v) for v in row] for row in fit.param_cov]
        assert all(type(v) is float for v in data["param_values"])

    def test_one_start_when_it_converges(self):
        # The coefficients map inside the bounds: one solve, no other.
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, noise_seed=6))
        assert (fit.n_starts, fit.winning_start) == (1, "coefficients")
        assert fit.status > 0 and 0 < fit.nfev <= 20

    def test_one_solve_at_the_eta_c_bound(self):
        # The coefficients map past eta_c = 1: the one solve runs from the
        # box start and ends on that face, and no other solve runs.
        fit = fit_noise_curve(synthetic(1.2, 0.97, 1.0, noise_seed=5))
        assert fit.eta_c == 1.0 and "parameter eta_c sits at a fit bound" in fit.warnings
        assert (fit.n_starts, fit.winning_start) == (1, "bound")
        assert fit.chi_square == pytest.approx(17.24462245155, rel=1e-9)

    @pytest.mark.parametrize(
        "noise_seed, chi_square",
        [(82, 22.3781018225), (244, 16.1588606942), (284, 22.3862012905)],
        ids=["82", "244", "284"],
    )
    def test_solve_from_the_map_that_ends_on_a_face_runs_again(self, noise_seed, chi_square):
        # The coefficients map just inside eta_c = 1 and the solve from
        # there ends on that face, so a second one runs from the box start.
        # A step that crosses the face lands on it, so neither solve creeps
        # up to the face.
        fit = fit_noise_curve(synthetic(1.2, 0.97, 1.0, noise_seed=noise_seed))
        assert fit.eta_c == 1.0 and fit.n_starts == 2
        assert fit.chi_square == pytest.approx(chi_square, rel=1e-9)
        assert fit.nfev <= 40

    def test_one_solve_when_the_power_optimum_sits_on_its_wall(self):
        # The best quadratic in power touches 0 near the -27.9 dB dip,
        # where no model curve can go.  A fit of the coefficients alone
        # crept along that wall for its whole 400-evaluation budget; the
        # model's one bounded solve takes 27 evaluations.
        lam = np.linspace(0.0, 1.0, 7)
        noise_db = [2.5, 21.1, 10.7, 20.0, -27.9, 28.2, 25.4]
        sigma_db = [0.5, 0.92, 0.18, 0.37, 0.17, 0.67, 0.92]
        fit = fit_noise_curve(NoiseDataset(lam=lam, noise_db=noise_db, sigma_db=sigma_db))
        assert (fit.n_starts, fit.winning_start) == (1, "bound")
        assert fit.status > 0 and fit.nfev <= 40
        assert fit.chi_square == pytest.approx(29211.5230252, rel=1e-9)

    @pytest.mark.parametrize("offset", [0.03, None])
    @pytest.mark.parametrize("gain", [1.05, 1.67, 3.0])
    @pytest.mark.parametrize("eta_c", [0.79, 1.0])
    def test_analytic_jacobian_matches_central_difference(self, offset, gain, eta_c):
        # The fit's analytic Jacobians of the weighted dB residuals at a
        # fixed offset (None: 0, eta_p = eta_c): in the chart p = (u, v,
        # scale_db), u = sqrt(G - 1), v = sqrt(eta_c - lower eta_c), and
        # through the chain rule in theta = (gain, eta_c, scale_db).  With
        # no offset, also in the coefficients (a0, a1, a2) of the model at
        # offset 0.03.  eta_c = 1.0 is the upper fit bound.
        lam = np.linspace(0.0, 1.0, 21)
        sigma = np.full(21, 0.05)
        fixed = 0.0 if offset is None else offset
        lo = max(0.0, fixed)

        def model_db(theta):
            var = joint_variance(theta[0], theta[1] - fixed, theta[1], lam)
            return (10.0 * np.log10(var) + theta[2]) / sigma

        def chart_db(p):
            return model_db([1.0 + p[0] ** 2, lo + p[1] ** 2, p[2]])

        def coefficient_db(a):
            return 10.0 * np.log10(a[0] + 2.0 * a[1] * lam + a[2] * lam * lam) / sigma

        p = np.array([math.sqrt(gain - 1.0), math.sqrt(eta_c - lo), 1.5])
        jac_p = _chart_jac(_basis(lam), sigma, p, fixed)
        cases = [
            (jac_p, chart_db, p),
            (jac_p / np.append(2.0 * p[:2], 1.0), model_db, np.array([gain, eta_c, 1.5])),
        ]
        if offset is None:
            vp, vc, cr = joint_variance_quadratic(gain, eta_c - 0.03, eta_c)
            a = np.array([vp, cr, vc])
            cases.append((_coefficient_jac(_basis(lam), sigma, a), coefficient_db, a))
        for jac, f, x in cases:
            for i in range(x.size):
                h = 1e-6 * max(1.0, abs(x[i]))
                step = np.zeros(x.size)
                step[i] = h
                numeric = (f(x + step) - f(x - step)) / (2.0 * h)
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

    # chi^2 of noisy vacuum scans (seeds 0-39 at 11, then 21, points) as the
    # bounded trust-region solve from the clipped map fitted them.
    VACUUM_CHI2 = {
        11: [
            5.75857596731, 3.84976041909, 11.9386094811, 20.8221815171, 8.98540131168,
            6.09318801421, 13.6583605882, 4.03664454052, 4.5918846363, 9.55811146494,
            4.74585542507, 9.47396586215, 8.0329167421, 18.4151711743, 14.1560273676,
            9.04517302089, 8.31284490843, 6.46405947908, 18.0037552286, 5.96043756789,
            6.16546836907, 10.2483004117, 10.2145101678, 9.50201855167, 6.19458987362,
            12.0476350206, 18.4656020974, 5.53922495892, 5.44801414856, 1.14315661138,
            10.8139755509, 6.20142224075, 10.9029085164, 9.09810506197, 9.0945535757,
            8.31110005463, 4.1950011542, 17.1133436268, 5.48252498456, 6.11679523258,
        ],
        21: [
            12.6343418429, 6.06158302748, 16.2686679298, 29.8285278075, 25.7305465423,
            17.6850476924, 24.9023305771, 12.7602617937, 19.4930760777, 23.1576264651,
            10.2439665374, 12.7451661117, 16.3301587027, 28.1374060834, 39.8947973325,
            20.3597736661, 17.535077141, 18.9782485976, 21.0395401555, 14.5940154064,
            10.0949373818, 26.1190281758, 28.2354931013, 17.068623874, 16.0967520206,
            20.38364676, 32.5158599804, 13.0513085481, 15.6690181288, 9.2859327885,
            14.700787914, 14.6405095946, 18.9949474987, 15.3584654714, 13.8401770867,
            20.5918784371, 11.701840903, 24.6552260413, 14.5247091494, 22.1080541023,
        ],
    }

    @pytest.mark.parametrize("n", [11, 21])
    def test_noisy_vacuum_never_worse_than_the_trust_region_solve(self, n):
        # Vacuum (G = 1: 1 + lam^2) plus 0.05 dB noise, at offset 0.03:
        # curves the model can only approach on its bounds.  No scan fits
        # worse than the recorded chi^2, and the 11-point scan at seed 18,
        # where that solve stopped at 18.00, reaches the ten-start
        # search's 15.53.
        lam = np.linspace(0.0, 1.0, n)
        for seed, recorded in enumerate(self.VACUUM_CHI2[n]):
            noise = np.random.default_rng(seed).normal(0.0, 0.05, n)
            ds = NoiseDataset(
                lam=lam, noise_db=10.0 * np.log10(1.0 + lam**2) + noise, sigma_db=np.full(n, 0.05)
            )
            fit = fit_noise_curve(ds)
            assert fit.chi_square <= recorded * (1.0 + 1e-9) + 1e-9, seed
            if (n, seed) == (11, 18):
                assert abs(fit.chi_square - 15.53) <= 0.01

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(5, 25),
        offset=st.floats(-0.2, 0.2),
    )
    def test_junk_scans_fit_or_fail_cleanly(self, data, n, offset):
        # Scans no model curve resembles: a finite result or FitFailure,
        # never another exception.
        lam = np.linspace(0.0, 1.0, n)
        noise_db = data.draw(st.lists(st.floats(-30.0, 30.0), min_size=n, max_size=n))
        sigma_db = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
        ds = NoiseDataset(lam=lam, noise_db=noise_db, sigma_db=sigma_db)
        try:
            fit = fit_noise_curve(ds, FitOptions(loss_offset=offset))
        except FitFailure as err:
            assert str(err).startswith("no fit start converged")
            return
        numbers = [fit.chi_square, fit.lambda_opt_fit, fit.lambda_opt_direct]
        numbers += [fit.sigma_gain, fit.sigma_eta_c, fit.sigma_scale_db]
        assert np.all(np.isfinite(numbers))
        assert np.all(np.isfinite(fit.param_values)) and np.all(np.isfinite(fit.param_cov))
        assert fit.status > 0

    def test_subnormal_offset_fits(self):
        # At an offset of 1.1e-308 a flat scan's map cubic leads with a
        # coefficient far below round-off of the others; np.roots used to
        # overflow its companion matrix on it and raise LinAlgError.
        lam = np.linspace(0.0, 1.0, 5)
        ds = NoiseDataset(lam=lam, noise_db=np.zeros(5), sigma_db=np.ones(5))
        fit = fit_noise_curve(ds, FitOptions(loss_offset=1.1125369292536007e-308))
        assert fit.status > 0 and math.isfinite(fit.chi_square)

    @pytest.mark.parametrize("offset", [-0.2, -0.03, 0.03, 0.2])
    def test_coefficients_map_back_to_one_physical_root(self, offset):
        # Noiseless coefficients over the whole fit box.  Every one has
        # exactly one root with both transmissions in [0, 1] (the cubic's
        # other positive root has a negative one), and it is the truth.
        # The gain comes back to 2.5e-13 everywhere, and eta_c to 8e-12
        # for G >= 1.01.  Below that the coefficients barely fix eta_c:
        # a2 - a0 = 2 s offset (G - 1) carries the rounding of a0 and a2,
        # so at G = 1.001 eta_c comes back to 4.3e-7 (9.5e-9 at eta_c = 0).
        lo, hi = max(0.0, offset), min(1.0, 1.0 + offset)
        for gain in np.geomspace(1.001, 50.0, 25):
            rel, floor = (1e-9, 1e-12) if gain >= 1.01 else (1e-6, 1e-7)
            for eta_c in np.linspace(lo, hi, 21):
                v_p, v_c, cross = joint_variance_quadratic(gain, eta_c - offset, eta_c)
                rows = _shape_roots(3.7 * np.array([v_p, cross, v_c]), offset)
                physical = rows[(rows[:, 1] >= lo - 1e-7) & (rows[:, 1] <= hi + 1e-7)]
                assert len(physical) == 1, (gain, eta_c, rows)
                assert physical[0, 0] == pytest.approx(gain, rel=1e-9)
                assert abs(physical[0, 1] - eta_c) <= rel * eta_c + floor

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
        # Every solve stops unconverged (status 0); the failure names the
        # lowest cost over all of them, whichever start it came from.
        costs = iter([9.5, 4.25, 7.0] + [8.0] * 20)
        calls = []

        def unconverged(fun, x0, jac, lower, upper):
            calls.append(x0)
            fun(x0), jac(x0)
            return fitting._Solve(
                x=x0, cost=next(costs), status=0, nfev=3, njev=2, active_mask=np.zeros(len(x0))
            )

        monkeypatch.setattr(fitting, "least_squares", unconverged)
        with pytest.raises(FitFailure, match=r"\(best residual cost 4\.25\)") as info:
            fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        assert info.value.best_cost == 4.25
        # The solve from the coefficient map, then the one from the box start.
        assert len(calls) == 2

    def test_params_accessor(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        p = fit.params()
        assert isinstance(p, InterferometerParams)
        assert p.gain == fit.gain


class TestBoxStart:
    """The box start scores its grid's coefficient table in bounded
    chunks: it must pick the start the whole joint_variance grid picked
    (tests/fit_reference.py), and stay small on a long scan."""

    @staticmethod
    def vacuum(n, seed):
        # Noisy vacuum, a curve the model reaches only on its bounds: its
        # fits take the box start at every offset.
        lam = np.linspace(0.0, 1.0, n)
        noise = np.random.default_rng(seed).normal(0.0, 0.05, n)
        return NoiseDataset(
            lam=lam, noise_db=10.0 * np.log10(1.0 + lam**2) + noise, sigma_db=np.full(n, 0.05)
        )

    @staticmethod
    def corpora():
        """fit_scans' 400 scans at seed 3 (ops 0-199, both criterion-6
        settings), 80 noisy-vacuum scans, 300 uniform junk scans, and three
        long scans, whose candidates are scored in 13 to 26 chunks: noisy
        vacuum, won in the first chunk, and a gain past the box, won in the
        last."""
        lam = np.linspace(0.0, 1.0, 21)
        clean = [
            synthetic(1.67, 0.76, 0.79).noise_db,
            synthetic(1.2, 0.73, 0.76).noise_db,
        ]
        for i in range(200):
            rng = np.random.default_rng([3, i])
            for db in clean:
                noise = rng.normal(0.0, 0.05, lam.size)
                yield NoiseDataset(lam=lam, noise_db=db + noise, sigma_db=np.full(21, 0.05)), 0.03
        for n in (11, 21):
            for seed in range(40):
                yield TestBoxStart.vacuum(n, seed), 0.03
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(5, 26))
            noise_db, sigma_db = rng.uniform(-30.0, 30.0, n), rng.uniform(1e-3, 1.0, n)
            ds = NoiseDataset(lam=np.linspace(0.0, 1.0, n), noise_db=noise_db, sigma_db=sigma_db)
            yield ds, float(rng.uniform(-0.2, 0.2))
        yield TestBoxStart.vacuum(1_500, 0), 0.03
        for n, seed in ((2_001, 1), (3_000, 2)):
            yield synthetic(60.0, 0.76, 0.79, n=n, noise_seed=seed), 0.03

    def test_same_start_and_fit_as_the_joint_variance_grid(self, monkeypatch):
        # The coefficient table, scored in chunks, picks the same candidate as
        # the (526, n) joint_variance grid, on every scan below whose fit
        # reaches the box start.  The start's scale is the winner's
        # joint_variance scale either way, summed in another order, so it
        # and the fit move by round-off only.
        starts = []
        box_start = fitting._box_start

        def both(*args):
            starts.append((box_start(*args), grid_box_start(*args)))
            return starts[-1][0]

        def fit(ds, offset):
            try:
                return fit_noise_curve(ds, FitOptions(loss_offset=offset))
            except FitFailure as err:
                return err

        fits = 0
        for ds, offset in self.corpora():
            starts.clear()
            monkeypatch.setattr(fitting, "_box_start", both)
            new = fit(ds, offset)
            if not starts:
                continue  # the fit never reached the box start
            fits += 1
            (start, reference), = starts
            assert np.array_equal(start[:2], reference[:2])
            assert abs(start[2] - reference[2]) <= 1e-12 * max(1.0, abs(reference[2]))
            monkeypatch.setattr(fitting, "_box_start", grid_box_start)
            old = fit(ds, offset)
            assert type(new) is type(old)
            if isinstance(old, FitFailure):
                assert new.best_cost == pytest.approx(old.best_cost, rel=1e-9)
                continue
            # Where both solves end at one point, the map's solve wins.
            assert (new.n_starts, new.winning_start) == (old.n_starts, old.winning_start)
            assert new.chi_square == pytest.approx(old.chi_square, rel=1e-9, abs=1e-20)
        assert fits >= 400

    def test_bound_path_fit_of_a_long_scan_stays_small(self):
        # 20,000 rows: scoring the 526 candidates at once, as (526, n)
        # arrays, peaks at 161-242 MiB.
        n = 20_000
        noise = np.random.default_rng(18).normal(0.0, 0.05, n)
        ds = NoiseDataset(lam=np.linspace(0.0, 1.0, n), noise_db=noise, sigma_db=np.full(n, 0.05))
        tracemalloc.start()
        try:
            fit = fit_noise_curve(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fit.winning_start == "bound" and fit.status > 0
        assert peak <= 16 * 2**20, peak


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

    def test_bootstrap_draw_is_pinned(self):
        # The value rng.normal(0, sigma_db) gave, to 17 digits: sigma_db *
        # standard_normal draws the same numbers bit for bit.
        ds = synthetic(1.67, 0.76, 0.79, noise_seed=8)
        est = extract_lambda_opt(ds, n_bootstrap=1500, rng_seed=11)
        assert est.direct_sigma == 0.069136802146158499

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

    @pytest.mark.parametrize("offset", [0.03])
    def test_fit_sigma_equals_per_parameter_loop(self, offset):
        # Reference: one central difference of the unclamped weight
        # 2 sqrt(eta_p eta_c G (G - 1)) / V_c per parameter, as scalar
        # calls, against param_cov; the steps are not clipped into the
        # physical range, so a fit at eta_c = 1 gets its whole gradient.
        ds = synthetic(1.2, 0.73, 0.76, noise_seed=2)
        fit = fit_noise_curve(ds, FitOptions(loss_offset=offset))
        x_hat = fit.param_values

        def weight(x):
            gain, eta_c = x[0], x[1]
            eta_p = eta_c - offset
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
        assert fit.sigma_lambda_opt_fit == got

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
        assert fit.sigma_lambda_opt_fit == est.fit_sigma

    @staticmethod
    def reference_fit_sigma(ds, fit):
        # The gradient of lam* = -a1 / a2 against (J_a^T J_a)^+, with the
        # coefficients rebuilt from the fit's reported parameters.
        a = 10.0 ** (fit.scale_db / 10.0) * np.array(
            joint_variance_quadratic(fit.gain, fit.eta_p, fit.eta_c)
        )[[0, 2, 1]]
        jac = _coefficient_jac(_basis(ds.lam), ds.sigma_db, a)
        grad = np.array([0.0, -1.0 / a[2], a[1] / (a[2] * a[2])]) * (-a[1] <= a[2])
        return float(math.sqrt(max(grad @ np.linalg.pinv(jac.T @ jac) @ grad, 0.0)))

    def test_fit_carries_the_weight_sigma(self):
        # Criterion 6's scans, both settings, and a simulated scan.
        lam = np.linspace(0.0, 1.0, 21)
        scans = []
        for gain, eta_p, eta_c in ((1.67, 0.76, 0.79), (1.2, 0.73, 0.76)):
            vp, vc, cr = joint_variance_quadratic(gain, eta_p, eta_c)
            clean = 10.0 * np.log10(vp + lam**2 * vc + 2.0 * lam * cr)
            for rep in range(20):
                noise = np.random.default_rng(1000 + rep).normal(0.0, 0.05, lam.size)
                scans.append(NoiseDataset(lam, clean + noise, np.full(lam.size, 0.05)))
        config = SimConfig(InterferometerParams(1.67, 0.76, 0.79, alpha=50.0), duration=0.004)
        scans.append(measure_noise_vs_lambda(config, lam, trials=2))
        for ds in scans:
            fit = fit_noise_curve(ds)
            assert fit.sigma_lambda_opt_fit == extract_lambda_opt(ds, fit, n_bootstrap=2).fit_sigma
            assert fit.sigma_lambda_opt_fit == self.reference_fit_sigma(ds, fit)

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

    def test_bootstrap_count_validation(self, monkeypatch):
        # Rejected before a generator is made, so before any draw.
        def no_draws(*args):
            raise AssertionError("drew before checking n_bootstrap")

        monkeypatch.setattr(fitting.np.random, "default_rng", no_draws)
        ds = synthetic(1.67, 0.76, 0.79)
        for count in (200.0, True, 1, 10**6 + 1):
            with pytest.raises(ValueError, match=r"must be an int in \[2, 1000000\], got"):
                extract_lambda_opt(ds, n_bootstrap=count)

    def test_two_bootstrap_draws_suffice(self):
        est = extract_lambda_opt(synthetic(1.67, 0.76, 0.79, noise_seed=4), n_bootstrap=2)
        assert math.isfinite(est.direct_sigma) and est.direct_sigma >= 0.0


class TestOverlayTheory:
    def test_matches_snri_at_fitted_params(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        grid = np.linspace(0.0, 1.0, 9)
        table = overlay_theory(fit, SqlKind.SQL2, grid)
        assert table.columns == ("lambda", "snri_db")
        for lam, db in table.rows:
            assert math.isclose(db, snri(fit.params(), lam, SqlKind.SQL2), rel_tol=1e-12)
        assert table.meta["sql_kind"] == SqlKind.SQL2.value

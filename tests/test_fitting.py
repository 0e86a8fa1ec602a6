import dataclasses
import itertools
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
        # The coefficients map inside the bounds: the free solve, no other.
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79, noise_seed=6))
        assert (fit.n_starts, fit.winning_start) == (0, "coefficients")
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
        # These scans' power-weighted linear coefficients map just inside
        # eta_c = 1, where a solve ends on that face; the free coefficients
        # map past the face, so one solve runs, from the box start.  A step
        # that crosses the face lands on it, so the solve does not creep up
        # to the face.
        fit = fit_noise_curve(synthetic(1.2, 0.97, 1.0, noise_seed=noise_seed))
        assert fit.eta_c == 1.0 and (fit.n_starts, fit.winning_start) == (1, "bound")
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
        numbers = [fit.chi_square, fit.sigma_lambda_opt_fit]
        numbers += [fit.sigma_gain, fit.sigma_eta_c, fit.sigma_scale_db]
        assert np.all(np.isfinite(numbers))
        assert 0.0 <= fit.lambda_opt_fit <= 1.0 and fit.sigma_lambda_opt_fit >= 0.0
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
        # Every solve stops unconverged (status 0): the free solve sends the
        # fit to the box start, and the failure names that solve's cost.
        costs = iter([9.5, 4.25, 7.0] + [8.0] * 20)
        calls = []

        def unconverged(fun, x0, jac, lower, upper):
            calls.append(x0)
            fun(x0), jac(x0)
            return fitting._Solve(x=x0, cost=next(costs), status=0, nfev=3, njev=2)

        monkeypatch.setattr(fitting, "least_squares", unconverged)
        with pytest.raises(FitFailure, match=r"\(best residual cost 4\.25\)") as info:
            fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        assert info.value.best_cost == 4.25
        # The free solve, then the one from the box start.
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


class TestFreeFit:
    """The free solve: an unbounded fit of (a0, a1, a2) in dB, whose vertex
    -a1 / a2 is ``lambda_opt_fit`` and whose covariance gives its sigma."""

    @staticmethod
    def fit_and_solves(ds, monkeypatch):
        # The fit, and every least_squares run it made: the free solve first.
        solves = []
        solve = fitting.least_squares

        def spy(*args):
            solves.append(solve(*args))
            return solves[-1]

        monkeypatch.setattr(fitting, "least_squares", spy)
        try:
            return fit_noise_curve(ds), solves
        finally:
            monkeypatch.undo()

    @staticmethod
    def criterion_6_scans(reps):
        lam = np.linspace(0.0, 1.0, 21)
        for gain, eta_p, eta_c in ((1.67, 0.76, 0.79), (1.2, 0.73, 0.76)):
            vp, vc, cr = joint_variance_quadratic(gain, eta_p, eta_c)
            clean = 10.0 * np.log10(vp + lam**2 * vc + 2.0 * lam * cr)
            for rep in range(reps):
                noise = np.random.default_rng(1000 + rep).normal(0.0, 0.05, lam.size)
                yield NoiseDataset(lam, clean + noise, np.full(lam.size, 0.05))

    @pytest.mark.parametrize(
        "gain, eta_p, eta_c, scale_db",
        [
            (1.67, 0.76, 0.79, 0.0),
            (1.2, 0.73, 0.76, 0.0),
            (1.2, 0.97, 1.0, 0.0),
            (3.0, 0.5, 0.9, -3.0),
            (1.05, 0.9, 0.95, 2.0),
            # Offsets 0 and -0.03: the physical fit, held at 0.03, is biased.
            (1.67, 0.79, 0.79, 0.0),
            (1.67, 0.79, 0.76, 0.0),
        ],
    )
    def test_noiseless_scans_return_the_vertex(self, gain, eta_p, eta_c, scale_db):
        fit = fit_noise_curve(synthetic(gain, eta_p, eta_c, scale_db=scale_db))
        truth = lambda_opt(InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c))
        assert 0.0 < truth < 1.0
        assert abs(fit.lambda_opt_fit - truth) <= 1e-9
        assert fit.sigma_lambda_opt_fit > 0.0

    def test_the_physical_vertex_where_the_map_lands_inside(self):
        # Where the free coefficients map strictly inside the box, they are
        # the fit: the weight is the physical fit's closed form, and its
        # sigma the propagation of param_cov (central differences of the
        # weight 2 sqrt(eta_p eta_c G (G - 1)) / V_c in gain and eta_c).
        def weight(x):
            gain, eta_c = x[0], x[1]
            eta_p = eta_c - 0.03
            return 2.0 * math.sqrt(eta_p * eta_c * gain * (gain - 1.0)) / (
                1.0 + 2.0 * eta_c * (gain - 1.0)
            )

        inside = 0
        for ds in self.criterion_6_scans(20):
            fit = fit_noise_curve(ds)
            if fit.winning_start != "coefficients" or fit.warnings:
                continue
            inside += 1
            assert abs(fit.lambda_opt_fit - lambda_opt(fit.params())) <= 1e-9
            x = fit.param_values
            grad = np.zeros(3)
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-6 * max(1.0, abs(x[i]))
                grad[i] = (weight(x + step) - weight(x - step)) / (2.0 * step[i])
            expected = math.sqrt(grad @ fit.param_cov @ grad)
            assert fit.sigma_lambda_opt_fit == pytest.approx(expected, rel=1e-6)
        assert inside >= 20

    def test_sigma_is_the_free_covariance_propagated(self, monkeypatch):
        # Criterion 6's scans, both settings, and a simulated scan: the
        # gradient of -a1 / a2 and the Jacobian of the dB residuals, both by
        # central differences at the free solve's coefficients, give the
        # quoted sigma through (J^T J)^(-1).
        lam = np.linspace(0.0, 1.0, 21)
        scans = list(self.criterion_6_scans(20))
        config = SimConfig(InterferometerParams(1.67, 0.76, 0.79, alpha=50.0), duration=0.004)
        scans.append(measure_noise_vs_lambda(config, lam, trials=2))
        for ds in scans:
            fit, solves = self.fit_and_solves(ds, monkeypatch)
            b = solves[0].x
            assert solves[0].status > 0 and fit.lambda_opt_fit == -b[1] / b[2]

            def residuals(a):
                return 10.0 * np.log10(_basis(ds.lam) @ a) / ds.sigma_db

            jac, grad = np.zeros((len(ds), 3)), np.zeros(3)
            for i in range(3):
                step = np.zeros(3)
                step[i] = 1e-6 * abs(b[i])
                jac[:, i] = (residuals(b + step) - residuals(b - step)) / (2.0 * step[i])
                grad[i] = (b - step)[1] / (b - step)[2] - (b + step)[1] / (b + step)[2]
                grad[i] /= 2.0 * step[i]
            expected = math.sqrt(grad @ np.linalg.inv(jac.T @ jac) @ grad)
            assert fit.sigma_lambda_opt_fit == pytest.approx(expected, rel=1e-6)

    @pytest.mark.parametrize(
        "a, lam_opt, warned",
        [((1.91, 0.3, -1.0), 1.0, True), ((1.0, 0.2, 1.0), 0.0, True), ((2.0, -1.3, 1.0), 1.0, False)],
        ids=["concave", "rising", "vertex_past_1"],
    )
    def test_no_interior_minimum(self, a, lam_opt, warned):
        # Noiseless power curves the free solve fits exactly.  Concave
        # (a2 < 0) or rising from weight 0 (a1 > 0), the curve has no
        # interior minimum: its lowest end or its vertex clamped to 0,
        # sigma 0 and a warning.  A vertex past 1 is clamped there, with
        # sigma 0 and no warning.
        lam = np.linspace(0.0, 1.0, 11)
        power = a[0] + 2.0 * a[1] * lam + a[2] * lam * lam
        fit = fit_noise_curve(NoiseDataset(lam, 10.0 * np.log10(power), np.full(11, 0.05)))
        assert (fit.lambda_opt_fit, fit.sigma_lambda_opt_fit) == (lam_opt, 0.0)
        message = (
            "the free coefficient curve has no interior minimum; "
            "lambda_opt is its lowest point on [0, 1], with sigma 0"
        )
        assert (message in fit.warnings) == warned

    def test_unconverged_free_solve(self, monkeypatch):
        # The wall scan: the linear fit in power reads below 0 at the two
        # highest weights, so the free solve's first cost is infinite and
        # it stops there.  The weight is that curve's lowest point on
        # [0, 1], here its end 1.
        lam = np.linspace(0.0, 1.0, 7)
        noise_db = [2.5, 21.1, 10.7, 20.0, -27.9, 28.2, 25.4]
        sigma_db = [0.5, 0.92, 0.18, 0.37, 0.17, 0.67, 0.92]
        ds = NoiseDataset(lam=lam, noise_db=noise_db, sigma_db=sigma_db)
        fit, solves = self.fit_and_solves(ds, monkeypatch)
        assert (solves[0].status, solves[0].nfev, solves[0].njev) == (0, 1, 0)
        assert np.min(_basis(lam) @ solves[0].x) <= 0.0
        grid = np.linspace(0.0, 1.0, 10_001)
        lowest = grid[np.argmin(_basis(grid) @ solves[0].x)]
        assert (fit.lambda_opt_fit, fit.sigma_lambda_opt_fit) == (lowest, 0.0)
        assert (
            "the free coefficient fit did not converge; "
            "lambda_opt is its lowest point on [0, 1], with sigma 0"
        ) in fit.warnings

    def test_evaluations_count_the_free_solve(self, monkeypatch):
        # nfev sums every solve; n_starts counts the chart solves alone.
        for ds in (synthetic(1.67, 0.76, 0.79, noise_seed=6), TestBoxStart.vacuum(11, 18)):
            fit, solves = self.fit_and_solves(ds, monkeypatch)
            assert fit.nfev == sum(run.nfev + run.njev for run in solves)
            assert fit.n_starts == len(solves) - 1

    def test_junk_scan_gives_a_weight_in_range(self):
        # A jump the free solve meets with a trial curve below power 0: no
        # floating-point warning escapes, and the weight is in [0, 1].
        ds = NoiseDataset(np.linspace(0.0, 1.0, 5), [0, 0, 0, 0, 21.0], [1, 1, 1, 0.5, 1])
        fit = fit_noise_curve(ds)
        assert 0.0 <= fit.lambda_opt_fit <= 1.0 and math.isfinite(fit.sigma_lambda_opt_fit)


class TestCoefficientPath:
    """A converged free optimum that maps strictly inside the box is the
    fit: the chart is one-to-one with the coefficients there, so no chart
    solve runs, and none could end lower."""

    def test_the_fit_is_a_chart_optimum(self, monkeypatch):
        # Criterion 6's 200 datasets and fit_scans' 400 seed-3 scans: on
        # each coefficient-path fit, the free solve is the only solve, and
        # one bounded chart solve from the reported point lowers the cost
        # by round-off only and moves gain and eta_c by at most 1e-6.
        scans = itertools.chain(
            TestFreeFit.criterion_6_scans(100),
            (ds for ds, _ in itertools.islice(TestBoxStart.corpora(), 400)),
        )
        # The chart box at offset 0.03: u <= sqrt(50 - 1), v <= sqrt(1 - 0.03).
        lower, upper = np.array([0.0, 0.0, -80.0]), np.array([7.0, math.sqrt(0.97), 80.0])
        fits = 0
        for ds in scans:
            fit, solves = TestFreeFit.fit_and_solves(ds, monkeypatch)
            if fit.winning_start != "coefficients":
                continue
            fits += 1
            assert len(solves) == 1 and fit.n_starts == 0 and fit.status == solves[0].status > 0
            basis, sigma = _basis(ds.lam), ds.sigma_db

            def residuals(p):
                a = fitting._chart(p[:2], 0.03)[0]
                return (10.0 * np.log10(basis @ a) + p[2] - ds.noise_db) / sigma

            u, v = math.sqrt(fit.gain - 1.0), math.sqrt(fit.eta_c - 0.03)
            start = np.array([u, v, fit.scale_db])
            cost = 0.5 * float(np.sum(residuals(start) ** 2))
            res = fitting.least_squares(
                residuals, start, lambda p: _chart_jac(basis, sigma, p, 0.03), lower, upper
            )
            assert res.status > 0 and cost - res.cost <= 1e-12 * cost
            assert abs(1.0 + res.x[0] ** 2 - fit.gain) <= 1e-6 * fit.gain
            assert abs(0.03 + res.x[1] ** 2 - fit.eta_c) <= 1e-6 * fit.eta_c
        assert fits >= 380

    def test_unconverged_free_solve_takes_the_box_path(self, monkeypatch):
        # A scan whose free optimum maps inside, its free solve reported
        # unconverged at that point: the fit runs the box solve as it is.
        ds = synthetic(1.67, 0.76, 0.79, noise_seed=6)
        assert fit_noise_curve(ds).winning_start == "coefficients"
        solve, calls = fitting.least_squares, []

        def first_unconverged(*args):
            calls.append(solve(*args))
            return calls[-1]._replace(status=0) if len(calls) == 1 else calls[-1]

        monkeypatch.setattr(fitting, "least_squares", first_unconverged)
        fit = fit_noise_curve(ds)
        assert (fit.winning_start, fit.n_starts) == ("bound", 1)
        assert len(calls) == 2 and fit.status == calls[1].status > 0
        assert (
            "the free coefficient fit did not converge; "
            "lambda_opt is its lowest point on [0, 1], with sigma 0"
        ) in fit.warnings

    def test_summary_names_the_free_and_chart_solves(self):
        for ds, path, chart_solves in (
            (synthetic(1.67, 0.76, 0.79, noise_seed=6), "coefficients", 0),
            (synthetic(1.2, 0.97, 1.0, noise_seed=5), "bound", 1),
        ):
            fit = fit_noise_curve(ds)
            assert (
                f"  solver: {path} path (status {fit.status}), free solve and "
                f"{chart_solves} chart solve(s), {fit.nfev} evaluations"
            ) in fit.summary().splitlines()


class TestExtractLambdaOpt:
    def test_fit_method_preferred(self):
        ds = synthetic(1.67, 0.76, 0.79)
        fit = fit_noise_curve(ds)
        est = extract_lambda_opt(ds, fit)
        assert abs(est.value - 0.7962950314799236) < 1e-5
        assert (est.value, est.sigma) == (fit.lambda_opt_fit, fit.sigma_lambda_opt_fit)

    def test_fit_sigma_at_the_eta_c_bound(self):
        # Criterion 6's second setting, repetition 1: eta_c sits at its
        # bound of 1.  A step clipped at the bound halved one gradient
        # component and quoted 0.1755; the free fit quotes 0.0038.
        ds = synthetic(1.2, 0.73, 0.76, noise_seed=1001)
        fit = fit_noise_curve(ds)
        assert "parameter eta_c sits at a fit bound" in fit.warnings
        est = extract_lambda_opt(ds, fit, n_bootstrap=10)
        assert abs(est.value - 0.55967) < 0.02
        assert est.sigma < 0.01
        assert fit.sigma_lambda_opt_fit == est.sigma

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
            assert extract_lambda_opt(ds, fit_noise_curve(ds)).boundary_warning


class TestOverlayTheory:
    def test_matches_snri_at_fitted_params(self):
        fit = fit_noise_curve(synthetic(1.67, 0.76, 0.79))
        grid = np.linspace(0.0, 1.0, 9)
        table = overlay_theory(fit, SqlKind.SQL2, grid)
        assert table.columns == ("lambda", "snri_db")
        for lam, db in table.rows:
            assert math.isclose(db, snri(fit.params(), lam, SqlKind.SQL2), rel_tol=1e-12)
        assert table.meta["sql_kind"] == SqlKind.SQL2.value

import json
import math
import os
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fock_reference import oracle_quadrature_stats
from tsui.data import MAX_GAIN
from tsui.fock import apply_loss_fock, build_seeded_tmss_fock
from tsui.gaussian import InterferometerParams, WeightedMeasurement
from tsui.metrology import (
    LOG2_DB,
    CurveTable,
    SqlKind,
    UnsupportedConfigurationError,
    curve_lambda_opt_vs_gain,
    curve_noise_vs_lambda,
    curve_sensitivity_vs_gain,
    curve_snri_vs_lambda,
    fringe_slope,
    joint_noise_power,
    joint_variance,
    joint_variance_quadratic,
    lambda_opt,
    lambda_opt_numeric,
    phase_sensitivity,
    qcrb,
    snri,
    sql_sensitivity,
)


class TestLambdaOpt:
    def test_lossless_is_tanh_2r(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            g = 1.0 + 9.0 * rng.random()
            p = InterferometerParams(gain=g)
            # tanh 2r = (q - 1) / (q + 1), q = (sqrt G + sqrt(G - 1))^4, in 50 digits.
            with localcontext() as ctx:
                ctx.prec = 50
                q = (Decimal(g).sqrt() + (Decimal(g) - 1).sqrt()) ** 4
                expected = float((q - 1) / (q + 1))
            assert abs(lambda_opt(p) - expected) <= 1e-13

    def test_gain_one_gives_zero(self):
        assert lambda_opt(InterferometerParams(gain=1.0)) == 0.0
        assert lambda_opt(InterferometerParams(gain=1.0, eta_p=0.7, eta_c=0.8)) == 0.0

    @pytest.mark.parametrize("k", [20, 30, 40])
    @pytest.mark.parametrize("eta_p, eta_c", [(1.0, 1.0), (0.76, 0.79), (0.3, 0.9)])
    def test_accurate_just_above_unit_gain(self, k, eta_p, eta_c):
        # Near G = 1, sinh 2r = 2 sqrt(G (G - 1)) keeps every digit that an
        # acosh(sqrt(G)) route loses.  Reference: the vertex in 50 digits.
        gain = 1.0 + 2.0**-k
        with localcontext() as ctx:
            ctx.prec = 50
            g, ep, ec = Decimal(gain), Decimal(eta_p), Decimal(eta_c)
            ref = float((ep * ec).sqrt() * 2 * (g * (g - 1)).sqrt() / (1 - ec + ec * (2 * g - 1)))
        got = lambda_opt(InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c))
        assert abs(got - ref) <= 2.0 * np.spacing(ref)

    def test_known_lossy_value(self):
        p = InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79)
        assert math.isclose(lambda_opt(p), 0.7962950314799236, abs_tol=1e-12)

    def test_agrees_with_direct_search(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(300):
            p = InterferometerParams(
                gain=1.01 + 3.99 * rng.random(),
                eta_p=0.5 + 0.5 * rng.random(),
                eta_c=0.5 + 0.5 * rng.random(),
            )
            worst = max(worst, abs(lambda_opt(p) - lambda_opt_numeric(p)))
        assert worst <= 1e-8

    @settings(derandomize=True, deadline=None)
    @given(
        gain=st.floats(1.01, 10.0),
        eta_p=st.floats(0.01, 1.0),
        eta_c=st.floats(0.01, 1.0),
        ratio=st.one_of(st.none(), st.floats(1e-3, 0.1)),
    )
    def test_in_unit_interval_and_minimizes_variance(self, gain, eta_p, eta_c, ratio):
        # A ratio sets eta_c = ratio * eta_p << eta_p, where the raw
        # quadratic minimum can exceed 1 and the weight is clamped (11 of
        # the 100 derandomized examples).
        if ratio is not None:
            eta_c = ratio * eta_p
        p = InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c)
        lo = lambda_opt(p)
        assert 0.0 <= lo <= 1.0
        assert abs(lo - lambda_opt_numeric(p)) <= 1e-8

    def test_agrees_with_direct_search_at_the_gain_cap(self):
        # At MAX_GAIN every intermediate of the closed form stays finite,
        # and the searched states pass the physicality check, which at
        # G = 1e6 used to reject them on round-off alone.
        for gain in (1e6, MAX_GAIN):
            for eta_p, eta_c in ((1.0, 1.0), (0.5, 0.9), (0.9, 0.1), (0.76, 0.79)):
                p = InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c)
                assert abs(lambda_opt(p) - lambda_opt_numeric(p)) <= 1e-8
        assert math.isclose(lambda_opt(p), math.sqrt(0.76 * 0.79) / 0.79, rel_tol=1e-15)

    def test_clamped_when_conjugate_much_lossier(self):
        # Strong asymmetry pushes the raw quadratic minimum above 1; the
        # physical attenuator saturates and the search agrees.
        p = InterferometerParams(gain=5.0, eta_p=1.0, eta_c=0.5)
        assert lambda_opt(p) == 1.0
        assert abs(lambda_opt_numeric(p) - 1.0) <= 1e-8

    def test_monotone_in_gain(self):
        for ep, ec in ((1.0, 1.0), (0.745, 0.775), (0.9, 0.8)):
            values = [
                lambda_opt(InterferometerParams(gain=g, eta_p=ep, eta_c=ec))
                for g in np.linspace(1.05, 3.0, 60)
            ]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_conjugate_loss_peak(self):
        # The optimal weight peaks where the conjugate arm's vacuum
        # admixture balances its attenuated correlation: eta_c equal to
        # 1 / (cosh 2r - 1), which is 0.5 at G = 2.  Attenuating a
        # nearly lossless conjugate arm therefore raises the weight.
        def lo(ec):
            return lambda_opt(InterferometerParams(gain=2.0, eta_p=0.9, eta_c=ec))

        assert lo(0.7) > lo(1.0)
        above = [lo(ec) for ec in (1.0, 0.9, 0.8, 0.7, 0.6)]
        assert all(b > a for a, b in zip(above, above[1:]))
        below = [lo(ec) for ec in (0.4, 0.3, 0.2, 0.1)]
        assert all(b < a for a, b in zip(below, below[1:]))

    def test_minimum_property(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            p = InterferometerParams(
                gain=1.01 + 3.0 * rng.random(),
                eta_p=0.5 + 0.5 * rng.random(),
                eta_c=0.5 + 0.5 * rng.random(),
            )
            lo = lambda_opt(p)
            v0 = joint_noise_power(p, lo).variance
            for d in (-1e-3, 1e-3):
                lam = min(max(lo + d, 0.0), 1.0)
                assert v0 <= joint_noise_power(p, lam).variance + 1e-15


class TestJointNoisePower:
    def test_known_values(self):
        res = joint_noise_power(InterferometerParams(gain=1.1), 1.0)
        assert math.isclose(res.variance, 1.0733500838578396, abs_tol=5e-12)
        assert math.isclose(res.variance_db, 10.0 * math.log10(res.variance), rel_tol=1e-14)
        res = joint_noise_power(InterferometerParams(gain=2.0), 1.0)
        assert math.isclose(res.variance, 0.3431457505076203, abs_tol=5e-12)

    def test_lossless_minimum_is_inverse_cosh(self):
        for g in (1.2, 1.67, 2.0, 3.0):
            p = InterferometerParams(gain=g)
            v = joint_noise_power(p, lambda_opt(p)).variance
            assert math.isclose(v, 1.0 / (2.0 * g - 1.0), rel_tol=1e-12)

    def test_fock_oracle_agreement(self):
        p = InterferometerParams(gain=1.67, eta_p=0.76, eta_c=0.79)
        state, _ = build_seeded_tmss_fock(p.gain, 0.0, cutoff=40)
        ens = apply_loss_fock(apply_loss_fock(state, p.eta_p, "probe"), p.eta_c, "conjugate")
        for lam in (0.0, 0.5, lambda_opt(p), 1.0):
            assert abs(
                joint_noise_power(p, lam).variance - oracle_quadrature_stats(ens, lam)[1]
            ) < 1e-6

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            joint_noise_power(InterferometerParams(gain=2.0), 1.2)

    def test_quadratic_coefficients_match(self):
        p = InterferometerParams(gain=2.3, eta_p=0.8, eta_c=0.9)
        vp, vc, cr = joint_variance_quadratic(p.gain, p.eta_p, p.eta_c)
        for lam in (0.0, 0.4, 1.0):
            expected = vp + lam * lam * vc + 2.0 * lam * cr
            assert math.isclose(
                joint_noise_power(p, lam).variance, expected, rel_tol=1e-14
            )

    def test_quadratic_vectorizes(self):
        gains = np.array([1.0, 1.5, 2.0])
        vp, vc, cr = joint_variance_quadratic(gains, 0.9, 0.8)
        assert vp.shape == (3,)
        assert math.isclose(vp[0], 0.9 * 1.0 + 0.1, rel_tol=1e-14)

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError):
            joint_variance_quadratic(0.99, 1.0, 1.0)

    def test_variance_matches_a_400_digit_reference(self):
        # V_p + lam^2 V_c + 2 lam C subtracts O(G) terms to an O(1/G)
        # result: that form was off by 2.4e-4 (relative) at G = 1e6 and by
        # 100 % from 1e8 up.  The sum of nonnegative terms keeps its digits.
        lam = np.linspace(0.0, 1.0, 101)
        worst = 0.0
        with localcontext() as ctx:
            ctx.prec = 400
            for gain in (1e2, 1e4, 1e6, 1e8, 1e12, 1e50, 1e100, MAX_GAIN):
                g = Decimal(gain)
                cosh, sinh = 2 * g - 1, 2 * (g * (g - 1)).sqrt()
                for eta_p, eta_c in ((1.0, 1.0), (0.76, 0.79), (0.5, 0.9), (0.9, 0.3)):
                    ep, ec = Decimal(eta_p), Decimal(eta_c)
                    vp, vc = ep * cosh + 1 - ep, ec * cosh + 1 - ec
                    cross = -(ep * ec).sqrt() * sinh
                    for x, got in zip(lam, joint_variance(gain, eta_p, eta_c, lam)):
                        w = Decimal(x)
                        ref = vp + w * w * vc + 2 * w * cross
                        worst = max(worst, float(abs(Decimal(got) - ref) / ref))
        assert worst <= 1e-12


class TestSensitivity:
    def test_fringe_slope_broadcasts(self):
        gains = np.array([[1.0], [2.0]])
        etas = np.array([0.5, 1.0])
        slope = fringe_slope(gains, etas, 3.0)
        assert slope.shape == (2, 2)
        for i, j in np.ndindex(2, 2):
            assert slope[i, j] == 2.0 * math.sqrt(etas[j] * gains[i, 0]) * 3.0

    def test_sql_values(self):
        p = InterferometerParams(gain=2.0, eta_p=0.76, alpha=10.0)
        slope = 2.0 * math.sqrt(0.76 * 2.0) * 10.0
        assert math.isclose(
            sql_sensitivity(SqlKind.SQL2, p).delta_phi, 1.0 / slope, rel_tol=1e-14
        )
        assert math.isclose(
            sql_sensitivity(SqlKind.SQL1, p).delta_phi,
            math.sqrt(2.0) / slope,
            rel_tol=1e-14,
        )

    def test_beats_sql_when_squeezed(self):
        p = InterferometerParams(gain=2.0, alpha=5.0)
        best = phase_sensitivity(p, lambda_opt(p)).delta_phi
        assert best < sql_sensitivity(SqlKind.SQL2, p).delta_phi

    def test_alpha_required(self):
        p = InterferometerParams(gain=2.0)
        with pytest.raises(ValueError):
            phase_sensitivity(p, 0.5)
        with pytest.raises(ValueError):
            sql_sensitivity(SqlKind.SQL1, p)

    def test_snr_consistency_with_sensitivity(self):
        # SNR(dphi) in dB must equal the (dphi / delta_phi)^2 power ratio.
        p = InterferometerParams(gain=1.8, eta_p=0.85, eta_c=0.8, alpha=3.0)
        dphi = 1e-4
        res = phase_sensitivity(p, 0.7, dphi=dphi)
        expected = 10.0 * math.log10((dphi / res.delta_phi) ** 2)
        assert math.isclose(res.snr_db, expected, rel_tol=1e-6)

    def test_snr_of_a_power_below_the_smallest_double(self):
        # (slope dphi)^2 underflows to 0 here; in logs the SNR stays finite:
        # 20 log10(2 sqrt(2) 1e-70) + 20 log10(dphi) - 10 log10 Var(M).
        p = InterferometerParams(2.0, alpha=1e-70)
        var_db = joint_noise_power(p, 0.5).variance_db
        for dphi in (1e-300, 1e-200):
            snr_db = phase_sensitivity(p, 0.5, dphi=dphi).snr_db
            expected = 20.0 * math.log10(2.0 * math.sqrt(2.0)) - 1400.0
            expected += 20.0 * math.log10(dphi) - var_db
            assert math.isfinite(snr_db)
            assert math.isclose(snr_db, expected, rel_tol=1e-12)

    def test_dphi_validation(self):
        p = InterferometerParams(gain=1.8, alpha=3.0)
        with pytest.raises(ValueError):
            phase_sensitivity(p, 0.7, dphi=0.0)

    def test_qcrb_value_and_guards(self):
        p = InterferometerParams(gain=2.0, alpha=100.0)
        # F_Q = sinh^2 2r + 4 G alpha^2 cosh 2r = 8 + 240000.
        assert math.isclose(qcrb(p).delta_phi, 1.0 / math.sqrt(240008.0), rel_tol=1e-12)
        with pytest.raises(UnsupportedConfigurationError):
            qcrb(InterferometerParams(gain=2.0, eta_p=0.9, alpha=1.0))
        with pytest.raises(ValueError):
            qcrb(InterferometerParams(gain=1.0, alpha=0.0))

    def test_qcrb_below_measured_sensitivity(self):
        for g in (1.2, 1.67, 2.0):
            p = InterferometerParams(gain=g, alpha=10.0)
            assert qcrb(p).delta_phi < phase_sensitivity(p, lambda_opt(p)).delta_phi


class TestSnri:
    @settings(derandomize=True, deadline=None)
    @given(
        gain=st.floats(1.0, 50.0),
        eta_p=st.floats(0.0, 1.0),
        eta_c=st.floats(0.0, 1.0),
        lams=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=21),
    )
    def test_sql_offset_constant(self, gain, eta_p, eta_c, lams):
        p = InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c)
        # An array of weights gives one value per weight, matching the
        # scalar calls, with the same constant offset.
        lams = np.array(lams)
        sql1, sql2 = snri(p, lams, SqlKind.SQL1), snri(p, lams, SqlKind.SQL2)
        assert sql1.shape == sql2.shape == lams.shape
        assert np.all(np.abs(sql1 - sql2 - LOG2_DB) <= 1e-12)
        for w, two in zip(lams, sql2):
            diff = snri(p, float(w), SqlKind.SQL1) - snri(p, float(w), SqlKind.SQL2)
            assert abs(diff - LOG2_DB) <= 1e-12
            assert abs(two - snri(p, float(w), SqlKind.SQL2)) <= 1e-12

    def test_low_gain_crossover(self):
        # At G = 1.1 the balanced readout is noisier than one coherent
        # beam, but the optimal weight recovers an improvement.
        p = InterferometerParams(gain=1.1)
        assert math.isclose(snri(p, 1.0, SqlKind.SQL2), -0.3074139455716056, abs_tol=1e-11)
        assert math.isclose(
            snri(p, lambda_opt(p), SqlKind.SQL2), 0.7918124604762493, abs_tol=1e-11
        )
        assert snri(p, 1.0, SqlKind.SQL1) > 0.0

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            snri(InterferometerParams(gain=1.5), 0.5, "sql1")

    def test_weight_validation(self):
        p = InterferometerParams(gain=1.5)
        for bad in (1.2, -0.1, math.nan, np.array([0.5, 1.2])):
            with pytest.raises(ValueError):
                snri(p, bad, SqlKind.SQL2)


class TestCurveTable:
    def make(self):
        rows = np.array([[0.0, 1.0], [0.5, 2.0], [1.0, 3.0]])
        return CurveTable("demo", ("x", "y"), rows, {"gain": 2.0})

    def test_csv_round_trip_exact(self, tmp_path):
        table = self.make()
        path = tmp_path / "t.csv"
        table.to_csv(str(path))
        text = path.read_text()
        assert text.startswith("# label = demo\n# gain = 2.0\nx,y\n")
        body = [l for l in text.splitlines() if not l.startswith("#")]
        parsed = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
        assert np.array_equal(parsed, table.rows)

    def test_json_structure(self, tmp_path):
        table = self.make()
        path = tmp_path / "t.json"
        table.to_json(str(path))
        data = json.loads(path.read_text())
        assert data["label"] == "demo"
        assert data["columns"] == ["x", "y"]
        assert data["rows"][1] == {"x": 0.5, "y": 2.0}
        assert data["meta"]["gain"] == 2.0

    def test_failed_writes_leave_nothing(self, tmp_path):
        table = self.make()
        missing = tmp_path / "missing" / "t.csv"
        for write in (table.to_csv, table.to_json):
            with pytest.raises(OSError):
                write(str(missing))
            assert not missing.parent.exists()
            # A directory in the way fails after the temp file exists;
            # the temp file must be removed.
            blocked = tmp_path / "blocked"
            blocked.mkdir(exist_ok=True)
            with pytest.raises(OSError):
                write(str(blocked))
            assert list(tmp_path.iterdir()) == [blocked]
            assert list(blocked.iterdir()) == []

    def test_write_errors_name_the_target(self, tmp_path):
        # The error names the path asked for, not the writer's temp file.
        table = self.make()
        blocked = tmp_path / "blocked"
        blocked.mkdir()
        for path, error in (
            (tmp_path / "missing" / "t.csv", FileNotFoundError),
            (blocked, IsADirectoryError),
        ):
            with pytest.raises(error) as info:
                table.to_csv(str(path))
            assert info.value.filename == str(path)
            assert ".tsui-tmp" not in str(info.value)
        assert list(blocked.iterdir()) == []

    def test_file_mode_follows_umask(self, tmp_path):
        table = self.make()
        old = os.umask(0o027)
        try:
            table.to_csv(str(tmp_path / "t.csv"))
            table.to_json(str(tmp_path / "t.json"))
            assert os.umask(0o027) == 0o027  # the writer left the umask alone
        finally:
            os.umask(old)
        for name in ("t.csv", "t.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o640

    def test_full_precision_serialization(self):
        value = 0.7962950314799236
        table = CurveTable("p", ("x", "y"), np.array([[0.0, value]]))
        line = table.csv_text().splitlines()[-1]
        assert float(line.split(",")[1]) == value

    def test_validation(self):
        with pytest.raises(ValueError):
            CurveTable("bad", ("x", "y"), np.array([[0.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(ValueError):
            CurveTable("bad", ("x", "x"), np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError):
            CurveTable("bad", ("x", "y"), np.array([[0.0, math.nan]]))
        with pytest.raises(ValueError):
            CurveTable("bad", ("x", "y"), np.zeros((0, 2)))


class TestCurveGenerators:
    def test_noise_vs_lambda(self):
        p = InterferometerParams(gain=2.0)
        table = curve_noise_vs_lambda(p, np.linspace(0.0, 1.0, 11))
        assert table.columns == ("lambda", "variance", "noise_db")
        # Endpoints: cosh 2r at lam = 0, the balanced value at lam = 1.
        assert math.isclose(table.rows[0, 1], 3.0, rel_tol=1e-12)
        assert math.isclose(table.rows[-1, 1], 0.3431457505076203, abs_tol=5e-12)
        assert math.isclose(table.meta["lambda_opt"], lambda_opt(p), rel_tol=1e-14)

    def test_lambda_opt_vs_gain(self):
        table = curve_lambda_opt_vs_gain([1.0, (0.745, 0.775)], np.array([1.0, 2.0, 3.0]))
        assert table.columns[0] == "gain"
        assert table.rows[0, 1] == 0.0
        assert math.isclose(table.rows[1, 1], 2.0 * math.sqrt(2.0) / 3.0, rel_tol=1e-12)
        # Lossy curve sits below lossless everywhere above G = 1.
        assert np.all(table.rows[1:, 2] < table.rows[1:, 1])

    def test_lambda_opt_rows_match_scalar_api(self):
        # The broadcast table and per-point lambda_opt run the same float
        # operations, so the stated gap is zero.
        etas = [1.0, (0.9, 0.9), (0.745, 0.775), (0.3, 0.9), (0.9, 0.1)]
        grid = np.arange(1.0, 5.0001, 0.05)
        table = curve_lambda_opt_vs_gain(etas, grid)
        for row in table.rows:
            for (ep, ec), value in zip([(1.0, 1.0), *etas[1:]], row[1:]):
                p = InterferometerParams(gain=row[0], eta_p=ep, eta_c=ec)
                assert value == lambda_opt(p)

    def test_sensitivity_rows_match_scalar_api(self):
        # Gap zero, as above: the same operations per point.
        alpha = 3.0
        table = curve_sensitivity_vs_gain(alpha, np.arange(1.0, 5.0001, 0.05))
        for gain, balanced, optimal, bound in table.rows:
            p = InterferometerParams(gain=gain, alpha=alpha)
            assert balanced == alpha * phase_sensitivity(p, 1.0).delta_phi
            assert optimal == alpha * phase_sensitivity(p, lambda_opt(p)).delta_phi
            assert bound == alpha * qcrb(p).delta_phi

    def test_lambda_opt_vs_gain_validates_each_eta(self):
        for etas in ([1.2], [(0.5, -0.1)], [0.9, (0.5, math.nan)]):
            with pytest.raises(ValueError, match="must lie in"):
                curve_lambda_opt_vs_gain(etas, np.array([1.0, 2.0]))

    def test_sensitivity_vs_gain_coherent_limit(self):
        table = curve_sensitivity_vs_gain(100.0, np.array([1.0, 2.0]))
        balanced, optimal, bound = table.rows[0, 1:]
        # With no squeezing the optimal weight shuts off the conjugate
        # detector and saturates the bound; the balanced readout pays
        # the extra vacuum unit.
        assert math.isclose(optimal, 0.5, rel_tol=1e-12)
        assert math.isclose(bound, 0.5, rel_tol=1e-9)
        assert math.isclose(balanced, math.sqrt(2.0) / 2.0, rel_tol=1e-12)
        # Sensitivity improves with gain and stays above the bound.
        assert table.rows[1, 2] < table.rows[0, 2]
        assert table.rows[1, 2] >= table.rows[1, 3]

    def test_snri_vs_lambda(self):
        p1 = InterferometerParams(gain=1.1)
        p2 = InterferometerParams(gain=2.0, eta_p=0.76, eta_c=0.79)
        table = curve_snri_vs_lambda([p1, p2], np.linspace(0.0, 1.0, 5))
        assert table.columns[0] == "lambda"
        assert len(table.columns) == 5
        k = table.columns.index("snri_sql2_G1.1")
        assert math.isclose(table.rows[-1, k], -0.3074139455716056, abs_tol=1e-11)
        k1 = table.columns.index("snri_sql1_G1.1")
        assert math.isclose(table.rows[-1, k1] - table.rows[-1, k], LOG2_DB, abs_tol=1e-12)

    def test_grid_validation(self):
        p = InterferometerParams(gain=2.0)
        with pytest.raises(ValueError):
            curve_noise_vs_lambda(p, np.array([0.5]))
        with pytest.raises(ValueError):
            curve_noise_vs_lambda(p, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            curve_noise_vs_lambda(p, np.array([0.0, 1.2]))
        with pytest.raises(ValueError):
            curve_lambda_opt_vs_gain([], np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            curve_sensitivity_vs_gain(0.0, np.array([1.0, 2.0]))
        # Gains past MAX_GAIN are refused; the grids may end at it.
        grid = np.array([1.0, MAX_GAIN, 1e160])
        past = r"gain must lie in \[1, 1e\+150\], got 1e\+160 at index 2"
        with pytest.raises(ValueError, match=past):
            curve_lambda_opt_vs_gain([1.0], grid)
        with pytest.raises(ValueError, match=past):
            curve_sensitivity_vs_gain(1.0, grid)
        assert curve_lambda_opt_vs_gain([(0.5, 0.9)], grid[:2]).rows[1, 1] == 0.7453559924999299

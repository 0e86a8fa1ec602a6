import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from tsui.gaussian import (
    PHYSICALITY_TOL,
    GaussianState,
    InterferometerParams,
    MomentSummary,
    WeightedMeasurement,
    apply_loss,
    apply_phase_shift,
    joint_quadrature_stats,
    measurement_weight,
    photon_moments,
    seeded_tmss,
)


def random_params(rng):
    return InterferometerParams(
        gain=1.0 + 4.0 * rng.random(),
        eta_p=0.5 + 0.5 * rng.random(),
        eta_c=0.5 + 0.5 * rng.random(),
        alpha=2.0 * rng.random(),
    )


class TestParams:
    def test_r_matches_gain(self):
        p = InterferometerParams(gain=2.0)
        assert math.isclose(math.cosh(p.r) ** 2, 2.0, rel_tol=1e-14)

    def test_gain_below_one_rejected(self):
        with pytest.raises(ValueError):
            InterferometerParams(gain=0.9)

    def test_eta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            InterferometerParams(gain=1.5, eta_p=1.2)
        with pytest.raises(ValueError):
            InterferometerParams(gain=1.5, eta_c=-0.1)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            InterferometerParams(gain=1.5, alpha=-1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            InterferometerParams(gain=math.nan)

    def test_weight_validation(self):
        assert WeightedMeasurement(0.5).lam == 0.5
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError):
                WeightedMeasurement(bad)


class TestGaussianState:
    def test_vacuum_accepted(self):
        st = GaussianState(np.zeros(4), np.eye(4))
        assert st.cov[0, 0] == 1.0

    def test_below_vacuum_rejected(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(4), 0.5 * np.eye(4))

    def test_shape_checks(self):
        with pytest.raises(ValueError):
            GaussianState(np.zeros(3), np.eye(4))
        with pytest.raises(ValueError):
            GaussianState(np.zeros(4), np.eye(3))

    def test_states_are_immutable(self):
        st = seeded_tmss(InterferometerParams(gain=2.0))
        with pytest.raises(ValueError):
            st.cov[0, 0] = 5.0

    def test_covariance_symmetrized(self):
        cov = np.eye(4)
        cov[0, 1] = 1e-14
        st = GaussianState(np.zeros(4), cov)
        assert st.cov[0, 1] == st.cov[1, 0]


class TestSeededTmss:
    def test_moments_at_gain_two(self):
        st = seeded_tmss(InterferometerParams(gain=2.0, alpha=1.0))
        # cosh 2r = 2G - 1, sinh 2r = 2 sqrt(G(G-1))
        assert np.allclose(np.diag(st.cov), 3.0, atol=1e-14)
        assert math.isclose(st.cov[0, 2], 2.0 * math.sqrt(2.0), rel_tol=1e-14)
        assert math.isclose(st.cov[1, 3], -2.0 * math.sqrt(2.0), rel_tol=1e-14)
        assert math.isclose(st.mean[0], 2.0 * math.sqrt(2.0), rel_tol=1e-14)
        assert math.isclose(st.mean[2], 2.0, rel_tol=1e-14)
        assert st.mean[1] == 0.0 and st.mean[3] == 0.0

    def test_gain_one_is_coherent_seed(self):
        st = seeded_tmss(InterferometerParams(gain=1.0, alpha=0.7))
        assert np.allclose(st.cov, np.eye(4), atol=1e-14)
        assert math.isclose(st.mean[0], 1.4, rel_tol=1e-14)
        assert st.mean[2] == 0.0

    def test_pure_state_has_unit_determinant(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = 1.0 + 6.0 * rng.random()
            st = seeded_tmss(InterferometerParams(gain=g, alpha=rng.random()))
            assert math.isclose(np.linalg.det(st.cov), 1.0, rel_tol=1e-9)

    def test_random_states_physical(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            p = random_params(rng)
            apply_loss(seeded_tmss(p), p.eta_p, p.eta_c)  # must not raise

    @settings(derandomize=True, deadline=None)
    @given(
        gain=strategies.floats(1.0, 50.0),
        alpha=strategies.floats(0.0, 10.0),
        eta_p=strategies.floats(0.0, 1.0),
        eta_c=strategies.floats(0.0, 1.0),
        dphi=strategies.floats(-2.0 * math.pi, 2.0 * math.pi),
    )
    def test_produced_states_obey_uncertainty(self, gain, alpha, eta_p, eta_c, dphi):
        # cov + i Omega >= 0 for every state the pipeline produces, with
        # Omega written out here rather than taken from the module.
        omega = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
        pure = seeded_tmss(InterferometerParams(gain=gain, alpha=alpha))
        lossy = apply_loss(pure, eta_p, eta_c)
        for state in (pure, lossy, apply_phase_shift(lossy, dphi)):
            assert np.linalg.eigvalsh(state.cov + 1j * omega).min() >= -PHYSICALITY_TOL


class TestApplyLoss:
    def test_means_scale_with_sqrt_eta(self):
        p = InterferometerParams(gain=1.8, alpha=1.0)
        st = apply_loss(seeded_tmss(p), 0.49, 0.25)
        pure = seeded_tmss(p)
        assert math.isclose(st.mean[0], 0.7 * pure.mean[0], rel_tol=1e-14)
        assert math.isclose(st.mean[2], 0.5 * pure.mean[2], rel_tol=1e-14)

    def test_block_structure(self):
        st = apply_loss(seeded_tmss(InterferometerParams(gain=2.0)), 0.76, 0.79)
        c2r = 3.0
        s2r = 2.0 * math.sqrt(2.0)
        assert math.isclose(st.cov[1, 1], 0.76 * c2r + 0.24, rel_tol=1e-14)
        assert math.isclose(st.cov[3, 3], 0.79 * c2r + 0.21, rel_tol=1e-14)
        assert math.isclose(
            st.cov[1, 3], -math.sqrt(0.76 * 0.79) * s2r, rel_tol=1e-14
        )

    def test_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            p = random_params(rng)
            st = seeded_tmss(p)
            e1, e2 = rng.random(2)
            once = apply_loss(st, e1 * e2, e1 * e2)
            twice = apply_loss(apply_loss(st, e1, e1), e2, e2)
            assert np.allclose(once.cov, twice.cov, atol=1e-12)
            assert np.allclose(once.mean, twice.mean, atol=1e-12)

    def test_full_loss_gives_vacuum(self):
        st = apply_loss(seeded_tmss(InterferometerParams(gain=3.0, alpha=1.0)), 0.0, 0.0)
        assert np.allclose(st.cov, np.eye(4), atol=1e-14)
        assert np.allclose(st.mean, 0.0, atol=1e-14)

    def test_eta_validation(self):
        st = seeded_tmss(InterferometerParams(gain=2.0))
        with pytest.raises(ValueError):
            apply_loss(st, 1.1, 1.0)
        with pytest.raises(ValueError):
            apply_loss(st, 1.0, -0.2)


class TestApplyPhaseShift:
    def test_fringe_slope_is_amplitude_mean(self):
        # d<Y_p>/dphi at 0 equals <X_p>; finite difference check.
        p = InterferometerParams(gain=2.5, alpha=1.5)
        st = seeded_tmss(p)
        h = 1e-6
        plus = apply_phase_shift(st, h)
        minus = apply_phase_shift(st, -h)
        slope = (plus.mean[1] - minus.mean[1]) / (2.0 * h)
        assert math.isclose(slope, st.mean[0], rel_tol=1e-9)

    def test_conjugate_untouched(self):
        st = seeded_tmss(InterferometerParams(gain=2.0, alpha=1.0))
        rot = apply_phase_shift(st, 0.3)
        assert np.allclose(rot.mean[2:], st.mean[2:], atol=1e-14)
        assert np.allclose(rot.cov[2:, 2:], st.cov[2:, 2:], atol=1e-14)

    def test_full_turn_identity(self):
        st = seeded_tmss(InterferometerParams(gain=2.0, alpha=1.0))
        back = apply_phase_shift(st, 2.0 * math.pi)
        assert np.allclose(back.mean, st.mean, atol=1e-12)
        assert np.allclose(back.cov, st.cov, atol=1e-12)

    def test_nonfinite_rejected(self):
        st = seeded_tmss(InterferometerParams(gain=2.0))
        with pytest.raises(ValueError):
            apply_phase_shift(st, math.inf)


class TestJointQuadrature:
    def test_vacuum_quadratic(self):
        st = GaussianState(np.zeros(4), np.eye(4))
        for lam in (0.0, 0.3, 1.0):
            mean, var = joint_quadrature_stats(st, lam)
            assert mean == 0.0
            assert math.isclose(var, 1.0 + lam * lam, rel_tol=1e-14)

    def test_known_values(self):
        # Balanced readout of the lossless pair: 2 cosh 2r - 2 sinh 2r.
        _, var = joint_quadrature_stats(seeded_tmss(InterferometerParams(gain=1.1)), 1.0)
        assert math.isclose(var, 1.0733500838578396, abs_tol=5e-12)
        _, var = joint_quadrature_stats(seeded_tmss(InterferometerParams(gain=2.0)), 1.0)
        assert math.isclose(var, 0.3431457505076203, abs_tol=5e-12)

    def test_accepts_weight_object(self):
        st = seeded_tmss(InterferometerParams(gain=1.5))
        a = joint_quadrature_stats(st, 0.4)
        b = joint_quadrature_stats(st, WeightedMeasurement(0.4))
        assert a == b

    def test_weight_validated(self):
        st = seeded_tmss(InterferometerParams(gain=1.5))
        with pytest.raises(ValueError):
            joint_quadrature_stats(st, 1.5)

    def test_quadratic_in_lambda(self):
        # Var(lam) must be an exact quadratic: second difference constant.
        st = apply_loss(seeded_tmss(InterferometerParams(gain=2.2)), 0.8, 0.7)
        lams = np.linspace(0.0, 1.0, 9)
        vs = np.array([joint_quadrature_stats(st, float(l))[1] for l in lams])
        second = np.diff(vs, 2)
        assert np.allclose(second, second[0], atol=1e-12)

    def test_array_of_weights_equals_scalar_loop(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            st = apply_loss(seeded_tmss(random_params(rng)), rng.random(), rng.random())
            lams = np.concatenate([[0.0, 1.0], rng.random(50)]).reshape(4, 13)
            mean, var = joint_quadrature_stats(st, lams)
            assert mean.shape == var.shape == lams.shape
            loop = [joint_quadrature_stats(st, float(l)) for l in lams.ravel()]
            assert np.array_equal(mean.ravel(), [m for m, _ in loop])
            assert np.array_equal(var.ravel(), [v for _, v in loop])

    def test_array_of_weights_validated(self):
        st = seeded_tmss(InterferometerParams(gain=1.5))
        for bad in (np.array([0.5, 1.5]), np.array([-0.1, 0.5]), np.array([math.nan])):
            with pytest.raises(ValueError):
                joint_quadrature_stats(st, bad)


class TestMeasurementWeight:
    def test_scalar_and_object_give_floats(self):
        for m in (0.25, np.float64(0.25), WeightedMeasurement(0.25), 1):
            lam = measurement_weight(m)
            assert type(lam) is float and lam == float(getattr(m, "lam", m))

    def test_array_gives_array(self):
        lam = measurement_weight([0.0, 0.5, 1.0])
        assert isinstance(lam, np.ndarray) and lam.dtype == float
        assert np.array_equal(lam, [0.0, 0.5, 1.0])

    def test_out_of_range_rejected(self):
        for bad in (-0.01, 1.01, math.nan, math.inf, [0.5, 1.2], np.array([[math.nan]])):
            with pytest.raises(ValueError, match=r"lam must lie in \[0, 1\]"):
                measurement_weight(bad)


class TestPhotonMoments:
    def test_vacuum(self):
        m = photon_moments(GaussianState(np.zeros(4), np.eye(4)), "probe")
        assert m == MomentSummary(0.0, 0.0)

    def test_unseeded_mode_is_thermal(self):
        for g in (1.3, 2.0, 4.0):
            st = seeded_tmss(InterferometerParams(gain=g))
            for mode in ("probe", "conjugate"):
                m = photon_moments(st, mode)
                assert math.isclose(m.mean_n, g - 1.0, rel_tol=1e-12, abs_tol=1e-12)
                assert math.isclose(m.var_n, g * (g - 1.0), rel_tol=1e-12, abs_tol=1e-12)

    def test_seeded_probe(self):
        st = seeded_tmss(InterferometerParams(gain=2.0, alpha=1.0))
        m = photon_moments(st, "probe")
        assert math.isclose(m.mean_n, 3.0, rel_tol=1e-12)
        assert math.isclose(m.var_n, 8.0, rel_tol=1e-12)

    def test_coherent_state_poissonian(self):
        st = seeded_tmss(InterferometerParams(gain=1.0, alpha=1.3))
        m = photon_moments(st, "probe")
        assert math.isclose(m.mean_n, 1.69, rel_tol=1e-12)
        assert math.isclose(m.var_n, 1.69, rel_tol=1e-12)

    def test_loss_scales_mean(self):
        p = InterferometerParams(gain=2.0, alpha=1.0)
        st = apply_loss(seeded_tmss(p), 0.76, 1.0)
        m = photon_moments(st, "probe")
        assert math.isclose(m.mean_n, 0.76 * 3.0, rel_tol=1e-12)

    def test_unknown_mode(self):
        st = seeded_tmss(InterferometerParams(gain=2.0))
        with pytest.raises(ValueError):
            photon_moments(st, "signal")

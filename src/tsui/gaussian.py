"""Gaussian model of a seeded two-mode amplifier with loss.

The probe/conjugate beam pair produced by a seeded four-wave-mixing
amplifier is represented by the first and second moments of its four
quadratures.  Conventions, fixed here and relied on everywhere else:

* quadratures are X = a + a^dag and Y = -i (a - a^dag), so vacuum has
  unit variance and a coherent state of amplitude alpha has <X> = 2 alpha,
* ordering is (X_p, Y_p, X_c, Y_c): amplitude then phase quadrature of
  the probe, then of the conjugate; Y is the phase quadrature read out
  by the locked homodyne detectors,
* the pump phase is locked so amplitude-amplitude correlations are
  positive and phase-phase correlations negative, which makes the sum
  Y_p + lam * Y_c with lam > 0 the squeezed combination.

All operations are pure: they validate inputs, never mutate a state, and
return new ``GaussianState`` instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import check_range

__all__ = [
    "GaussianState",
    "InterferometerParams",
    "MomentSummary",
    "WeightedMeasurement",
    "PHYSICALITY_TOL",
    "apply_loss",
    "apply_phase_shift",
    "joint_quadrature_stats",
    "measurement_weight",
    "photon_moments",
    "seeded_tmss",
]

# Symplectic form for the (X_p, Y_p, X_c, Y_c) ordering.  With vacuum
# variance 1 the uncertainty principle reads cov + i*Omega >= 0.
_OMEGA = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, -1.0, 0.0],
    ]
)

# Most negative eigenvalue of cov + i*Omega tolerated before a state is
# rejected as unphysical, per unit of the covariance's largest entry when
# that exceeds 1.  Loose enough for round-off on composed maps, which
# grows with the entries (-1.2e-10 for a pure state at G = 1e6).
PHYSICALITY_TOL = 1e-10

_MODE_SLICES = {"probe": slice(0, 2), "conjugate": slice(2, 4)}


def _mode_slice(mode: str) -> slice:
    try:
        return _MODE_SLICES[mode]
    except KeyError:
        raise ValueError(
            f"unknown mode {mode!r}, expected 'probe' or 'conjugate'"
        ) from None


@dataclass(frozen=True)
class InterferometerParams:
    """Physical settings of one amplifier-plus-detection configuration.

    Attributes:
        gain: intensity gain G of the seeded amplifier.
        eta_p: power transmission of the probe path.
        eta_c: power transmission of the conjugate path.
        alpha: coherent seed amplitude (real); the seed carries
            |alpha|^2 photons into the probe mode before amplification.
            Each, and G alpha^2, lies in its :data:`tsui.data.RANGES` row.
    """

    gain: float
    eta_p: float = 1.0
    eta_c: float = 1.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        for name in ("gain", "alpha", "eta_p", "eta_c"):
            object.__setattr__(self, name, check_range(name, getattr(self, name)))
        check_range("gain * alpha^2", self.gain * self.alpha * self.alpha)

    @property
    def r(self) -> float:
        """Squeezing parameter, r = arccosh(sqrt(G))."""
        return math.acosh(math.sqrt(self.gain))


@dataclass(frozen=True)
class WeightedMeasurement:
    """Weight of the joint phase-quadrature readout Y_p + lam * Y_c.

    ``lam`` is the amplitude transmission of the attenuator placed on the
    conjugate homodyne signal, so it must lie in [0, 1].
    """

    lam: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lam", float(measurement_weight(self.lam)))


@dataclass(frozen=True)
class MomentSummary:
    """Photon-number mean and variance of a single mode."""

    mean_n: float
    var_n: float


@dataclass(frozen=True)
class GaussianState:
    """Two-mode Gaussian state: mean vector and 4x4 covariance matrix.

    ``mean`` holds (<X_p>, <Y_p>, <X_c>, <Y_c>) and ``cov`` the symmetric
    covariance matrix in the same ordering.  Construction symmetrizes the
    covariance and rejects matrices violating the uncertainty principle
    (min eigenvalue of cov + i*Omega below -PHYSICALITY_TOL times the
    largest covariance entry, or times 1 if that is smaller).
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=float)
        cov = np.array(self.cov, dtype=float)
        if mean.shape != (4,):
            raise ValueError(f"mean must have shape (4,), got {mean.shape}")
        if cov.shape != (4, 4):
            raise ValueError(f"cov must have shape (4, 4), got {cov.shape}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("state moments must be finite")
        cov = 0.5 * (cov + cov.T)
        min_eig = float(np.linalg.eigvalsh(cov + 1j * _OMEGA).min())
        if min_eig < -PHYSICALITY_TOL * max(1.0, float(np.abs(cov).max())):
            raise ValueError(
                "covariance violates the uncertainty principle "
                f"(min eigenvalue of cov + i*Omega is {min_eig:.3e})"
            )
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)


def seeded_tmss(params: InterferometerParams) -> GaussianState:
    """Output of the seeded amplifier before any loss.

    A coherent seed of amplitude ``alpha`` enters the probe port of a
    two-mode squeezer with gain G = cosh^2(r).  The output is a displaced
    two-mode squeezed state with

        <X_p> = 2 sqrt(G) alpha,        <X_c> = 2 sqrt(G - 1) alpha,
        Var(X_i) = Var(Y_i) = cosh(2r) = 2G - 1,
        Cov(X_p, X_c) = +sinh(2r),      Cov(Y_p, Y_c) = -sinh(2r).

    Args:
        params: amplifier settings; ``eta_p``/``eta_c`` are ignored here
            (apply them afterwards with :func:`apply_loss`).

    Returns:
        The lossless amplifier output as a :class:`GaussianState`.
    """
    g = params.gain
    cosh2r = 2.0 * g - 1.0
    sinh2r = 2.0 * math.sqrt(g * (g - 1.0))
    mean = np.array(
        [
            2.0 * math.sqrt(g) * params.alpha,
            0.0,
            2.0 * math.sqrt(g - 1.0) * params.alpha,
            0.0,
        ]
    )
    cov = np.array(
        [
            [cosh2r, 0.0, sinh2r, 0.0],
            [0.0, cosh2r, 0.0, -sinh2r],
            [sinh2r, 0.0, cosh2r, 0.0],
            [0.0, -sinh2r, 0.0, cosh2r],
        ]
    )
    return GaussianState(mean, cov)


def apply_loss(state: GaussianState, eta_p: float, eta_c: float) -> GaussianState:
    """Send each mode through an independent vacuum beam splitter.

    Power transmission ``eta_p`` acts on the probe and ``eta_c`` on the
    conjugate.  Means scale by sqrt(eta), each mode block becomes
    eta * V + (1 - eta) * I, and cross-mode correlations scale by
    sqrt(eta_p * eta_c).

    Args:
        state: input two-mode state.
        eta_p: probe power transmission in [0, 1].
        eta_c: conjugate power transmission in [0, 1].

    Returns:
        The attenuated state.
    """
    eta_p = check_range("eta_p", eta_p)
    eta_c = check_range("eta_c", eta_c)
    t = np.sqrt([eta_p, eta_p, eta_c, eta_c])
    cov = state.cov * np.outer(t, t) + np.diag(1.0 - t * t)
    return GaussianState(state.mean * t, cov)


def apply_phase_shift(state: GaussianState, dphi: float) -> GaussianState:
    """Rotate the probe mode quadratures by a small phase ``dphi``.

    Only the probe arm sees the phase object, so the conjugate block is
    untouched.  The rotation maps X -> X cos - Y sin, Y -> X sin + Y cos,
    moving amplitude-quadrature signal into the phase quadrature at rate
    d<Y_p>/dphi = <X_p>.

    Args:
        state: input two-mode state.
        dphi: phase shift in radians (any finite value is accepted).

    Returns:
        The rotated state.
    """
    dphi = float(dphi)
    if not math.isfinite(dphi):
        raise ValueError(f"dphi must be finite, got {dphi!r}")
    c, s = math.cos(dphi), math.sin(dphi)
    rot = np.array(
        [
            [c, -s, 0.0, 0.0],
            [s, c, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    return GaussianState(rot @ state.mean, rot @ state.cov @ rot.T)


def measurement_weight(m: "WeightedMeasurement | float | np.ndarray") -> "float | np.ndarray":
    """The weight lam of ``m``, checked to lie in [0, 1]: a float for a
    :class:`WeightedMeasurement` or a scalar, a float array for an array."""
    return m.lam if isinstance(m, WeightedMeasurement) else check_range("lam", m)


def joint_quadrature_stats(
    state: GaussianState, m: "WeightedMeasurement | float | np.ndarray"
) -> "tuple[float, float] | tuple[np.ndarray, np.ndarray]":
    """Mean and variance of the joint readout M = Y_p + lam * Y_c.

    Args:
        state: two-mode state at the detectors.
        m: measurement weight, either a :class:`WeightedMeasurement`, a
            bare float in [0, 1], or an array of such weights.

    Returns:
        ``(mean, variance)`` of M computed from the phase-quadrature
        entries of the state moments: two floats for a single weight, two
        arrays shaped like the weights for an array.
    """
    lam = measurement_weight(m)
    mean = state.mean[1] + lam * state.mean[3]
    var = state.cov[1, 1] + lam * lam * state.cov[3, 3] + 2.0 * lam * state.cov[1, 3]
    return (float(mean), float(var)) if isinstance(lam, float) else (mean, var)


def photon_moments(state: GaussianState, mode: str) -> MomentSummary:
    """Photon-number mean and variance of one mode of a Gaussian state.

    With vacuum variance 1 the reduced moments (d, V) of the mode give

        <n>    = (tr V - 2) / 4 + |d|^2 / 4,
        Var(n) = (tr V^2 - 2) / 8 + d^T V d / 4.

    Args:
        state: two-mode state.
        mode: "probe" or "conjugate".

    Returns:
        :class:`MomentSummary` for the requested mode.
    """
    sl = _mode_slice(mode)
    d = state.mean[sl]
    v = state.cov[sl, sl]
    mean_n = (float(np.trace(v)) - 2.0) / 4.0 + float(d @ d) / 4.0
    var_n = (float(np.trace(v @ v)) - 2.0) / 8.0 + float(d @ v @ d) / 4.0
    # Round-off can leave a tiny negative residue for vacuum.
    return MomentSummary(mean_n=mean_n, var_n=max(var_n, 0.0))

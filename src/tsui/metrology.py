"""Closed-form noise and phase-sensitivity figures for the interferometer.

The joint readout M = Y_p + lam * Y_c of a lossy seeded amplifier has a
variance quadratic in the weight lam,

    Var(M) = V_p + lam^2 V_c + 2 lam C,
    V_i = eta_i cosh(2r) + (1 - eta_i),   C = -sqrt(eta_p eta_c) sinh(2r),

which this module minimizes, converts to phase sensitivity via the
displaced fringe slope d<M>/dphi = 2 sqrt(eta_p G) alpha, and compares
against shot-noise and quantum Cramer-Rao benchmarks.  Curve generators
produce the tables behind the standard figures of the project.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# CurveTable types the curve tables; older callers also read it as metrology.CurveTable.
from .data import CurveTable, check_grid, check_range
from .gaussian import (
    InterferometerParams,
    WeightedMeasurement,
    apply_loss,
    joint_quadrature_stats,
    measurement_weight,
    seeded_tmss,
)

__all__ = [
    "LOG2_DB",
    "NoiseResult",
    "SensitivityResult",
    "SqlKind",
    "UnsupportedConfigurationError",
    "curve_lambda_opt_vs_gain",
    "curve_noise_vs_lambda",
    "curve_sensitivity_vs_gain",
    "curve_snri_vs_lambda",
    "fringe_slope",
    "joint_noise_power",
    "joint_variance",
    "joint_variance_quadratic",
    "lambda_opt",
    "lambda_opt_numeric",
    "optimal_weight",
    "phase_sensitivity",
    "qcrb",
    "snri",
    "sql_sensitivity",
]

# dB gap between the two shot-noise conventions, 10*log10(2).
LOG2_DB = 10.0 * math.log10(2.0)

# Final bracket width of lambda_opt_numeric's golden-section search.
_GOLDEN_TOL = 1e-10


class UnsupportedConfigurationError(ValueError):
    """A benchmark was requested outside its domain of validity."""


class SqlKind(enum.Enum):
    """Shot-noise reference used for sensitivities and improvements.

    SQL1 references two coherent beams hitting both detectors (joint
    variance 2); SQL2 references a single coherent beam of the same probe
    power on the probe detector alone (variance 1).  Both use the same
    fringe slope, so they differ by exactly 3.01 dB everywhere.
    """

    SQL1 = "sql1"
    SQL2 = "sql2"


@dataclass(frozen=True)
class NoiseResult:
    """Joint-quadrature noise power at one measurement weight."""

    variance: float
    variance_db: float
    lam: float


@dataclass(frozen=True)
class SensitivityResult:
    """Smallest detectable phase, with optional SNR for a given dphi."""

    delta_phi: float
    snr_db: float | None = None


def joint_variance_quadratic(gain, eta_p, eta_c):
    """Coefficients (V_p, V_c, C) of Var(M) = V_p + lam^2 V_c + 2 lam C.

    Accepts scalars or numpy arrays (broadcast together), each checked
    against its :data:`tsui.data.RANGES` row.
    """
    gain = check_range("gain", gain)
    eta_p, eta_c = check_range("eta_p", eta_p), check_range("eta_c", eta_c)
    cosh2r = 2.0 * gain - 1.0
    sinh2r = 2.0 * np.sqrt(gain * (gain - 1.0))
    v_p = eta_p * cosh2r + (1.0 - eta_p)
    v_c = eta_c * cosh2r + (1.0 - eta_c)
    cross = -np.sqrt(eta_p * eta_c) * sinh2r
    return v_p, v_c, cross


def joint_variance(gain, eta_p, eta_c, lam):
    """Var(M) = V_p + lam^2 V_c + 2 lam C, broadcast over all arguments, as
    a sum of terms that are nonnegative for transmissions in [0, 1],

        (sqrt(eta_p) - lam sqrt(eta_c))^2 cosh 2r + 2 lam sqrt(eta_p eta_c) exp(-2r)
        + (1 - eta_p) + lam^2 (1 - eta_c),   exp(-2r) = (sqrt(G) + sqrt(G - 1))^-2,

    so no O(G) terms cancel to an O(1/G) result; shared by the curves and the
    fitter.  Only the gain is checked: a central difference of the fit's model
    steps just past the eta bounds.
    """
    gain = check_range("gain", gain)
    gain, eta_p, eta_c, lam = (np.asarray(v, dtype=float) for v in (gain, eta_p, eta_c, lam))
    root_p, root_c = np.sqrt(eta_p), np.sqrt(eta_c)
    exp_m2r = 1.0 / (np.sqrt(gain) + np.sqrt(gain - 1.0)) ** 2
    return (
        (root_p - lam * root_c) ** 2 * (2.0 * gain - 1.0) + 2.0 * lam * root_p * root_c * exp_m2r
        + (1.0 - eta_p) + lam * lam * (1.0 - eta_c)
    )


def fringe_slope(gain, eta_p, alpha):
    """Displaced fringe slope d<M>/dphi = 2 sqrt(eta_p G) alpha, broadcast."""
    return 2.0 * np.sqrt(eta_p * gain) * alpha


def optimal_weight(gain, eta_p, eta_c):
    """Vertex -C / V_c of the variance quadratic clamped to [0, 1], broadcast."""
    _, v_c, cross = joint_variance_quadratic(gain, eta_p, eta_c)
    return np.clip(-cross / v_c, 0.0, 1.0)


def lambda_opt(params: InterferometerParams) -> float:
    """Noise-minimizing weight for the joint readout, in closed form.

    The unconstrained minimum of the variance quadratic is its vertex

        lam* = -C / V_c = sqrt(eta_p eta_c) sinh(2r) / (1 - eta_c + eta_c cosh(2r)),

    clamped to the physical attenuator range [0, 1] (strongly asymmetric
    loss with eta_c << eta_p can push the raw ratio above 1).  Lossless
    it is tanh(2r); read from G, with no acosh, it keeps its digits at G ~ 1.

    Args:
        params: amplifier and transmission settings.

    Returns:
        The clamped optimal weight.
    """
    return float(optimal_weight(params.gain, params.eta_p, params.eta_c))


def lambda_opt_numeric(params: InterferometerParams) -> float:
    """Optimal weight found by searching the measured variance directly.

    Golden-section search over lam in [0, 1] on the variance of the
    loss-propagated state brackets the minimum to width ``_GOLDEN_TOL``; a final
    three-point parabolic interpolation (exact for this quadratic
    objective, up to round-off) removes the flat-bottom ambiguity of
    comparing nearly equal variances.  Serves as an independent check of
    :func:`lambda_opt`; it never evaluates the closed form.

    Args:
        params: amplifier and transmission settings.

    Returns:
        The minimizing weight in [0, 1].
    """
    state = apply_loss(seeded_tmss(params), params.eta_p, params.eta_c)

    def var(lam: float) -> float:
        return joint_quadrature_stats(state, lam)[1]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = 0.0, 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = var(c), var(d)
    while b - a > _GOLDEN_TOL:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = var(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = var(d)
    x = 0.5 * (a + b)
    # Parabola through three samples around x; the objective is exactly
    # quadratic in lam, so the vertex is exact up to round-off.
    h = 1e-4
    lo = min(max(x - h, 0.0), 1.0 - 2.0 * h)
    p0, p1, p2 = lo, lo + h, lo + 2.0 * h
    f0, f1, f2 = var(p0), var(p1), var(p2)
    denom = f0 - 2.0 * f1 + f2
    if denom > 0.0:
        vertex = p1 + 0.5 * h * (f0 - f2) / denom
        return min(max(vertex, 0.0), 1.0)
    return x


def joint_noise_power(
    params: InterferometerParams, m: "WeightedMeasurement | float"
) -> NoiseResult:
    """Joint-quadrature noise power at weight lam, relative to shot noise.

    Args:
        params: amplifier and transmission settings.
        m: measurement weight (``WeightedMeasurement`` or float in [0, 1]).

    Returns:
        :class:`NoiseResult` with the variance in shot-noise units and in
        dB (0 dB is the single-beam shot-noise level).
    """
    lam = measurement_weight(m)
    var = float(joint_variance(params.gain, params.eta_p, params.eta_c, lam))
    return NoiseResult(variance=var, variance_db=10.0 * math.log10(var), lam=lam)


def _phase_slope(params: InterferometerParams) -> float:
    """The fringe slope of a phase readout, its seed and probe arm checked."""
    check_range("alpha (bright seed)", params.alpha)
    check_range("eta_p (phase readout)", params.eta_p)
    return float(fringe_slope(params.gain, params.eta_p, params.alpha))


def phase_sensitivity(
    params: InterferometerParams,
    m: "WeightedMeasurement | float",
    dphi: float | None = None,
) -> SensitivityResult:
    """Phase sensitivity of the joint readout for a bright seed.

    The smallest detectable phase is the noise divided by the squared
    fringe slope,

        (delta phi)^2 = Var(M) / (2 sqrt(eta_p G) alpha)^2.

    Args:
        params: settings; a bright seed ``alpha`` and a probe arm that
            transmits, ``eta_p`` > 0 (no fringe otherwise).
        m: measurement weight.
        dphi: optional applied phase; when given, the result also carries
            the power signal-to-noise ratio of that phase in dB.

    Returns:
        :class:`SensitivityResult`.
    """
    slope = _phase_slope(params)
    noise = joint_noise_power(params, m)
    delta_phi = math.sqrt(noise.variance) / slope
    snr_db = None
    if dphi is not None:
        dphi = float(dphi)
        if dphi <= 0.0 or not math.isfinite(dphi):
            raise ValueError(f"dphi must be positive and finite, got {dphi!r}")
        # In logs, so a signal power (slope dphi)^2 below the smallest double keeps its ratio.
        snr_db = 20.0 * (math.log10(slope) + math.log10(dphi)) - 10.0 * math.log10(noise.variance)
    return SensitivityResult(delta_phi=delta_phi, snr_db=snr_db)


def sql_sensitivity(kind: SqlKind, params: InterferometerParams) -> SensitivityResult:
    """Shot-noise-limited phase sensitivity at the same fringe slope.

    Args:
        kind: which shot-noise convention to reference (see
            :class:`SqlKind`).
        params: settings; a bright seed ``alpha`` and ``eta_p`` > 0.

    Returns:
        :class:`SensitivityResult` for the reference measurement.
    """
    if not isinstance(kind, SqlKind):
        raise ValueError(f"kind must be a SqlKind, got {kind!r}")
    var = 2.0 if kind is SqlKind.SQL1 else 1.0
    return SensitivityResult(delta_phi=math.sqrt(var) / _phase_slope(params))


def _quantum_fisher(gain, alpha):
    """F_Q = 4 Var(n_probe) = sinh^2(2r) + 4 G alpha^2 cosh(2r) of the
    lossless seeded amplifier's probe, as 4 G (G - 1 + alpha^2 (2 G - 1));
    broadcast."""
    return 4.0 * gain * (gain - 1.0 + alpha * alpha * (2.0 * gain - 1.0))


def qcrb(params: InterferometerParams) -> SensitivityResult:
    """Quantum Cramer-Rao phase bound for the lossless probe arm.

    The bound is 1/sqrt(F_Q) with F_Q = 4 Var(n_probe); for the seeded
    amplifier output F_Q = sinh^2(2r) + 4 G alpha^2 cosh(2r)
    (``_quantum_fisher``).  Only the lossless case is supported: with loss
    the probe mode alone no longer determines the attainable bound.

    Args:
        params: settings with ``eta_p == eta_c == 1``.

    Returns:
        :class:`SensitivityResult` with the bound.

    Raises:
        UnsupportedConfigurationError: if either transmission is below 1.
        ValueError: if the state carries no phase information (G = 1 and
            alpha = 0).
    """
    if params.eta_p != 1.0 or params.eta_c != 1.0:
        raise UnsupportedConfigurationError(
            "the quantum bound is only computed for eta_p = eta_c = 1"
        )
    fisher = _quantum_fisher(params.gain, params.alpha)
    if fisher <= 0.0:
        raise ValueError("state carries no phase information (G = 1, alpha = 0)")
    return SensitivityResult(delta_phi=1.0 / math.sqrt(fisher))


def snri(
    params: InterferometerParams,
    m: "WeightedMeasurement | float | np.ndarray",
    kind: SqlKind,
) -> "float | np.ndarray":
    """Squeezing-noise-reduction improvement over a shot-noise reference.

    Signal slopes cancel between the joint readout and the reference, so
    the improvement is pure noise contrast:

        SNRI_SQL2 = -10 log10 Var(M),    SNRI_SQL1 = SNRI_SQL2 + 10 log10 2.

    The SQL1 value is produced by adding the constant offset to the SQL2
    code path, so the two kinds differ by exactly ``LOG2_DB``.

    Args:
        params: amplifier and transmission settings.
        m: measurement weight, or an array of weights in [0, 1].
        kind: shot-noise convention.

    Returns:
        Improvement in dB (positive means better than the reference): a
        float for a single weight, an array for an array of weights.
    """
    if not isinstance(kind, SqlKind):
        raise ValueError(f"kind must be a SqlKind, got {kind!r}")
    lam = measurement_weight(m)
    base = -10.0 * np.log10(joint_variance(params.gain, params.eta_p, params.eta_c, lam))
    if kind is SqlKind.SQL1:
        base = base + LOG2_DB
    return float(base) if np.ndim(base) == 0 else base


def curve_noise_vs_lambda(
    params: InterferometerParams, lambda_grid
) -> CurveTable:
    """Joint noise power versus measurement weight at fixed settings.

    Args:
        params: amplifier and transmission settings.
        lambda_grid: strictly increasing weights in [0, 1].

    Returns:
        Table with columns (lambda, variance, noise_db).
    """
    grid = check_grid("lam", lambda_grid)
    var = joint_variance(params.gain, params.eta_p, params.eta_c, grid)
    rows = np.column_stack([grid, var, 10.0 * np.log10(var)])
    meta = {
        "gain": params.gain,
        "eta_p": params.eta_p,
        "eta_c": params.eta_c,
        "alpha": params.alpha,
        "lambda_opt": lambda_opt(params),
    }
    return CurveTable("noise_vs_lambda", ("lambda", "variance", "noise_db"), rows, meta)


def _eta_pair(entry) -> tuple[float, float]:
    pair = entry if isinstance(entry, (tuple, list)) else (entry, entry)
    if len(pair) != 2:
        raise ValueError(f"eta entry must be a float or a pair, got {entry!r}")
    return check_range("eta_p", pair[0]), check_range("eta_c", pair[1])


def curve_lambda_opt_vs_gain(eta_list: Sequence, gain_grid) -> CurveTable:
    """Optimal weight versus gain for several transmission settings.

    Args:
        eta_list: transmissions, each either a single eta used for both
            arms or an ``(eta_p, eta_c)`` pair; one output column each.
        gain_grid: strictly increasing gains, in the ``gain`` range.

    Returns:
        Table with columns (gain, lambda_opt_<tag>...).
    """
    grid = check_grid("gain", gain_grid)
    if len(eta_list) < 1:
        raise ValueError("eta_list must not be empty")
    pairs = [_eta_pair(e) for e in eta_list]
    columns = ["gain"] + [f"lambda_opt_ep{ep:g}_ec{ec:g}" for ep, ec in pairs]
    if len(set(columns)) != len(columns):
        raise ValueError("eta_list entries must be distinct")
    eta_p, eta_c = np.array(pairs).T
    rows = np.column_stack([grid, optimal_weight(grid[:, np.newaxis], eta_p, eta_c)])
    meta = {"etas": "; ".join(f"({ep:g}, {ec:g})" for ep, ec in pairs)}
    return CurveTable("lambda_opt_vs_gain", tuple(columns), rows, meta)


def curve_sensitivity_vs_gain(alpha: float, gain_grid) -> CurveTable:
    """Lossless phase sensitivity versus gain, three ways.

    Compares the balanced joint readout (lam = 1), the optimally weighted
    readout, and the quantum bound, all scaled by the seed amplitude so
    the columns are alpha * delta_phi (dimensionless, 0.5 at shot noise
    for a single coherent beam).

    Args:
        alpha: seed amplitude, a bright seed.
        gain_grid: strictly increasing gains, in the ``gain`` range.

    Returns:
        Table with columns
        (gain, alpha_dphi_balanced, alpha_dphi_optimal, alpha_dphi_qcrb).
    """
    alpha = check_range("alpha (bright seed)", alpha)
    grid = check_grid("gain", gain_grid)
    slope = fringe_slope(grid, 1.0, alpha)
    balanced = np.sqrt(joint_variance(grid, 1.0, 1.0, 1.0)) / slope
    optimal = np.sqrt(joint_variance(grid, 1.0, 1.0, optimal_weight(grid, 1.0, 1.0))) / slope
    check_range("gain * alpha^2", grid * alpha * alpha)
    bound = 1.0 / np.sqrt(_quantum_fisher(grid, alpha))
    rows = np.column_stack([grid, alpha * balanced, alpha * optimal, alpha * bound])
    columns = ("gain", "alpha_dphi_balanced", "alpha_dphi_optimal", "alpha_dphi_qcrb")
    return CurveTable("sensitivity_vs_gain", columns, rows, {"alpha": alpha})


def curve_snri_vs_lambda(
    params_list: Sequence[InterferometerParams], lambda_grid
) -> CurveTable:
    """Noise improvement versus weight for several parameter settings.

    Args:
        params_list: one or more settings; each contributes an SQL2 and
            an SQL1 column.
        lambda_grid: strictly increasing weights in [0, 1].

    Returns:
        Table with columns (lambda, snri_sql2_<tag>..., snri_sql1_<tag>...).
    """
    grid = check_grid("lam", lambda_grid)
    if len(params_list) < 1:
        raise ValueError("params_list must not be empty")
    tags = []
    for k, p in enumerate(params_list):
        tag = f"G{p.gain:g}"
        if p.eta_p != 1.0 or p.eta_c != 1.0:
            tag += f"_ep{p.eta_p:g}_ec{p.eta_c:g}"
        if tag in tags:
            tag += f"_{k}"
        tags.append(tag)
    columns = ["lambda"]
    columns += [f"snri_sql2_{t}" for t in tags]
    columns += [f"snri_sql1_{t}" for t in tags]
    rows = np.column_stack(
        [grid]
        + [snri(p, grid, SqlKind.SQL2) for p in params_list]
        + [snri(p, grid, SqlKind.SQL1) for p in params_list]
    )
    meta = {
        "settings": "; ".join(
            f"(G={p.gain:g}, ep={p.eta_p:g}, ec={p.eta_c:g})" for p in params_list
        ),
        "sql_offset_db": LOG2_DB,
    }
    return CurveTable("snri_vs_lambda", tuple(columns), rows, meta)

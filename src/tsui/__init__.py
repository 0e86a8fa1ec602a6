"""Noise and phase-sensitivity toolkit for a truncated SU(1,1) interferometer.

A seeded four-wave-mixing amplifier produces a bright probe and conjugate
beam pair whose joint phase quadrature Y_p + lam * Y_c drops below shot
noise for the right weight lam.  This package models that system as a
lossy two-mode Gaussian state, provides the closed-form optimal weight
and phase-sensitivity benchmarks, cross-checks everything against a
brute-force Fock-space oracle, and emulates the measurement chain
(time records, spectrum analysis, noise-curve fitting) end to end.
"""

from .data import CurveTable, NoiseDataset, load_noise_csv
from .gaussian import (
    GaussianState,
    InterferometerParams,
    MomentSummary,
    WeightedMeasurement,
    apply_loss,
    apply_phase_shift,
    joint_quadrature_stats,
    photon_moments,
    seeded_tmss,
)
from .metrology import (
    LOG2_DB,
    NoiseResult,
    SensitivityResult,
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
    optimal_weight,
    phase_sensitivity,
    qcrb,
    snri,
    sql_sensitivity,
)
from .fock import (
    FockEnsemble,
    FockState,
    TruncationError,
    TruncationReport,
    apply_loss_fock,
    build_seeded_tmss_fock,
    moment_cutoff,
    oracle_mode_quadrature,
    oracle_moment_bundle,
    oracle_quadrature_stats,
)
from .fitting import (
    FitFailure,
    FitOptions,
    FitResult,
    LambdaOptEstimate,
    extract_lambda_opt,
    fit_noise_curve,
    overlay_theory,
)
from .simulate import (
    MeasurementRecord,
    SimConfig,
    SpectrumResult,
    combine_weighted,
    load_sim_config,
    measure_noise_vs_lambda,
    simulate_records,
    spectrum_power,
)

__version__ = "0.1.0"

__all__ = [
    "CurveTable",
    "NoiseDataset",
    "load_noise_csv",
    "GaussianState",
    "InterferometerParams",
    "MomentSummary",
    "WeightedMeasurement",
    "apply_loss",
    "apply_phase_shift",
    "joint_quadrature_stats",
    "photon_moments",
    "seeded_tmss",
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
    "FockEnsemble",
    "FockState",
    "TruncationError",
    "TruncationReport",
    "apply_loss_fock",
    "build_seeded_tmss_fock",
    "moment_cutoff",
    "oracle_mode_quadrature",
    "oracle_moment_bundle",
    "oracle_quadrature_stats",
    "FitFailure",
    "FitOptions",
    "FitResult",
    "LambdaOptEstimate",
    "extract_lambda_opt",
    "fit_noise_curve",
    "overlay_theory",
    "MeasurementRecord",
    "SimConfig",
    "SpectrumResult",
    "combine_weighted",
    "load_sim_config",
    "measure_noise_vs_lambda",
    "simulate_records",
    "spectrum_power",
    "__version__",
]

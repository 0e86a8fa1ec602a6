"""Noise and phase-sensitivity toolkit for a truncated SU(1,1) interferometer.

A seeded four-wave-mixing amplifier produces a bright probe and conjugate
beam pair whose joint phase quadrature Y_p + lam * Y_c drops below shot
noise for the right weight lam.  This package models that system as a
lossy two-mode Gaussian state, provides the closed-form optimal weight
and phase-sensitivity benchmarks, cross-checks everything against a
brute-force Fock-space oracle, and emulates the measurement chain
(time records, spectrum analysis, noise-curve fitting) end to end.
"""

import types

from .data import CurveTable, NoiseDataset, load_noise_csv
from .gaussian import *  # noqa: F403
from .metrology import *  # noqa: F403
from .fock import *  # noqa: F403
from .fitting import *  # noqa: F403
from .simulate import *  # noqa: F403

__version__ = "0.1.0"

# The data module's file formats and, through the star imports, every
# name in each model layer's __all__; the submodules themselves are
# attributes, not exports.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + ["__version__"]

"""Coverage ledger: does a quoted sigma mean what it says?

Each row takes one quoted quantity at one setting, over a seed set fixed
before looking, and gates one statistic of z = (estimate - truth) / sigma
on a band taken from that statistic's sampling distribution for
calibrated normal errors: three of its standard deviations either side
of its mean.  Each row prints its statistics (visible with ``pytest
-s``).  A row that today's code fails goes in as ``xfail(strict=True)``
and names the finding, so the change that mends it must flip it.
"""

import math

import numpy as np
import pytest

from tsui.fitting import NoiseDataset, fit_noise_curve
from tsui.gaussian import InterferometerParams
from tsui.metrology import joint_variance_quadratic, lambda_opt
from tsui.simulate import SimConfig, measure_noise_vs_lambda


def bands(n: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """Three-sd bands of sd(z) and of the 1-sigma coverage count, over n
    calibrated normal z: sd(z) has an sd of about 1 / sqrt(2 (n - 1)),
    and the count is binomial with p = P(|z| <= 1)."""
    sd_of_sd = 1.0 / math.sqrt(2.0 * (n - 1))
    p = math.erf(1.0 / math.sqrt(2.0))
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    return (1.0 - 3.0 * sd_of_sd, 1.0 + 3.0 * sd_of_sd), (mean - 3.0 * sd, mean + 3.0 * sd)


@pytest.mark.parametrize(
    "gain, eta_p, eta_c", [(1.67, 0.76, 0.79), (1.2, 0.73, 0.76)], ids=["G1.67", "G1.2"]
)
def test_lambda_opt_sigma_on_criterion_6_scans(gain, eta_p, eta_c):
    # Criterion 6's scans: 21 weights, 0.05 dB noise, seeds 1000 + rep.
    lam = np.linspace(0.0, 1.0, 21)
    vp, vc, cr = joint_variance_quadratic(gain, eta_p, eta_c)
    clean = 10.0 * np.log10(vp + lam**2 * vc + 2.0 * lam * cr)
    truth = lambda_opt(InterferometerParams(gain=gain, eta_p=eta_p, eta_c=eta_c))
    z = []
    for rep in range(100):
        noise = np.random.default_rng(1000 + rep).normal(0.0, 0.05, lam.size)
        fit = fit_noise_curve(NoiseDataset(lam, clean + noise, np.full(lam.size, 0.05)))
        assert fit.sigma_lambda_opt_fit > 0.0
        z.append((fit.lambda_opt_fit - truth) / fit.sigma_lambda_opt_fit)
    z = np.array(z)
    sd, covered = float(np.std(z, ddof=1)), int(np.sum(np.abs(z) <= 1.0))
    sd_band, count_band = bands(z.size)
    print(
        f"calibration (lambda_opt_fit sigma, G={gain}): sd(z) = {sd:.3f} "
        f"(band {sd_band[0]:.3f}-{sd_band[1]:.3f}), mean z = {np.mean(z):+.3f}, "
        f"1-sigma coverage {covered}/{z.size} (band {count_band[0]:.1f}-{count_band[1]:.1f})"
    )
    assert sd_band[0] <= sd <= sd_band[1]
    assert count_band[0] <= covered <= count_band[1]


@pytest.mark.xfail(strict=True, reason="On simulated scans, the λ_opt σ is too small")
def test_lambda_opt_sigma_on_simulated_scans():
    # Criterion 9's five gains at eta 0.745 / 0.775: 2^21 samples, 4 trials,
    # 21 weights, seeds 5000 + 10 s + i for 30 sets s.  A scan's points
    # share one draw, and the fit weighs them as independent.
    grid = np.linspace(0.0, 1.0, 21)
    z = []
    for s in range(30):
        for i, gain in enumerate((1.2, 1.5, 2.0, 2.5, 3.0)):
            params = InterferometerParams(gain=gain, eta_p=0.745, eta_c=0.775)
            config = SimConfig(params=params, duration=2**21 / 8e6, rng_seed=5000 + 10 * s + i)
            fit = fit_noise_curve(measure_noise_vs_lambda(config, grid, trials=4))
            z.append((fit.lambda_opt_fit - lambda_opt(params)) / fit.sigma_lambda_opt_fit)
    z = np.array(z)
    sd = float(np.std(z, ddof=1))
    sd_band, _ = bands(z.size)
    print(
        f"calibration (lambda_opt_fit sigma, simulated scans): sd(z) = {sd:.3f} "
        f"(band {sd_band[0]:.3f}-{sd_band[1]:.3f}), mean z = {np.mean(z):+.3f}, "
        f"1-sigma coverage {int(np.sum(np.abs(z) <= 1.0))}/{z.size}"
    )
    assert sd_band[0] <= sd <= sd_band[1]

"""Weighted model fits of noise scans, and weight extraction.

A noise-versus-weight scan (a :class:`tsui.data.NoiseDataset`, measured
or simulated) is fitted in dB space to the closed-form model

    model(lam) = 10 log10( V_p + lam^2 V_c + 2 lam C ) + scale_db

with the variance coefficients from :func:`tsui.metrology.joint_variance_quadratic`.
Every curve it can express is a noise power a0 + 2 a1 lam + a2 lam^2 with
three coefficients a = s (V_p, C, V_c), s = 10^(scale_db / 10), so the fit
holds the transmission offset eta_c - eta_p fixed and frees (gain, eta_c,
scale_db), three parameters for three coefficients.  The fit solves for
the coefficients and maps them back to the parameters in closed form.

Quoted parameter uncertainties come from the Gauss-Newton covariance
(J^T J)^(-1) of the sigma-weighted residuals; they are meaningful only
to the extent the per-point sigma_db entries are.  They are linearized
*marginal* errors, one parameter at a time.  The free parameters are
strongly correlated and the model is nonlinear, so neither the boxes
nor the Wald ellipsoid of ``param_cov`` is a calibrated joint region.
A joint confidence statement at level p uses ``chi_square`` instead:
the parameter vectors with chi2(x) - chi_square <= chi2_k(p), where
k = len(param_names) (the likelihood-ratio region).  When a parameter
sits at a fit bound (a fit warning says so), its sigma is not a valid
interval at all.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from . import metrology
# load_noise_csv is unused here; perfbench/workloads.py still reads it as fitting's.
from .data import CurveTable, NoiseDataset, check_grid, check_range, load_noise_csv
from .gaussian import InterferometerParams
from .metrology import SqlKind

__all__ = [
    "FitFailure",
    "FitOptions",
    "FitResult",
    "LambdaOptEstimate",
    "extract_lambda_opt",
    "fit_noise_curve",
    "overlay_theory",
]

_GAIN_BOUNDS = (1.0, 50.0)
_SCALE_BOUNDS = (-80.0, 80.0)
_CONDITION_LIMIT = 1e12
# Residual-evaluation budget per solve, and ftol/xtol/gtol of the solver.
_MAX_NFEV = 400
_SOLVER = {"ftol": 1e-10, "xtol": 1e-10, "gtol": 1e-10, "max_nfev": _MAX_NFEV}
# Residual of a trial step whose quadratic is not positive at every weight:
# larger than any finite fit's, so the step is rejected.
_INFEASIBLE = 1e100
# d(10 log10 V) = _DB_PER_LN dV / V.
_DB_PER_LN = 10.0 / math.log(10.0)
# Bootstrap draws are generated and reduced this many at a time.
_BOOTSTRAP_BLOCK = 1024


def least_squares(*args, **kwargs):
    """:func:`scipy.optimize.least_squares`, imported on the first fit:
    scipy takes most of the start-up time of a process that runs none."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


class FitFailure(RuntimeError):
    """No fit start converged; carries the best attempt for diagnosis."""

    def __init__(self, message: str, best_cost: float | None = None) -> None:
        if best_cost is not None:
            message += f" (best residual cost {best_cost:.6g})"
        super().__init__(message)
        self.best_cost = best_cost


@dataclass(frozen=True)
class FitOptions:
    """Settings for :func:`fit_noise_curve`.

    Attributes:
        loss_offset: fixed value of eta_c - eta_p during the fit, in
            [-0.2, 0.2].  At 0 the fit is degenerate: V_p = V_c, so
            a0 = a2 and gain and eta_c enter the curve only through the
            one ratio C / V_c.  Such a fit warns "ill-conditioned".
    """

    loss_offset: float = 0.03

    def __post_init__(self) -> None:
        check_range("loss_offset", self.loss_offset)


@dataclass
class FitResult:
    """Fitted noise-model parameters with uncertainties and diagnostics.

    ``param_names``/``param_values``/``param_cov`` describe the free
    parameter vector (gain, eta_c, scale_db), which downstream error
    propagation uses.

    The ``sigma_*`` fields and ``param_cov`` are linearized marginal
    errors, not a joint region: for a joint statement at level p, take
    the parameter vectors whose chi-square exceeds ``chi_square`` by at
    most chi2_k(p), with k = len(param_names).  A sigma is not a valid
    interval for a parameter that ``warnings`` reports at a fit bound.

    ``winning_start`` names the path that gave the result: "coefficients"
    (the coefficient fit mapped inside the bounds) or "bound" (the bounded
    solve that runs otherwise).  ``n_starts`` counts the solver runs,
    ``nfev`` their residual plus Jacobian evaluations, and ``status`` is
    the returned run's solver status (> 0 converged).
    """

    gain: float
    eta_p: float
    eta_c: float
    scale_db: float
    sigma_gain: float
    sigma_eta_p: float
    sigma_eta_c: float
    sigma_scale_db: float
    chi_square: float
    n_points: int
    lambda_opt_fit: float
    lambda_opt_direct: float
    condition_number: float
    loss_offset: float
    warnings: list[str]
    param_names: tuple[str, ...]
    param_values: np.ndarray
    param_cov: np.ndarray
    nfev: int
    n_starts: int
    winning_start: str
    status: int
    source: str = "measured"

    def params(self) -> InterferometerParams:
        return InterferometerParams(gain=self.gain, eta_p=self.eta_p, eta_c=self.eta_c)

    def to_dict(self) -> dict:
        """The fields in order, tuples and arrays as (nested) lists."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, (tuple, list)):
                value = list(value)
            out[f.name] = value
        return out

    def json_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def summary(self) -> str:
        lines = [
            f"noise-curve fit ({self.n_points} points, "
            f"eta_c - eta_p fixed at {self.loss_offset:g})",
            f"  gain      = {self.gain:.4f} +/- {self.sigma_gain:.4f}",
            f"  eta_p     = {self.eta_p:.4f} +/- {self.sigma_eta_p:.4f}",
            f"  eta_c     = {self.eta_c:.4f} +/- {self.sigma_eta_c:.4f}",
            f"  scale_db  = {self.scale_db:.4f} +/- {self.sigma_scale_db:.4f}",
            f"  chi^2     = {self.chi_square:.2f} for {self.n_points} points",
            f"  lambda_opt (model) = {self.lambda_opt_fit:.4f}",
            f"  lambda_opt (data)  = {self.lambda_opt_direct:.4f}",
            f"  condition number   = {self.condition_number:.3g}",
            f"  solver: {self.winning_start} path (status {self.status}), "
            f"{self.n_starts} solve(s), {self.nfev} evaluations",
        ]
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LambdaOptEstimate:
    """Optimal weight extracted from one dataset.

    ``value``/``sigma`` follow the requested method; the individual
    model-fit and direct (parabolic) results are kept alongside.
    """

    value: float
    sigma: float
    method: str
    direct_value: float
    direct_sigma: float
    fit_value: float | None
    fit_sigma: float | None
    boundary_warning: bool


def _coefficient_jac(lam: np.ndarray, sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Jacobian of the weighted dB residuals in (a0, a1, a2):
    (10 / ln 10) (1, 2 lam, lam^2) / (sigma (a0 + 2 a1 lam + a2 lam^2))."""
    basis = np.column_stack([np.ones_like(lam), 2.0 * lam, lam * lam])
    return basis * (_DB_PER_LN / ((basis @ a) * sigma))[:, None]


def _parameter_jac(lam: np.ndarray, sigma: np.ndarray, theta, offset: float) -> np.ndarray:
    """Jacobian of the weighted dB residuals in (gain, eta_c, scale_db).

    The coefficient Jacobian times d a / d theta of a = s (V_p, C, V_c),
    eta_p = eta_c - offset; d C is infinite at G = 1 and eta_p = 0.
    """
    gain, eta_c, scale_db = (float(v) for v in theta)
    eta_p = eta_c - offset
    a = _coefficients(gain, eta_p, eta_c, scale_db)
    s = 10.0 ** (scale_db / 10.0)
    root_g, root_eta = np.sqrt(gain * (gain - 1.0)), np.sqrt(eta_p * eta_c)
    d_gain = (2.0 * eta_p, -root_eta * (2.0 * gain - 1.0) / root_g, 2.0 * eta_c)
    d_eta_c = (2.0 * (gain - 1.0), -root_g * (eta_p + eta_c) / root_eta, 2.0 * (gain - 1.0))
    d_a = np.column_stack([s * np.array(d_gain), s * np.array(d_eta_c), a / _DB_PER_LN])
    return _coefficient_jac(lam, sigma, a) @ d_a


def _shape_roots(a: np.ndarray, offset: float) -> np.ndarray:
    """(gain, eta_c) rows for every positive real root x = 2 (G - 1) of the map.

    With r1 = a0 / a2 = V_p / V_c, r2 = a1^2 / (a0 a2) = C^2 / (V_p V_c),
    k = offset / (1 - r1) and m = k - offset, the model has V_c = k x,
    V_p = m x and eta_c = (k x - 1) / x, and C^2 = eta_p eta_c x (2 + x)
    turns r2 into the cubic r2 k m x^3 = (m x - 1)(k x - 1)(2 + x).  A
    root need not be physical: the rows are sorted by eta_c, largest
    first, and the caller checks the transmissions and the sign of a1.
    """
    a0, a1, a2 = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        r2 = a1 * a1 / (a0 * a2)
        k = offset / (1.0 - a0 / a2)
        m = k - offset
        cubic = np.array([(r2 - 1.0) * k * m, m + k - 2.0 * k * m, 2.0 * (m + k) - 1.0, -2.0])
    if not np.all(np.isfinite(cubic)):
        return np.empty((0, 2))
    roots = np.roots(cubic)
    x = roots.real[(np.abs(roots.imag) <= 1e-9 * np.abs(roots)) & (roots.real > 0.0)]
    eta_c = k - 1.0 / x
    order = np.argsort(-eta_c)
    return np.column_stack([1.0 + 0.5 * x[order], eta_c[order]])


def _face_gain(a: np.ndarray, eta_c: float, offset: float) -> float:
    """Gain that keeps one coefficient ratio with eta_c held, at least 1.

    C^2 / (V_p V_c) = r2 = a1^2 / (a0 a2) is the quadratic eta_p eta_c
    (1 - r2) x^2 + (2 eta_p eta_c - r2 (eta_p + eta_c)) x - r2 = 0 in
    x = 2 (G - 1), whose roots have product <= 0.  Where eta_p eta_c = 0,
    C = 0 at every gain, and V_p / V_c = a0 / a2 sets x instead.
    """
    a0, a1, a2 = np.asarray(a, dtype=float)
    eta_p = eta_c - offset
    with np.errstate(divide="ignore", invalid="ignore"):
        if eta_p * eta_c == 0.0:
            x = (a2 - a0) / (a0 * eta_c - a2 * eta_p)
        else:
            r2 = a1 * a1 / (a0 * a2)
            quad = eta_p * eta_c * (1.0 - r2)
            lin = 2.0 * eta_p * eta_c - r2 * (eta_p + eta_c)
            x = 2.0 * r2 / (lin + np.sqrt(lin * lin + 4.0 * quad * r2))
    return 1.0 + 0.5 * max(float(np.nan_to_num(x, nan=0.0)), 0.0)


def _coefficients(gain: float, eta_p: float, eta_c: float, scale_db: float) -> np.ndarray:
    """(a0, a1, a2) = s (V_p, C, V_c) with s = 10^(scale_db / 10)."""
    v_p, v_c, cross = metrology.joint_variance_quadratic(gain, eta_p, eta_c)
    return 10.0 ** (scale_db / 10.0) * np.array([v_p, cross, v_c])


def _direct_lambda_opt(lam: np.ndarray, noise_db: np.ndarray) -> np.ndarray | float:
    """Vertex of the parabola through the three lowest distinct weights.

    ``lam`` is sorted; ``noise_db`` is one scan (1-D, returns a float) or
    one scan per row (2-D, returns an array).  Weights closer than 1e-12
    count as one, at their lowest reading.  Without upward curvature the
    lowest of the three samples is returned; the vertex is clamped to
    [0, 1].
    """
    rows = np.atleast_2d(noise_db)
    first = np.flatnonzero(np.diff(lam, prepend=-np.inf) >= 1e-12)
    if first.size < 3:
        raise ValueError("need at least 3 distinct weights for a parabolic minimum")
    lowest = np.minimum.reduceat(rows, first, axis=1)
    pick = np.sort(np.argsort(lowest, axis=1, kind="stable")[:, :3], axis=1)
    x = lam[first][pick]
    y = np.take_along_axis(lowest, pick, axis=1)
    slope = (y[:, 1] - y[:, 0]) / (x[:, 1] - x[:, 0])
    curv = ((y[:, 2] - y[:, 1]) / (x[:, 2] - x[:, 1]) - slope) / (x[:, 2] - x[:, 0])
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(0.5 * (x[:, 0] + x[:, 1]) - slope / (2.0 * curv), 0.0, 1.0)
    # No upward curvature: fall back to the lowest sample.
    fallback = np.take_along_axis(x, np.argmin(y, axis=1)[:, None], axis=1)[:, 0]
    out = np.where((curv > 0.0) & np.isfinite(curv), vertex, fallback)
    return out if np.ndim(noise_db) == 2 else float(out[0])


def fit_noise_curve(dataset: NoiseDataset, options: FitOptions | None = None) -> FitResult:
    """Weighted least-squares fit of the noise model to a scan.

    Residuals are (model_db - noise_db) / sigma_db, and the fit runs in
    three steps:

    1. The coefficients (a0, a1, a2) of the noise power a0 + 2 a1 lam +
       a2 lam^2: a weighted linear least-squares fit in power gives the
       start, and Levenberg-Marquardt moves it on the dB residuals.
    2. The coefficients map to (gain, eta_c, scale_db) in closed form:
       a0 / a2 = V_p / V_c and a1^2 / (a0 a2) = C^2 / (V_p V_c) leave one
       cubic in x = 2 (G - 1) (see ``_shape_roots``), and s = a2 / V_c.
    3. Only when no root maps strictly inside the bounds (or the
       coefficient fit did not converge) does one bounded trust-region
       solve run in (gain, eta_c, scale_db), with a finite-difference
       Jacobian, from the clipped map: eta_c clipped, the gain that keeps
       the ratios there (``_face_gain``) and the scale that keeps a2, or
       the gain that does where the scale clips.

    Inside the bounds the map is exact, so the coefficient fit's minimum
    is the model's.  ``chi_square`` is evaluated at the reported
    parameters.

    Parameter uncertainties are the square roots of the diagonal of
    (J^T J)^(-1) at the solution, J holding every free parameter,
    scale_db included: the coefficient Jacobian times d a / d theta after
    step 2, the solver's Jacobian after step 3.  No rescaling by the
    residual scatter is applied, so they inherit the calibration of
    ``sigma_db``.  They are linearized marginal errors: each covers its
    own parameter, and the set of them is not a joint region.  For a
    joint confidence region at level p use the returned ``chi_square``:
    chi2(x) - chi_square <= chi2_k(p), with k = len(param_names).  When
    the "sits at a fit bound" warning fires, the quoted sigma of that
    parameter is not a valid interval.

    A simulated scan (``tsui simulate``) is no test of that region: each
    point is the same quadratic in lam of three pooled Welch sums, which
    the model reproduces exactly, so its chi_square is round-off
    (~1e-27) and the region says nothing about its errors.

    Args:
        dataset: scan with at least 5 distinct weights.
        options: fit settings; defaults to ``FitOptions()``
            (eta_c - eta_p = 0.03).

    Returns:
        A :class:`FitResult`.

    Raises:
        FitFailure: if the solve that would give the result does not
            converge within its budget.
        ValueError: for unusable datasets.
    """
    if options is None:
        options = FitOptions()
    if dataset.n_distinct() < 5:
        raise ValueError(
            f"need at least 5 distinct weights to fit, got {dataset.n_distinct()}"
        )
    offset = options.loss_offset
    names = ("gain", "eta_c", "scale_db")
    lower = np.array([_GAIN_BOUNDS[0], max(0.0, offset), _SCALE_BOUNDS[0]])
    upper = np.array([_GAIN_BOUNDS[1], min(1.0, 1.0 + offset), _SCALE_BOUNDS[1]])
    lam, y, sigma = dataset.lam, dataset.noise_db, dataset.sigma_db

    def residuals(theta: np.ndarray) -> np.ndarray:
        gain, eta_c, scale_db = theta
        var = metrology.joint_variance(gain, eta_c - offset, eta_c, lam)
        return (10.0 * np.log10(var) + scale_db - y) / sigma

    # Step 1, in units of the scan's mean power: b = a / 10^(ref_db / 10).
    ref_db = float(np.mean(y))
    basis = np.column_stack([np.ones_like(lam), 2.0 * lam, lam * lam])

    def coefficient_residuals(b: np.ndarray) -> np.ndarray:
        power = basis @ b
        if np.any(power <= 0.0):
            return np.full(lam.size, _INFEASIBLE)
        return (10.0 * np.log10(power) + ref_db - y) / sigma

    power = 10.0 ** ((y - ref_db) / 10.0)
    b0 = np.linalg.lstsq(basis / (power * sigma)[:, None], 1.0 / sigma, rcond=None)[0]
    if np.any(basis @ b0 <= 0.0):
        b0 = np.array([1.0, 0.0, 0.0])
    jac = partial(_coefficient_jac, lam, sigma)
    runs = [least_squares(coefficient_residuals, b0, jac=jac, method="lm", **_SOLVER)]
    b = runs[0].x

    # Step 2.
    def with_scale(gain: float, eta_c: float) -> np.ndarray:
        v_c = 1.0 + 2.0 * eta_c * (gain - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale_db = ref_db + 10.0 * np.log10(b[2] / v_c)
        return np.array([gain, eta_c, scale_db])

    shapes = _shape_roots(b, offset)
    mapped = [with_scale(gain, eta_c) for gain, eta_c in shapes]
    inside = [t for t in mapped if b[1] <= 0.0 and np.all((lower < t) & (t < upper))]
    if runs[0].status > 0 and inside:
        winner, theta = "coefficients", inside[0]
    else:
        # Step 3.
        eta_c = float(np.clip(shapes[0, 1] if len(shapes) else upper[1], lower[1], upper[1]))
        if _face_gain(b, eta_c, offset) == 1.0:
            # No anticorrelation.  C = 0 on the face eta_p eta_c = 0 too,
            # where the solver's step off G = 1 does not bring it back.
            eta_c = lower[1]
        gain = min(_face_gain(b, eta_c, offset), upper[0])
        x0 = np.clip(np.nan_to_num(with_scale(gain, eta_c), nan=ref_db), lower, upper)
        if x0[2] in (lower[2], upper[2]) and eta_c > 0.0:
            # The scale is clipped, so the gain keeps a2 = s V_c instead.
            v_c = b[2] * 10.0 ** ((ref_db - x0[2]) / 10.0)
            x0[0] = np.clip(1.0 + (v_c - 1.0) / (2.0 * eta_c), lower[0], upper[0])
        runs.append(least_squares(residuals, x0, bounds=(lower, upper), method="trf", **_SOLVER))
        if runs[-1].status <= 0:
            lowest = min(float(res.cost) for res in runs)
            raise FitFailure(f"no fit start converged within {_MAX_NFEV} evaluations", lowest)
        # The solver keeps its iterates strictly inside; the variables it
        # reports at a bound are put on it unless that raises chi^2 (at
        # G = 1 and eta_p = 0, C moves as the square root of the distance).
        theta, active = runs[-1].x, runs[-1].active_mask
        snapped = np.where(active < 0, lower, np.where(active > 0, upper, theta))
        if np.sum(residuals(snapped) ** 2) <= np.sum(residuals(theta) ** 2):
            theta = snapped
        winner = "bound"

    gain, eta_c, scale_db = (float(v) for v in theta)
    eta_p = eta_c - offset
    x_hat = np.array([gain, eta_c, scale_db])
    with np.errstate(divide="ignore", invalid="ignore"):
        jac = _parameter_jac(lam, sigma, x_hat, offset)
    if not np.all(np.isfinite(jac)):  # at G = 1 or eta_p = 0
        jac = runs[-1].jac
    jtj = jac.T @ jac
    condition = float(np.linalg.cond(jtj))
    warnings: list[str] = []
    if not math.isfinite(condition) or condition > _CONDITION_LIMIT:
        warnings.append(
            "ill-conditioned fit (degenerate or flat model); "
            "uncertainties use a pseudoinverse"
        )
        cov = np.linalg.pinv(jtj)
    else:
        cov = np.linalg.inv(jtj)
    # eta_p = eta_c - offset shares the eta_c sigma.
    sigma_gain, sigma_eta_c, sigma_scale_db = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    for i, (lo, hi) in enumerate(zip(lower, upper)):
        if x_hat[i] - lo < 1e-8 * (hi - lo) or hi - x_hat[i] < 1e-8 * (hi - lo):
            warnings.append(f"parameter {names[i]} sits at a fit bound")

    fitted = InterferometerParams(
        gain=gain, eta_p=min(max(eta_p, 0.0), 1.0), eta_c=min(max(eta_c, 0.0), 1.0)
    )
    return FitResult(
        gain=gain,
        eta_p=fitted.eta_p,
        eta_c=fitted.eta_c,
        scale_db=scale_db,
        sigma_gain=float(sigma_gain),
        sigma_eta_p=float(sigma_eta_c),
        sigma_eta_c=float(sigma_eta_c),
        sigma_scale_db=float(sigma_scale_db),
        chi_square=float(np.sum(residuals(x_hat) ** 2)),
        n_points=len(dataset),
        lambda_opt_fit=metrology.lambda_opt(fitted),
        lambda_opt_direct=_direct_lambda_opt(lam, y),
        condition_number=condition,
        loss_offset=offset,
        warnings=warnings,
        param_names=names,
        param_values=x_hat,
        param_cov=np.array(cov, dtype=float),
        nfev=sum(res.nfev + (res.njev or 0) for res in runs),
        n_starts=len(runs),
        winning_start=winner,
        status=int(runs[-1].status),
        source=dataset.source,
    )


def extract_lambda_opt(
    dataset: NoiseDataset,
    fit: FitResult | None = None,
    n_bootstrap: int = 1000,
    rng_seed: int = 20210916,
) -> LambdaOptEstimate:
    """Optimal-weight estimate with uncertainty from one scan.

    The direct estimate is the vertex of a parabola through the three
    lowest distinct points; its uncertainty comes from a parametric
    bootstrap that redraws every point as N(noise_db, sigma_db^2) and
    repeats the extraction.  When a fit is supplied, the model-based
    estimate (closed-form optimal weight at the fitted parameters) is
    used as the headline value.  Its uncertainty is the gradient of
    lam* = -a1 / a2 against the coefficient covariance (J_a^T J_a)^(-1)
    of the scan at the fitted coefficients (0 where the clamp at 1 holds
    lam*).  Wherever d a / d theta is invertible this equals propagating
    ``param_cov``.  When the fit warns that a parameter sits at a bound,
    that sigma is a linearization there, not an interval.

    Args:
        dataset: scan to analyze.
        fit: optional fit of the same dataset.
        n_bootstrap: bootstrap repetitions for the direct uncertainty.
        rng_seed: bootstrap seed (fixed default keeps results stable).

    Returns:
        A :class:`LambdaOptEstimate` with ``method`` "fit" or "direct".
    """
    if n_bootstrap < 2:
        raise ValueError("n_bootstrap must be >= 2")
    lam, noise_db = dataset.lam, dataset.noise_db
    direct_value = _direct_lambda_opt(lam, noise_db)
    rng = np.random.default_rng(rng_seed)
    # Drawing (rows, n) at once takes the same stream as one draw per row.
    blocks = []
    for done in range(0, n_bootstrap, _BOOTSTRAP_BLOCK):
        rows = min(_BOOTSTRAP_BLOCK, n_bootstrap - done)
        noise = rng.normal(0.0, dataset.sigma_db, (rows, lam.size))
        blocks.append(_direct_lambda_opt(lam, noise_db + noise))
    draws = np.concatenate(blocks)
    direct_sigma = float(draws.std(ddof=1))
    boundary = lam[int(np.argmin(noise_db))] in (lam[0], lam[-1])

    fit_value = fit_sigma = None
    value, sigma, method = direct_value, direct_sigma, "direct"
    if fit is not None:
        a = _coefficients(fit.gain, fit.eta_p, fit.eta_c, fit.scale_db)
        jac = _coefficient_jac(lam, dataset.sigma_db, a)
        # d(-a1 / a2), 0 where the clamp at 1 holds lam*.
        grad = np.array([0.0, -1.0 / a[2], a[1] / (a[2] * a[2])]) * (-a[1] <= a[2])
        fit_value = fit.lambda_opt_fit
        fit_sigma = float(math.sqrt(max(grad @ np.linalg.pinv(jac.T @ jac) @ grad, 0.0)))
        value, sigma, method = fit_value, fit_sigma, "fit"
    return LambdaOptEstimate(
        value=value,
        sigma=sigma,
        method=method,
        direct_value=direct_value,
        direct_sigma=direct_sigma,
        fit_value=fit_value,
        fit_sigma=fit_sigma,
        boundary_warning=boundary,
    )


def overlay_theory(fit: FitResult, kind: SqlKind, lambda_grid) -> CurveTable:
    """Theory noise-improvement curve at the fitted parameters.

    Args:
        fit: fitted parameters to evaluate.
        kind: shot-noise convention for the improvement.
        lambda_grid: strictly increasing weights in [0, 1].

    Returns:
        Table with columns (lambda, snri_db).
    """
    grid = check_grid("lam", lambda_grid)
    rows = np.column_stack([grid, metrology.snri(fit.params(), grid, kind)])
    meta = {
        "gain": fit.gain,
        "eta_p": fit.eta_p,
        "eta_c": fit.eta_c,
        "scale_db": fit.scale_db,
        "sql_kind": kind.value,
    }
    return CurveTable(f"snri_overlay_{kind.value}", ("lambda", "snri_db"), rows, meta)


"""Weighted model fits of noise scans, and weight extraction.

A noise-versus-weight scan (a :class:`tsui.data.NoiseDataset`, measured
or simulated) is fitted in dB space to the closed-form model

    model(lam) = 10 log10( V_p + lam^2 V_c + 2 lam C ) + scale_db

with the variance coefficients from :func:`tsui.metrology.joint_variance_quadratic`.
The free ``scale_db`` absorbs the overall detection calibration, which
makes the unconstrained four-parameter family exactly degenerate (a
common rescaling of the coefficients is indistinguishable from a scale
shift).  Fits therefore default to a fixed transmission offset
eta_c - eta_p, leaving three identifiable parameters; the unconstrained
mode stays available for diagnostics and is flagged as ill-conditioned.

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

import numpy as np
from scipy.optimize import least_squares

from . import metrology
# load_noise_csv is unused here; callers from before tsui.data read it as fitting's.
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
# Residual-evaluation budget per start, and ftol/xtol/gtol of the solver.
_MAX_NFEV = 400
_TOL = 1e-10
# (gain, eta_c) starts tried only when no primary start converges.
_GRID_STARTS = tuple((g0, e0) for g0 in (1.05, 1.3, 1.8, 2.6, 3.6) for e0 in (0.6, 0.9))
# Distance inside the bounds G = 1 and eta = 0 at which the singular
# Jacobian factors are evaluated.
_JAC_FLOOR = 1e-10
# d(10 log10 V) = _DB_PER_LN dV / V.
_DB_PER_LN = 10.0 / math.log(10.0)
# Bootstrap draws are generated and reduced this many at a time.
_BOOTSTRAP_BLOCK = 1024


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
        loss_offset: fixed value of eta_c - eta_p during the fit, or
            ``None`` for the (degenerate) unconstrained four-parameter
            mode.  Must lie in [-0.2, 0.2].
        initial: optional user start (gain, eta_p, eta_c, scale_db),
            run before the data-driven start.  Its scale_db is not used:
            the fit solves for the scale in closed form at every shape.
    """

    loss_offset: float | None = 0.03
    initial: tuple[float, float, float, float] | None = None

    def __post_init__(self) -> None:
        if self.loss_offset is not None:
            check_range("loss_offset", self.loss_offset)
        if self.initial is not None:
            if len(self.initial) != 4 or not all(
                math.isfinite(float(v)) for v in self.initial
            ):
                raise ValueError(
                    "initial must be 4 finite numbers (gain, eta_p, eta_c, scale_db)"
                )


@dataclass
class FitResult:
    """Fitted noise-model parameters with uncertainties and diagnostics.

    ``param_names``/``param_values``/``param_cov`` describe the free
    parameter vector actually optimized (three entries in the default
    constrained mode), which downstream error propagation uses.

    The ``sigma_*`` fields and ``param_cov`` are linearized marginal
    errors, not a joint region: for a joint statement at level p, take
    the parameter vectors whose chi-square exceeds ``chi_square`` by at
    most chi2_k(p), with k = len(param_names).  A sigma is not a valid
    interval for a parameter that ``warnings`` reports at a fit bound.

    ``nfev`` counts residual plus Jacobian evaluations over all solver
    starts, ``n_starts`` the starts run, ``winning_start`` names the one
    returned ("initial", "data" or "grid:<k>") and ``status`` is its
    solver status (> 0 converged).
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
    loss_offset: float | None
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
        mode = (
            "unconstrained"
            if self.loss_offset is None
            else f"eta_c - eta_p fixed at {self.loss_offset:g}"
        )
        lines = [
            f"noise-curve fit ({self.n_points} points, {mode})",
            f"  gain      = {self.gain:.4f} +/- {self.sigma_gain:.4f}",
            f"  eta_p     = {self.eta_p:.4f} +/- {self.sigma_eta_p:.4f}",
            f"  eta_c     = {self.eta_c:.4f} +/- {self.sigma_eta_c:.4f}",
            f"  scale_db  = {self.scale_db:.4f} +/- {self.sigma_scale_db:.4f}",
            f"  chi^2     = {self.chi_square:.2f} for {self.n_points} points",
            f"  lambda_opt (model) = {self.lambda_opt_fit:.4f}",
            f"  lambda_opt (data)  = {self.lambda_opt_direct:.4f}",
            f"  condition number   = {self.condition_number:.3g}",
            f"  solver: start {self.winning_start} won (status {self.status}), "
            f"{self.n_starts} start(s), {self.nfev} evaluations",
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


def _shape(x: np.ndarray, offset: float | None) -> tuple[float, float, float]:
    # (gain, eta_p, eta_c) from the leading entries of a parameter vector:
    # (gain, eta_c) with eta_p = eta_c - offset, or (gain, eta_p, eta_c).
    if offset is None:
        return float(x[0]), float(x[1]), float(x[2])
    return float(x[0]), float(x[1]) - offset, float(x[1])


def _model_db(
    lam: np.ndarray, theta: np.ndarray, offset: float | None
) -> tuple[np.ndarray, np.ndarray]:
    """10 log10 Var(M) without scale_db, and its Jacobian in the shape parameters.

    With Var(M) = 1 + 2 eta_p (G - 1) + lam^2 (1 + 2 eta_c (G - 1))
    - 4 lam sqrt(eta_p eta_c) sqrt(G (G - 1)), the dB derivative is
    (10 / ln 10) dVar / Var.  The factors 1 / sqrt(G (G - 1)) and
    sqrt(eta_c / eta_p) are infinite at the fit bounds G = 1 and eta = 0;
    they are evaluated ``_JAC_FLOOR`` inside them.
    """
    gain, eta_p, eta_c = _shape(theta, offset)
    var = metrology.joint_variance(gain, eta_p, eta_c, lam)
    g = max(gain, 1.0 + _JAC_FLOOR)
    ep = max(eta_p, _JAC_FLOOR)
    ec = max(eta_c, _JAC_FLOOR)
    two_lam_root_g = 2.0 * lam * math.sqrt(gain * (gain - 1.0))
    d_gain = (
        2.0 * eta_p
        + 2.0 * lam * lam * eta_c
        - 2.0 * lam * math.sqrt(eta_p * eta_c) * (2.0 * g - 1.0) / math.sqrt(g * (g - 1.0))
    )
    d_eta_p = 2.0 * (gain - 1.0) - two_lam_root_g * math.sqrt(ec / ep)
    d_eta_c = 2.0 * lam * lam * (gain - 1.0) - two_lam_root_g * math.sqrt(ep / ec)
    if offset is None:
        columns = (d_gain, d_eta_p, d_eta_c)
    else:
        columns = (d_gain, d_eta_p + d_eta_c)
    jac = np.column_stack(columns) * (_DB_PER_LN / var)[:, None]
    return 10.0 * np.log10(var), jac


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

    Residuals are (model_db - noise_db) / sigma_db.  ``scale_db`` enters
    linearly, so for each shape it is set to its weighted mean value in
    closed form (variable projection: Golub and Pereyra, SIAM J. Numer.
    Anal. 10, 413 (1973)), and a bounded trust-region least-squares
    solver with the analytic Jacobian moves the shape parameters alone.
    It runs from ``options.initial`` when given and from a start inverted
    from the measured minimum (gain from the parabolic minimum assuming
    no loss, eta_c = 0.85), keeping the better converged result; a fixed
    grid of ten starts runs only if neither converges or if the winner's
    ``scale_db`` sits at its bound, and the lowest cost of all wins.

    Parameter uncertainties are the square roots of the diagonal of
    (J^T J)^(-1) at the solution, J holding every free parameter,
    scale_db included; no rescaling by the residual scatter is applied,
    so they inherit the calibration of ``sigma_db``.  They are linearized
    marginal errors: each covers its own parameter, and the set of them
    is not a joint region.  For a joint confidence region at level p use
    the returned ``chi_square``: chi2(x) - chi_square <= chi2_k(p), with
    k = len(param_names).  When the "sits at a fit bound" warning fires,
    the quoted sigma of that parameter is not a valid interval.

    A simulated scan (``tsui simulate``) is no test of that region: each
    point is the same quadratic in lam of three pooled Welch sums, which
    the model reproduces exactly, so its chi_square is round-off
    (~1e-27) and the region says nothing about its errors.

    Args:
        dataset: scan with at least 5 distinct weights.
        options: fit settings; defaults to ``FitOptions()`` (constrained
            mode with eta_c - eta_p = 0.03).

    Returns:
        A :class:`FitResult`.

    Raises:
        FitFailure: if no start converges within its budget.
        ValueError: for unusable datasets.
    """
    if options is None:
        options = FitOptions()
    if dataset.n_distinct() < 5:
        raise ValueError(
            f"need at least 5 distinct weights to fit, got {dataset.n_distinct()}"
        )
    offset = options.loss_offset
    if offset is None:
        names = ("gain", "eta_p", "eta_c", "scale_db")
        lower = np.array([_GAIN_BOUNDS[0], 0.0, 0.0])
        upper = np.array([_GAIN_BOUNDS[1], 1.0, 1.0])
    else:
        names = ("gain", "eta_c", "scale_db")
        lower = np.array([_GAIN_BOUNDS[0], max(0.0, offset)])
        upper = np.array([_GAIN_BOUNDS[1], min(1.0, 1.0 + offset)])
    lam = dataset.lam
    y = dataset.noise_db
    sigma = dataset.sigma_db
    weight = 1.0 / (sigma * sigma)
    weight_sum = float(weight.sum())
    # The solver asks for the Jacobian at the point whose residuals it has
    # just evaluated; both come from one evaluation.
    last: dict[bytes, tuple[np.ndarray, np.ndarray, float]] = {}

    def profiled(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        # Residuals and Jacobian in the shape parameters with scale_db at
        # its best value for this shape, clipped to its bounds.
        key = theta.tobytes()
        if key not in last:
            model, jac = _model_db(lam, theta, offset)
            best_scale = float(weight @ (y - model)) / weight_sum
            scale = min(max(best_scale, _SCALE_BOUNDS[0]), _SCALE_BOUNDS[1])
            if scale == best_scale:
                jac = jac - (weight @ jac) / weight_sum
            last.clear()
            last[key] = ((model + scale - y) / sigma, jac / sigma[:, None], scale)
        return last[key]

    def start(g0: float, ep0: float, ec0: float) -> np.ndarray:
        x0 = np.array([g0, ep0, ec0] if offset is None else [g0, ec0], dtype=float)
        return np.clip(x0, lower + 1e-9, upper - 1e-9)

    direct = _direct_lambda_opt(lam, y)
    # Gain of a lossless amplifier whose optimal weight is the measured
    # minimum: lam_opt = tanh(2r), G = cosh(r)^2.
    g_hat = math.cosh(0.5 * math.atanh(min(max(direct, 0.05), 0.95))) ** 2
    primary = [("data", start(g_hat, 0.82, 0.85))]
    if options.initial is not None:
        g0, ep0, ec0, _ = (float(v) for v in options.initial)
        primary.insert(0, ("initial", start(g0, ep0, ec0)))
    grid = [
        (f"grid:{k}", start(g0, max(ec0 - 0.03, 0.0), ec0))
        for k, (g0, ec0) in enumerate(_GRID_STARTS)
    ]

    best = winner = None
    nfev = n_starts = 0
    lowest_cost = math.inf  # over every start, converged or not
    for starts in (primary, grid):
        for label, x0 in starts:
            res = least_squares(
                lambda t: profiled(t)[0],
                x0,
                jac=lambda t: profiled(t)[1],
                bounds=(lower, upper),
                method="trf",
                ftol=_TOL,
                xtol=_TOL,
                gtol=_TOL,
                max_nfev=_MAX_NFEV,
            )
            nfev += res.nfev + res.njev
            n_starts += 1
            lowest_cost = min(lowest_cost, float(res.cost))
            if res.status > 0 and (best is None or res.cost < best.cost):
                best, winner = res, label
        # With scale_db clipped the shape must absorb the rest of the
        # offset, which can pull a converged start into the eta_p = 0
        # cusp; the grid is run then too.
        if best is not None and profiled(best.x)[2] not in _SCALE_BOUNDS:
            break
    if best is None:
        raise FitFailure(f"no fit start converged within {_MAX_NFEV} evaluations", lowest_cost)

    scale = profiled(best.x)[2]
    shape_jac = _model_db(lam, best.x, offset)[1]
    jac = np.column_stack([shape_jac, np.ones_like(lam)]) / sigma[:, None]
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
    # In constrained mode eta_p = eta_c - offset shares the eta_c sigma.
    diag = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    sigmas = {name: float(s) for name, s in zip(names, diag)}
    sigmas.setdefault("eta_p", sigmas["eta_c"])

    x_hat = np.append(best.x, scale)
    lower = np.append(lower, _SCALE_BOUNDS[0])
    upper = np.append(upper, _SCALE_BOUNDS[1])
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        if x_hat[i] - lo < 1e-8 * (hi - lo) or hi - x_hat[i] < 1e-8 * (hi - lo):
            warnings.append(f"parameter {names[i]} sits at a fit bound")

    gain, eta_p, eta_c = _shape(x_hat, offset)
    fitted = InterferometerParams(
        gain=gain, eta_p=min(max(eta_p, 0.0), 1.0), eta_c=min(max(eta_c, 0.0), 1.0)
    )
    return FitResult(
        gain=gain,
        eta_p=fitted.eta_p,
        eta_c=fitted.eta_c,
        scale_db=scale,
        sigma_gain=sigmas["gain"],
        sigma_eta_p=sigmas["eta_p"],
        sigma_eta_c=sigmas["eta_c"],
        sigma_scale_db=sigmas["scale_db"],
        chi_square=float(np.sum(best.fun**2)),
        n_points=len(dataset),
        lambda_opt_fit=metrology.lambda_opt(fitted),
        lambda_opt_direct=direct,
        condition_number=condition,
        loss_offset=offset,
        warnings=warnings,
        param_names=names,
        param_values=x_hat,
        param_cov=np.array(cov, dtype=float),
        nfev=nfev,
        n_starts=n_starts,
        winning_start=winner,
        status=int(best.status),
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
    used as the headline value, with its uncertainty propagated from the
    fit covariance through the closed-form gradient of the weight (0 where
    the clamp at 1 holds it).  When the fit warns that a parameter sits at
    a bound, that sigma is a linearization there, not an interval.

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
    if fit is not None:
        # d lam* = lam* d ln lam* for lam* = 2 sqrt(eta_p eta_c G (G - 1)) / V_c,
        # V_c = 1 + 2 eta_c (G - 1), at the parameters floored as in _model_db;
        # 0 where the clamp at 1 holds lam*.  scale_db's entry is 0.
        gain, eta_p, eta_c = _shape(fit.param_values, fit.loss_offset)
        g, ep, ec = max(gain, 1.0 + _JAC_FLOOR), max(eta_p, _JAC_FLOOR), max(eta_c, _JAC_FLOOR)
        v_c = 1.0 + 2.0 * ec * (g - 1.0)
        lam_raw = 2.0 * math.sqrt(ep * ec * g * (g - 1.0)) / v_c
        d_gain = (2.0 * g - 1.0) / (2.0 * g * (g - 1.0)) - 2.0 * ec / v_c
        d_eta_p, d_eta_c = 0.5 / ep, 0.5 / ec - 2.0 * (g - 1.0) / v_c
        d_ln = (d_gain, d_eta_p, d_eta_c)
        if fit.loss_offset is not None:  # eta_p = eta_c - offset moves with eta_c
            d_ln = (d_gain, d_eta_p + d_eta_c)
        grad = np.append(d_ln, 0.0) * (lam_raw if lam_raw <= 1.0 else 0.0)
        fit_value = fit.lambda_opt_fit
        fit_sigma = float(math.sqrt(max(grad @ fit.param_cov @ grad, 0.0)))

    if fit is not None:
        value, sigma, method = fit_value, fit_sigma, "fit"
    else:
        value, sigma, method = direct_value, direct_sigma, "direct"
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


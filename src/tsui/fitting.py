"""Weighted model fits of noise scans, and weight extraction.

A noise-versus-weight scan (a :class:`tsui.data.NoiseDataset`, measured
or simulated) is fitted in dB space to the closed-form model

    model(lam) = 10 log10( V_p + lam^2 V_c + 2 lam C ) + scale_db

with the variance coefficients from :func:`tsui.metrology.joint_variance_quadratic`.
Every curve it can express is a noise power a0 + 2 a1 lam + a2 lam^2 with
three coefficients a = s (V_p, C, V_c), s = 10^(scale_db / 10), so the fit
holds the transmission offset eta_c - eta_p fixed and frees (gain, eta_c,
scale_db), three parameters for three coefficients.

Every fit makes the free solve: the coefficients (a0, a1, a2) in dB,
with no bounds.  Its vertex -a1 / a2 is the optimal weight, which needs
no physical model and no loss offset.  Mapped back to the parameters in
closed form, a converged free optimum that lands strictly inside the
bounds is the fit.  Otherwise one bounded chart solve runs, in
(sqrt(G - 1), sqrt(eta_c - lower eta_c), scale_db), where every point of
the box is a physical model.  It starts from the best of the clipped map
and a 25 x 21 grid over the chart, whose coefficients a fit scores
against its scan a bounded chunk at a time (:func:`_box_start`): its
memory grows with the scan's length, not 526 times it.

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
import sys
from dataclasses import dataclass, fields
from typing import NamedTuple

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
# Residual-evaluation budget per solve, and ftol = xtol = gtol of the solver.
_MAX_NFEV = 400
_TOL = 1e-10
# d(10 log10 V) = _DB_PER_LN dV / V.
_DB_PER_LN = 10.0 / math.log(10.0)
# Grid of the box start: G - 1 geometric from _GRID_FLOOR to its bound (the
# first rows resolve the face G = 1, where C grows as sqrt(G - 1)), eta_c
# linear over its box.
_GRID_GAINS, _GRID_ETAS = 25, 21
_GRID_FLOOR = 1e-6
# The grid's u = sqrt(G - 1), the same at every offset.
_GRID_U = np.sqrt(np.geomspace(_GRID_FLOOR, _GAIN_BOUNDS[1] - _GAIN_BOUNDS[0], _GRID_GAINS))
# The box start scores its candidates in chunks of at most about _CHUNK
# numbers (whole rows): at 21 weights all 526 rows are one chunk.
_CHUNK = 2**16


class _Solve(NamedTuple):
    """One :func:`least_squares` run: the point, its cost 0.5 |r|^2, the
    status (> 0 converged), and the residual and Jacobian evaluations."""

    x: np.ndarray
    cost: float
    status: int
    nfev: int
    njev: int


def least_squares(fun, x0, jac, lower, upper) -> _Solve:
    """Minimize 0.5 |fun(x)|^2 over lower <= x <= upper by Levenberg-Marquardt.

    Each step solves (J^T J + mu D^2) h = -J^T r through the SVD of J D^-1,
    taken once per Jacobian and reused while mu grows, with Marquardt's
    scaling D (the largest column norms of J so far) and
    Nielsen's update of mu (Moré, Lecture Notes in Mathematics 630, 105
    (1978); Madsen, Nielsen & Tingleff, *Methods for non-linear least
    squares problems*, DTU (2004)); ``jac(x)`` gives J.  The box is kept
    by an active set (``_lm_step``): a variable on a bound whose gradient
    points out of the box is held there, and one whose step would leave
    the box lands on the face it crosses and is held there while the step
    is re-solved over the others.  A trial point with non-finite residuals
    is rejected like one that raises the cost.

    The status is 1 when no free column of J has a cosine above gtol with
    the residuals, 2 when a step's actual and predicted cost reductions are
    both at most ftol of the cost (and their ratio at most 2), 3 when the
    scaled step |D h| is at most xtol (xtol + |D x|), 4 for 2 and 3 at once,
    and 0 when ``_MAX_NFEV`` residual evaluations ran out or the residuals
    at the start, or J, are not finite.  ftol = xtol = gtol = ``_TOL``.
    ``perfbench/tracer.py`` wraps the solver by this name.
    """
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    r = fun(x)
    nfev, njev, status = 1, 0, 0
    cost = 0.5 * float(r @ r) if np.all(np.isfinite(r)) else math.inf
    # mu starts at 1e-6 of the largest diagonal entry of the first scaled
    # J^T J (whose columns have unit norm), as suits a start near the minimum.
    scale, mu, nu = np.zeros(x.size), 1e-6, 2.0
    while math.isfinite(cost) and status == 0 and nfev < _MAX_NFEV:
        j = jac(x)
        njev += 1
        if not np.all(np.isfinite(j)):
            break
        norms = np.sqrt(np.sum(j * j, axis=0))
        scale = np.maximum(scale, norms)
        d = np.where(scale > 0.0, scale, 1.0)
        grad = j.T @ r
        held = ((x <= lower) & (grad > 0.0)) | ((x >= upper) & (grad < 0.0))
        with np.errstate(divide="ignore", invalid="ignore"):
            cosine = np.abs(grad) / (norms * math.sqrt(2.0 * cost))
        if cost == 0.0 or np.all(held | ~(cosine > _TOL)):
            status = 1
            break
        # J D^-1, the SVD of its free columns and |D x| stay while mu changes.
        j_d = j / d
        svd = np.linalg.svd(j_d[:, ~held], full_matrices=False)
        dx = d * x
        size_x = math.sqrt(dx @ dx)
        while True:
            trial = _lm_step(j_d, svd, r, mu, ~held, x, d, lower, upper)
            h = trial - x
            predicted = cost - 0.5 * float(np.sum((r + j @ h) ** 2))
            r_trial = fun(trial)
            nfev += 1
            finite = np.all(np.isfinite(r_trial))
            cost_trial = 0.5 * float(r_trial @ r_trial) if finite else math.inf
            actual = cost - cost_trial
            rho = actual / predicted if predicted > 0.0 else -1.0
            small_f = predicted <= _TOL * cost and abs(actual) <= _TOL * cost and rho <= 2.0
            dh = d * h
            small_x = math.sqrt(dh @ dh) <= _TOL * (_TOL + size_x)
            accepted = rho > 1e-4
            if accepted:
                x, r, cost = trial, r_trial, cost_trial
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
            else:
                mu, nu = mu * nu, 2.0 * nu
            if small_f or small_x:
                status = 4 if small_f and small_x else 2 if small_f else 3
            if status or accepted or nfev >= _MAX_NFEV:
                break
    return _Solve(x, cost, status, nfev, njev)


def _lm_step(j: np.ndarray, svd, r: np.ndarray, mu: float, free, x, d, lower, upper) -> np.ndarray:
    """Trial point x + z / d inside the box, z the scaled step minimizing
    |r + J z|^2 + mu |z|^2 over the ``free`` variables, whose columns of J
    have the SVD ``svd``.  A free variable whose step leaves the box is
    put on the face it crosses and held there, and the rest re-solved
    against r + J_held z_held."""
    trial = x.copy()
    while free.any():
        # The caller's SVD serves the first pass, before any face is crossed.
        u, s, vt = svd if svd is not None else np.linalg.svd(j[:, free], full_matrices=False)
        svd = None
        r_held = r if free.all() else r + j[:, ~free] @ ((trial - x) * d)[~free]
        trial[free] = x[free] - vt.T @ (s / (s * s + mu) * (u.T @ r_held)) / d[free]
        below, above = free & (trial < lower), free & (trial > upper)
        if not (below | above).any():
            break
        trial = np.where(below, lower, np.where(above, upper, trial))
        free &= ~(below | above)
    return trial


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

    ``lambda_opt_fit`` is the lowest point on [0, 1] of the free solve's
    curve a0 + 2 a1 lam + a2 lam^2: its vertex -a1 / a2 clamped to [0, 1]
    where a2 > 0, else the lower end.  ``sigma_lambda_opt_fit`` is the
    gradient of -a1 / a2 against the free fit's covariance
    (J_a^T J_a)^(-1), taken through the SVD of J_a, and 0 where a clamp
    or an end holds the value.  Where the free curve has no interior
    minimum (a2 <= 0 or a1 > 0), or the free solve did not converge (its
    last curve then gives the value), the sigma is 0 and a warning says
    so.

    ``winning_start`` names the path that gave the result:
    "coefficients" (the converged free coefficients, mapped strictly
    inside the bounds, are the fit) or "bound" (one chart solve from the
    box start: the clipped map or a grid point).  ``n_starts`` counts the
    chart solves: 0 on the coefficient path, 1 on the box path.  ``nfev``
    counts the residual plus Jacobian evaluations of every solve, the
    free one included.  ``status`` is the :func:`least_squares` status of
    the free solve on the coefficient path, else of the chart solve: 1
    the gradient test (gtol), 2 the relative-reduction test (ftol), 3 the
    step test (xtol), 4 both 2 and 3; an unconverged chart solve (0)
    raises :class:`FitFailure` instead.
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
    sigma_lambda_opt_fit: float
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
        """The fields in order, tuples and arrays as (nested) lists, and a
        non-finite number (an exactly singular fit's condition number) as
        None, so that ``json_text`` is strict JSON."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value = value.tolist()
            elif isinstance(value, (tuple, list)):
                value = list(value)
            elif isinstance(value, float) and not math.isfinite(value):
                value = None
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
            f"  lambda_opt         = {self.lambda_opt_fit:.4f}",
            f"  condition number   = {self.condition_number:.3g}",
            f"  solver: {self.winning_start} path (status {self.status}), "
            f"free solve and {self.n_starts} chart solve(s), {self.nfev} evaluations",
        ]
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LambdaOptEstimate:
    """A fit's optimal weight and its sigma, and whether the scan's lowest
    reading sits at an end of its range."""

    value: float
    sigma: float
    boundary_warning: bool


def _basis(lam: np.ndarray) -> np.ndarray:
    """Rows (1, 2 lam, lam^2): the noise power at coefficients a is basis @ a."""
    return np.column_stack([np.ones_like(lam), 2.0 * lam, lam * lam])


def _coefficient_jac(basis: np.ndarray, sigma: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Jacobian of the weighted dB residuals in (a0, a1, a2), on the rows
    ``basis`` of :func:`_basis`: (10 / ln 10) (1, 2 lam, lam^2) / (sigma
    (a0 + 2 a1 lam + a2 lam^2))."""
    return basis * (_DB_PER_LN / ((basis @ a) * sigma))[:, None]


def _unit_coefficients(u, v, offset: float) -> np.ndarray:
    """Unit-scale coefficients a = (V_p, C, V_c) at chart roots u, v,
    floats or arrays that broadcast together (then a is (3, ...)); see
    :func:`_chart`."""
    eta_c = max(0.0, offset) + v * v
    g_u, h_v = u * np.sqrt(1.0 + u * u), v * np.sqrt(v * v + abs(offset))
    v_p, v_c = 1.0 + 2.0 * u * u * (eta_c - offset), 1.0 + 2.0 * u * u * eta_c
    return np.array([v_p, -2.0 * g_u * h_v, v_c])


def _chart(root, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit-scale coefficients a = (V_p, C, V_c) at root = (u, v) =
    (sqrt(G - 1), sqrt(eta_c - max(0, offset))), and d a / d (u, v).

    There V_p = 1 + 2 u^2 eta_p, V_c = 1 + 2 u^2 eta_c and C = -2 u sqrt(1 +
    u^2) v sqrt(v^2 + |offset|): smooth on the bounds G = 1 and eta_p
    eta_c = 0, where d C / d (gain, eta_c) is infinite.
    """
    u, v = (float(t) for t in root)
    k = abs(offset)
    eta_c = max(0.0, offset) + v * v
    eta_p = eta_c - offset
    g_u, h_v = u * math.sqrt(1.0 + u * u), v * math.sqrt(v * v + k)
    dg_u = (1.0 + 2.0 * u * u) / math.sqrt(1.0 + u * u)
    dh_v = (2.0 * v * v + k) / math.sqrt(v * v + k) if v * v + k > 0.0 else 0.0
    d_u = (4.0 * u * eta_p, -2.0 * dg_u * h_v, 4.0 * u * eta_c)
    d_v = (4.0 * u * u * v, -2.0 * g_u * dh_v, 4.0 * u * u * v)
    return _unit_coefficients(u, v, offset), np.array([d_u, d_v]).T


def _chart_jac(basis: np.ndarray, sigma: np.ndarray, p, offset: float) -> np.ndarray:
    """Jacobian of the weighted dB residuals in the chart p = (u, v,
    scale_db) of :func:`_chart`: the coefficient Jacobian times d a / d
    (u, v), and 1 / sigma for the scale."""
    a, d_a = _chart(p[:2], offset)
    return np.column_stack([_coefficient_jac(basis, sigma, a) @ d_a, 1.0 / sigma])


def _shape_roots(a: np.ndarray, offset: float) -> np.ndarray:
    """(gain, eta_c) rows for every positive real root x = 2 (G - 1) of the map.

    With r1 = a0 / a2 = V_p / V_c, r2 = a1^2 / (a0 a2) = C^2 / (V_p V_c),
    k = offset / (1 - r1) and m = k - offset, the model has V_c = k x,
    V_p = m x and eta_c = (k x - 1) / x, and C^2 = eta_p eta_c x (2 + x)
    turns r2 into the cubic r2 k m x^3 = (m x - 1)(k x - 1)(2 + x).  A
    root need not be physical: the rows are sorted by eta_c, largest
    first, and the caller checks the transmissions and the sign of a1.
    """
    a0, a1, a2, offset = float(a[0]), float(a[1]), float(a[2]), float(offset)
    r2 = _quotient(a1 * a1, a0 * a2)
    k = _quotient(offset, 1.0 - _quotient(a0, a2))
    m = k - offset
    cubic = [(r2 - 1.0) * k * m, m + k - 2.0 * k * m, 2.0 * (m + k) - 1.0, -2.0]
    if not all(map(math.isfinite, cubic)):
        return np.empty((0, 2))
    # Leading coefficients within round-off of 0 put their roots at
    # infinity, far past the gain bound; dropped, they cannot overflow the
    # companion matrix, whose eigenvalues are the roots (as in np.roots).
    top = sys.float_info.epsilon * max(map(abs, cubic))
    cubic = cubic[[abs(c) > top for c in cubic].index(True) :]
    companion = np.eye(len(cubic) - 1, k=-1)
    companion[:1] = [-c / cubic[0] for c in cubic[1:]]
    roots = np.linalg.eigvals(companion).tolist() if len(cubic) > 1 else []
    x = [z.real for z in roots if abs(z.imag) <= 1e-9 * abs(z) and z.real > 0.0]
    rows = sorted(((k - 1.0 / t, 1.0 + 0.5 * t) for t in x), reverse=True)
    return np.array([(gain, eta_c) for eta_c, gain in rows]).reshape(-1, 2)


def _face_gain(a: np.ndarray, eta_c: float, offset: float) -> float:
    """Gain that keeps one coefficient ratio with eta_c held, at least 1.

    C^2 / (V_p V_c) = r2 = a1^2 / (a0 a2) is the quadratic eta_p eta_c
    (1 - r2) x^2 + (2 eta_p eta_c - r2 (eta_p + eta_c)) x - r2 = 0 in
    x = 2 (G - 1), whose roots have product <= 0.  Where eta_p eta_c = 0,
    C = 0 at every gain, and V_p / V_c = a0 / a2 sets x instead.
    """
    a0, a1, a2, eta_c = float(a[0]), float(a[1]), float(a[2]), float(eta_c)
    eta_p = eta_c - float(offset)
    if eta_p * eta_c == 0.0:
        x = _quotient(a2 - a0, a0 * eta_c - a2 * eta_p)
    else:
        r2 = _quotient(a1 * a1, a0 * a2)
        quad = eta_p * eta_c * (1.0 - r2)
        lin = 2.0 * eta_p * eta_c - r2 * (eta_p + eta_c)
        disc = lin * lin + 4.0 * quad * r2
        x = _quotient(2.0 * r2, lin + math.sqrt(disc)) if disc >= 0.0 else math.nan
    # A NaN x counts as 0, and +inf as the largest float.
    return 1.0 + 0.5 * (min(x, sys.float_info.max) if x > 0.0 else 0.0)


def _quotient(num: float, den: float) -> float:
    """num / den of floats as IEEE 754 has it: where den is 0, an infinity
    signed by both, or NaN for 0 / 0, where Python would raise."""
    return num / den if den else num * math.copysign(math.inf, den)


def _box_start(b, shapes, basis, lam, y, sigma, lower, upper, offset: float) -> np.ndarray:
    """The chart start (u, v, scale_db) of a fit whose map ``shapes`` of
    the free coefficients ``b`` lands outside the box [lower, upper]:
    whichever has the lower chi^2, the clipped map (eta_c clipped, and the
    gain that keeps the ratios there, ``_face_gain``) or a point of the
    25 x 21 grid over (u, v), each with the sigma-weighted mean of y -
    model as its scale, clipped to its bounds.

    The candidates are scored as 10 log10(a . basis) plus their scales, at
    most about ``_CHUNK`` numbers at a time, and the first strictly lowest
    finite chi^2 wins; the winner's model and scale are then taken from
    :func:`tsui.metrology.joint_variance`, like the residuals'.
    """
    eta_c = float(np.clip(shapes[0, 1] if len(shapes) else upper[1], lower[1], upper[1]))
    gain = _face_gain(b, eta_c, offset)
    if gain == 1.0:
        # No anticorrelation.  C = 0 on the face eta_p eta_c = 0 too,
        # where the solver's step off G = 1 does not bring it back.
        eta_c = lower[1]
        gain = _face_gain(b, eta_c, offset)
    gain = min(gain, upper[0])
    clipped = np.sqrt([gain, eta_c] - lower[:2])
    v = np.sqrt(np.linspace(0.0, upper[1] - lower[1], _GRID_ETAS))
    # Row 0 is the clipped map, row 1 + 21 i + j the grid point (u_i, v_j).
    grid = _unit_coefficients(_GRID_U[:, None], v, offset).reshape(3, -1).T
    coefficients = np.concatenate([_unit_coefficients(*clipped, offset)[None], grid])
    weights = sigma**-2.0 / np.sum(sigma**-2.0)
    rows = max(1, _CHUNK // lam.size)
    best, lowest = 0, math.inf
    for lo in range(0, len(coefficients), rows):
        model = 10.0 * np.log10(coefficients[lo : lo + rows] @ basis.T)
        scale_db = np.clip((y - model) @ weights, lower[2], upper[2])
        model += scale_db[:, None]
        model -= y
        model /= sigma  # the residuals
        chi2 = np.einsum("ij,ij->i", model, model)
        chi2[~np.isfinite(chi2)] = math.inf
        i = int(np.argmin(chi2))
        if chi2[i] < lowest:
            best, lowest = lo + i, chi2[i]
    i, j = divmod(best - 1, _GRID_ETAS)
    root = clipped if best == 0 else np.array([_GRID_U[i], v[j]])
    gain, eta_c = lower[:2] + root**2
    model = 10.0 * np.log10(metrology.joint_variance(gain, eta_c - offset, eta_c, lam))
    return np.append(root, np.clip((y - model) @ weights, lower[2], upper[2]))


def fit_noise_curve(dataset: NoiseDataset, options: FitOptions | None = None) -> FitResult:
    """Weighted least-squares fit of the noise model to a scan.

    Residuals are (model_db - noise_db) / sigma_db.  The free solve, an
    unbounded Levenberg-Marquardt solve (:func:`least_squares`) with the
    Jacobian ``_coefficient_jac``, fits the coefficients (a0, a1, a2) of the
    noise power a0 + 2 a1 lam + a2 lam^2 from a weighted linear
    least-squares fit in power.  It gives ``lambda_opt_fit`` and its sigma
    (see :class:`FitResult`).  Its coefficients map to (gain, eta_c,
    scale_db) in closed form: a0 / a2 = V_p / V_c and a1^2 / (a0 a2) =
    C^2 / (V_p V_c) leave one cubic in x = 2 (G - 1) (``_shape_roots``),
    and s = a2 / V_c.

    * Where the free solve converged and a root maps strictly inside the
      bounds, that point is the fit ("coefficients"): no other solve runs.
    * Otherwise one bounded solve minimizes the residuals over the box of
      the chart p = (u, v, scale_db), u = sqrt(G - 1) and v = sqrt(eta_c -
      lower eta_c), with the analytic Jacobian ``_chart_jac``.  Every point
      of the box is a physical model, and C is smooth on its faces G = 1
      and eta_p eta_c = 0 (``_chart``).  It starts from the box start
      ("bound"): whichever has the lower chi^2, the clipped map (eta_c
      clipped, and the gain that keeps the ratios there, ``_face_gain``)
      or the best point of a 25 x 21 grid over (u, v), with G - 1
      geometric from 1e-6 to 49.  Each scale is the sigma-weighted mean of
      y - model, clipped to its bounds.

    ``chi_square`` is evaluated at the reported parameters.  On a scan the
    model cannot express (a1 > 0 or a2 < 0) the solve is still local, and
    a search with more starts may find a lower minimum.  The grid start
    keeps it from the flat face G = 1: noisy vacuum at offset 0.03 (seed
    18) fits with chi_square 15.53, the value of a ten-start search, where
    a trust-region solve from the clipped map alone stopped at 18.00.

    Parameter uncertainties are the square roots of the diagonal of
    (J^T J)^(-1) at the solution, J holding every free parameter,
    scale_db included: the chart Jacobian times d p / d theta =
    diag(1 / (2 u), 1 / (2 v), 1), or forward differences where that is
    infinite (G = 1 or eta_p eta_c = 0).  No rescaling by the residual
    scatter is applied, so they inherit the calibration of ``sigma_db``.
    They are linearized marginal errors: each covers its own parameter,
    and the set of them is not a joint region.  For a joint confidence
    region at level p use the returned ``chi_square``:
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
        FitFailure: if the chart solve does not converge within its budget.
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
    # The box of the chart p = (u, v, scale_db).
    p_lower = np.array([0.0, 0.0, lower[2]])
    p_upper = np.append(np.sqrt(upper[:2] - lower[:2]), upper[2])
    lam, y, sigma = dataset.lam, dataset.noise_db, dataset.sigma_db
    basis = _basis(lam)

    def residuals(theta: np.ndarray) -> np.ndarray:
        gain, eta_c, scale_db = theta
        var = metrology.joint_variance(gain, eta_c - offset, eta_c, lam)
        return (10.0 * np.log10(var) + scale_db - y) / sigma

    def chart_residuals(p: np.ndarray) -> np.ndarray:
        return (10.0 * np.log10(basis @ _chart(p[:2], offset)[0]) + p[2] - y) / sigma

    def chart_jac(p: np.ndarray) -> np.ndarray:
        return _chart_jac(basis, sigma, p, offset)

    # The coefficients, in units of the scan's mean power: b = a / 10^(ref_db / 10).
    ref_db = float(np.mean(y))
    power = 10.0 ** ((y - ref_db) / 10.0)
    linear = np.linalg.lstsq(basis / (power * sigma)[:, None], 1.0 / sigma, rcond=None)[0]

    def free_residuals(a: np.ndarray) -> np.ndarray:
        # A curve that reaches power 0 or below reads NaN or -inf: no warning.
        with np.errstate(divide="ignore", invalid="ignore"):
            return (10.0 * np.log10(basis @ a) + ref_db - y) / sigma

    def free_jac(a: np.ndarray) -> np.ndarray:
        return _coefficient_jac(basis, sigma, a)

    # The free solve: unbounded, from the linear fit, which may not converge
    # (where basis @ linear <= 0 its first cost is infinite, and b = linear).
    unbounded = np.full(3, math.inf)
    free = least_squares(free_residuals, linear, free_jac, -unbounded, unbounded)
    b = free.x

    shapes = _shape_roots(b, offset)
    inside = []
    for gain, eta_c in shapes.tolist() if b[1] <= 0.0 else ():
        # The scale s = a2 / V_c, V_c = 1 + 2 eta_c (G - 1), in dB.
        scale = _quotient(float(b[2]), 1.0 + 2.0 * eta_c * (gain - 1.0))
        t = (gain, eta_c, ref_db + 10.0 * math.log10(scale) if scale > 0.0 else math.nan)
        if all(lo < v < hi for lo, v, hi in zip(lower, t, upper)):
            inside.append(t)

    solves: tuple[_Solve, ...] = ()
    if inside and free.status > 0:
        # The chart is one-to-one with the coefficients inside the box, so
        # the converged free optimum, mapped there, is the chart's optimum.
        p = np.append(np.sqrt(inside[0][:2] - lower[:2]), inside[0][2])
        winner, status = "coefficients", free.status
    else:
        start = _box_start(b, shapes, basis, lam, y, sigma, lower, upper, offset)
        res = least_squares(chart_residuals, start, chart_jac, p_lower, p_upper)
        if res.status <= 0:
            raise FitFailure(f"no fit start converged within {_MAX_NFEV} evaluations", res.cost)
        p, solves, winner, status = res.x, (res,), "bound", res.status
    # A root on its upper bound maps onto the bound exactly.
    inner = np.minimum(lower[:2] + p[:2] ** 2, upper[:2])
    x_hat = np.append(np.where(p[:2] < p_upper[:2], inner, upper[:2]), p[2])

    gain, eta_c, scale_db = (float(v) for v in x_hat)
    eta_p = eta_c - offset
    with np.errstate(divide="ignore", invalid="ignore"):
        # The chain rule through gain = 1 + u^2, eta_c = lower eta_c + v^2.
        jac = chart_jac(p) / np.append(2.0 * p[:2], 1.0)
    if not np.all(np.isfinite(jac)):  # at G = 1 or eta_p eta_c = 0
        # Forward differences, stepping down where up leaves the box.
        h = np.sqrt(np.finfo(float).eps) * np.maximum(1.0, np.abs(x_hat))
        h = np.where(x_hat + h > upper, -h, h)
        r_hat = residuals(x_hat)
        jac = np.column_stack([(residuals(x_hat + np.diag(h)[i]) - r_hat) / h[i] for i in range(3)])
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

    # The free curve's lowest point on [0, 1]: its vertex clamped to [0, 1]
    # where a2 > 0, else the lower end.
    _, a1, a2 = (float(t) for t in b)
    if a2 > 0.0:
        lambda_opt = min(max(0.0, -a1 / a2), 1.0)
    else:
        lambda_opt = 1.0 if 2.0 * a1 + a2 < 0.0 else 0.0
    sigma_lam = 0.0
    if free.status <= 0 or not (a2 > 0.0 and a1 <= 0.0):
        reason = "fit did not converge" if free.status <= 0 else "curve has no interior minimum"
        warnings.append(
            f"the free coefficient {reason}; "
            "lambda_opt is its lowest point on [0, 1], with sigma 0"
        )
    elif -a1 <= a2:  # not held by the clamp at 1
        # grad^T (J_a^T J_a)^(-1) grad = |S^(-1) V^T grad|^2, J_a = U S V^T.
        _, s, vt = np.linalg.svd(free_jac(b), full_matrices=False)
        sigma_lam = math.hypot(*(vt @ np.array([0.0, -1.0 / a2, a1 / (a2 * a2)]) / s))
    return FitResult(
        gain=gain,
        eta_p=min(max(eta_p, 0.0), 1.0),
        eta_c=min(max(eta_c, 0.0), 1.0),
        scale_db=scale_db,
        sigma_gain=float(sigma_gain),
        sigma_eta_p=float(sigma_eta_c),
        sigma_eta_c=float(sigma_eta_c),
        sigma_scale_db=float(sigma_scale_db),
        chi_square=float(np.sum(residuals(x_hat) ** 2)),
        n_points=len(dataset),
        lambda_opt_fit=lambda_opt,
        sigma_lambda_opt_fit=sigma_lam,
        condition_number=condition,
        loss_offset=offset,
        warnings=warnings,
        param_names=names,
        param_values=x_hat,
        param_cov=np.array(cov, dtype=float),
        nfev=sum(run.nfev + run.njev for run in (free, *solves)),
        n_starts=len(solves),
        winning_start=winner,
        status=int(status),
        source=dataset.source,
    )


def extract_lambda_opt(
    dataset: NoiseDataset, fit: FitResult, n_bootstrap: int | None = None
) -> LambdaOptEstimate:
    """The fit's ``lambda_opt_fit`` and ``sigma_lambda_opt_fit``, and
    whether the scan's lowest reading sits at an end of its range.

    ``n_bootstrap`` is accepted and ignored: perfbench's fit_scans and
    sim_jitter ops still pass it, and its tracer wraps this function by
    name.  ROADMAP direction 5 deletes the function with those calls.
    """
    return LambdaOptEstimate(
        value=fit.lambda_opt_fit,
        sigma=fit.sigma_lambda_opt_fit,
        boundary_warning=dataset.minimum_at_edge(),
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


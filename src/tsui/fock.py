"""Number-basis oracle for the seeded amplifier.

Everything here recomputes the moments of :mod:`tsui.gaussian` by brute
force in a truncated Fock space, without touching covariance-matrix
algebra.  It exists to cross-check the Gaussian code path at the small
seeds and gains a cutoff of at most ``MAX_CUTOFF`` photons per mode holds.

A state is an amplitude matrix psi[n_p, n_c].  The pure amplifier output
exp(r (ad_p ad_c - a_p a_c)) |alpha, 0> is written down amplitude by
amplitude from the closed form of the two-mode squeezer on a number
state (see :func:`build_seeded_tmss_fock`).  Loss is an explicit Kraus
ensemble of photon-loss branches, kept as separate pure states (the
mixtures stay small because expectation values are linear in the
branches); each Kraus operator shifts one index and scales it.
:func:`oracle_moment_bundle` reads every moment from sums of amplitude
pairs over the branches, without forming an operator; the complex
references apply the ladder operators as matrices, an independent
route to the same moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

__all__ = [
    "FockEnsemble",
    "FockState",
    "TruncationError",
    "TruncationReport",
    "apply_loss_fock",
    "build_seeded_tmss_fock",
    "oracle_mode_quadrature",
    "oracle_moment_bundle",
    "oracle_quadrature_stats",
]

# A state is rejected when more than this much probability lies outside
# the retained (cutoff + 1)^2 block.
NORM_DEFICIT_LIMIT = 1e-4

# Largest accepted cutoff: a two-arm lossy ensemble holds (cutoff + 1)^4
# doubles, 111 MB at 60; the moment bundle adds only its (cutoff + 1)^2
# tables (0.12 MiB peak under tracemalloc at G=2, alpha=1, eta=0.76).
MAX_CUTOFF = 60


class TruncationError(RuntimeError):
    """Raised when the retained Fock block misses too much probability."""

    def __init__(self, report: "TruncationReport") -> None:
        super().__init__(
            f"norm deficit {report.norm_deficit:.3e} outside the "
            f"(cutoff={report.cutoff}) block exceeds {NORM_DEFICIT_LIMIT:.0e}; "
            "raise the cutoff or reduce gain/alpha"
        )
        self.report = report


@dataclass(frozen=True)
class TruncationReport:
    """Probability mass lost to truncation when building a state."""

    cutoff: int
    norm_deficit: float


@dataclass
class FockState:
    """Pure two-mode state as a (cutoff+1, cutoff+1) amplitude matrix.

    ``amplitudes[n_p, n_c]`` is the coefficient of |n_p, n_c>.  States
    are stored unnormalized (norm tracks the truncation deficit).
    """

    amplitudes: np.ndarray
    cutoff: int

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


@dataclass
class FockEnsemble:
    """Unnormalized pure-state branches of a lossy state.

    ``branches[k]`` is the amplitude matrix conditioned on the k-th loss
    outcome; branch weights are the squared norms, and the ensemble as a
    whole represents their incoherent mixture.
    """

    branches: np.ndarray  # shape (n_branches, cutoff + 1, cutoff + 1)
    cutoff: int

    def total_weight(self) -> float:
        return float(np.vdot(self.branches, self.branches).real)


def _ladder(dim: int) -> np.ndarray:
    # Annihilation operator a|n> = sqrt(n)|n-1>.  X = a + a^T, and
    # k = a - a^T = iY is real and antisymmetric: for real amplitude
    # matrices ||k psi|| = ||Y psi|| and psi . (k psi) vanishes exactly.
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def build_seeded_tmss_fock(
    gain: float,
    alpha: float = 0.0,
    cutoff: int = 40,
) -> tuple[FockState, TruncationReport]:
    """Seeded two-mode squeezed state from its closed-form amplitudes.

    The squeezer maps |n, 0> to cosh(r)^-(n+1) sum_k tanh(r)^k
    sqrt(binom(n + k, k)) |n + k, k> (the SU(1,1) disentangling theorem;
    Schumaker & Caves, PRA 31, 3093 (1985)), so with the coherent seed
    c_n = exp(-alpha^2/2) alpha^n / sqrt(n!) every amplitude is

        psi[n + k, k] = c_n tanh(r)^k sqrt(binom(n + k, k)) / cosh(r)^(n+1),

    evaluated in log space.  The full state has unit norm, so the
    probability outside the retained block is 1 - ||psi||^2.

    Args:
        gain: amplifier intensity gain G >= 1.
        alpha: coherent seed amplitude on the probe mode.
        cutoff: highest retained photon number per mode, 1 to ``MAX_CUTOFF``.

    Returns:
        ``(state, report)`` where ``state`` holds the retained block and
        ``report`` the probability left outside it.

    Raises:
        TruncationError: if the deficit exceeds ``NORM_DEFICIT_LIMIT``.
    """
    if gain < 1.0 or not math.isfinite(gain):
        raise ValueError(f"gain must be >= 1, got {gain!r}")
    if not 0.0 <= alpha < math.inf:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha!r}")
    if not 1 <= cutoff <= MAX_CUTOFF:
        raise ValueError(f"cutoff must lie in [1, {MAX_CUTOFF}], got {cutoff!r}")
    r = math.acosh(math.sqrt(gain))
    # Amplitudes sit on the block's lower triangle, psi[i, k] with i >= k
    # and seed photon number n = i - k; xlogy(0, 0) = 0 keeps the exact
    # coherent state at G = 1 and the exact ladder at alpha = 0.
    k, i = np.triu_indices(cutoff + 1)
    n = i - k
    log_amp = (
        -0.5 * alpha * alpha + xlogy(n, alpha) + xlogy(k, math.tanh(r))
        + 0.5 * gammaln(i + 1) - gammaln(n + 1) - 0.5 * gammaln(k + 1)
        - (n + 1) * math.log(math.cosh(r))
    )
    psi = np.zeros((cutoff + 1, cutoff + 1))
    psi[i, k] = np.exp(log_amp)
    deficit = max(1.0 - float(np.vdot(psi, psi)), 0.0)
    report = TruncationReport(cutoff=cutoff, norm_deficit=deficit)
    if deficit > NORM_DEFICIT_LIMIT:
        raise TruncationError(report)
    return FockState(amplitudes=psi, cutoff=cutoff), report


def _loss_weights(eta: float, dim: int) -> np.ndarray:
    # Losing k photons maps |n> to w[k, n] |n - k>: the Kraus operator K_k
    # has the one nonzero diagonal K_k[n - k, n] = w[k, n] =
    # sqrt(binom(n, k) eta^(n-k) (1 - eta)^k), zero for n < k.  Log-space
    # binomials keep large n stable, and xlogy(0, 0) = 0 gives the exact
    # identity at eta = 1 and the exact vacuum map at eta = 0.
    k, n = np.triu_indices(dim)
    log_w = (
        gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
        + xlogy(n - k, eta) + xlog1py(k, -eta)
    )
    weights = np.zeros((dim, dim))
    weights[k, n] = np.exp(0.5 * log_w)
    return weights


def _as_branches(state: "FockState | FockEnsemble") -> np.ndarray:
    if isinstance(state, FockState):
        return state.amplitudes[np.newaxis, :, :]
    return state.branches


def _apply(op: np.ndarray, branches: np.ndarray, mode: str) -> np.ndarray:
    # A single-mode operator on amplitude matrices psi[n_p, n_c]: op psi on
    # the probe, psi op^T on the conjugate.  Leading axes (branches)
    # broadcast.
    if mode == "probe":
        return op @ branches
    return branches @ np.swapaxes(op, -1, -2)


def apply_loss_fock(
    state: "FockState | FockEnsemble", eta: float, mode: str
) -> FockEnsemble:
    """Apply a photon-loss channel to one mode, branch by branch.

    Args:
        state: pure state or ensemble to attenuate.
        eta: power transmission in [0, 1].
        mode: "probe" (first index) or "conjugate" (second index).

    Returns:
        A :class:`FockEnsemble` with one branch per (input branch, number
        of lost photons) pair; zero-weight branches are dropped.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if mode not in ("probe", "conjugate"):
        raise ValueError(f"unknown mode {mode!r}")
    branches = _as_branches(state)
    dim = branches.shape[1]
    weights = _loss_weights(eta, dim)
    # Outcome k shifts the mode's photon number down by k and scales it by
    # w[k, n]: a shifted, scaled copy of every branch, in (k, branch) order.
    new = np.zeros((dim, *branches.shape), dtype=np.result_type(weights, branches))
    for k in range(dim):
        if mode == "probe":
            np.multiply(weights[k, k:, None], branches[:, k:, :], out=new[k, :, : dim - k, :])
        else:
            np.multiply(weights[k, k:], branches[:, :, k:], out=new[k, :, :, : dim - k])
    new = new.reshape(-1, dim, dim)
    kept = np.einsum("bij,bij->b", new.conj(), new).real > 0.0
    # A boolean mask copies every branch, so apply it only if one drops.
    if not kept.all():
        new = new[kept]
    return FockEnsemble(branches=new, cutoff=dim - 1)


def _pair_sum(branches: np.ndarray, first, second) -> np.ndarray:
    # T[i, c] = sum_b psi_b[(i, c) + first] psi_b[(i, c) + second], with
    # first and second (n_p, n_c) offsets, over the block where both stay
    # inside the cutoff: one einsum of two sliced views, no branch-sized
    # temporary.
    dim = branches.shape[1]
    rows = dim - max(first[0], second[0])
    cols = dim - max(first[1], second[1])
    return np.einsum(
        "bij,bij->ij",
        branches[:, first[0] : first[0] + rows, first[1] : first[1] + cols],
        branches[:, second[0] : second[0] + rows, second[1] : second[1] + cols],
    )


def oracle_moment_bundle(state: "FockState | FockEnsemble", lambdas) -> dict:
    """Every oracle moment of a (real-amplitude) state in one pass.

    Seven pair-sum tables over the branches serve every moment and
    weight: T[i, c] = sum_b psi_b[i, c] psi_b[i + di, c + dc] for (di, dc)
    in (0, 0), (1, 0), (2, 0), (0, 1), (0, 2), (1, 1), and the
    anti-diagonal sum of psi_b[i, c + 1] psi_b[i + 1, c], each at most
    (cutoff + 1)-square; no operator is formed or applied.  Along the probe
    index (the conjugate is the same along the other one), with p(i) the
    marginal number distribution, T1 and T2 the tables of amplitudes one
    and two levels apart, and [i < cutoff] the truncation of a a^T:

        <X>         = 2 sum sqrt(i+1) T1
        ||X psi||^2 = D + S,  ||k psi||^2 = D - S,
        D = sum p(i) (i + (i+1) [i < cutoff]),
        S = 2 sum sqrt((i+1)(i+2)) T2.

    Phase quadratures use the real antisymmetric k = iY (see
    :func:`_ladder`), whose means are exact zeros for the real states
    built here.  The cross term <k_p psi, k_c psi> is 2 sum
    sqrt((i+1)(c+1)) (psi[i, c+1] psi[i+1, c] - psi[i, c] psi[i+1, c+1]),
    and the joint variance the quadratic (||k_p psi||^2 + 2 lam <k_p psi,
    k_c psi> + lam^2 ||k_c psi||^2) / norm.  Photon-number moments come
    from each mode's marginal.  :func:`oracle_quadrature_stats` and
    :func:`oracle_mode_quadrature` check all of it by operator products.

    Args:
        state: pure state or loss ensemble with real amplitudes.
        lambdas: joint-readout weights in [0, 1] (any array-like).

    Returns:
        Dict with ``"probe"`` and ``"conjugate"`` entries mapping
        ``{"x": (mean, var), "y": (mean, var), "n": (mean, var)}``, and a
        ``"joint"`` float array of shape (n_weights, 3) whose columns are
        lam, mean and var.
    """
    branches = _as_branches(state)
    if np.iscomplexobj(branches):
        raise ValueError("bundle path expects real amplitudes")
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    bad = ~((lam >= 0.0) & (lam <= 1.0))
    if bad.any():
        raise ValueError(f"lam must lie in [0, 1], got {float(lam[bad][0])!r}")
    # Joint photon-number weights P[n_p, n_c] of the mixture.
    number = _pair_sum(branches, (0, 0), (0, 0))
    total = float(number.sum())
    if total <= 0.0:
        raise ValueError("state has zero norm")
    dim = branches.shape[1]
    n = np.arange(dim, dtype=float)
    root = np.sqrt(n[1:])  # sqrt(i + 1) for i < cutoff
    # i + (i + 1)[i < cutoff]: the diagonal of a^T a + a a^T when truncated.
    diag = n + np.append(n[1:], 0.0)

    out: dict = {}
    for mode, axis, one, two in (
        ("probe", 1, (1, 0), (2, 0)),
        ("conjugate", 0, (0, 1), (0, 2)),
    ):
        marginal = number.sum(axis) / total
        t1 = _pair_sum(branches, (0, 0), one).sum(axis) / total
        t2 = _pair_sum(branches, (0, 0), two).sum(axis) / total
        mean_x = 2.0 * float(root @ t1)
        d = float(marginal @ diag)
        s = 2.0 * float((root[:-1] * root[1:]) @ t2)
        mean_n = float(marginal @ n)
        out[mode] = {
            "x": (mean_x, d + s - mean_x * mean_x),
            "y": (0.0, d - s),
            "n": (mean_n, float(marginal @ (n * n)) - mean_n * mean_n),
        }
    anti = _pair_sum(branches, (0, 1), (1, 0)) - _pair_sum(branches, (0, 0), (1, 1))
    cross = 2.0 * float(root @ anti @ root) / total
    pp, cc = out["probe"]["y"][1], out["conjugate"]["y"][1]
    var = pp + 2.0 * lam * cross + lam * lam * cc
    out["joint"] = np.column_stack((lam, np.zeros_like(lam), var))
    return out


def _ensemble_stats(branches: np.ndarray, apply_op) -> tuple[float, float]:
    # <M> and <M^2> over the (unnormalized) branch mixture; apply_op maps
    # the branch array to M|psi_b> for all branches at once.
    total = float(np.vdot(branches, branches).real)
    if total <= 0.0:
        raise ValueError("state has zero norm")
    applied = apply_op(branches)
    first = float(np.vdot(branches, applied).real) / total
    second = float(np.vdot(applied, applied).real) / total
    return first, second - first * first


def oracle_quadrature_stats(
    state: "FockState | FockEnsemble", lam: float
) -> tuple[float, float]:
    """Mean and variance of Y_p + lam * Y_c evaluated in the Fock basis.

    The complex-arithmetic reference for :func:`oracle_moment_bundle`.

    Args:
        state: pure state or loss ensemble.
        lam: measurement weight in [0, 1].

    Returns:
        ``(mean, variance)`` of the joint phase quadrature.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lam must lie in [0, 1], got {lam!r}")
    branches = _as_branches(state).astype(complex)
    a = _ladder(branches.shape[1])
    y = -1j * (a - a.T)
    return _ensemble_stats(
        branches,
        lambda b: _apply(y, b, "probe") + lam * _apply(y, b, "conjugate"),
    )


def oracle_mode_quadrature(
    state: "FockState | FockEnsemble", mode: str, quadrature: str
) -> tuple[float, float]:
    """Mean and variance of a single-mode quadrature, Fock-basis route.

    The complex-arithmetic reference for :func:`oracle_moment_bundle`.

    Args:
        state: pure state or loss ensemble.
        mode: "probe" or "conjugate".
        quadrature: "x" (amplitude) or "y" (phase).

    Returns:
        ``(mean, variance)`` of the requested quadrature.
    """
    if mode not in ("probe", "conjugate"):
        raise ValueError(f"unknown mode {mode!r}")
    if quadrature not in ("x", "y"):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    branches = _as_branches(state).astype(complex)
    a = _ladder(branches.shape[1])
    op = a + a.T if quadrature == "x" else -1j * (a - a.T)
    return _ensemble_stats(branches, lambda b: _apply(op, b, mode))

"""Number-basis oracle for the seeded amplifier.

Everything here recomputes the moments of :mod:`tsui.gaussian` by brute
force in a truncated Fock space, without touching covariance-matrix
algebra.  It exists to cross-check the Gaussian code path at seeds and
gains a cutoff of at most ``MAX_CUTOFF`` photons per mode holds.

A state is an amplitude matrix psi[n_p, n_c].  The pure amplifier output
exp(r (ad_p ad_c - a_p a_c)) |alpha, 0> is written down amplitude by
amplitude from the closed form of the two-mode squeezer on a number
state (see :func:`build_seeded_tmss_fock`).  A lossy state is that pure
state plus one power transmission per mode (:class:`FockEnsemble`):
loss never raises a photon number, so the truncated channels compose
exactly and a second loss on a mode multiplies its transmission.
:func:`oracle_moment_bundle` reads every moment from seven sums of
amplitude pairs of the pure state, each carried through the loss by a
triangular matrix on each mode, without forming an operator or a branch.
The complex references expand the loss into its Kraus branches and
apply the ladder operators as matrices, an independent route to the
same moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln, xlog1py, xlogy

from .data import check_unit_interval

__all__ = [
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
]

# A state is rejected when more than this much probability lies outside
# the retained (cutoff + 1)^2 block.
NORM_DEFICIT_LIMIT = 1e-4

# Largest accepted cutoff.  The moment path holds (cutoff + 1)^2 arrays
# and multiplies (cutoff + 1)-square matrices: at 400 a two-arm lossy
# bundle (G=1.67, alpha=5, eta 0.76/0.79) takes 0.10-0.14 s on 2 cores
# with a 17 MiB tracemalloc peak, and the cost grows as cutoff^3.
MAX_CUTOFF = 400

# Largest cutoff whose dense Kraus branches FockEnsemble.branches builds:
# a two-arm lossy ensemble holds (cutoff + 1)^4 doubles, 111 MB at 60.
MAX_BRANCH_CUTOFF = 60

# moment_cutoff's bound on each mode's tail sum_{n > cutoff} n^2 p(n).
MOMENT_TAIL_LIMIT = 1e-7


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


@dataclass(frozen=True)
class FockEnsemble:
    """A mixture of pure branches sent through photon loss on each mode.

    ``base[b]`` are unnormalized amplitude matrices (a pure state is one
    branch) whose incoherent mixture passed a loss channel of power
    transmission ``eta_p`` on the probe and ``eta_c`` on the conjugate.
    The loss is held as the two numbers, never expanded, unless
    :attr:`branches` is read.
    """

    base: np.ndarray  # shape (n_branches, cutoff + 1, cutoff + 1)
    cutoff: int
    eta_p: float = 1.0
    eta_c: float = 1.0

    def total_weight(self) -> float:
        # Loss only moves weight between number states, so it keeps the trace.
        return float(np.vdot(self.base, self.base).real)

    @property
    def branches(self) -> np.ndarray:
        """The dense Kraus ensemble, built anew on every read.

        One branch per (photons lost on the conjugate, photons lost on
        the probe, base branch), in that order, zero-weight branches
        dropped after each mode; a mode at transmission 1 is not
        expanded.  Only the complex references and tests read it.

        Raises:
            ValueError: if ``cutoff`` exceeds ``MAX_BRANCH_CUTOFF``.
        """
        if self.cutoff > MAX_BRANCH_CUTOFF:
            raise ValueError(
                f"dense branches need cutoff <= {MAX_BRANCH_CUTOFF}, got "
                f"{self.cutoff}: a two-arm ensemble holds (cutoff + 1)^4 doubles"
            )
        branches = self.base
        for eta, mode in ((self.eta_p, "probe"), (self.eta_c, "conjugate")):
            if eta < 1.0:
                branches = _kraus_copies(branches, eta, mode)
        return branches


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
    psi = _amplitudes(gain, alpha, cutoff)
    deficit = max(1.0 - float(np.vdot(psi, psi)), 0.0)
    report = TruncationReport(cutoff=cutoff, norm_deficit=deficit)
    if deficit > NORM_DEFICIT_LIMIT:
        raise TruncationError(report)
    return FockState(amplitudes=psi, cutoff=cutoff), report


def _amplitudes(gain: float, alpha: float, cutoff: int) -> np.ndarray:
    # The (cutoff + 1)-square block of build_seeded_tmss_fock's closed form.
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
    return psi


def moment_cutoff(gain: float, alpha: float = 0.0) -> int:
    """Smallest cutoff whose per-mode tail sum_{n > cutoff} n^2 p(n) is at
    most ``MOMENT_TAIL_LIMIT``.

    The norm deficit that :func:`build_seeded_tmss_fock` gates does not
    bound second moments; this tail does.  Every amplitude has n_c <= n_p,
    so the conjugate's tail is at most the probe's.  The probe marginal
    p(n) is summed from the closed-form amplitudes on the ``MAX_CUTOFF``
    block, where it is complete for n <= ``MAX_CUTOFF``, and the tail is
    <n^2> minus that partial sum.  The probe is a displaced thermal state
    with m = G - 1 thermal photons and |d|^2 = G alpha^2, so <n> = m + |d|^2
    and Var(n) = m (m + 1) + |d|^2 (2 m + 1).  Loss only lowers photon
    numbers, so the bound holds for any transmissions too.

    Raises:
        ValueError: if no cutoff up to ``MAX_CUTOFF`` meets the limit.
    """
    psi = _amplitudes(gain, alpha, MAX_CUTOFF)
    n = np.arange(MAX_CUTOFF + 1.0)
    thermal, shift = gain - 1.0, gain * alpha * alpha
    mean = thermal + shift
    second = thermal * (thermal + 1.0) + shift * (2.0 * thermal + 1.0) + mean * mean
    tails = second - np.cumsum(n * n * np.einsum("ij,ij->i", psi, psi))
    fits = np.flatnonzero(tails[1:] <= MOMENT_TAIL_LIMIT)
    if not fits.size:
        raise ValueError(
            f"no cutoff up to {MAX_CUTOFF} bounds the n^2-weighted tail by "
            f"{MOMENT_TAIL_LIMIT:.0e} at gain {gain!r}, alpha {alpha!r}"
        )
    return int(fits[0]) + 1


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


def _as_ensemble(state: "FockState | FockEnsemble") -> FockEnsemble:
    if isinstance(state, FockState):
        return FockEnsemble(base=state.amplitudes[np.newaxis], cutoff=state.cutoff)
    return state


def _apply(op: np.ndarray, branches: np.ndarray, mode: str) -> np.ndarray:
    # A single-mode operator on amplitude matrices psi[n_p, n_c]: op psi on
    # the probe, psi op^T on the conjugate.  Leading axes (branches)
    # broadcast.
    if mode == "probe":
        return op @ branches
    return branches @ np.swapaxes(op, -1, -2)


def _kraus_copies(branches: np.ndarray, eta: float, mode: str) -> np.ndarray:
    # Outcome k shifts the mode's photon number down by k and scales it by
    # w[k, n]: a shifted, scaled copy of every branch, in (k, branch) order.
    dim = branches.shape[1]
    weights = _loss_weights(eta, dim)
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
    return new


def apply_loss_fock(
    state: "FockState | FockEnsemble", eta: float, mode: str
) -> FockEnsemble:
    """Apply a photon-loss channel to one mode.

    Nothing is expanded: the result keeps the input's branches and
    multiplies the mode's transmission by ``eta``, which is exact because
    losses eta_1 then eta_2 are the single loss eta_1 eta_2 (the binomial
    thinnings compose, and loss never leaves the truncated block).

    Args:
        state: pure state or ensemble to attenuate.
        eta: power transmission in [0, 1].
        mode: "probe" (first index) or "conjugate" (second index).

    Returns:
        A :class:`FockEnsemble` with the input's branches and the mode's
        transmission scaled by ``eta``.
    """
    eta = check_unit_interval("eta", eta)
    if mode not in ("probe", "conjugate"):
        raise ValueError(f"unknown mode {mode!r}")
    ens = _as_ensemble(state)
    if mode == "probe":
        return replace(ens, eta_p=ens.eta_p * eta)
    return replace(ens, eta_c=ens.eta_c * eta)


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


def _loss_matrices(eta: float, dim: int) -> list[np.ndarray]:
    # A pair table T[j, m] = sum_b psi_b[j + a, .] psi_b[j + b, .] after
    # loss on its mode is L T, with L[i, j] = w[j - i, j + a] w[j - i, j + b]
    # for j >= i: losing k = j - i photons takes both amplitudes of a pair
    # from row j to row i, scaled by their Kraus weights (the conjugate
    # acts on the columns, T L^T).  Returns L for (a, b) = (0, d), d = 0, 1,
    # 2, each (dim - d) square; L is symmetric in (a, b) and the identity
    # at eta = 1.
    w = np.zeros((dim, dim + 2))
    w[:, :dim] = _loss_weights(eta, dim)
    i, j = np.triu_indices(dim)
    mats = np.zeros((3, dim, dim))
    mats[:, i, j] = w[j - i, j] * w[j - i, j + np.arange(3)[:, np.newaxis]]
    return [mats[d, : dim - d, : dim - d] for d in range(3)]


# The bundle's seven tables: the photon-number weights P[n_p, n_c];
# amplitudes one and two levels apart on the probe, then on the conjugate;
# and the two halves of the cross term.
_BUNDLE_TABLES = (
    ((0, 0), (0, 0)),
    ((0, 0), (1, 0)), ((0, 0), (2, 0)),
    ((0, 0), (0, 1)), ((0, 0), (0, 2)),
    ((0, 1), (1, 0)), ((0, 0), (1, 1)),
)


def _lossy_tables(ens: FockEnsemble) -> list[np.ndarray]:
    # The lossy state's pair table for each of _BUNDLE_TABLES' (first,
    # second) offset pairs: L_p T L_c^T on the table T of its base
    # branches, skipping a mode at transmission 1, whose L is the
    # identity.  Each pair has a zero offset on each mode, so (a, b) there
    # is (0, a + b) or (a + b, 0).
    dim = ens.base.shape[1]
    loss = functools.cache(lambda eta: _loss_matrices(eta, dim))
    tables = []
    for first, second in _BUNDLE_TABLES:
        table = _pair_sum(ens.base, first, second)
        if ens.eta_p < 1.0:
            table = loss(ens.eta_p)[first[0] + second[0]] @ table
        if ens.eta_c < 1.0:
            table = table @ loss(ens.eta_c)[first[1] + second[1]].T
        tables.append(table)
    return tables


def oracle_moment_bundle(state: "FockState | FockEnsemble", lambdas) -> dict:
    """Every oracle moment of a (real-amplitude) state in one pass.

    Seven pair-sum tables of the lossy state serve every moment and
    weight: T[i, c] = sum_b psi_b[i, c] psi_b[i + di, c + dc] over its
    Kraus branches for (di, dc) in (0, 0), (1, 0), (2, 0), (0, 1), (0, 2),
    (1, 1), and the anti-diagonal sum of psi_b[i, c + 1] psi_b[i + 1, c],
    each at most (cutoff + 1)-square.  Each is read as L_p T L_c^T from the
    base branches' table (see :func:`_loss_matrices`), so no branch is
    built and no operator is formed or applied.  Along the probe
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
    ens = _as_ensemble(state)
    if np.iscomplexobj(ens.base):
        raise ValueError("bundle path expects real amplitudes")
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    bad = ~((lam >= 0.0) & (lam <= 1.0))
    if bad.any():
        raise ValueError(f"lam must lie in [0, 1], got {float(lam[bad][0])!r}")
    number, *levels, swap, both = _lossy_tables(ens)
    total = float(number.sum())
    if total <= 0.0:
        raise ValueError("state has zero norm")
    dim = ens.base.shape[1]
    n = np.arange(dim, dtype=float)
    root = np.sqrt(n[1:])  # sqrt(i + 1) for i < cutoff
    # i + (i + 1)[i < cutoff]: the diagonal of a^T a + a a^T when truncated.
    diag = n + np.append(n[1:], 0.0)

    out: dict = {}
    for mode, axis, (one, two) in (("probe", 1, levels[:2]), ("conjugate", 0, levels[2:])):
        marginal = number.sum(axis) / total
        t1 = one.sum(axis) / total
        t2 = two.sum(axis) / total
        mean_x = 2.0 * float(root @ t1)
        d = float(marginal @ diag)
        s = 2.0 * float((root[:-1] * root[1:]) @ t2)
        mean_n = float(marginal @ n)
        out[mode] = {
            "x": (mean_x, d + s - mean_x * mean_x),
            "y": (0.0, d - s),
            "n": (mean_n, float(marginal @ (n * n)) - mean_n * mean_n),
        }
    cross = 2.0 * float(root @ (swap - both) @ root) / total
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
    lam = check_unit_interval("lam", lam)
    branches = _as_ensemble(state).branches.astype(complex)
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
    branches = _as_ensemble(state).branches.astype(complex)
    a = _ladder(branches.shape[1])
    op = a + a.T if quadrature == "x" else -1j * (a - a.T)
    return _ensemble_stats(branches, lambda b: _apply(op, b, mode))

"""Number-basis oracle for the seeded amplifier.

Everything here recomputes the moments of :mod:`tsui.gaussian` by brute
force in a truncated Fock space, without touching covariance-matrix
algebra.  It exists to cross-check the Gaussian code path at seeds and
gains a cutoff of at most ``MAX_CUTOFF`` photons per mode holds.

A state (:class:`FockState`) is the real amplitude matrix psi[n_p, n_c]
of the pure amplifier output exp(r (ad_p ad_c - a_p a_c)) |alpha, 0>
plus one power transmission per mode.  The amplitudes are written down
one by one from the closed form of the two-mode squeezer on a number
state (see :func:`build_seeded_tmss_fock`), by default up to the
smallest cutoff whose n^2-weighted tail meets the photon-moment
tolerance (:func:`moment_cutoff`).  Loss never raises a photon number,
so the truncated channels compose exactly and a second loss on a mode
multiplies its transmission.  :func:`oracle_moment_bundle` reads every
moment from seven sums of amplitude pairs of the pure state, each
carried through the loss by a triangular matrix on each mode, without
forming an operator or a Kraus branch.  The tests check it against
ladder operators applied as matrices to the dense Kraus branches
(:attr:`FockState.branches`), an independent route to the same moments.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .data import MAX_CUTOFF, check_range

__all__ = [
    "FockState",
    "TruncationError",
    "TruncationReport",
    "apply_loss_fock",
    "build_seeded_tmss_fock",
    "moment_cutoff",
    "oracle_moment_bundle",
]

# A state is rejected when more than this much probability lies outside
# the retained (cutoff + 1)^2 block.
NORM_DEFICIT_LIMIT = 1e-4

# Largest cutoff whose dense Kraus branches FockState.branches builds:
# a two-arm lossy ensemble holds (cutoff + 1)^4 doubles, 111 MB at 60.
MAX_BRANCH_CUTOFF = 60

# moment_cutoff's bound on each mode's tail sum_{n > cutoff} n^2 p(n).
MOMENT_TAIL_LIMIT = 1e-7

# log n! for n <= MAX_CUTOFF + 1, past every photon number a state holds.
_LOG_FACTORIAL = np.array([math.lgamma(n + 1.0) for n in range(MAX_CUTOFF + 2)])


def _xlog(x: np.ndarray, log, y: float) -> np.ndarray:
    # x log(y) for integers x >= 0 and a scalar y, with log math.log or
    # math.log1p: 0 where x = 0, so 0 log 0 = 0, and -inf where log(y) is.
    try:
        log_y = log(y)
    except ValueError:  # math's log of 0
        log_y = -math.inf
    with np.errstate(invalid="ignore"):
        return np.where(x == 0, 0.0, x * log_y)


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


@dataclass(frozen=True)
class FockState:
    """A pure two-mode state sent through photon loss on each mode.

    ``amplitudes[n_p, n_c]`` is the real coefficient of |n_p, n_c> in the
    pure state, stored unnormalized (its norm tracks the truncation
    deficit), and ``eta_p``/``eta_c`` are the power transmissions of the
    loss on the probe and the conjugate.  The loss is held as the two
    numbers, never expanded, unless :attr:`branches` is read.
    """

    amplitudes: np.ndarray  # shape (cutoff + 1, cutoff + 1)
    eta_p: float = 1.0
    eta_c: float = 1.0

    def __post_init__(self) -> None:
        psi = np.asarray(self.amplitudes)
        if np.iscomplexobj(psi) or psi.ndim != 2 or psi.shape[0] != psi.shape[1]:
            raise ValueError(
                f"amplitudes must be a real square matrix, got {psi.dtype} {psi.shape}"
            )
        check_range("cutoff", psi.shape[0] - 1)
        object.__setattr__(self, "amplitudes", psi)
        object.__setattr__(self, "eta_p", check_range("eta_p", self.eta_p))
        object.__setattr__(self, "eta_c", check_range("eta_c", self.eta_c))

    @property
    def cutoff(self) -> int:
        return self.amplitudes.shape[0] - 1

    def norm_squared(self) -> float:
        """Trace of the state: loss only moves weight between number states."""
        return float(np.vdot(self.amplitudes, self.amplitudes))

    @property
    def branches(self) -> np.ndarray:
        """The dense Kraus ensemble, built anew on every read.

        One branch per (photons lost on the conjugate, photons lost on
        the probe), in that order, zero-weight branches dropped after
        each mode; a mode at transmission 1 is not expanded.  Only tests
        and benchmarks read it.

        Raises:
            ValueError: if ``cutoff`` exceeds ``MAX_BRANCH_CUTOFF``.
        """
        if self.cutoff > MAX_BRANCH_CUTOFF:
            raise ValueError(
                f"dense branches need cutoff <= {MAX_BRANCH_CUTOFF}, got "
                f"{self.cutoff}: a two-arm ensemble holds (cutoff + 1)^4 doubles"
            )
        branches = self.amplitudes[np.newaxis]
        for eta, mode in ((self.eta_p, "probe"), (self.eta_c, "conjugate")):
            if eta < 1.0:
                branches = _kraus_copies(branches, eta, mode)
        return branches


def build_seeded_tmss_fock(
    gain: float,
    alpha: float = 0.0,
    cutoff: int | None = None,
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
        cutoff: highest retained photon number per mode, 1 to
            ``MAX_CUTOFF``; by default :func:`moment_cutoff`, the smallest
            that meets the photon-moment tolerance.

    Returns:
        ``(state, report)`` where ``state`` holds the retained block and
        ``report`` the probability left outside it.

    Raises:
        TruncationError: if the deficit exceeds ``NORM_DEFICIT_LIMIT``.
    """
    if cutoff is None:
        cutoff = moment_cutoff(gain, alpha)
    psi = _amplitudes(gain, alpha, cutoff)
    deficit = max(1.0 - float(np.vdot(psi, psi)), 0.0)
    report = TruncationReport(cutoff=cutoff, norm_deficit=deficit)
    if deficit > NORM_DEFICIT_LIMIT:
        raise TruncationError(report)
    return FockState(psi), report


def _amplitudes(gain: float, alpha: float, cutoff: int) -> np.ndarray:
    # The (cutoff + 1)-square block of build_seeded_tmss_fock's closed form.
    gain, alpha = check_range("gain", gain), check_range("alpha", alpha)
    check_range("gain * alpha^2", gain * alpha * alpha)
    check_range("cutoff", cutoff)
    r = math.acosh(math.sqrt(gain))
    # Amplitudes sit on the block's lower triangle, psi[i, k] with i >= k
    # and seed photon number n = i - k; 0 log 0 = 0 keeps the exact
    # coherent state at G = 1 and the exact ladder at alpha = 0.
    k, i = np.triu_indices(cutoff + 1)
    n = i - k
    log_amp = (
        -0.5 * alpha * alpha + _xlog(n, math.log, alpha) + _xlog(k, math.log, math.tanh(r))
        + 0.5 * _LOG_FACTORIAL[i] - _LOG_FACTORIAL[n] - 0.5 * _LOG_FACTORIAL[k]
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
    # binomials keep large n stable, and 0 log 0 = 0 gives the exact
    # identity at eta = 1 and the exact vacuum map at eta = 0.
    k, n = np.triu_indices(dim)
    log_w = (
        _LOG_FACTORIAL[n] - _LOG_FACTORIAL[k] - _LOG_FACTORIAL[n - k]
        + _xlog(n - k, math.log, eta) + _xlog(k, math.log1p, -eta)
    )
    weights = np.zeros((dim, dim))
    weights[k, n] = np.exp(0.5 * log_w)
    return weights


def _kraus_copies(branches: np.ndarray, eta: float, mode: str) -> np.ndarray:
    # Outcome k shifts the mode's photon number down by k and scales it by
    # w[k, n]: a shifted, scaled copy of every branch, in (k, branch) order.
    dim = branches.shape[1]
    weights = _loss_weights(eta, dim)
    new = np.zeros((dim, *branches.shape))
    for k in range(dim):
        if mode == "probe":
            np.multiply(weights[k, k:, None], branches[:, k:, :], out=new[k, :, : dim - k, :])
        else:
            np.multiply(weights[k, k:], branches[:, :, k:], out=new[k, :, :, : dim - k])
    new = new.reshape(-1, dim, dim)
    kept = np.einsum("bij,bij->b", new, new) > 0.0
    # A boolean mask copies every branch, so apply it only if one drops.
    if not kept.all():
        new = new[kept]
    return new


def apply_loss_fock(state: FockState, eta: float, mode: str) -> FockState:
    """Apply a photon-loss channel to one mode.

    Nothing is expanded: the result keeps the input's amplitudes and
    multiplies the mode's transmission by ``eta``, which is exact because
    losses eta_1 then eta_2 are the single loss eta_1 eta_2 (the binomial
    thinnings compose, and loss never leaves the truncated block).

    Args:
        state: state to attenuate.
        eta: power transmission in [0, 1].
        mode: "probe" (first index) or "conjugate" (second index).

    Returns:
        ``state`` with the mode's transmission scaled by ``eta``.
    """
    eta = check_range("eta", eta)
    if mode not in ("probe", "conjugate"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "probe":
        return replace(state, eta_p=state.eta_p * eta)
    return replace(state, eta_c=state.eta_c * eta)


def _pair_sum(psi: np.ndarray, first, second) -> np.ndarray:
    # T[i, c] = psi[(i, c) + first] psi[(i, c) + second], with first and
    # second (n_p, n_c) offsets, over the block where both stay inside the
    # cutoff: the product of two sliced views.
    dim = psi.shape[0]
    rows = dim - max(first[0], second[0])
    cols = dim - max(first[1], second[1])
    return (
        psi[first[0] : first[0] + rows, first[1] : first[1] + cols]
        * psi[second[0] : second[0] + rows, second[1] : second[1] + cols]
    )


def _loss_matrices(eta: float, dim: int) -> list[np.ndarray]:
    # A pair table T[j, m] = psi[j + a, .] psi[j + b, .] after loss on its
    # mode, summed over the Kraus branches, is L T, with
    # L[i, j] = w[j - i, j + a] w[j - i, j + b]
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


def _lossy_tables(state: FockState) -> list[np.ndarray]:
    # The lossy state's pair table for each of _BUNDLE_TABLES' (first,
    # second) offset pairs: L_p T L_c^T on the table T of its pure
    # amplitudes, skipping a mode at transmission 1, whose L is the
    # identity.  Each pair has a zero offset on each mode, so (a, b) there
    # is (0, a + b) or (a + b, 0).
    loss = functools.cache(lambda eta: _loss_matrices(eta, state.cutoff + 1))
    tables = []
    for first, second in _BUNDLE_TABLES:
        table = _pair_sum(state.amplitudes, first, second)
        if state.eta_p < 1.0:
            table = loss(state.eta_p)[first[0] + second[0]] @ table
        if state.eta_c < 1.0:
            table = table @ loss(state.eta_c)[first[1] + second[1]].T
        tables.append(table)
    return tables


def oracle_moment_bundle(state: FockState, lambdas) -> dict:
    """Every oracle moment of a state in one pass.

    Seven pair-sum tables of the lossy state serve every moment and
    weight: T[i, c] = sum_b psi_b[i, c] psi_b[i + di, c + dc] over its
    Kraus branches for (di, dc) in (0, 0), (1, 0), (2, 0), (0, 1), (0, 2),
    (1, 1), and the anti-diagonal sum of psi_b[i, c + 1] psi_b[i + 1, c],
    each at most (cutoff + 1)-square.  Each is read as L_p T L_c^T from the
    pure amplitudes' table (see :func:`_loss_matrices`), so no branch is
    built and no operator is formed or applied.  Along the probe
    index (the conjugate is the same along the other one), with p(i) the
    marginal number distribution, T1 and T2 the tables of amplitudes one
    and two levels apart, and [i < cutoff] the truncation of a a^T:

        <X>         = 2 sum sqrt(i+1) T1
        ||X psi||^2 = D + S,  ||k psi||^2 = D - S,
        D = sum p(i) (i + (i+1) [i < cutoff]),
        S = 2 sum sqrt((i+1)(i+2)) T2.

    Phase quadratures use the real antisymmetric k = a - a^T = iY: for
    real amplitudes ||k psi|| = ||Y psi||, and psi . (k psi), so each
    phase mean, is exactly zero.  The cross term <k_p psi, k_c psi> is 2 sum
    sqrt((i+1)(c+1)) (psi[i, c+1] psi[i+1, c] - psi[i, c] psi[i+1, c+1]),
    and the joint variance the quadratic (||k_p psi||^2 + 2 lam <k_p psi,
    k_c psi> + lam^2 ||k_c psi||^2) / norm.  Photon-number moments come
    from each mode's marginal.  The tests check all of it by operator
    products on the dense Kraus branches.

    Args:
        state: the state to read.
        lambdas: joint-readout weights in [0, 1] (any array-like).

    Returns:
        Dict with ``"probe"`` and ``"conjugate"`` entries mapping
        ``{"x": (mean, var), "y": (mean, var), "n": (mean, var)}``, and a
        ``"joint"`` float array of shape (n_weights, 3) whose columns are
        lam, mean and var.
    """
    lam = check_range("lam", np.asarray(lambdas, dtype=float).reshape(-1))
    number, *levels, swap, both = _lossy_tables(state)
    total = float(number.sum())
    if total <= 0.0:
        raise ValueError("state has zero norm")
    n = np.arange(state.cutoff + 1.0)
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

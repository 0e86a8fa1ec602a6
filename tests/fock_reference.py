"""Operator-product references for the Fock oracle's moment bundle.

Each moment is computed the long way: the loss is expanded into its
dense Kraus branches (:attr:`tsui.fock.FockState.branches`) and the
ladder operators are applied to every branch as complex matrices, an
independent route to what :func:`tsui.fock.oracle_moment_bundle` reads
from pair-sum tables.
"""

import numpy as np

from tsui.data import check_range
from tsui.fock import FockState


def ladder(dim: int) -> np.ndarray:
    # Annihilation operator a|n> = sqrt(n)|n-1>.  X = a + a^T, and
    # k = a - a^T = iY is real and antisymmetric: for real amplitude
    # matrices ||k psi|| = ||Y psi|| and psi . (k psi) vanishes exactly.
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def apply_op(op: np.ndarray, branches: np.ndarray, mode: str) -> np.ndarray:
    # A single-mode operator on amplitude matrices psi[n_p, n_c]: op psi on
    # the probe, psi op^T on the conjugate.  Leading axes (branches)
    # broadcast.
    if mode == "probe":
        return op @ branches
    return branches @ np.swapaxes(op, -1, -2)


def ensemble_stats(branches: np.ndarray, apply) -> tuple[float, float]:
    # <M> and <M^2> over the (unnormalized) branch mixture; apply maps the
    # branch array to M|psi_b> for all branches at once.
    total = float(np.vdot(branches, branches).real)
    if total <= 0.0:
        raise ValueError("state has zero norm")
    applied = apply(branches)
    first = float(np.vdot(branches, applied).real) / total
    second = float(np.vdot(applied, applied).real) / total
    return first, second - first * first


def oracle_quadrature_stats(state: FockState, lam: float) -> tuple[float, float]:
    """Mean and variance of Y_p + lam * Y_c evaluated in the Fock basis.

    Args:
        state: the state to read.
        lam: measurement weight in [0, 1].

    Returns:
        ``(mean, variance)`` of the joint phase quadrature.
    """
    lam = check_range("lam", lam)
    branches = state.branches.astype(complex)
    a = ladder(branches.shape[1])
    y = -1j * (a - a.T)
    return ensemble_stats(
        branches,
        lambda b: apply_op(y, b, "probe") + lam * apply_op(y, b, "conjugate"),
    )


def oracle_mode_quadrature(state: FockState, mode: str, quadrature: str) -> tuple[float, float]:
    """Mean and variance of a single-mode quadrature, Fock-basis route.

    Args:
        state: the state to read.
        mode: "probe" or "conjugate".
        quadrature: "x" (amplitude) or "y" (phase).

    Returns:
        ``(mean, variance)`` of the requested quadrature.
    """
    if mode not in ("probe", "conjugate"):
        raise ValueError(f"unknown mode {mode!r}")
    if quadrature not in ("x", "y"):
        raise ValueError(f"unknown quadrature {quadrature!r}")
    branches = state.branches.astype(complex)
    a = ladder(branches.shape[1])
    op = a + a.T if quadrature == "x" else -1j * (a - a.T)
    return ensemble_stats(branches, lambda b: apply_op(op, b, mode))

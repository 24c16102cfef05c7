"""Quadratic-loss minimum-volume NMF by block coordinate descent.

Minimizes ``|X - W H|_F^2 + lambda * logdet(W^T W + delta I)`` over the
feasible set, alternating accelerated projected-gradient passes on W
and H.  Each sweep re-linearizes the concave logdet term at the current
``W``, so the W-block actually minimizes the trace surrogate
``|X - W H|_F^2 + lambda * tr(A W^T W)`` with ``A`` the inverse shifted
Gram; by concavity this surrogate upper-bounds the true objective and
touches it at the expansion point, which makes every sweep a descent
step on the true objective.

This solver doubles as the inner step of the square-root method, which
calls it with a penalty weight refreshed from the current residual.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, InvalidInputError, InvalidParameterError
from .fgm import minimize_fgm
from .linalg import (
    as_matrix,
    cholesky,
    frobenius_norm,
    gram_shifted,
    logdet_spd,
    solve_spd,
    spectral_norm,
)
from .projections import project_H_columns, project_nonneg, require_feasible
from .initialization import fit_coefficients

__all__ = [
    "MinvolConfig",
    "MinvolState",
    "objective_minvol",
    "update_H",
    "update_W",
    "grad_H",
    "grad_W",
    "minvol",
    "lambda_from_init",
]


@dataclass(frozen=True)
class MinvolConfig:
    """Knobs of the block coordinate descent.

    Attributes
    ----------
    lam : float
        Weight of the volume penalty.  Negative values are accepted
        (the CLI warns about a negative ``--lambda``) but then the
        penalty rewards volume, and the descent guarantee only holds
        for lam >= 0.  ``lambda_from_init`` never returns one for a
        nonnegative ``lambda_tilde``.
    delta : float
        Positive diagonal shift inside the logdet.
    outer_sweeps : int
        Number of (W, H) sweeps.
    inner_iters_per_block : int
        Projected-gradient budget for each block update.
    tol_rel_obj : float
        Sweep-level relative objective-change stopping threshold.
    """

    lam: float
    delta: float = 0.1
    outer_sweeps: int = 100
    inner_iters_per_block: int = 50
    tol_rel_obj: float = 1e-7

    def __post_init__(self):
        if not (self.delta > 0.0):
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")
        if self.outer_sweeps < 1 or self.inner_iters_per_block < 1:
            raise InvalidParameterError("iteration counts must be >= 1")
        if not (self.tol_rel_obj > 0.0):
            raise InvalidParameterError(
                f"tol_rel_obj must be > 0, got {self.tol_rel_obj}"
            )


@dataclass
class MinvolState:
    """Factor pair and objective history of a finished solve."""

    W: np.ndarray
    H: np.ndarray
    objective_history: list = field(default_factory=list)

    def write_csv(self, fh):
        """Write the history as ``k,objective`` rows, ``k = 0`` the start."""
        fh.write("k,objective\n")
        for k, obj in enumerate(self.objective_history):
            fh.write(f"{k},{obj:.17g}\n")


def objective_minvol(X, W, H, lam, delta):
    """Penalized objective: squared residual plus weighted log-volume."""
    Xm = as_matrix(X, "X")
    require_feasible(W, H, "objective_minvol")
    res = frobenius_norm(Xm - np.asarray(W) @ np.asarray(H))
    return res * res + float(lam) * logdet_spd(gram_shifted(W, delta))


def grad_H(X, W, H):
    """Gradient of ``|X - W H|_F^2`` in H: ``2 W^T (W H - X)``."""
    return 2.0 * np.asarray(W).T @ (np.asarray(W) @ np.asarray(H) - np.asarray(X))


def grad_W(X, W, H, A, lam_eff):
    """Gradient of the W-block surrogate.

    ``2 (W H - X) H^T + 2 lam_eff W A`` for the objective
    ``|X - W H|_F^2 + lam_eff * tr(A W^T W)``.
    """
    Wm, Hm = np.asarray(W), np.asarray(H)
    return 2.0 * ((Wm @ Hm - np.asarray(X)) @ Hm.T) + 2.0 * float(lam_eff) * (
        Wm @ np.asarray(A)
    )


def update_H(X, W, H, iters=50, tol=1e-7):
    """One accelerated projected-gradient pass on the H block.

    Monotone in the residual objective; the returned H is feasible.
    """
    Xm = as_matrix(X, "X")
    Wm = as_matrix(W, "W")
    H0 = project_H_columns(as_matrix(H, "H"))
    return fit_coefficients(Wm, Xm, H0, iters, tol)


def update_W(X, W, H, A, lam_eff, iters=50, tol=1e-7):
    """One accelerated projected-gradient pass on the W block.

    Minimizes ``|X - W H|_F^2 + lam_eff * tr(A W^T W)`` over ``W >= 0``
    with step 1/L, ``L = 2 (s_max(H H^T) + lam_eff * s_max(A))``.

    Precondition, not checked here: ``A`` is symmetric positive definite.
    The solvers pass the inverse shifted Gram of the anchor W, which is
    SPD by construction.  L is the exact gradient Lipschitz constant, so
    every step of length 1/L is a descent step.
    """
    Xm = as_matrix(X, "X")
    Hm = as_matrix(H, "H")
    W0 = project_nonneg(as_matrix(W, "W"))
    Am = as_matrix(A, "A")

    lam_eff = float(lam_eff)
    M = Hm @ Hm.T + lam_eff * Am
    XHt2 = 2.0 * (Xm @ Hm.T)
    xsq = float(np.sum(Xm * Xm))
    L = 2.0 * (spectral_norm(Hm) ** 2 + abs(lam_eff) * spectral_norm(Am))

    # The surrogate is |X|^2 + <W, W M - 2 X H^T>: one m x r by r x r product.
    def objective(Wv):
        return xsq + float(np.vdot(Wv, Wv @ M - XHt2))

    def gradient(Wv):
        return 2.0 * (Wv @ M) - XHt2

    Wn, _ = minimize_fgm(W0, objective, gradient, project_nonneg, L, iters, tol)
    return Wn


def minvol(X, r, W_init, H_init, config):
    """Block coordinate descent on the penalized objective.

    Sweeps W then H, re-linearizing the logdet at the start of every
    sweep, until the relative objective change drops below
    ``config.tol_rel_obj`` or the sweep budget runs out.  The recorded
    objective history is non-increasing up to rounding.
    """
    Xm = as_matrix(X, "X")
    require_feasible(W_init, H_init, "minvol initialization")
    Wm = as_matrix(W_init, "W_init").copy()
    Hm = as_matrix(H_init, "H_init").copy()
    r = int(r)
    if Wm.shape[1] != r:
        raise InvalidInputError(f"W_init has {Wm.shape[1]} columns, expected r={r}")
    if Wm.shape[0] != Xm.shape[0] or Hm.shape[1] != Xm.shape[1]:
        raise InvalidInputError("factor shapes do not conform with X")

    lam, delta = float(config.lam), float(config.delta)
    history = [objective_minvol(Xm, Wm, Hm, lam, delta)]
    eye = np.eye(r)
    for _ in range(config.outer_sweeps):
        F = cholesky(gram_shifted(Wm, delta))
        A = solve_spd(F, eye)
        A = 0.5 * (A + A.T)
        Wm = update_W(
            Xm, Wm, Hm, A, lam, config.inner_iters_per_block, config.tol_rel_obj
        )
        Hm = update_H(Xm, Wm, Hm, config.inner_iters_per_block, config.tol_rel_obj)
        obj = objective_minvol(Xm, Wm, Hm, lam, delta)
        prev = history[-1]
        history.append(obj)
        if abs(obj - prev) <= config.tol_rel_obj * max(abs(prev), 1e-300):
            break
    return MinvolState(W=Wm, H=Hm, objective_history=history)


def lambda_from_init(X, W0, H0, lambda_tilde, delta):
    """Scale a reference weight by the fit/volume ratio of an init.

    Returns ``lambda_tilde * |X - W0 H0|_F^2 / |logdet(W0^T W0 + delta I)|``,
    the init-scaled weight of Leplat et al. (2019).  The log-determinant
    is negative when the init columns are small next to ``delta``; its
    absolute value keeps the weight's sign that of ``lambda_tilde``, so
    the penalty still shrinks the volume.  A denominator within 1e-300
    of zero is degenerate and raises.
    """
    Xm = as_matrix(X, "X")
    res = frobenius_norm(Xm - np.asarray(W0) @ np.asarray(H0))
    denom = abs(logdet_spd(gram_shifted(W0, delta)))
    if abs(denom) < 1e-300:
        raise DegenerateDenominatorError(
            "logdet of the initial Gram is numerically zero; "
            "the init-scaled weight is undefined"
        )
    return float(lambda_tilde) * res * res / denom

"""Quadratic-loss minimum-volume NMF by block coordinate descent.

Minimizes ``|X - W H|_F^2 + lambda * logdet(W^T W + delta I)`` over the
feasible set, alternating accelerated projected-gradient passes on W
and H.  Each sweep re-linearizes the concave logdet term at the current
``W``, so the W-block actually minimizes the trace surrogate
``|X - W H|_F^2 + lambda * tr(A W^T W)`` with ``A`` the inverse shifted
Gram; by concavity this surrogate upper-bounds the true objective and
touches it at the expansion point, which makes every sweep a descent
step on the true objective.

The square-root method runs the same sweeps, :func:`block_sweeps`, at a
weight refreshed from the residual, and stops by the same :func:`stop_reason`.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, InvalidInputError, InvalidParameterError
from .fgm import minimize_fgm
from .linalg import as_matrix, frobenius_norm, shifted_gram, spectral_norm
from .projections import project_H_columns, project_nonneg, require_feasible
from .initialization import fit_coefficients

__all__ = [
    "MinvolConfig",
    "MinvolState",
    "objective_minvol",
    "update_W",
    "block_sweeps",
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
        Positive diagonal shift inside the logdet, default 0.1; the
        square-root solver, sweeps and the CLI take their default from
        here.
    max_outer : int
        Number of (W, H) sweeps, default 100.
    inner_iters : int
        Projected-gradient budget for each block update, default 50; the
        square-root solver takes its default from here.
    tol : float
        Relative objective change that stops the sweeps, default 1e-7;
        each block update stops on the same relative change.
    """

    lam: float
    delta: float = 0.1
    max_outer: int = 100
    inner_iters: int = 50
    tol: float = 1e-7

    def __post_init__(self):
        # lam is None only while make_config waits to rescale lambda_tilde.
        if self.lam is not None and not np.isfinite(self.lam):
            raise InvalidParameterError(f"lam must be finite, got {self.lam}")
        for name, v in {"delta": self.delta, "tol": self.tol}.items():
            if not (0.0 < v < np.inf):
                raise InvalidParameterError(f"{name} must be finite and > 0, got {v}")
        counts = {"max_outer": self.max_outer, "inner_iters": self.inner_iters}
        for name, count in counts.items():
            if count < 1:
                raise InvalidParameterError(f"{name} must be >= 1, got {count}")


@dataclass
class MinvolState:
    """Factor pair, objective history and :func:`stop_reason` of a solve."""

    W: np.ndarray
    H: np.ndarray
    objective_history: list = field(default_factory=list)
    stop: str = None

    def write_csv(self, fh):
        """Write the history as ``k,objective`` rows, ``k = 0`` the start."""
        fh.write("k,objective\n")
        for k, obj in enumerate(self.objective_history):
            fh.write(f"{k},{obj:.17g}\n")


def _objective_at(Xm, W, H, lam, logdet):
    require_feasible(W, H, "objective_minvol")
    res = frobenius_norm(Xm - np.asarray(W) @ np.asarray(H))
    return res * res + float(lam) * logdet


def objective_minvol(X, W, H, lam, delta):
    """Penalized objective: squared residual plus weighted log-volume."""
    return _objective_at(as_matrix(X, "X"), W, H, lam, shifted_gram(W, delta)[0])


def update_W(X, W, H, A, lam_eff, iters, tol):
    """One accelerated projected-gradient pass on the W block.

    Minimizes ``|X - W H|_F^2 + lam_eff * tr(A W^T W)`` over ``W >= 0``
    with step 1/L, ``L = 2 (s_max(H H^T) + lam_eff * s_max(A))``, for at
    most ``iters`` steps or until it moves by at most ``tol`` relative.

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
    L = 2.0 * (spectral_norm(Hm) ** 2 + abs(lam_eff) * spectral_norm(Am))
    if L <= 0.0:
        return W0
    M = Hm @ Hm.T + lam_eff * Am
    XHt2 = 2.0 * (Xm @ Hm.T)
    xsq = float(np.sum(Xm * Xm))
    # The gradient is 2 W M - 2 X H^T, so W - grad / L = W P + c.
    P = np.eye(M.shape[0]) - (2.0 / L) * M
    c = XHt2 / L

    # The surrogate is |X|^2 + <W, W M - 2 X H^T>: one m x r by r x r product.
    def objective(Wv):
        WM = Wv @ M
        WM -= XHt2
        return xsq + float(np.vdot(Wv, WM))

    def forward(Wv):
        Z = Wv @ P
        Z += c
        return Z

    Wn, _ = minimize_fgm(W0, objective, forward, project_nonneg, iters, tol)
    return Wn


def stop_reason(prev, obj, tol, k, budget):
    """Why a loop stops after step ``k`` of ``budget``, or None to go on.

    ``"stalled"`` if ``obj`` repeats ``prev`` (None at step 1) exactly, else
    ``"converged"`` if it moved by at most ``tol`` relative, else ``"budget"``.
    """
    if prev is not None and obj == prev:
        return "stalled"
    if prev is not None and abs(obj - prev) <= tol * max(abs(prev), 1e-300):
        return "converged"
    return "budget" if k == budget else None


def check_start(Xm, r, W, H, name):
    """``(W, H)`` as matrices, checked as a feasible rank-``r`` start for ``Xm``."""
    W, H = as_matrix(W, f"{name} W"), as_matrix(H, f"{name} H")
    (m, n), r = Xm.shape, int(r)
    if W.shape != (m, r) or H.shape != (r, n):
        raise InvalidInputError(
            f"{name} has shapes {W.shape} and {H.shape}; "
            f"X and r = {r} need {(m, r)} and {(r, n)}"
        )
    require_feasible(W, H, name)
    return W, H


def block_sweeps(Xm, W, H, lam, delta, count, inner_iters, tol):
    """``(W, H, history, stop)`` of at most ``count`` sweeps from a checked start."""
    # The one projection of H: every later H is an H-block output, itself one.
    H = project_H_columns(H)
    # One factor per iterate: its objective's log-det and the next linearization.
    logdet, A = shifted_gram(W, delta)
    history = [_objective_at(Xm, W, H, lam, logdet)]
    stop = None
    while stop is None:
        W = update_W(Xm, W, H, A, lam, inner_iters, tol)
        H = fit_coefficients(W, Xm, H, inner_iters, tol)
        logdet, A = shifted_gram(W, delta)
        history.append(_objective_at(Xm, W, H, lam, logdet))
        stop = stop_reason(history[-2], history[-1], tol, len(history) - 1, count)
    return W, H, history, stop


def minvol(X, r, W_init, H_init, config):
    """Check the start, then run at most ``config.max_outer`` sweeps at its ``lam``."""
    Xm = as_matrix(X, "X")
    W, H = check_start(Xm, r, W_init, H_init, "minvol start")
    return MinvolState(*block_sweeps(
        Xm, W, H, config.lam, config.delta,
        config.max_outer, config.inner_iters, config.tol,
    ))


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
    denom = abs(shifted_gram(W0, delta)[0])
    if abs(denom) < 1e-300:
        raise DegenerateDenominatorError(
            "logdet of the initial Gram is numerically zero; "
            "the init-scaled weight is undefined"
        )
    return float(lambda_tilde) * res * res / denom

"""Quadratic-loss minimum-volume NMF by block coordinate descent.

Minimizes ``|X - W H|_F^2 + lambda * logdet(W^T W + delta I)`` over the
feasible set, alternating accelerated projected-gradient passes on W
and H.  Each sweep re-linearizes the concave logdet term at the current
``W``, so the W-block actually minimizes the trace surrogate
``|X - W H|_F^2 + lambda * tr(A W^T W)`` with ``A`` the inverse shifted
Gram; by concavity this surrogate upper-bounds the true objective and
touches it at the expansion point, which makes every sweep a descent
step on the true objective.

``solve(X, r, "minvol-baseline", ...)`` runs the baseline as one call of
:func:`block_sweeps`; the square-root method runs them at a weight refreshed
from the residual and stops by the same :func:`stop_reason`.  A non-finite
Lipschitz constant or sweep objective, or a sweep that raises the objective
by more than rounding, raises ``NumericalFaultError``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, InvalidParameterError
from .errors import NumericalFaultError
from .fgm import minimize_fgm
from .linalg import as_matrix, check_finite, frobenius_norm, shifted_gram, spectral_norm
from .projections import project_H_columns, project_nonneg, require_feasible
from .initialization import fit_coefficients

__all__ = [
    "MinvolConfig",
    "MinvolState",
    "objective_minvol",
    "update_W",
    "block_sweeps",
    "lambda_from_init",
]


@dataclass(frozen=True)
class MinvolConfig:
    """Knobs of the block coordinate descent.

    Attributes
    ----------
    lam : float
        Weight of the volume penalty, finite and >= 0 (zero drops the
        penalty), the one weight rule of both solvers: a negative weight
        would reward volume and void the descent guarantee.
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
        if not (0.0 <= self.lam < np.inf):
            raise InvalidParameterError(f"lam must be finite and >= 0, got {self.lam}")
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


def update_W(Xm, W, H, A, lam, iters, tol):
    """One accelerated projected-gradient pass on the W block.

    Minimizes ``|X - W H|_F^2 + lam * tr(A W^T W)`` over ``W >= 0`` with
    step 1/L, ``L = 2 (s_max(H H^T) + lam * s_max(A))``, for at most
    ``iters`` steps or until it moves by at most ``tol`` relative.

    Like the H block (``fit_coefficients``) it trusts its inputs: checked
    arrays, a feasible ``W`` (returned as is when L = 0), ``lam >= 0`` and
    an SPD ``A``, here the inverse shifted Gram of the anchor W.  L is the
    exact gradient Lipschitz constant, so every step of length 1/L is a
    descent step; an L that overflows raises ``NumericalFaultError``.
    """
    L = 2.0 * (spectral_norm(H) ** 2 + lam * spectral_norm(A))
    check_finite(L, "W-block Lipschitz constant")
    if L <= 0.0:
        return W
    M = H @ H.T + lam * A
    XHt2 = 2.0 * (Xm @ H.T)
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

    Wn, _ = minimize_fgm(W, objective, forward, project_nonneg, iters, tol)
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


def block_sweeps(Xm, W, H, lam, delta, count, inner_iters, tol):
    """``(W, H, history, stop)`` of at most ``count`` sweeps from a checked start.

    The blocks trust the checked ``Xm``, ``(W, H)`` and ``lam >= 0``, so only
    rounding can raise the objective: a rise past 1e-9 relative is undone (the
    sweeps stall) if within 1e-12 of ``|X|^2 + |lam logdet|``, else a fault.
    """
    # One copy of W and one projection of H; every later W and H is a block output.
    W = W.copy()
    H = project_H_columns(H)
    # One factor per iterate: its objective's log-det and the next linearization.
    logdet, A = shifted_gram(W, delta)
    history = [check_finite(_objective_at(Xm, W, H, lam, logdet), "sweep objective")]
    stop = None
    while stop is None:
        W1 = update_W(Xm, W, H, A, lam, inner_iters, tol)
        H1 = fit_coefficients(W1, Xm, H, inner_iters, tol)
        logdet, A1 = shifted_gram(W1, delta)
        obj = check_finite(_objective_at(Xm, W1, H1, lam, logdet), "sweep objective")
        prev = history[-1]
        if obj - prev > 1e-9 * abs(prev):
            if obj - prev > 1e-12 * (np.sum(Xm * Xm) + abs(lam * logdet)):
                raise NumericalFaultError(f"sweep objective rose from {prev} to {obj}")
            W1, H1, A1, obj = W, H, A, prev
        W, H, A = W1, H1, A1
        history.append(obj)
        stop = stop_reason(history[-2], history[-1], tol, len(history) - 1, count)
    return W, H, history, stop


def lambda_from_init(X, W0, H0, lambda_tilde, delta):
    """Scale a reference weight by the fit/volume ratio of an init.

    Returns ``lambda_tilde * |X - W0 H0|_F^2 / |logdet(W0^T W0 + delta I)|``,
    the init-scaled weight of Leplat et al. (2019).  The log-determinant
    is negative when the init columns are small next to ``delta``; its
    absolute value makes the weight >= 0 for any ``lambda_tilde >= 0``, the
    one weight rule of both solvers.  A denominator within 1e-300 of zero
    is degenerate and raises.
    """
    Xm = as_matrix(X, "X")
    res = frobenius_norm(Xm - np.asarray(W0) @ np.asarray(H0))
    denom = abs(shifted_gram(W0, delta)[0])
    if denom < 1e-300:
        raise DegenerateDenominatorError(
            "logdet of the initial Gram is numerically zero; "
            "the init-scaled weight is undefined"
        )
    return float(lambda_tilde) * res * res / denom

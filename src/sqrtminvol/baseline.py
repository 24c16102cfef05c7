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

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDenominatorError, InvalidParameterError
from .errors import NumericalFaultError
from .fgm import solve_block
from .linalg import as_matrix, check_finite, frobenius_norm, residual, shifted_gram
from .projections import project_H_columns, project_nonneg, require_feasible

__all__ = [
    "MinvolConfig",
    "objective_minvol",
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


def _objective_at(Xm, W, H, lam, logdet):
    require_feasible(W, H, "objective_minvol")
    res = frobenius_norm(residual(Xm, W, H))
    return res * res + float(lam) * logdet


def objective_minvol(X, W, H, lam, delta):
    """Penalized objective: squared residual plus weighted log-volume."""
    return _objective_at(as_matrix(X, "X"), W, H, lam, shifted_gram(W, delta)[0])


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
    A ``NumericalFaultError`` carries the objectives so far as its ``trace``.
    """
    # One copy of W and one projection of H; every later W and H is a block output.
    W = W.copy()
    H = project_H_columns(H)
    # One factor per iterate: its objective's log-det and the next linearization.
    logdet, A = shifted_gram(W, delta)
    history = []
    stop = None
    try:
        obj = check_finite(_objective_at(Xm, W, H, lam, logdet), "sweep objective")
        history.append(obj)
        while stop is None:
            Wt = solve_block(
                W.T, H.T, Xm.T, project_nonneg, inner_iters, tol, "W-block", lam, A
            )
            W1 = np.ascontiguousarray(Wt.T)
            H1 = solve_block(H, W1, Xm, project_H_columns, inner_iters, tol, "H-block")
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
    except NumericalFaultError as err:
        # The objectives so far ride on the fault, so the caller can flush them.
        err.trace = history
        raise
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
    res = frobenius_norm(residual(as_matrix(X, "X"), W0, H0))
    denom = abs(shifted_gram(W0, delta)[0])
    if denom < 1e-300:
        raise DegenerateDenominatorError(
            "logdet of the initial Gram is numerically zero; "
            "the init-scaled weight is undefined"
        )
    return float(lambda_tilde) * res * res / denom

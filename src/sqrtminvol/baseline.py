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
from the residual.  Both loops are one :func:`_descend`, with one rise rule,
stop rule and fault report.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, NumericalFaultError
from .fgm import solve_block
from .linalg import as_matrix, check_finite, check_integer, frobenius_norm, residual
from .linalg import shifted_gram
from .projections import project_H_columns, project_nonneg, require_feasible

__all__ = [
    "MinvolConfig",
    "ObjectiveRow",
    "SolveTrace",
    "objective_minvol",
    "block_sweeps",
    "lambda_from_init",
]

# The FGM budget of each block update, as INNER_SWEEPS is the sweep budget
# of each inner solve: a budget of the inner solver, not a model setting.
BLOCK_ITERS = 50


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
    tol : float
        Relative objective change that stops the sweeps, default 1e-7;
        each block update stops on the same relative change.
    """

    lam: float
    delta: float = 0.1
    max_outer: int = 100
    tol: float = 1e-7

    def __post_init__(self):
        if not (0.0 <= self.lam < np.inf):
            raise InvalidInputError(f"lam must be finite and >= 0, got {self.lam}")
        for name, v in {"delta": self.delta, "tol": self.tol}.items():
            if not (0.0 < v < np.inf):
                raise InvalidInputError(f"{name} must be finite and > 0, got {v}")
        if check_integer(self.max_outer, "max_outer") < 1:
            raise InvalidInputError(f"max_outer must be >= 1, got {self.max_outer}")


def _objective_at(Xm, W, H, lam, logdet):
    require_feasible(W, H, "objective_minvol")
    res = frobenius_norm(residual(Xm, W, H))
    return res * res + float(lam) * logdet


def objective_minvol(X, W, H, lam, delta):
    """Penalized objective: squared residual plus weighted log-volume."""
    return _objective_at(as_matrix(X, "X"), W, H, lam, shifted_gram(W, delta)[0])


@dataclass
class ObjectiveRow:
    """One sweep of the baseline: ``k = 0`` is the start."""

    k: int
    objective: float


@dataclass
class SolveTrace:
    """Append-only trace of a solve, either solver's.

    ``rows``: :class:`~sqrtminvol.solver.TraceRow` records of the square-root
    solver's outer iterations, or :class:`ObjectiveRow` records of the
    baseline's sweeps.  ``stop``: why :func:`_descend` ended it, or None.
    """

    rows: list = field(default_factory=list)
    stop: str = None


def _descend(start, measure, step, tol, budget, where, first=0):
    """The MM loop of both solvers: ``(state, trace)``, rows ``first`` to ``budget``.

    ``start()`` returns the first state, ``measure(state, k)`` row ``k``, the
    values that must be finite as ``(name, value)`` pairs, the objective
    last, and the scale of its rounding; ``step(state, row)`` returns the
    next state.  No MM step raises the objective, so a rise within 1e-12 of
    the scale is undone (the row repeats the one before but for ``k`` and
    ``wall_ms``) and the loop stalls.  A larger rise, or a
    ``NumericalFaultError`` while making the state or row ``k``, raises one
    ending ``at <where> k`` that carries the rows measured.
    """
    trace = SolveTrace()
    k, prev, f_prev = first, None, None  # the state and objective of row k - 1
    try:
        state = start()
        while True:
            row, named, scale = measure(state, k)
            trace.rows.append(row)
            for name, value in named:
                check_finite(value, name)
            what, obj = named[-1]
            if f_prev is not None:
                if obj > f_prev:
                    if obj - f_prev > 1e-12 * scale:
                        raise NumericalFaultError(f"{what} rose from {f_prev} to {obj}")
                    own = {f: getattr(row, f) for f in ("k", "wall_ms") if hasattr(row, f)}
                    trace.rows[-1] = replace(trace.rows[-2], **own)
                    state, obj = prev, f_prev
                if obj == f_prev:
                    trace.stop = "stalled"
                elif abs(obj - f_prev) <= tol * max(abs(f_prev), 1e-300):
                    trace.stop = "converged"
            if trace.stop is None and k == budget:
                trace.stop = "budget"
            if trace.stop is not None:
                return state, trace
            prev, f_prev, k = state, obj, k + 1
            state = step(state, row)
    except NumericalFaultError as err:
        raise NumericalFaultError(f"{err} at {where} {k}", trace=trace) from err


def block_sweeps(Xm, W, H, lam, delta, count, tol):
    """``(W, H, trace)`` of at most ``count`` sweeps from a checked start.

    The blocks trust the checked ``Xm``, ``(W, H)`` and ``lam >= 0``, so only
    rounding can raise the objective, judged against ``|X|^2 + |lam logdet|``.
    The :class:`ObjectiveRow` records run from ``k = 0``, the start; a start
    whose shifted Gram does not factor is a fault ``at sweep 0``.
    """
    xx = float(np.sum(Xm * Xm))

    def measure(state, k):
        W, H, logdet, _ = state
        obj = _objective_at(Xm, W, H, lam, logdet)
        return ObjectiveRow(k, obj), [("sweep objective", obj)], xx + abs(lam * logdet)

    def sweep(state, row):
        W, H, _, A = state
        Wt = solve_block(
            W.T, H.T, Xm.T, project_nonneg, BLOCK_ITERS, tol, "W-block", lam, A
        )
        W = np.ascontiguousarray(Wt.T)
        H = solve_block(H, W, Xm, project_H_columns, BLOCK_ITERS, tol, "H-block")
        # One factor per iterate: its objective's log-det and the next linearization.
        return (W, H, *shifted_gram(W, delta))

    def start():
        # One copy of W and one projection of H; every later W and H is a block output.
        return (W.copy(), project_H_columns(H), *shifted_gram(W, delta))

    (W, H, _, _), trace = _descend(start, measure, sweep, tol, count, "sweep")
    return W, H, trace


def lambda_from_init(X, W0, H0, lambda_tilde, delta):
    """Scale a reference weight by the fit/volume ratio of an init.

    Returns ``lambda_tilde * |X - W0 H0|_F^2 / |logdet(W0^T W0 + delta I)|``,
    the init-scaled weight of Leplat et al. (2019).  The log-determinant
    is negative when the init columns are small next to ``delta``; its
    absolute value makes the weight >= 0 for any ``lambda_tilde >= 0``, the
    one weight rule of both solvers.  A denominator within 1e-300 of zero
    is degenerate and raises ``NumericalFaultError``.
    """
    res = frobenius_norm(residual(as_matrix(X, "X"), W0, H0))
    denom = abs(shifted_gram(W0, delta)[0])
    if denom < 1e-300:
        raise NumericalFaultError(
            "logdet of the initial Gram is numerically zero; "
            "the init-scaled weight is undefined"
        )
    return float(lambda_tilde) * res * res / denom

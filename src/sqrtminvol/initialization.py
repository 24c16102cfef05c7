"""Greedy column-selection initializer for both solvers.

Builds ``W0`` from actual data columns: at each step the column of the
current residual with the largest Euclidean norm is selected, the full
coefficient matrix ``H0`` is refit under the capped-simplex constraint,
and the residual is updated.  On noiseless separable data (data columns
include the vertices themselves) this recovers the vertex set exactly.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericalFaultError
from .fgm import minimize_fgm
from .linalg import as_matrix, check_finite, spectral_norm
from .projections import project_H_columns

__all__ = ["SnpaResult", "nnls_capped_simplex", "snpa"]

# Refit budget per selection step.  It binds: on perfbench's uniform-r20
# draws (25 x 200, r = 20) 8-11 of the 20 refits, all the late ones, end on
# it, and SNPA is 81-84% of the solve (1 BLAS thread, 2-core x86-64 VM).
NNLS_ITERS = 500
NNLS_TOL = 1e-10


@dataclass
class SnpaResult:
    """Outcome of the greedy initializer.

    Attributes
    ----------
    selected_indices : list of int
        Distinct data-column indices, in selection order.
    W0 : ndarray, shape (m, r)
        The selected columns of ``X``, copied verbatim.
    H0 : ndarray, shape (r, n)
        Capped-simplex coefficients refit against all of ``X``.
    residual_norms : list of float
        Frobenius norm of ``X - W0 H0`` after each selection;
        non-increasing in the step index.
    """

    selected_indices: list = field(default_factory=list)
    W0: np.ndarray = None
    H0: np.ndarray = None
    residual_norms: list = field(default_factory=list)


def fit_coefficients(Wm, Xm, H0, iters, tol):
    """Run the accelerated projected-gradient refit of ``H``.

    Shared engine behind :func:`nnls_capped_simplex` and the H-block of
    the solvers.  Inputs are assumed validated and ``H0`` feasible.
    Everything the iteration needs is expressible through the small
    cross-products, so the big matrices are touched only once.
    """
    L = 2.0 * spectral_norm(Wm) ** 2
    check_finite(L, "H-block Lipschitz constant")
    if L <= 0.0:
        return H0
    G = Wm.T @ Wm
    B2 = 2.0 * (Wm.T @ Xm)
    xsq = float(np.sum(Xm * Xm))
    # The gradient is 2 G H - B2, so H - grad / L = P H + c.
    P = np.eye(G.shape[0]) - (2.0 / L) * G
    c = B2 / L

    # |X - W H|^2 = |X|^2 + <H, G H - 2 W^T X>: one r x r by r x n product.
    def objective(H):
        GH = G @ H
        GH -= B2
        return xsq + float(np.vdot(H, GH))

    def forward(H):
        Z = P @ H
        Z += c
        return Z

    H, _ = minimize_fgm(H0, objective, forward, project_H_columns, iters, tol)
    return H


def nnls_capped_simplex(W, X, H_init=None, iters=NNLS_ITERS, tol=NNLS_TOL):
    """Approximately minimize ``|X - W H|_F^2`` over capped-simplex columns.

    Accelerated projected gradient with step 1/L, L twice the largest
    eigenvalue of ``W^T W``.  The objective is non-increasing from
    ``H_init`` and the result is feasible.

    ``W`` must have no all-zero column; such a column makes the column
    scaling of the problem degenerate.
    """
    Wm = as_matrix(W, "W")
    Xm = as_matrix(X, "X")
    if Wm.shape[0] != Xm.shape[0]:
        raise InvalidInputError(
            f"W has {Wm.shape[0]} rows but X has {Xm.shape[0]}"
        )
    if not Wm.any(axis=0).all():
        raise InvalidInputError("W has an all-zero column")
    if H_init is None:
        H0 = np.zeros((Wm.shape[1], Xm.shape[1]))
    else:
        H0 = project_H_columns(as_matrix(H_init, "H_init"))
    return fit_coefficients(Wm, Xm, H0, iters, tol)


def _polish_columns(W0, X, H):
    """Exact least squares on each column's active support.

    The gradient refit identifies the right support long before its
    coefficient values settle; near an exact fit its progress also
    drowns in the rounding noise of the squared residual.  Solving the
    small support-restricted system in closed form fixes both, and a
    candidate is only accepted for a column when it is feasible and
    strictly lowers that column's residual, so no caller loses the
    descent guarantee.
    """
    G = W0.T @ W0
    B = W0.T @ X
    xx = np.sum(X * X, axis=0)
    r = W0.shape[1]
    Hp = H.copy()
    for j in range(X.shape[1]):
        h = H[:, j]
        idx = np.flatnonzero(h > 0.0)
        if idx.size == 0:
            continue
        Gs = G[np.ix_(idx, idx)]
        b = B[idx, j]
        best = float(xx[j] - 2.0 * (h @ B[:, j]) + h @ (G @ h))
        candidates = []
        try:
            candidates.append(np.linalg.solve(Gs, b))
        except np.linalg.LinAlgError:
            pass
        k = idx.size
        bordered = np.zeros((k + 1, k + 1))
        bordered[:k, :k] = Gs
        bordered[:k, k] = 1.0
        bordered[k, :k] = 1.0
        try:
            candidates.append(np.linalg.solve(bordered, np.append(b, 1.0))[:k])
        except np.linalg.LinAlgError:
            pass
        for cand in candidates:
            c = np.maximum(cand, 0.0)
            if float(c.sum()) > 1.0:
                continue
            full = np.zeros(r)
            full[idx] = c
            val = float(xx[j] - 2.0 * (full @ B[:, j]) + full @ (G @ full))
            if val < best:
                best = val
                Hp[:, j] = full
    return Hp


def snpa(X, r):
    """Select ``r`` data columns and refit coefficients greedily.

    Ties in the column-score argmax break toward the smallest index and
    already-selected columns are never picked twice, so the result is
    bit-for-bit reproducible.
    """
    Xm = as_matrix(X, "X")
    m, n = Xm.shape
    if np.min(Xm) < 0.0:
        raise InvalidInputError("X has negative entries")
    r = int(r)
    if not (0 < r <= min(m, n)):
        raise InvalidParameterError(
            f"rank must be in [1, min(m, n)] = [1, {min(m, n)}], got {r}"
        )

    # The squared column norms are the first scores.  Every later score,
    # Gram entry and residual is bounded by their sum, so if that sum
    # overflows, the fault is the scale of X, not a step further down.
    with np.errstate(over="ignore"):
        scores = np.sum(Xm * Xm, axis=0)
        if not np.isfinite(scores.sum()):
            raise NumericalFaultError(
                f"the squared norm of X overflows (largest entry {np.max(Xm):.3g}); "
                "rescale X"
            )
    # Zero data columns can never serve as vertices and would break the
    # refit, so they are excluded from selection alongside prior picks.
    blocked = scores == 0.0
    result = SnpaResult()
    H = np.zeros((0, n))
    for _ in range(r):
        scores[blocked] = -1.0
        j = int(np.argmax(scores))
        if scores[j] < 0.0:
            # The columns left have zero squared norms: a nonzero one underflows.
            if np.any(np.delete(Xm, result.selected_indices, axis=1)):
                raise NumericalFaultError(
                    "the squared norm of a nonzero column of X underflows "
                    f"(largest entry {np.max(Xm):.3g}); rescale X"
                )
            raise InvalidInputError(
                "rank exceeds the number of selectable nonzero columns"
            )
        result.selected_indices.append(j)
        blocked[j] = True
        W0 = Xm[:, result.selected_indices]
        H = nnls_capped_simplex(W0, Xm, np.vstack([H, np.zeros((1, n))]))
        R = Xm - W0 @ H
        R *= R  # squared residual entries: the next scores and the norm
        scores = np.sum(R, axis=0)
        result.residual_norms.append(float(np.sqrt(np.sum(R))))

    W0 = Xm[:, result.selected_indices]
    H = _polish_columns(W0, Xm, H)
    R = Xm - W0 @ H
    result.residual_norms[-1] = float(np.sqrt(np.sum(R * R)))
    result.W0 = W0.copy()
    result.H0 = H
    return result

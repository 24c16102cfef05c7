"""Euclidean projections onto the solver feasible set.

The feasible set couples a nonnegativity constraint on ``W`` with a
capped-simplex constraint on each column of ``H``: entries nonnegative
and the column sum at most one.  A column ``h`` projects to
``max(h - tau, 0)``, where ``tau`` is the largest prefix mean
``(u_1 + ... + u_k - 1) / k`` of ``h`` sorted in decreasing order
(Condat, "Fast projection onto the simplex and the l1 ball", Math.
Prog. 2016), clamped at 0.  The prefix means rise while ``u_k`` lies
above them and fall after, so their maximum is the sort-and-threshold
rule's threshold; it is at most 0 exactly when the positive entries
sum to at most 1, so the cap leaves feasible columns alone.
"""

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix

__all__ = [
    "project_nonneg",
    "project_capped_simplex",
    "project_H_columns",
    "require_feasible",
]

# Column sums may exceed 1 by accumulated rounding after a projection.
FEASIBILITY_SLACK = 1e-12


def project_nonneg(M):
    """Entrywise clamp to the nonnegative orthant."""
    return np.maximum(np.asarray(M, dtype=np.float64), 0.0)


def project_capped_simplex(v):
    """Project a vector onto ``{h >= 0, sum(h) <= 1}``.

    Clamps to the nonnegative orthant first; if the clamped vector
    already fits under the cap it is returned unchanged, otherwise the
    vector is projected onto the unit simplex.
    """
    w = np.asarray(v, dtype=np.float64)
    if w.ndim != 1:
        raise InvalidInputError(f"expected a vector, got ndim={w.ndim}")
    out = project_H_columns(w[:, None])
    return out[:, 0]


def project_H_columns(H):
    """Project every column of ``H`` onto the capped simplex.

    Columns are independent.  ``tau``, the largest prefix mean of the
    column sorted in decreasing order (Condat 2016), is at most 0
    exactly when the clamped column sums to at most 1; then
    ``max(h - max(tau, 0), 0)`` is the clamp alone, so feasible columns
    are returned bitwise unchanged.
    """
    A = np.asarray(H, dtype=np.float64)
    r = A.shape[0]
    # Sorted ascending, row k turns into the sum of the r - k largest
    # entries: suffix sums from the bottom, the same additions in the
    # same order as a cumulative sum of the decreasing sort.
    css = np.sort(A, axis=0)
    rows = list(css)
    for k in range(r - 2, -1, -1):
        rows[k] += rows[k + 1]
    css -= 1.0
    css /= np.arange(r, 0, -1, dtype=np.float64)[:, None]
    out = A - css.max(axis=0, initial=0.0)
    return np.maximum(out, 0.0, out=out)


def require_feasible(W, H, where="input"):
    """Raise ``InvalidInputError`` unless ``(W, H)`` lies in the feasible set."""
    Wm = as_matrix(W, "W")
    Hm = as_matrix(H, "H")
    if Wm.shape[1] != Hm.shape[0]:
        raise InvalidInputError(
            f"{where}: W has {Wm.shape[1]} columns but H has {Hm.shape[0]} rows"
        )
    if np.min(Wm) < 0.0:
        raise InvalidInputError(f"{where}: W has negative entries")
    if np.min(Hm) < 0.0:
        raise InvalidInputError(f"{where}: H has negative entries")
    worst = float(np.max(Hm.sum(axis=0)))
    if worst > 1.0 + FEASIBILITY_SLACK:
        raise InvalidInputError(
            f"{where}: H column sum {worst:.17g} exceeds the unit cap"
        )

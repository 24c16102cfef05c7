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

The sort is the costly step at the small ranks the solvers run at, and
for r <= 5 it is a fixed sorting network over whole rows, vectorized
across the columns (see ``project_H_columns``).  Which sort runs cannot
change a bit of the output: a sorted column is unique up to the order
of +0.0 and -0.0, which can flip only the sign of a suffix sum that is
zero, and that sum loses its sign when 1 is subtracted.  A column with
a NaN comes out all NaN either way.
"""

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix

__all__ = [
    "project_nonneg",
    "project_H_columns",
    "require_feasible",
]

# Column sums may exceed 1 by accumulated rounding after a projection.
FEASIBILITY_SLACK = 1e-12

# Optimal sorting networks (Knuth, TAOCP vol. 3, section 5.3.4) for r
# rows: each pair (i, j), i < j, puts the smaller entry in row i.
SORTING_NETWORKS = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (1, 2), (0, 1)),
    4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)),
    5: ((0, 1), (3, 4), (2, 4), (2, 3), (1, 4), (0, 3), (0, 2), (1, 3), (1, 2)),
}


def project_nonneg(M):
    """Entrywise clamp to the nonnegative orthant."""
    return np.maximum(np.asarray(M, dtype=np.float64), 0.0)


def project_H_columns(H):
    """Project every column of ``H`` onto the capped simplex.

    Columns are independent.  ``tau``, the largest prefix mean of the
    column sorted in decreasing order (Condat 2016), is at most 0
    exactly when the clamped column sums to at most 1; then
    ``max(h - max(tau, 0), 0)`` is the clamp alone, so feasible columns
    are returned bitwise unchanged.

    The rows are sorted in one (r, n) copy of ``H``: by the comparators
    of ``SORTING_NETWORKS`` for r <= 5, each one a ``minimum`` and a
    ``maximum`` of two whole rows, and above that by
    ``ndarray.sort(axis=0)``, which sorts one short column at a time.
    Median times per call, column sort -> network, on a 2-core x86-64
    VM with 1 BLAS thread and numpy 2.4 (41 alternating runs of 300
    calls on overfull Dirichlet columns):

    - r = 4: 48 -> 30 us at n = 500, 85 -> 40 us at n = 1000;
    - r = 5: 53 -> 42 us at n = 500, 100 -> 61 us at n = 1000;
    - r = 6, a 12-comparator network: 58 -> 51 us at n = 500 but
      32 -> 33 us at n = 200, so the cutoff stays at 5.

    The network's cost is per comparator and the sort's per column, so
    on few columns the sort is cheaper: 14 against 17 us at r = 4,
    n = 60, and 31 against 35 us at r = 5, n = 200.  Those calls are
    cheap either way, and the choice depends on r alone.
    """
    A = np.asarray(H, dtype=np.float64)
    r = A.shape[0]
    css = A.copy()
    rows = list(css)
    network = SORTING_NETWORKS.get(r)
    if network is None:
        css.sort(axis=0)
    else:
        low = np.empty_like(rows[0])
        for i, j in network:
            np.minimum(rows[i], rows[j], out=low)
            np.maximum(rows[i], rows[j], out=rows[j])
            rows[i][...] = low
    # Sorted ascending, row k turns into the sum of the r - k largest
    # entries: suffix sums from the bottom, the same additions in the
    # same order as a cumulative sum of the decreasing sort.
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

"""Recovery metrics: fit error on X and column-matched error on W.

Factorizations are only identifiable up to a permutation of the rank-r
components, so errors on W are measured after optimally matching
estimated columns to true ones.  The matching is a linear assignment
problem on an r x r cost matrix, solved exactly by the Hungarian method
in numpy.  The 2-D picture of data and vertices that the paper draws is
a demo, ``demos/paper_picture.py``, not part of the package.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .linalg import as_matrix, frobenius_norm, residual

__all__ = [
    "rel_rmse_X",
    "AlignmentResult",
    "align_columns",
    "rel_rmse_W",
]


def rel_rmse_X(X_star, W, H):
    """Relative reconstruction error ``|X* - W H|_F / |X*|_F``."""
    Xs = as_matrix(X_star, "X_star")
    R = residual(Xs, W, H, "X_star")
    denom = frobenius_norm(Xs)
    if denom == 0.0:
        raise InvalidInputError("rel_rmse_X undefined for a zero reference matrix")
    return frobenius_norm(R) / denom


@dataclass(frozen=True)
class AlignmentResult:
    """Optimal matching of estimated columns to reference columns.

    ``permutation[t]`` is the estimated-column index assigned to
    reference column ``t``; ``cost`` is the total squared distance of
    the matching.
    """

    permutation: np.ndarray
    cost: float


def _min_cost_assignment(C):
    """Column assigned to each row of a square cost matrix, at least total cost.

    Kuhn-Munkres in the shortest-augmenting-path form of Jonker and
    Volgenant, O(r^3).  Rows join the matching one at a time: a Dijkstra
    search over the reduced costs ``C[i, j] - u[i] - v[j]`` grows from
    the new row to the nearest free column, the dual potentials ``u, v``
    absorb the distances, and the matching is flipped along the path.
    Index 0 of the column arrays is the virtual column holding the new
    row, so rows and columns are numbered from 1 inside.
    """
    r = C.shape[0]
    cost = np.zeros((r + 1, r + 1))
    cost[1:, 1:] = C
    u = np.zeros(r + 1)
    v = np.zeros(r + 1)
    row_of = np.zeros(r + 1, dtype=np.intp)  # 0 marks a free column
    way = np.zeros(r + 1, dtype=np.intp)
    for i in range(1, r + 1):
        row_of[0] = i
        j0 = 0
        dist = np.full(r + 1, np.inf)
        used = np.zeros(r + 1, dtype=bool)
        while row_of[j0] != 0:
            used[j0] = True
            i0 = row_of[j0]
            reduced = cost[i0] - u[i0] - v
            closer = ~used & (reduced < dist)
            dist[closer] = reduced[closer]
            way[closer] = j0
            j0 = int(np.argmin(np.where(used, np.inf, dist)))
            step = dist[j0]
            u[row_of[used]] += step
            v[used] -= step
            dist[~used] -= step
        while j0 != 0:
            prev = way[j0]
            row_of[j0] = row_of[prev]
            j0 = prev
    col_of = np.empty(r, dtype=np.intp)
    col_of[row_of[1:] - 1] = np.arange(r)
    return col_of


def align_columns(W_star, W_hat):
    """Match columns of ``W_hat`` to ``W_star`` minimizing total squared distance."""
    Ws = as_matrix(W_star, "W_star")
    Wh = as_matrix(W_hat, "W_hat")
    if Ws.shape != Wh.shape:
        raise InvalidInputError(
            f"column alignment needs equal shapes, got {Ws.shape} and {Wh.shape}"
        )
    # C[t, j] = |W_star[:, t] - W_hat[:, j]|^2, expanded to avoid an
    # m x r x r intermediate.
    ss = np.sum(Ws * Ws, axis=0)
    hh = np.sum(Wh * Wh, axis=0)
    C = ss[:, None] + hh[None, :] - 2.0 * (Ws.T @ Wh)
    np.maximum(C, 0.0, out=C)
    cols = _min_cost_assignment(C)
    cost = float(C[np.arange(C.shape[0]), cols].sum())
    return AlignmentResult(permutation=cols, cost=cost)


def rel_rmse_W(W_star, W_hat):
    """Relative error on W after optimal column matching."""
    Ws = as_matrix(W_star, "W_star")
    denom = frobenius_norm(Ws)
    if denom == 0.0:
        raise InvalidInputError("rel_rmse_W undefined for a zero reference matrix")
    res = align_columns(Ws, W_hat)
    aligned = as_matrix(W_hat, "W_hat")[:, res.permutation]
    return frobenius_norm(Ws - aligned) / denom

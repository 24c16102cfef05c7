"""Independent reference implementations used to cross-check the kernels.

Everything here is written the slow, obvious way (explicit loops,
cofactor expansion, exhaustive enumeration) on purpose: these are the
yardsticks the fast library code is measured against, so they must not
share any code path with it.

The last section is different: the closed-form gradients of both
objectives and the majorizing surrogate of the square-root method.  The
solvers never evaluate them, so they live here, built on the package's
kernels, and the tests check them against finite differences and
``f_eps``.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from sqrtminvol.linalg import as_matrix, shifted_gram
from sqrtminvol.solver import residual_r


def frob_oracle(M):
    """Frobenius norm by direct double-loop summation."""
    total = 0.0
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            total += float(M[i, j]) * float(M[i, j])
    return math.sqrt(total)


def clamp_oracle(M):
    """Entrywise max(x, 0) by explicit loops."""
    R = np.empty_like(np.asarray(M, dtype=float))
    for i in range(R.shape[0]):
        for j in range(R.shape[1]):
            x = float(M[i, j])
            R[i, j] = x if x > 0.0 else 0.0
    return R


def cofactor_det(A):
    """Determinant by recursive cofactor expansion along the first row."""
    A = [[float(x) for x in row] for row in np.asarray(A)]
    n = len(A)
    if n == 1:
        return A[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in A[1:]]
        total += ((-1.0) ** j) * A[0][j] * cofactor_det(minor)
    return total


def gauss_solve(A, B):
    """Solve A X = B by Gaussian elimination with partial pivoting."""
    A = np.array(A, dtype=float)
    B = np.array(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    n = A.shape[0]
    M = np.hstack([A, B])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(M[col:, col])))
        if pivot != col:
            M[[col, pivot]] = M[[pivot, col]]
        M[col] = M[col] / M[col, col]
        for row in range(n):
            if row != col:
                M[row] = M[row] - M[row, col] * M[col]
    return M[:, n:]


def jacobi_eigenvalues(S, sweeps=100, tol=1e-14):
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    A = np.array(S, dtype=float)
    n = A.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += A[p, q] * A[p, q]
        if off <= tol * tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if A[p, q] == 0.0:
                    continue
                theta = 0.5 * math.atan2(2.0 * A[p, q], A[q, q] - A[p, p])
                c, s = math.cos(theta), math.sin(theta)
                J = np.eye(n)
                J[p, p] = c
                J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
    return np.sort(np.diag(A))


def jacobi_svd_values(M, sweeps=100, tol=1e-14):
    """Singular values by one-sided Jacobi: rotate columns until orthogonal."""
    U = np.array(M, dtype=float)
    if U.shape[0] < U.shape[1]:
        U = U.T
    n = U.shape[1]
    for _ in range(sweeps):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                app = float(U[:, p] @ U[:, p])
                aqq = float(U[:, q] @ U[:, q])
                apq = float(U[:, p] @ U[:, q])
                if abs(apq) <= tol * math.sqrt(app * aqq) + tol:
                    continue
                theta = 0.5 * math.atan2(2.0 * apq, aqq - app)
                c, s = math.cos(theta), math.sin(theta)
                up = c * U[:, p] - s * U[:, q]
                uq = s * U[:, p] + c * U[:, q]
                U[:, p], U[:, q] = up, uq
                rotated = True
        if not rotated:
            break
    return np.sort([math.sqrt(float(U[:, j] @ U[:, j])) for j in range(n)])


def proj_capped_oracle(v):
    """Projection onto {x >= 0, sum(x) <= 1} by exhaustive support search.

    Every support set is tried, with and without the sum constraint
    active; the feasible candidate of least distance wins.  All
    arithmetic is exact (rational), because float rounding of the
    objective can merge candidates whose true distances differ by less
    than an ulp and then report the wrong one; the projection is unique,
    so the exact comparison never ties on distinct points.
    """
    v = np.asarray(v, dtype=float)
    k = v.size
    vf = [Fraction(x) for x in v.tolist()]
    one = Fraction(1)
    best, best_obj = None, None
    for mask in itertools.product((0, 1), repeat=k):
        F = [i for i in range(k) if mask[i]]
        for active in (False, True):
            x = [Fraction(0)] * k
            if F:
                if active:
                    tau = (sum(vf[i] for i in F) - one) / len(F)
                    for i in F:
                        x[i] = vf[i] - tau
                else:
                    for i in F:
                        x[i] = vf[i]
            if min(x) < 0 or sum(x) > one:
                continue
            obj = sum((xi - vi) ** 2 for xi, vi in zip(x, vf))
            if best_obj is None or obj < best_obj:
                best, best_obj = x, obj
    return np.array([float(xi) for xi in best])


def proj_capped_cumsum(H):
    """Column-wise capped-simplex projection by a cumulative sum.

    The threshold of each column is its largest prefix mean
    ``(u_1 + ... + u_k - 1) / k`` over the decreasing sort, clamped at
    0, with the prefix sums taken by ``np.cumsum``.  The library forms
    the same sums as in-place suffix sums and must agree bit for bit.
    """
    A = np.asarray(H, dtype=float)
    css = np.cumsum(np.sort(A, axis=0)[::-1], axis=0)
    css -= 1.0
    css /= np.arange(1, A.shape[0] + 1, dtype=float)[:, None]
    return np.maximum(A - css.max(axis=0, initial=0.0), 0.0)


def fgm_gradient_form(x0, objective, gradient, project, L, iters, tol):
    """Accelerated projected gradient written with ``gradient`` and ``L``.

    The step is ``project(y - gradient(y) / L)``, with fast-gradient
    momentum; an ascent drops the momentum for one plain step, and an
    ascent of the plain step stops the run.  The library engine takes
    the same step as one caller-supplied affine map instead, so the
    two follow the same iterates up to rounding.
    """
    fx = objective(x0)
    if L <= 0.0:
        return x0, fx
    x, y, t = x0, x0, 1.0
    step = 1.0 / L
    for _ in range(int(iters)):
        xn = project(y - step * gradient(y))
        fn = objective(xn)
        if fn > fx:
            xn = project(x - step * gradient(x))
            fn = objective(xn)
            if fn > fx:
                return x, fx
            t = 1.0
        done = (fx - fn) <= tol * max(abs(fx), 1e-300)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        y = xn + ((t - 1.0) / t_next) * (xn - x)
        x, fx, t = xn, fn, t_next
        if done:
            break
    return x, fx


def nnls_capped_oracle(W, x):
    """argmin |x - W h|^2 over {h >= 0, sum(h) <= 1}, exhaustively.

    KKT systems for every support set are solved by Gaussian
    elimination; candidates are screened by feasibility and compared by
    objective value.  Intended for rank <= 4.
    """
    W = np.asarray(W, dtype=float)
    x = np.asarray(x, dtype=float).ravel()
    k = W.shape[1]
    G = W.T @ W
    b = W.T @ x
    best, best_obj = np.zeros(k), float(x @ x)
    for mask in itertools.product((0, 1), repeat=k):
        F = [i for i in range(k) if mask[i]]
        if not F:
            continue
        GF = G[np.ix_(F, F)]
        bF = b[F]
        for active in (False, True):
            h = np.zeros(k)
            try:
                if active:
                    # Bordered system for the equality-constrained case.
                    nf = len(F)
                    K = np.zeros((nf + 1, nf + 1))
                    K[:nf, :nf] = GF
                    K[:nf, nf] = 1.0
                    K[nf, :nf] = 1.0
                    rhs = np.append(bF, 1.0)
                    sol = gauss_solve(K, rhs).ravel()
                    hF = sol[:nf]
                else:
                    hF = gauss_solve(GF, bF).ravel()
            except (ZeroDivisionError, FloatingPointError):
                continue
            if not np.all(np.isfinite(hF)):
                continue
            h[F] = hF
            if h.min() < -1e-10 or h.sum() > 1.0 + 1e-10:
                continue
            r = x - W @ np.clip(h, 0.0, None)
            obj = float(r @ r)
            if obj < best_obj - 1e-15:
                best, best_obj = np.clip(h, 0.0, None), obj
    return best


def fd_grad(fun, M, step=1e-6):
    """Central finite-difference gradient of a scalar function of a matrix."""
    M = np.asarray(M, dtype=float)
    G = np.zeros_like(M)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            P = M.copy()
            P[i, j] += step
            up = fun(P)
            P[i, j] -= 2.0 * step
            down = fun(P)
            G[i, j] = (up - down) / (2.0 * step)
    return G


def assignment_brute_force(C):
    """Least total cost of a row-to-column matching, over all permutations."""
    C = np.asarray(C, dtype=float)
    r = C.shape[0]
    perms = np.array(list(itertools.permutations(range(r))))
    return float(C[np.arange(r), perms].sum(axis=1).min())


def align_brute_force(W_star, W_hat):
    """Best column matching by trying all permutations; returns (perm, cost)."""
    Ws = np.asarray(W_star, dtype=float)
    Wh = np.asarray(W_hat, dtype=float)
    r = Ws.shape[1]
    best_perm, best_cost = None, None
    for perm in itertools.permutations(range(r)):
        cost = 0.0
        for t in range(r):
            d = Ws[:, t] - Wh[:, perm[t]]
            cost += float(d @ d)
        if best_cost is None or cost < best_cost:
            best_perm, best_cost = perm, cost
    return np.array(best_perm), best_cost


# Test-only maths of the solvers: gradients and the MM surrogate.


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


def f_eps_grad(X, W, H, lam, delta, epsilon):
    """Gradients of ``f_eps`` with respect to W and H.

    Returns the pair ``(G_W, G_H)`` where
    ``G_W = (W H - X) H^T / sqrt(r) + 2 lam W Q^{-1}`` and
    ``G_H = W^T (W H - X) / sqrt(r)``.
    """
    Xm = as_matrix(X, "X")
    Wm = as_matrix(W, "W")
    Hm = as_matrix(H, "H")
    E = Wm @ Hm - Xm
    sr = float(np.sqrt(np.sum(E * E) + float(epsilon)))
    _, Qinv = shifted_gram(Wm, delta)
    Gw = (E @ Hm.T) / sr + 2.0 * float(lam) * (Wm @ Qinv)
    Gh = (Wm.T @ E) / sr
    return Gw, Gh


def surrogate_g(W, H, W_k, H_k, X, lam, delta, epsilon):
    """Majorization of ``f_eps`` anchored at ``(W_k, H_k)``.

    Tangent bound on the square root plus linearization of the logdet:

    ``sqrt(r_k) + (|X - W H|_F^2 + eps - r_k) / (2 sqrt(r_k))
    + lam * (logdet(Q_k) + tr(Q_k^{-1} (Q - Q_k)))``

    with ``Q = W^T W + delta I`` and the anchor quantities ``r_k``,
    ``Q_k`` evaluated at ``(W_k, H_k)``.  Equals ``f_eps(W, H)`` at the
    anchor and dominates it everywhere else.
    """
    Xm = as_matrix(X, "X")
    rk = residual_r(Xm, W_k, H_k, epsilon)
    sq = float(np.sqrt(rk))
    r_new = residual_r(Xm, W, H, epsilon)
    logdet_k, Qk_inv = shifted_gram(W_k, delta)
    Wm = as_matrix(W, "W")
    Q = Wm.T @ Wm + float(delta) * np.eye(Wm.shape[1])
    trace_term = float(np.trace(Qk_inv @ Q)) - Wm.shape[1]
    return sq + (r_new - rk) / (2.0 * sq) + float(lam) * (logdet_k + trace_term)

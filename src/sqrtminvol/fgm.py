"""Accelerated projected gradient descent with monotone restarts.

:func:`solve_block` is the one place a block subproblem is posed: it
minimizes ``|Y - F x|_F^2 + lam <x, A x>`` over the set a projection
encodes.  The H block (also the initializer's refits) has ``x = H``,
``F = W`` and ``Y = X``; the W block has ``x = W^T``, ``F = H^T``,
``Y = X^T`` and the penalty ``lam A``.  It forms ``G = F^T F + lam A`` and
``B2 = 2 F^T Y`` once for :func:`minimize_fgm`, which minimizes
``xsq + <x, G x - B2>``; with ``L`` the gradient Lipschitz constant, its
step ``x - grad / L`` is the affine map ``P x + c`` with
``P = I - (2/L) G`` and ``c = B2 / L``.

The momentum sequence is the usual fast-gradient one; whenever an
extrapolated step would increase the objective the momentum is dropped
and a plain projected step is taken instead.  With the exact Lipschitz
constant that plain step of length 1/L is a descent step; if rounding
in the objective still makes it look like an ascent, the engine stops
and returns the current iterate, so the objective never increases
across iterations.
"""

import math

import numpy as np

from .errors import NumericalFaultError
from .linalg import check_finite

__all__ = ["minimize_fgm", "solve_block"]


def _top_eigenvalue(S):
    """Largest eigenvalue of the symmetric r x r ``S``; ``eigvalsh`` failing is a fault."""
    try:
        top = np.linalg.eigvalsh(S)[-1]
    except np.linalg.LinAlgError:
        # eigvalsh does not converge on a Gram whose entries overflowed to inf.
        top = np.inf
    return float(check_finite(top, "top eigenvalue of an overflowing Gram"))


def solve_block(x0, F, Y, project, iters, tol, name, lam=0.0, A=None):
    """Minimize ``|Y - F x|_F^2 + lam <x, A x>`` over the set ``project`` encodes.

    ``x0`` is a feasible start, never written to; ``F`` and ``Y`` are checked
    and have as many rows, ``lam >= 0`` and ``A`` is a symmetric PSD r x r
    matrix or None.  ``L = 2 (s_max(F^T F) + lam s_max(A))``, from the one
    Gram ``F^T F``, bounds the gradient's Lipschitz constant, so each step
    1/L descends; an L that is not finite raises ``NumericalFaultError``
    naming the ``name`` block.
    """
    G = F.T @ F
    top = _top_eigenvalue(G)
    if A is not None:
        top += lam * _top_eigenvalue(A)
    L = check_finite(2.0 * top, f"{name} Lipschitz constant")
    if A is not None:
        G += lam * A
    xsq = float(np.sum(Y * Y))
    return minimize_fgm(x0, G, 2.0 * (F.T @ Y), xsq, L, project, iters, tol)


def minimize_fgm(x0, G, B2, xsq, L, project, iters, tol):
    """Minimize ``xsq + <x, G x - B2>`` over the set encoded by ``project``.

    ``x0`` is a feasible start, never written to; ``G`` is the block's
    symmetric PSD r x r Gram, ``B2`` is shaped like ``x0`` and ``L`` bounds
    ``2 s_max(G)``.  Runs at most ``iters`` steps, and stops once a step
    lowers the objective by at most ``tol`` relative.  Returns the final
    iterate, no worse than ``x0``, or ``x0`` itself when ``L <= 0`` (a zero
    gradient).  A step ``2 / L`` that is not finite, as at a subnormal
    ``L``, raises ``NumericalFaultError``.
    """
    if L <= 0.0:
        return x0
    step = 2.0 / L
    if not math.isfinite(step):
        raise NumericalFaultError(f"the gradient step 2/L is not finite (L = {L:.3g})")
    P = np.eye(G.shape[0]) - step * G
    c = B2 / L

    def objective(x):
        Gx = G @ x
        Gx -= B2
        return xsq + float(np.vdot(x, Gx))

    def forward(y):
        Z = P @ y
        Z += c
        return Z

    fx = objective(x0)
    x = x0
    y = x0
    t = 1.0
    for _ in range(int(iters)):
        xn = project(forward(y))
        fn = objective(xn)
        if fn > fx:
            # Momentum overshot; retry as plain projected gradient.
            xn = project(forward(x))
            fn = objective(xn)
            if fn > fx:
                return x
            t = 1.0
        done = (fx - fn) <= tol * max(abs(fx), 1e-300)
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        # y = xn + beta (xn - x), in one fresh buffer.
        y = xn - x
        y *= (t - 1.0) / t_next
        y += xn
        x, fx, t = xn, fn, t_next
        if done:
            break
    return x

"""Accelerated projected gradient descent with monotone restarts.

One engine serves every block subproblem in the package (H given W,
W given H, and the coefficient refits inside the initializer).  The
caller supplies the gradient step as one map, ``forward(y) = y -
grad f(y) / L`` with ``L`` the gradient Lipschitz constant; every block
objective here is quadratic, so that map is affine and costs one matmul
(``P @ y + c`` or ``y @ P + c``).  A caller whose ``L`` is not positive
has a zero gradient and returns its start without calling the engine.

The momentum sequence is the usual fast-gradient one; whenever an
extrapolated step would increase the objective the momentum is dropped
and a plain projected step is taken instead.  With the exact Lipschitz
constant that plain step of length 1/L is a descent step; if rounding
in the objective still makes it look like an ascent, the engine stops
and returns the current iterate, so the objective never increases
across iterations.
"""

import math

__all__ = ["minimize_fgm"]


def minimize_fgm(x0, objective, forward, project, iters, tol):
    """Minimize ``objective`` over the set encoded by ``project``.

    Parameters
    ----------
    x0 : ndarray
        Feasible starting point; it is never written to.
    objective : callable
        Smooth objective, taking one array.
    forward : callable
        Gradient step ``y - grad f(y) / L``, returning a new array.
    project : callable
        Euclidean projection onto the feasible set.
    iters : int
        Iteration budget.
    tol : float
        Stop once the per-iteration relative objective decrease falls
        below this.

    Returns
    -------
    (x, fx) : ndarray, float
        Final iterate and objective value, with fx <= objective(x0).
    """
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
                return x, fx
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
    return x, fx

"""Square-root minimum-volume NMF via majorization-minimization.

The objective is ``f_eps(W, H) = sqrt(|X - W H|_F^2 + eps)
+ lam * logdet(W^T W + delta I)`` over the feasible set.  Taking the
square root of the quadratic loss makes the useful range of ``lam``
insensitive to the (unknown) noise scale; the small ``eps`` keeps the
loss differentiable at exact fits.

Each outer iteration majorizes ``f_eps`` at the current pair: the
concave square root is bounded by its tangent line and the concave
logdet by its linearization.  Up to constants the surrogate is the
quadratic-loss penalized problem with an effective weight
``lambda_k = 2 * lam * sqrt(r_k)``, ``r_k`` the current squared
residual plus ``eps``, so minimizing it is one warm-started run of the
block coordinate descent solver.  Because ``sqrt(r_k)`` tracks the
residual, the penalty weight scales itself down as the fit improves.

Note the effective weight multiplies the fixed user ``lam`` each time,
rather than recursively rescaling the previous weight; the recursive
form would compound the factor geometrically and is not what the
majorization yields.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidParameterError, NumericalFaultError
from .linalg import (
    as_matrix,
    cholesky_shifted,
    frobenius_norm,
    gram_shifted,
    logdet_shifted,
    solve_spd,
)
from .metrics import rel_rmse_W, rel_rmse_X
from .baseline import MinvolConfig, lambda_from_init, minvol
from .projections import require_feasible
from .initialization import snpa

__all__ = [
    "SqrtConfig",
    "FactorPair",
    "TraceRow",
    "SolveTrace",
    "f_eps",
    "f_eps_grad",
    "residual_r",
    "lambda_k",
    "sigma_hat",
    "surrogate_g",
    "sqrt_minvol",
    "solve",
]

TRACE_HEADER = "k,f_eps,r_k,lambda_k,sigma_hat,rel_rmse_X,rel_rmse_W,wall_ms"


def _default_inner():
    # Per outer iteration the surrogate only needs to be improved, not
    # solved to stationarity; 20 warm-started sweeps do that while the
    # tiny tolerance keeps late sweeps from quitting before the budget.
    return MinvolConfig(lam=0.0, outer_sweeps=20, tol_rel_obj=1e-13)


@dataclass(frozen=True)
class SqrtConfig:
    """Configuration of the square-root solver.

    Attributes
    ----------
    lam : float
        Volume-penalty weight; zero disables the penalty entirely.
    delta : float
        Diagonal shift inside the logdet; the default is
        ``MinvolConfig.delta`` (0.1), the one place it is set.
    epsilon : float
        Smoothing constant added to the squared residual, default 0.1.
        Note ``sqrt(eps)`` floors the self-scaling: the effective inner
        weight can never drop below ``2 * lam * sqrt(eps)``.
    max_outer : int
        Outer (majorization) iteration budget, default 200.
    tol_rel_f : float
        Relative change of ``f_eps`` that stops the outer loop.
    inner : MinvolConfig
        Budget of each inner solve; its ``lam`` and ``delta`` fields are
        overwritten per iteration.
    """

    lam: float
    delta: float = MinvolConfig.delta
    epsilon: float = 0.1
    max_outer: int = 200
    tol_rel_f: float = 1e-9
    inner: MinvolConfig = field(default_factory=_default_inner)

    def __post_init__(self):
        if self.lam < 0.0:
            raise InvalidParameterError(f"lam must be >= 0, got {self.lam}")
        if not (self.delta > 0.0):
            raise InvalidParameterError(f"delta must be > 0, got {self.delta}")
        if not (self.epsilon > 0.0):
            raise InvalidParameterError(f"epsilon must be > 0, got {self.epsilon}")
        if self.max_outer < 1:
            raise InvalidParameterError("max_outer must be >= 1")
        if not (self.tol_rel_f > 0.0):
            raise InvalidParameterError(f"tol_rel_f must be > 0, got {self.tol_rel_f}")


@dataclass(frozen=True)
class FactorPair:
    """A feasible (W, H) pair with its target rank."""

    W: np.ndarray
    H: np.ndarray
    rank: int


@dataclass
class TraceRow:
    """One outer-iteration record of :func:`sqrt_minvol`."""

    k: int
    f_eps: float
    r_k: float
    lambda_k: float
    sigma_hat: float
    rel_rmse_X: float = None
    rel_rmse_W: float = None
    wall_ms: float = 0.0


@dataclass
class SolveTrace:
    """Append-only trace of a solve; serializes to CSV.

    ``stop`` says why the outer loop ended, tested in this order:
    ``"stalled"`` when ``f_eps`` repeated its previous value exactly (the
    inner solves made no progress at all), ``"converged"`` when it moved
    by at most ``tol_rel_f`` relative, and ``"budget"`` when ``max_outer``
    iterations ran.  It is None while the solve runs or after a fault.
    """

    rows: list = field(default_factory=list)
    stop: str = None

    def write_csv(self, fh):
        """Write the trace to an open text file handle."""

        def fmt(x):
            return "" if x is None else f"{x:.17g}"

        fh.write(TRACE_HEADER + "\n")
        for row in self.rows:
            fh.write(
                f"{row.k},{fmt(row.f_eps)},{fmt(row.r_k)},{fmt(row.lambda_k)},"
                f"{fmt(row.sigma_hat)},{fmt(row.rel_rmse_X)},{fmt(row.rel_rmse_W)},"
                f"{row.wall_ms:.3f}\n"
            )


def residual_r(X, W, H, epsilon):
    """Squared Frobenius residual plus the smoothing constant."""
    if not (float(epsilon) > 0.0):
        raise InvalidParameterError(f"epsilon must be > 0, got {epsilon}")
    Xm = as_matrix(X, "X")
    res = frobenius_norm(Xm - np.asarray(W) @ np.asarray(H))
    return res * res + float(epsilon)


def lambda_k(r_k, lam):
    """Effective inner penalty weight ``2 * lam * sqrt(r_k)``."""
    r_k = float(r_k)
    if not (r_k > 0.0):
        raise InvalidParameterError(f"r_k must be > 0, got {r_k}")
    return float(2.0 * float(lam) * np.sqrt(r_k))


def _sigma_hat_at(r, shape):
    m, n = shape
    return float(np.sqrt(r) / (m * n))


def sigma_hat(X, W, H, epsilon):
    """Residual-based noise-scale estimate ``sqrt(r) / (m n)``."""
    Xm = as_matrix(X, "X")
    return _sigma_hat_at(residual_r(Xm, W, H, epsilon), Xm.shape)


def _f_eps_at(r, W, lam, delta):
    return float(np.sqrt(r)) + float(lam) * logdet_shifted(W, delta)


def f_eps(X, W, H, lam, delta, epsilon):
    """Smoothed square-root objective value."""
    require_feasible(W, H, "f_eps")
    return _f_eps_at(residual_r(X, W, H, epsilon), W, lam, delta)


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
    F = cholesky_shifted(Wm, delta)
    Qinv = solve_spd(F, np.eye(F.dim))
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
    Fk = cholesky_shifted(W_k, delta)
    trace_term = float(np.trace(solve_spd(Fk, gram_shifted(W, delta)))) - Fk.dim
    return sq + (r_new - rk) / (2.0 * sq) + float(lam) * (
        logdet_shifted(W_k, delta) + trace_term
    )


def sqrt_minvol(X, r, config, ground_truth=None):
    """Run the full solver: greedy initialization plus the MM loop.

    Parameters
    ----------
    X : array_like, shape (m, n)
        Nonnegative data matrix.
    r : int
        Target rank.
    config : SqrtConfig
    ground_truth : tuple, optional
        ``(W_star, X_star)``; when given, recovery errors are recorded
        in the trace at every outer iteration.

    Returns
    -------
    (FactorPair, SolveTrace)

    Raises
    ------
    NumericalFaultError
        If the objective turns non-finite; the partial trace rides on
        the exception so callers can flush it.
    """
    Xm = as_matrix(X, "X")
    W_star = X_star = None
    if ground_truth is not None:
        W_star, X_star = ground_truth

    trace = SolveTrace()
    t0 = time.perf_counter()
    init = snpa(Xm, r)
    W, H = init.W0, init.H0
    wall = time.perf_counter() - t0

    f_prev = None
    for k in range(1, config.max_outer + 1):
        # One residual X - W H per iteration serves f_eps, r_k and sigma_hat.
        require_feasible(W, H, "f_eps")
        rk = residual_r(Xm, W, H, config.epsilon)
        fk = _f_eps_at(rk, W, config.lam, config.delta)
        lamk = lambda_k(rk, config.lam)
        row = TraceRow(
            k=k,
            f_eps=fk,
            r_k=rk,
            lambda_k=lamk,
            sigma_hat=_sigma_hat_at(rk, Xm.shape),
            wall_ms=wall * 1000.0,
        )
        if X_star is not None:
            row.rel_rmse_X = rel_rmse_X(X_star, W, H)
        if W_star is not None:
            row.rel_rmse_W = rel_rmse_W(W_star, W)
        trace.rows.append(row)

        if not np.isfinite(fk):
            raise NumericalFaultError(
                f"non-finite objective at outer iteration {k}", trace=trace
            )
        if f_prev is not None and fk == f_prev:
            trace.stop = "stalled"
        elif f_prev is not None and abs(fk - f_prev) <= config.tol_rel_f * max(
            abs(f_prev), 1e-300
        ):
            trace.stop = "converged"
        elif k == config.max_outer:
            trace.stop = "budget"
        if trace.stop is not None:
            break
        f_prev = fk

        t0 = time.perf_counter()
        inner_cfg = replace(config.inner, lam=lamk, delta=config.delta)
        state = minvol(Xm, r, W, H, inner_cfg)
        W, H = state.W, state.H
        wall = time.perf_counter() - t0

    return FactorPair(W=W, H=H, rank=int(r)), trace


def solve(
    X,
    r,
    solver,
    lam=None,
    lambda_tilde=None,
    delta=None,
    epsilon=None,
    max_outer=None,
    tol=None,
    inner_iters=None,
    ground_truth=None,
):
    """Factor ``X`` from the SNPA start; the one solve path of CLI and sweeps.

    ``solver`` is ``"sqrt-minvol"`` or ``"minvol-baseline"``.  The weight
    is ``lam``, used as given, or for the baseline only ``lambda_tilde``,
    rescaled by ``lambda_from_init`` at the start.  ``max_outer`` counts
    outer iterations of ``sqrt-minvol`` and sweeps of the baseline,
    ``tol`` stops either outer loop, and ``inner_iters`` budgets each
    block update.  ``epsilon`` (an error for the baseline) and
    ``ground_truth`` (``(W_star, X_star)``, recorded in every trace row)
    apply to ``sqrt-minvol`` only.  A setting left at None takes its
    default from :class:`SqrtConfig` or
    :class:`~sqrtminvol.baseline.MinvolConfig`.

    Returns ``(W, H, lam, final_obj, outer_iters, trace)``: the factors,
    the weight the solver used, the last objective value, the number of
    outer iterations, and the trace ``trace.csv`` is written from (a
    :class:`SolveTrace`, or the baseline's ``MinvolState``).
    """

    def given(**settings):
        return {key: v for key, v in settings.items() if v is not None}

    inner = given(inner_iters_per_block=inner_iters)
    if solver == "sqrt-minvol":
        cfg = SqrtConfig(
            lam=lam,
            inner=replace(_default_inner(), **inner),
            **given(delta=delta, epsilon=epsilon, max_outer=max_outer, tol_rel_f=tol),
        )
        pair, trace = sqrt_minvol(X, r, cfg, ground_truth=ground_truth)
        return pair.W, pair.H, cfg.lam, trace.rows[-1].f_eps, trace.rows[-1].k, trace
    if solver != "minvol-baseline":
        raise InvalidParameterError(f"unknown solver {solver!r}")
    if epsilon is not None:
        raise InvalidParameterError("epsilon is for solver sqrt-minvol only")
    init = snpa(X, r)
    cfg = MinvolConfig(
        lam=lam, **inner, **given(delta=delta, outer_sweeps=max_outer, tol_rel_obj=tol)
    )
    if lambda_tilde is not None:
        lam = lambda_from_init(X, init.W0, init.H0, lambda_tilde, cfg.delta)
        cfg = replace(cfg, lam=lam)
    state = minvol(X, r, init.W0, init.H0, cfg)
    history = state.objective_history
    return state.W, state.H, cfg.lam, history[-1], len(history) - 1, state

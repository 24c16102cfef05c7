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
residual plus ``eps``, so improving it is one warm-started run of the
baseline's block sweeps at that weight.  Because ``sqrt(r_k)`` tracks the
residual, the penalty weight scales itself down as the fit improves.

Note the effective weight multiplies the fixed user ``lam`` each time,
rather than recursively rescaling the previous weight; the recursive
form would compound the factor geometrically and is not what the
majorization yields.

:func:`solve` runs either solver; the baseline is one run of the sweeps.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidInputError, InvalidParameterError, NumericalFaultError
from .linalg import as_matrix, check_finite, frobenius_norm, shifted_gram
from .metrics import rel_rmse_W, rel_rmse_X
from .baseline import MinvolConfig, MinvolState, block_sweeps, lambda_from_init
from .baseline import stop_reason
from .projections import require_feasible
from .initialization import snpa

__all__ = [
    "SOLVER_NAMES",
    "SOLVER_ONLY",
    "SqrtConfig",
    "FactorPair",
    "TraceRow",
    "SolveTrace",
    "check_settings",
    "make_config",
    "f_eps",
    "residual_r",
    "lambda_k",
    "sigma_hat",
    "sqrt_minvol",
    "solve",
]

SOLVER_NAMES = ("sqrt-minvol", "minvol-baseline")
# Settings that only one solver reads, with that solver.  Every other
# setting (lam, delta, max_outer, tol, inner_iters) means the same to both.
SOLVER_ONLY = {"epsilon": "sqrt-minvol", "lambda_tilde": "minvol-baseline"}

# Per outer iteration the surrogate only needs to be improved, not
# solved to stationarity; 20 warm-started sweeps do that while the
# tiny tolerance keeps late sweeps from quitting before the budget.
INNER_SWEEPS = 20
INNER_TOL = 1e-13

TRACE_HEADER = "k,f_eps,r_k,lambda_k,sigma_hat,rel_rmse_X,rel_rmse_W,wall_ms"


def check_settings(solver, settings, spell=str):
    """Reject an unknown solver or a setting that ``solver`` would not read.

    ``settings`` maps names to values, None meaning not given; a value for
    the other solver's entry of :data:`SOLVER_ONLY` raises, and so does a
    weight (``lam``, or for the baseline ``lambda_tilde``) not given
    exactly once.  ``spell`` writes a name as the caller takes it, so the
    CLI's messages name its flags.
    """
    if solver not in SOLVER_NAMES:
        raise InvalidParameterError(
            f"unknown solver {solver!r}; choose from {SOLVER_NAMES}"
        )
    for name, owner in SOLVER_ONLY.items():
        if owner != solver and settings.get(name) is not None:
            raise InvalidParameterError(
                f"{spell(name)} is for {spell('solver')} {owner} only"
            )
    weights = ["lam"] + [w for w in ["lambda_tilde"] if SOLVER_ONLY[w] == solver]
    given = [w for w in weights if settings.get(w) is not None]
    if len(given) > 1:
        raise InvalidParameterError(
            f"give either {spell('lam')} or {spell('lambda_tilde')}, not both"
        )
    if not given:
        flags = " or ".join(map(spell, weights))
        raise InvalidParameterError(f"{solver} needs {flags}")


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
    tol : float
        Relative change of ``f_eps`` that stops the outer loop, default
        1e-9.
    inner_iters : int
        Projected-gradient budget of each block update in the inner
        solves, default ``MinvolConfig.inner_iters`` (50).  Each inner
        solve runs at most ``INNER_SWEEPS`` sweeps to ``INNER_TOL``.
    """

    lam: float
    delta: float = MinvolConfig.delta
    epsilon: float = 0.1
    max_outer: int = 200
    tol: float = 1e-9
    inner_iters: int = MinvolConfig.inner_iters

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.inf):
            raise InvalidParameterError(
                f"epsilon must be finite and > 0, got {self.epsilon}"
            )
        # The shared settings (lam >= 0 among them) are checked as the baseline's.
        MinvolConfig(self.lam, self.delta, self.max_outer, self.inner_iters, self.tol)


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

    ``stop``: the :func:`~sqrtminvol.baseline.stop_reason` of ``f_eps``, or None.
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


def sigma_hat(X, W, H, epsilon):
    """Residual-based noise-scale estimate ``sqrt(r) / (m n)``."""
    Xm = as_matrix(X, "X")
    m, n = Xm.shape
    return float(np.sqrt(residual_r(Xm, W, H, epsilon)) / (m * n))


def f_eps(X, W, H, lam, delta, epsilon):
    """Smoothed square-root objective value; ``(W, H)`` must be feasible."""
    require_feasible(W, H, "f_eps")
    r = residual_r(X, W, H, epsilon)
    return float(np.sqrt(r)) + float(lam) * shifted_gram(W, delta)[0]


def _start_pair(Xm, r, start):
    """The ``(W, H)`` a solve starts from: SNPA's, or ``start`` once checked."""
    if start is None:
        init = snpa(Xm, r)
        return init.W0, init.H0
    W, H = (as_matrix(M, f"start {name}") for M, name in zip(start, "WH"))
    (m, n), r = Xm.shape, int(r)
    if W.shape != (m, r) or H.shape != (r, n):
        raise InvalidInputError(
            f"start has shapes {W.shape} and {H.shape}; "
            f"X and r = {r} need {(m, r)} and {(r, n)}"
        )
    require_feasible(W, H, "start")
    return W, H


def sqrt_minvol(X, r, config, ground_truth=None, start=None):
    """Run the full solver: the SNPA start, then block sweeps at each ``lambda_k``.

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
    start : tuple, optional
        ``(W0, H0)`` to start from in place of ``snpa(X, r)``; it must
        have shapes ``(m, r)`` and ``(r, n)`` and be feasible, or
        ``InvalidInputError`` is raised.  It is read, never written.

    Returns
    -------
    (FactorPair, SolveTrace)

    Raises
    ------
    NumericalFaultError
        If ``r_k``, ``lambda_k`` or ``f_eps`` turns non-finite, or the sweeps
        fault (see :func:`~sqrtminvol.baseline.block_sweeps`); the partial
        trace rides on the exception so callers can flush it.
    """
    Xm = as_matrix(X, "X")
    W_star = X_star = None
    if ground_truth is not None:
        W_star, X_star = ground_truth

    trace = SolveTrace()
    t0 = time.perf_counter()
    W, H = _start_pair(Xm, r, start)
    wall = time.perf_counter() - t0

    f_prev = None
    try:
        for k in range(1, config.max_outer + 1):
            fk = f_eps(Xm, W, H, config.lam, config.delta, config.epsilon)
            rk = residual_r(Xm, W, H, config.epsilon)
            lamk = lambda_k(rk, config.lam)
            row = TraceRow(
                k=k,
                f_eps=fk,
                r_k=rk,
                lambda_k=lamk,
                sigma_hat=sigma_hat(Xm, W, H, config.epsilon),
                wall_ms=wall * 1000.0,
            )
            if X_star is not None:
                row.rel_rmse_X = rel_rmse_X(X_star, W, H)
            if W_star is not None:
                row.rel_rmse_W = rel_rmse_W(W_star, W)
            trace.rows.append(row)

            for name, value in (("r_k", rk), ("lambda_k", lamk), ("f_eps", fk)):
                check_finite(value, name)
            trace.stop = stop_reason(f_prev, fk, config.tol, k, config.max_outer)
            if trace.stop is not None:
                break
            f_prev = fk

            t0 = time.perf_counter()
            W, H, _, _ = block_sweeps(
                Xm, W, H, lamk, config.delta, INNER_SWEEPS, config.inner_iters, INNER_TOL
            )
            wall = time.perf_counter() - t0
    except NumericalFaultError as err:
        raise NumericalFaultError(f"{err} at outer iteration {k}", trace=trace) from err

    return FactorPair(W=W, H=H, rank=int(r)), trace


def make_config(solver, lam=None, lambda_tilde=None, **settings):
    """The config :func:`solve` runs ``solver`` with, checked as it checks it.

    It holds ``lam = 0`` until :func:`solve` rescales a given ``lambda_tilde``.
    """
    check_settings(solver, dict(settings, lam=lam, lambda_tilde=lambda_tilde))
    if lambda_tilde is not None and not (0.0 <= lambda_tilde < np.inf):
        raise InvalidParameterError(
            f"lambda_tilde must be finite and >= 0, got {lambda_tilde}"
        )
    settings = {key: v for key, v in settings.items() if v is not None}
    config = SqrtConfig if solver == "sqrt-minvol" else MinvolConfig
    return config(lam=0.0 if lam is None else lam, **settings)


def solve(
    X, r, solver, lam=None, lambda_tilde=None, ground_truth=None, start=None, **settings
):
    """Factor ``X``: the one way to run either solver, used by the CLI and sweeps.

    ``solver`` is ``"sqrt-minvol"`` or ``"minvol-baseline"``.  The weight
    is ``lam``, used as given, or for the baseline only ``lambda_tilde``,
    rescaled by ``lambda_from_init`` at the start; exactly one must be
    given.  The other ``settings`` (``delta``, ``epsilon``, ``max_outer``,
    ``tol`` and ``inner_iters``) go to :class:`SqrtConfig` or
    :class:`~sqrtminvol.baseline.MinvolConfig` under the same names, and
    one left at None takes the config's default.  ``max_outer`` counts
    outer iterations of ``sqrt-minvol`` and sweeps of the baseline.
    ``epsilon`` is for ``sqrt-minvol`` only (:data:`SOLVER_ONLY`), and so
    is ``ground_truth`` (``(W_star, X_star)``, recorded in every trace
    row), which the baseline ignores.  ``start``, a feasible ``(W0, H0)``
    pair, replaces the SNPA start for both solvers, and the baseline's
    ``lambda_tilde`` is rescaled from it; None runs ``snpa(X, r)``.

    An unknown solver, a setting of the other solver, a weight not given
    exactly once, a negative weight or a non-finite setting raises
    :class:`InvalidParameterError`; a numerical fault raises
    :class:`NumericalFaultError` (see :func:`sqrt_minvol`).

    Returns ``(W, H, config, final_obj, outer_iters, trace)``: the
    factors, the config the solver ran with (its ``lam`` is the weight
    used, rescaled from ``lambda_tilde`` for the baseline), the last
    objective value, the number of outer iterations, and the trace
    ``trace.csv`` is written from (a :class:`SolveTrace`, or the
    baseline's ``MinvolState``); both say why the solve stopped.
    """
    cfg = make_config(solver, lam, lambda_tilde, **settings)
    if solver == "sqrt-minvol":
        pair, trace = sqrt_minvol(X, r, cfg, ground_truth=ground_truth, start=start)
        return pair.W, pair.H, cfg, trace.rows[-1].f_eps, trace.rows[-1].k, trace
    Xm = as_matrix(X, "X")
    W0, H0 = _start_pair(Xm, r, start)
    if lambda_tilde is not None:
        cfg = replace(cfg, lam=lambda_from_init(Xm, W0, H0, lambda_tilde, cfg.delta))
    W, H, history, stop = block_sweeps(
        Xm, W0, H0, cfg.lam, cfg.delta, cfg.max_outer, cfg.inner_iters, cfg.tol
    )
    return W, H, cfg, history[-1], len(history) - 1, MinvolState(W, H, history, stop)

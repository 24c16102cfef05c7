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
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import InvalidInputError, NumericalFaultError
from .linalg import as_matrix, check_integer, frobenius_norm, residual, shifted_gram
from .metrics import rel_rmse_W, rel_rmse_X
from .baseline import MinvolConfig, SolveTrace, _descend
from .baseline import block_sweeps, lambda_from_init
from .projections import require_feasible
from .initialization import snpa

__all__ = [
    "SOLVER_NAMES",
    "SOLVER_ONLY",
    "SqrtConfig",
    "FactorPair",
    "TraceRow",
    "SETTINGS",
    "make_config",
    "f_eps",
    "residual_r",
    "lambda_k",
    "sqrt_minvol",
    "solve",
]

SOLVER_NAMES = ("sqrt-minvol", "minvol-baseline")
# Settings that only one solver reads, with that solver.  Every other
# setting (lam and the rest of SETTINGS) means the same to both.
SOLVER_ONLY = {"epsilon": "sqrt-minvol", "lambda_tilde": "minvol-baseline"}

# Per outer iteration the surrogate only needs to be improved, not
# solved to stationarity; 20 warm-started sweeps do that while the
# tiny tolerance keeps late sweeps from quitting before the budget.
INNER_SWEEPS = 20
INNER_TOL = 1e-13


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
        Outer iterations, default 200.  The SNPA start is outer iteration
        1, so ``max_outer = N`` makes at most N - 1 majorization steps,
        and ``max_outer = 1`` returns the start.
    tol : float
        Relative change of ``f_eps`` that stops the outer loop, default
        1e-9.
    """

    lam: float
    delta: float = MinvolConfig.delta
    epsilon: float = 0.1
    max_outer: int = 200
    tol: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.epsilon < np.inf):
            raise InvalidInputError(
                f"epsilon must be finite and > 0, got {self.epsilon}"
            )
        # The shared settings (lam >= 0 among them) are checked as the baseline's.
        MinvolConfig(self.lam, self.delta, self.max_outer, self.tol)


# The settings solve takes besides the weights, with their types: the one
# list that the sweep's INI keys, its spec and the CLI read.
SETTINGS = {f.name: f.type for f in fields(SqrtConfig) if f.name != "lam"}


@dataclass(frozen=True)
class FactorPair:
    """A feasible (W, H) pair and the config the solver ran with."""

    W: np.ndarray
    H: np.ndarray
    config: object


@dataclass
class TraceRow:
    """One outer-iteration record of :func:`sqrt_minvol`.

    ``rms_residual`` is ``sqrt(r_k / (m n))``, the residual per entry, so it
    compares across data sizes at one noise level.
    """

    k: int
    f_eps: float
    r_k: float
    lambda_k: float
    rms_residual: float
    rel_rmse_X: float = None
    rel_rmse_W: float = None
    wall_ms: float = 0.0


def residual_r(X, W, H, epsilon):
    """Squared Frobenius residual plus the smoothing constant."""
    if not (float(epsilon) > 0.0):
        raise InvalidInputError(f"epsilon must be > 0, got {epsilon}")
    res = frobenius_norm(residual(as_matrix(X, "X"), W, H))
    return res * res + float(epsilon)


def lambda_k(r_k, lam):
    """Effective inner penalty weight ``2 * lam * sqrt(r_k)``."""
    r_k = float(r_k)
    if not (r_k > 0.0):
        raise InvalidInputError(f"r_k must be > 0, got {r_k}")
    return float(2.0 * float(lam) * np.sqrt(r_k))


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
    # SNPA's rule on X, so a given start refuses the same X.
    if np.min(Xm) < 0.0:
        raise InvalidInputError("X has negative entries")
    W, H = (as_matrix(M, f"start {name}") for M, name in zip(start, "WH"))
    (m, n), r = Xm.shape, int(check_integer(r, "rank"))
    if W.shape != (m, r) or H.shape != (r, n):
        raise InvalidInputError(
            f"start has shapes {W.shape} and {H.shape}; "
            f"X and r = {r} need {(m, r)} and {(r, n)}"
        )
    require_feasible(W, H, "start")
    return W, H


def sqrt_minvol(X, r, config, ground_truth=None, start=None):
    """The square-root loop behind :func:`solve`, run with a :class:`SqrtConfig`.

    ``solve(X, r, "sqrt-minvol", **asdict(config))`` returns the same
    ``(FactorPair, SolveTrace)``, and ``ground_truth`` and ``start`` are
    as there.  An outer step that raises ``f_eps`` by rounding (at most
    1e-12 of ``sqrt(r_k) + |lam logdet|``) is undone: its row repeats the
    one before, and the solve stops ``"stalled"``.  A non-finite ``r_k``,
    ``lambda_k`` or ``f_eps``, a larger rise, a ``delta`` too small for the
    shifted Gram's Cholesky factor, or a fault in the sweeps (``... at
    sweep j at outer iteration k``) raises :class:`NumericalFaultError`
    carrying the rows measured, so callers can flush them.
    """
    Xm = as_matrix(X, "X")
    W_star = X_star = None
    if ground_truth is not None:
        W_star, X_star = ground_truth

    def measure(state, k):
        W, H, wall = state
        # One residual per row: f_eps and the RMS residual are formed from r_k.
        rk = residual_r(Xm, W, H, config.epsilon)
        fit = float(np.sqrt(rk))
        volume = float(config.lam) * shifted_gram(W, config.delta)[0]
        fk = fit + volume
        lamk = lambda_k(rk, config.lam)
        rms = float(np.sqrt(rk / Xm.size))
        row = TraceRow(k, fk, rk, lamk, rms, wall_ms=wall * 1000.0)
        if X_star is not None:
            row.rel_rmse_X = rel_rmse_X(X_star, W, H)
        if W_star is not None:
            row.rel_rmse_W = rel_rmse_W(W_star, W)
        named = [("r_k", rk), ("lambda_k", lamk), ("f_eps", fk)]
        return row, named, fit + abs(volume)

    def step(state, row):
        W, H, _ = state
        t0 = time.perf_counter()
        W, H, _ = block_sweeps(
            Xm, W, H, row.lambda_k, config.delta, INNER_SWEEPS, INNER_TOL
        )
        return W, H, time.perf_counter() - t0

    t0 = time.perf_counter()
    W, H = _start_pair(Xm, r, start)
    (W, H, _), trace = _descend(
        lambda: (W, H, time.perf_counter() - t0), measure, step, config.tol,
        config.max_outer, "outer iteration", first=1,
    )
    return FactorPair(W, H, config), trace


def make_config(solver, lam=None, lambda_tilde=None, spell=str, **settings):
    """The config :func:`solve` runs ``solver`` with: the one check of its settings.

    An unknown solver, a value for the other solver's entry of
    :data:`SOLVER_ONLY`, a weight (``lam``, or for the baseline
    ``lambda_tilde``) not given exactly once, or a value the config refuses
    raises :class:`InvalidInputError`; a setting left at None takes the
    config's default.  ``spell`` writes a name as the caller takes it, so
    the CLI's messages name its flags.  The config holds ``lam = 0`` until
    :func:`solve` rescales a given ``lambda_tilde``.
    """
    if solver not in SOLVER_NAMES:
        raise InvalidInputError(
            f"unknown solver {solver!r}; choose from {SOLVER_NAMES}"
        )
    named = dict(settings, lam=lam, lambda_tilde=lambda_tilde)
    for name, owner in SOLVER_ONLY.items():
        if owner != solver and named.get(name) is not None:
            raise InvalidInputError(
                f"{spell(name)} is for {spell('solver')} {owner} only"
            )
    weights = ["lam"] + [w for w in ["lambda_tilde"] if SOLVER_ONLY[w] == solver]
    given = [w for w in weights if named[w] is not None]
    if len(given) > 1:
        raise InvalidInputError(
            f"give either {spell('lam')} or {spell('lambda_tilde')}, not both"
        )
    if not given:
        flags = " or ".join(map(spell, weights))
        raise InvalidInputError(f"{solver} needs {flags}")
    if lambda_tilde is not None and not (0.0 <= lambda_tilde < np.inf):
        raise InvalidInputError(
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
    given.  The other ``settings``, the names in :data:`SETTINGS`, go to
    :class:`SqrtConfig` or :class:`~sqrtminvol.baseline.MinvolConfig` under
    the same names, and one left at None takes the config's default.
    ``max_outer`` counts outer iterations of ``sqrt-minvol``, its start
    being iteration 1, so it makes ``max_outer - 1`` majorization steps;
    the baseline makes ``max_outer`` sweeps after its start, row 0.
    ``epsilon`` is for ``sqrt-minvol`` only (:data:`SOLVER_ONLY`), and so
    is ``ground_truth`` (``(W_star, X_star)``, recorded in every trace
    row), which the baseline ignores.  ``start``, a feasible ``(W0, H0)``
    pair of shapes ``(m, r)`` and ``(r, n)``, read and never written,
    replaces the SNPA start for both solvers, and the baseline's
    ``lambda_tilde`` is rescaled from it; None runs ``snpa(X, r)``.

    A setting :func:`make_config` refuses, or a start of the wrong shape
    or outside the feasible set, raises :class:`InvalidInputError`; a
    numerical fault, a too-small ``delta`` among them, raises
    :class:`NumericalFaultError` (see :func:`sqrt_minvol`; in the baseline
    it names the sweep, ``... at sweep k``).

    Returns ``(factors, trace)`` for both solvers.  ``factors`` is a
    :class:`FactorPair`: ``W``, ``H`` and the config the solver ran with,
    whose ``lam`` is the weight used, rescaled from ``lambda_tilde`` for
    the baseline.  ``trace`` is the :class:`SolveTrace` ``trace.csv`` is
    written from: its ``stop`` says why the solve stopped, its
    ``objective`` is the last row's, and its rows are the square-root
    solver's :class:`TraceRow` records, or the baseline's
    :class:`ObjectiveRow` records, one per sweep from ``k = 0``, the start.
    """
    cfg = make_config(solver, lam, lambda_tilde, **settings)
    if solver == "sqrt-minvol":
        return sqrt_minvol(X, r, cfg, ground_truth=ground_truth, start=start)
    Xm = as_matrix(X, "X")
    W0, H0 = _start_pair(Xm, r, start)
    if lambda_tilde is not None:
        try:
            cfg = replace(cfg, lam=lambda_from_init(Xm, W0, H0, lambda_tilde, cfg.delta))
        except NumericalFaultError as err:
            # The start is the sweeps' row 0, so its fault is reported there.
            raise NumericalFaultError(f"{err} at sweep 0", trace=SolveTrace()) from err
    W, H, trace = block_sweeps(Xm, W0, H0, cfg.lam, cfg.delta, cfg.max_outer, cfg.tol)
    return FactorPair(W, H, cfg), trace

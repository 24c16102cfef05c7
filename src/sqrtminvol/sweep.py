"""Declarative (sigma, lambda) sweeps over synthetic instances.

An experiment is a grid: noise levels x penalty weights x replicates,
one solver, one generator.  Cells share nothing mutable; each one
regenerates its instance from a seed derived off (base_seed, replicate,
sigma index), so the same instance is reused across the lambda axis and
results do not depend on execution order or worker count.

Config files are flat INI text with [generator], [sweep] and optional
[solver] sections; grids are written as explicit whitespace-separated
values.  See the README for the full grammar.
"""

import configparser
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import InstanceSpec, make_instance
from .errors import InvalidInputError, InvalidParameterError, SqrtMinvolError
from .metrics import rel_rmse_W, rel_rmse_X
from .solver import solve

__all__ = [
    "SOLVER_NAMES",
    "SWEEP_HEADER",
    "SUMMARY_HEADER",
    "ExperimentSpec",
    "SweepRecord",
    "SummaryRow",
    "cell_seed",
    "run_cell",
    "run_sweep",
    "summarize",
    "write_sweep_csv",
    "write_summary_csv",
    "parse_generator_config",
    "parse_experiment_config",
]

SOLVER_NAMES = ("sqrt-minvol", "minvol-baseline")

SWEEP_HEADER = (
    "solver,sigma,lambda,replicate,seed,rel_rmse_X,rel_rmse_W,"
    "final_obj,outer_iters,status,wall_ms"
)
SUMMARY_HEADER = "sigma,min_rel_rmse_X,argmin_lambda_X,min_rel_rmse_W,argmin_lambda_W"


@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a sweep.

    ``generator`` is a template descriptor whose ``sigma`` and ``seed``
    fields are overwritten per cell.  For the baseline solver the
    ``lambda_grid`` values are reference weights rescaled per instance
    from the initialization (the lambda-tilde convention); for the
    square-root solver they are used as-is.  A solver setting left at
    None takes the solver's default; ``max_outer`` budgets the
    square-root solver and ``baseline_sweeps`` the baseline.  A baseline
    spec that sets ``epsilon`` (square-root only) is rejected.
    """

    generator: InstanceSpec
    solver: str
    sigma_grid: tuple
    lambda_grid: tuple
    replicates: int
    base_seed: int
    out_dir: str = None
    rank: int = None
    delta: float = 0.1
    epsilon: float = None
    max_outer: int = None
    tol: float = None
    baseline_sweeps: int = None
    inner_iters: int = None

    def __post_init__(self):
        if self.solver not in SOLVER_NAMES:
            raise InvalidParameterError(
                f"unknown solver {self.solver!r}; choose from {SOLVER_NAMES}"
            )
        if len(self.sigma_grid) == 0:
            raise InvalidParameterError("sigma_grid must be non-empty")
        if len(self.lambda_grid) == 0:
            raise InvalidParameterError("lambda_grid must be non-empty")
        for s in self.sigma_grid:
            if s < 0.0:
                raise InvalidParameterError(f"sigma grid values must be >= 0, got {s}")
        for l in self.lambda_grid:
            if not (l > 0.0):
                raise InvalidParameterError(f"lambda grid values must be > 0, got {l}")
        if self.replicates < 1:
            raise InvalidParameterError("replicates must be >= 1")
        if self.epsilon is not None and self.solver == "minvol-baseline":
            raise InvalidParameterError("epsilon is for solver sqrt-minvol only")

    @property
    def solve_rank(self):
        return self.generator.rank if self.rank is None else self.rank


@dataclass
class SweepRecord:
    """One grid cell result; ``lam`` holds the grid value for the cell."""

    solver: str
    sigma: float
    lam: float
    replicate: int
    seed: int
    rel_rmse_X: float = None
    rel_rmse_W: float = None
    final_obj: float = None
    outer_iters: int = 0
    status: str = "ok"
    wall_ms: float = 0.0


@dataclass
class SummaryRow:
    sigma: float
    min_rel_rmse_X: float = None
    argmin_lambda_X: float = None
    min_rel_rmse_W: float = None
    argmin_lambda_W: float = None


def cell_seed(base_seed, replicate, sigma_index):
    """Derived instance seed; deliberately independent of lambda."""
    ss = np.random.SeedSequence(
        entropy=(int(base_seed), int(replicate), int(sigma_index))
    )
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _solve_cell(spec, X, gt, lam):
    """Run the configured solver; returns (relX, relW, final_obj, iters)."""
    baseline = spec.solver == "minvol-baseline"
    W, H, _, final_obj, iters, _ = solve(
        X,
        spec.solve_rank,
        spec.solver,
        **{"lambda_tilde" if baseline else "lam": lam},
        delta=spec.delta,
        epsilon=spec.epsilon,
        max_outer=spec.baseline_sweeps if baseline else spec.max_outer,
        tol=spec.tol,
        inner_iters=spec.inner_iters,
    )
    return rel_rmse_X(gt.X_star, W, H), rel_rmse_W(gt.W_star, W), final_obj, iters


def run_cell(spec, sigma_index, replicate, lambda_index):
    """Execute one grid cell; solver faults land in the status field."""
    sigma = spec.sigma_grid[sigma_index]
    lam = spec.lambda_grid[lambda_index]
    seed = cell_seed(spec.base_seed, replicate, sigma_index)
    rec = SweepRecord(
        solver=spec.solver, sigma=sigma, lam=lam, replicate=replicate, seed=seed
    )
    t0 = time.perf_counter()
    try:
        gt, X = make_instance(replace(spec.generator, sigma=sigma, seed=seed))
        rec.rel_rmse_X, rec.rel_rmse_W, rec.final_obj, rec.outer_iters = _solve_cell(
            spec, X, gt, lam
        )
    except SqrtMinvolError as err:
        rec.status = f"fault:{type(err).__name__}"
    rec.wall_ms = (time.perf_counter() - t0) * 1000.0
    return rec


def _run_cell_packed(args):
    return run_cell(*args)


def run_sweep(spec, jobs=1):
    """Run every cell; output order is the grid order (sigma, replicate, lambda)."""
    cells = [
        (spec, si, rep, li)
        for si in range(len(spec.sigma_grid))
        for rep in range(spec.replicates)
        for li in range(len(spec.lambda_grid))
    ]
    if jobs <= 1:
        return [run_cell(*c) for c in cells]
    with ProcessPoolExecutor(max_workers=int(jobs)) as pool:
        return list(pool.map(_run_cell_packed, cells, chunksize=1))


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


def write_sweep_csv(fh, records):
    fh.write(SWEEP_HEADER + "\n")
    for r in records:
        fh.write(
            f"{r.solver},{r.sigma:.17g},{r.lam:.17g},{r.replicate},{r.seed},"
            f"{_fmt(r.rel_rmse_X)},{_fmt(r.rel_rmse_W)},{_fmt(r.final_obj)},"
            f"{r.outer_iters},{r.status},{r.wall_ms:.3f}\n"
        )


def summarize(records, sigma_grid, lambda_grid):
    """Per-sigma minima of replicate-averaged errors, with their lambdas.

    Averaging over replicates before taking the minimum keeps the
    reported argmin stable against single-replicate luck.  Faulted
    cells are left out; ties resolve to the earliest lambda in grid
    order.
    """
    rows = []
    for sigma in sigma_grid:
        best = {"X": (None, None), "W": (None, None)}
        for lam in lambda_grid:
            cells = [
                r
                for r in records
                if r.status == "ok" and r.sigma == sigma and r.lam == lam
            ]
            if not cells:
                continue
            means = {
                "X": float(np.mean([r.rel_rmse_X for r in cells])),
                "W": float(np.mean([r.rel_rmse_W for r in cells])),
            }
            for key in ("X", "W"):
                if best[key][0] is None or means[key] < best[key][0]:
                    best[key] = (means[key], lam)
        rows.append(
            SummaryRow(
                sigma=sigma,
                min_rel_rmse_X=best["X"][0],
                argmin_lambda_X=best["X"][1],
                min_rel_rmse_W=best["W"][0],
                argmin_lambda_W=best["W"][1],
            )
        )
    return rows


def write_summary_csv(fh, rows):
    fh.write(SUMMARY_HEADER + "\n")
    for r in rows:
        fh.write(
            f"{r.sigma:.17g},{_fmt(r.min_rel_rmse_X)},{_fmt(r.argmin_lambda_X)},"
            f"{_fmt(r.min_rel_rmse_W)},{_fmt(r.argmin_lambda_W)}\n"
        )


def _config_error(path, section, message):
    return InvalidInputError(f"{path}: [{section}] {message}")


def _read_ini(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise InvalidInputError(f"{path}: {err.strerror or err}") from err
    except configparser.Error as err:
        # configparser reports the offending line in its message.
        raise InvalidInputError(f"{path}: {err}") from err
    return parser


def _get(parser, path, section, key, cast, required=True, default=None):
    if not parser.has_section(section):
        if required:
            raise _config_error(path, section, "section missing")
        return default
    if not parser.has_option(section, key):
        if required:
            raise _config_error(path, section, f"missing key {key!r}")
        return default
    raw = parser.get(section, key)
    try:
        return cast(raw)
    except (ValueError, InvalidParameterError) as err:
        raise _config_error(path, section, f"{key} = {raw!r}: {err}") from err


def _float_list(raw):
    values = tuple(float(tok) for tok in raw.split())
    if not values:
        raise ValueError("empty list")
    return values


def _build_generator(parser, path, need_sigma_seed):
    name = _get(parser, path, "generator", "name", str)
    n = _get(parser, path, "generator", "n", int)
    m = _get(parser, path, "generator", "m", int, required=False)
    r = _get(parser, path, "generator", "r", int, required=False)
    alpha = _get(parser, path, "generator", "alpha", float, required=False, default=1.0)
    sigma = _get(
        parser, path, "generator", "sigma", float, required=need_sigma_seed, default=0.0
    )
    seed = _get(
        parser, path, "generator", "seed", int, required=need_sigma_seed, default=0
    )
    try:
        return InstanceSpec(
            name=name, n=n, sigma=sigma, seed=seed, m=m, r=r, alpha=alpha
        )
    except InvalidParameterError as err:
        raise _config_error(path, "generator", str(err)) from err


def parse_generator_config(path):
    """[generator] section only, for the generate command."""
    parser = _read_ini(path)
    return _build_generator(parser, path, need_sigma_seed=True)


def parse_experiment_config(path):
    """[generator] + [sweep] + optional [solver] sections."""
    parser = _read_ini(path)
    generator = _build_generator(parser, path, need_sigma_seed=False)
    solver = _get(parser, path, "sweep", "solver", str)
    key = "lambda_tildes" if solver == "minvol-baseline" else "lambdas"
    grid_raw = _get(parser, path, "sweep", key, _float_list, required=False)
    if grid_raw is None:
        # Accept either spelling; the solver field disambiguates intent.
        other = "lambdas" if key == "lambda_tildes" else "lambda_tildes"
        grid_raw = _get(parser, path, "sweep", other, _float_list, required=False)
    if grid_raw is None:
        raise _config_error(path, "sweep", f"missing key {key!r}")
    kwargs = dict(
        generator=generator,
        solver=solver,
        sigma_grid=_get(parser, path, "sweep", "sigmas", _float_list),
        lambda_grid=grid_raw,
        replicates=_get(parser, path, "sweep", "replicates", int, required=False, default=1),
        base_seed=_get(parser, path, "sweep", "base_seed", int),
        out_dir=_get(parser, path, "sweep", "out", str, required=False),
    )
    for name, cast in (
        ("rank", int),
        ("delta", float),
        ("epsilon", float),
        ("max_outer", int),
        ("tol", float),
        ("baseline_sweeps", int),
        ("inner_iters", int),
    ):
        value = _get(parser, path, "solver", name, cast, required=False)
        if value is not None:
            kwargs[name] = value
    try:
        return ExperimentSpec(**kwargs)
    except InvalidParameterError as err:
        raise _config_error(path, "sweep", str(err)) from err

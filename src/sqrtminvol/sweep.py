"""Declarative (sigma, lambda) sweeps over synthetic instances.

An experiment is a grid: noise levels x penalty weights x replicates,
one solver, one generator.  A cell's instance seed is derived off
(base_seed, replicate, sigma index), never lambda, so every cell of a
(sigma, replicate) row solves the same instance from the same SNPA
start.  A row shares them: its first cell builds the instance and the
start, and the row's other cells reuse them, read-only.  Nothing else is
shared, and results do not depend on execution order or worker count.

Config files are flat INI text with [generator], [sweep] and optional
[solver] sections (:data:`INI_KEYS`; any other section or key is an
error), grids written as whitespace-separated values.  See the README.
"""

import configparser
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import InstanceSpec, make_instance
from .errors import InvalidInputError, InvalidParameterError, SqrtMinvolError
from .initialization import snpa
from .metrics import rel_rmse_W, rel_rmse_X
from .solver import make_config, solve

__all__ = [
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
    square-root solver they are used as-is.  Every cell solves at the
    generator's rank.  The settings passed to
    :func:`~sqrtminvol.solver.solve` under the same names take the
    solver's default when None; ``max_outer`` budgets both solvers.  A
    setting the solver would refuse (``epsilon`` on a baseline spec, see
    :data:`~sqrtminvol.solver.SOLVER_ONLY`, or ``max_outer = 0``) and a
    generator whose rank SNPA cannot select (``r`` above ``min(m, n)``)
    are refused when the spec is built, not in every cell.
    """

    generator: InstanceSpec
    solver: str
    sigma_grid: tuple
    lambda_grid: tuple
    replicates: int
    base_seed: int
    out_dir: str = None
    delta: float = None
    epsilon: float = None
    max_outer: int = None
    tol: float = None
    inner_iters: int = None

    def __post_init__(self):
        _check_rank(self.generator)
        if len(self.sigma_grid) == 0:
            raise InvalidParameterError("sigma_grid must be non-empty")
        if len(self.lambda_grid) == 0:
            raise InvalidParameterError("lambda_grid must be non-empty")
        for s in self.sigma_grid:
            if not (0.0 <= s < np.inf):
                raise InvalidParameterError(
                    f"sigma grid values must be finite and >= 0, got {s}"
                )
        for l in self.lambda_grid:
            if not (0.0 < l < np.inf):
                raise InvalidParameterError(
                    f"lambda grid values must be finite and > 0, got {l}"
                )
        if self.replicates < 1:
            raise InvalidParameterError("replicates must be >= 1")
        if self.base_seed < 0:
            raise InvalidParameterError(f"base_seed must be >= 0, got {self.base_seed}")
        # A setting the solver rejects fails here, not once in every cell.
        make_config(self.solver, **self.solve_settings(self.lambda_grid[0]))

    def solve_settings(self, lam):
        """Keywords of :func:`~sqrtminvol.solver.solve` for grid weight ``lam``."""
        weight = "lambda_tilde" if self.solver == "minvol-baseline" else "lam"
        names = ("delta", "epsilon", "max_outer", "tol", "inner_iters")
        return {weight: lam, **{name: getattr(self, name) for name in names}}


@dataclass
class SweepRecord:
    """One grid cell result; ``lam`` holds the grid value for the cell.

    ``wall_ms`` is the cell's own time, except that the first cell of a
    row (or of a row's chunk, see :func:`run_sweep`) also carries the
    instance and SNPA start that the row's other cells reuse.
    """

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


def _row_start(spec, sigma, seed, row):
    """A row's ``(gt, X, (W0, H0))``, built by the first cell that asks.

    ``row`` is the dict the row's cells share.  A fault while building is
    kept there and raised again in every cell of the row, as each cell
    would have raised it building its own.  ``X`` and the start are made
    read-only, so no cell can change what the next one starts from.
    """
    if not row:
        try:
            gt, X = make_instance(replace(spec.generator, sigma=sigma, seed=seed))
            init = snpa(X, spec.generator.rank)
            for M in (X, init.W0, init.H0):
                M.setflags(write=False)
            row["built"] = gt, X, (init.W0, init.H0)
        except SqrtMinvolError as err:
            row["fault"] = err
    if "fault" in row:
        raise row["fault"]
    return row["built"]


def _solve_cell(spec, X, gt, lam, start):
    """Run the configured solver; returns (relX, relW, final_obj, iters)."""
    W, H, _, final_obj, iters, _ = solve(
        X, spec.generator.rank, spec.solver, start=start, **spec.solve_settings(lam)
    )
    return rel_rmse_X(gt.X_star, W, H), rel_rmse_W(gt.W_star, W), final_obj, iters


def run_cell(spec, sigma_index, replicate, lambda_index, row=None):
    """Execute one grid cell; solver faults land in the status field.

    Cells given the same ``row`` dict, all of one (sigma, replicate) row,
    share its instance and SNPA start: the first of them builds both
    inside its own call and ``wall_ms``, and the others reuse them.  A
    cell without ``row`` builds its own.
    """
    sigma = spec.sigma_grid[sigma_index]
    lam = spec.lambda_grid[lambda_index]
    seed = cell_seed(spec.base_seed, replicate, sigma_index)
    rec = SweepRecord(
        solver=spec.solver, sigma=sigma, lam=lam, replicate=replicate, seed=seed
    )
    t0 = time.perf_counter()
    try:
        gt, X, start = _row_start(spec, sigma, seed, {} if row is None else row)
        rec.rel_rmse_X, rec.rel_rmse_W, rec.final_obj, rec.outer_iters = _solve_cell(
            spec, X, gt, lam, start
        )
    except SqrtMinvolError as err:
        rec.status = f"fault:{type(err).__name__}"
    rec.wall_ms = (time.perf_counter() - t0) * 1000.0
    return rec


def _tasks(spec, jobs):
    """``(sigma_index, replicate, lambda_indices)`` per task, in grid order.

    A task is one (sigma, replicate) row, or when there are fewer rows
    than ``jobs``, one of ``ceil(jobs / rows)`` contiguous chunks of it,
    so that every worker gets work.
    """
    rows = [
        (si, rep) for si in range(len(spec.sigma_grid)) for rep in range(spec.replicates)
    ]
    n = len(spec.lambda_grid)
    chunks = min(n, -(-int(jobs) // len(rows)))
    return [
        (si, rep, range(c * n // chunks, (c + 1) * n // chunks))
        for si, rep in rows
        for c in range(chunks)
    ]


def _run_task(spec, sigma_index, replicate, lambda_indices):
    """Run some cells of one row from one shared instance and start."""
    row = {}
    return [run_cell(spec, sigma_index, replicate, li, row) for li in lambda_indices]


def _run_task_packed(args):
    return _run_task(*args)


def run_sweep(spec, jobs=1):
    """Run every cell; output order is the grid order (sigma, replicate, lambda).

    The tasks are rows, or chunks of rows (:func:`_tasks`), each sharing
    one instance and SNPA start; with ``jobs`` above 1 they run on a pool
    of ``min(jobs, tasks)`` processes.  ``jobs`` below 1 raises.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be >= 1, got {jobs}")
    tasks = [(spec, *task) for task in _tasks(spec, jobs)]
    if jobs == 1:
        done = [_run_task(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(int(jobs), len(tasks))) as pool:
            done = list(pool.map(_run_task_packed, tasks, chunksize=1))
    return [rec for records in done for rec in records]


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


def _float_list(raw):
    values = tuple(float(tok) for tok in raw.split())
    if not values:
        raise ValueError("empty list")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    return values


# Every key a config file may hold, with its type, by section; any other
# section or key is an error.  [generator] keys are InstanceSpec fields and
# [solver] keys ExperimentSpec fields, under the same names.
INI_KEYS = {
    "generator": dict(
        name=str, n=int, m=int, r=int, alpha=float, sigma=float, seed=int
    ),
    "sweep": dict(
        solver=str,
        sigmas=_float_list,
        lambdas=_float_list,
        lambda_tildes=_float_list,
        replicates=int,
        base_seed=int,
        out=str,
    ),
    "solver": dict(
        delta=float, epsilon=float, max_outer=int, tol=float, inner_iters=int
    ),
}


def _read_ini(path, required):
    """The typed values of every section, once the ``required`` keys are found."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r") as fh:
            parser.read_file(fh)
    except OSError as err:
        raise InvalidInputError(f"{path}: {err.strerror or err}") from err
    except configparser.Error as err:
        # configparser reports the offending line in its message.
        raise InvalidInputError(f"{path}: {err}") from err
    ini = {}
    for section in parser.sections():
        if section not in INI_KEYS:
            raise InvalidInputError(f"{path}: unknown section [{section}]")
        ini[section] = {}
        for key, raw in parser.items(section):
            if key not in INI_KEYS[section]:
                raise _config_error(path, section, f"unknown key {key!r}")
            try:
                ini[section][key] = INI_KEYS[section][key](raw)
            except ValueError as err:
                raise _config_error(path, section, f"{key} = {raw!r}: {err}") from err
    for section, keys in required.items():
        if section not in ini:
            raise _config_error(path, section, "section missing")
        for key in keys:
            if key not in ini[section]:
                raise _config_error(path, section, f"missing key {key!r}")
    return ini


def _check_rank(generator):
    """Refuse a generator whose rank SNPA cannot select from its data."""
    top = min(generator.rows, generator.n)
    if generator.rank > top:
        raise InvalidParameterError(
            f"r = {generator.rank} exceeds min(m, n) = {top}: "
            f"a sweep cannot select {generator.rank} columns"
        )


def _build_generator(path, values, for_sweep=False):
    try:
        generator = InstanceSpec(**values)
        if for_sweep:
            _check_rank(generator)
        return generator
    except InvalidParameterError as err:
        raise _config_error(path, "generator", str(err)) from err


def parse_generator_config(path):
    """[generator] section only, for the generate command."""
    ini = _read_ini(path, {"generator": ("name", "n", "sigma", "seed")})
    return _build_generator(path, ini["generator"])


def parse_experiment_config(path):
    """[generator] + [sweep] + optional [solver] sections."""
    ini = _read_ini(
        path, {"generator": ("name", "n"), "sweep": ("solver", "sigmas", "base_seed")}
    )
    generator = _build_generator(
        path, {"sigma": 0.0, "seed": 0, **ini["generator"]}, for_sweep=True
    )
    sweep = ini["sweep"]
    # Either spelling of the grid is accepted, but only one of them.
    if "lambdas" in sweep and "lambda_tildes" in sweep:
        raise _config_error(path, "sweep", "give lambdas or lambda_tildes, not both")
    grid = sweep.get("lambdas", sweep.get("lambda_tildes"))
    if grid is None:
        key = "lambda_tildes" if sweep["solver"] == "minvol-baseline" else "lambdas"
        raise _config_error(path, "sweep", f"missing key {key!r}")
    try:
        spec = ExperimentSpec(
            generator=generator,
            solver=sweep["solver"],
            sigma_grid=sweep["sigmas"],
            lambda_grid=grid,
            replicates=sweep.get("replicates", 1),
            base_seed=sweep["base_seed"],
            out_dir=sweep.get("out"),
        )
    except InvalidParameterError as err:
        raise _config_error(path, "sweep", str(err)) from err
    # The [solver] keys go on a spec the [sweep] keys alone have built, so
    # an error they raise is one of theirs.
    try:
        return replace(spec, **ini.get("solver", {}))
    except InvalidParameterError as err:
        raise _config_error(path, "solver", str(err)) from err

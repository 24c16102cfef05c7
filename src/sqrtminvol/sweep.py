"""Declarative (sigma, lambda) sweeps over synthetic instances.

An experiment is a grid: noise levels x penalty weights x replicates,
one solver, one generator.  A cell's instance seed is derived off
(base_seed, replicate, sigma index), never lambda, so every cell of a
(sigma, replicate) row solves the same instance from the same SNPA
start.  A row shares them: its first cell builds the instance and the
start, and the row's other cells reuse them, read-only.  Nothing else is
shared, and results do not depend on execution order or worker count.

Config files are flat INI text with a [generator] and a [sweep] section.
A section is one spec and its keys are that spec's fields: the
[generator] keys are :class:`~sqrtminvol.datagen.InstanceSpec`'s, the
[sweep] keys :class:`ExperimentSpec`'s but ``generator``
(:data:`INI_KEYS`; any other section or key is an error), grids written
as whitespace-separated values, as :func:`write_ini` writes them.  See
the README.
"""

import configparser
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .datagen import InstanceSpec, make_instance
from .errors import InvalidInputError, SqrtMinvolError
from .initialization import snpa
from .linalg import check_integer
from .matrixio import _read_text, format_value
from .metrics import rel_rmse_W, rel_rmse_X
from .solver import SETTINGS, make_config, solve

__all__ = [
    "ExperimentSpec",
    "SweepRecord",
    "SummaryRow",
    "cell_seed",
    "run_cell",
    "run_sweep",
    "summarize",
    "parse_generator_config",
    "parse_experiment_config",
    "write_ini",
]

@dataclass(frozen=True)
class ExperimentSpec:
    """Full description of a sweep; every field but ``generator`` is a [sweep] key.

    ``generator`` is a template descriptor whose ``sigma`` and ``seed``
    fields are overwritten per cell.  For the baseline solver the
    ``lambda_grid`` values are the init-scaled weights lambda-tilde,
    rescaled per instance from the start; for the square-root solver
    they are used as-is.  Every cell solves at the generator's rank.  The
    fields named in :data:`~sqrtminvol.solver.SETTINGS` are passed to
    :func:`~sqrtminvol.solver.solve` under the same names and take the
    solver's default when None.  ``max_outer`` budgets both solvers: a
    square-root solve counts its SNPA start as outer iteration 1, so it
    makes ``max_outer - 1`` majorization steps, and a baseline solve
    ``max_outer`` sweeps after its start.  A setting the solver would
    refuse (``epsilon`` on a baseline spec, see
    :data:`~sqrtminvol.solver.SOLVER_ONLY`, or ``max_outer = 0``) and a
    generator whose rank SNPA cannot select (``r`` above ``min(m, n)``)
    are refused when the spec is built, not in every cell.
    """

    generator: InstanceSpec
    solver: str
    sigma_grid: tuple
    lambda_grid: tuple
    base_seed: int
    replicates: int = 1
    delta: float = None
    epsilon: float = None
    max_outer: int = None
    tol: float = None

    def __post_init__(self):
        _check_rank(self.generator)
        if len(self.sigma_grid) == 0:
            raise InvalidInputError("sigma_grid must be non-empty")
        if len(self.lambda_grid) == 0:
            raise InvalidInputError("lambda_grid must be non-empty")
        for s in self.sigma_grid:
            if not (0.0 <= s < np.inf):
                raise InvalidInputError(
                    f"sigma_grid values must be finite and >= 0, got {s}"
                )
        for l in self.lambda_grid:
            if not (0.0 < l < np.inf):
                raise InvalidInputError(
                    f"lambda_grid values must be finite and > 0, got {l}"
                )
        if check_integer(self.replicates, "replicates") < 1:
            raise InvalidInputError("replicates must be >= 1")
        if check_integer(self.base_seed, "base_seed") < 0:
            raise InvalidInputError(f"base_seed must be >= 0, got {self.base_seed}")
        # A setting the solver rejects fails here, not once in every cell.
        make_config(self.solver, **self.solve_settings(self.lambda_grid[0]))

    def solve_settings(self, lam):
        """Keywords of :func:`~sqrtminvol.solver.solve` for grid weight ``lam``."""
        weight = "lambda_tilde" if self.solver == "minvol-baseline" else "lam"
        return {weight: lam, **{name: getattr(self, name) for name in SETTINGS}}

    def resolved(self):
        """This spec with each setting at the value its solver runs with.

        A setting the solver does not read (the baseline's ``epsilon``) stays None.
        """
        config = make_config(self.solver, **self.solve_settings(self.lambda_grid[0]))
        return replace(self, **{name: getattr(config, name, None) for name in SETTINGS})


@dataclass
class SweepRecord:
    """One grid cell result; ``lam`` holds the grid value for the cell.

    ``stop`` is the solve's :attr:`~sqrtminvol.baseline.SolveTrace.stop`, None
    for a faulted cell.  ``wall_ms`` is the cell's own time, except that
    the first cell of a row (or of a row's chunk, see :func:`run_sweep`)
    also carries the instance and SNPA start that the row's other cells
    reuse.  ``sweep.csv`` is these records, ``lam`` headed ``lambda``.
    """

    solver: str
    sigma: float
    lam: float = field(metadata={"column": "lambda"})
    replicate: int
    seed: int
    rel_rmse_X: float = None
    rel_rmse_W: float = None
    final_obj: float = None
    outer_iters: int = 0
    status: str = "ok"
    stop: str = None
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
        factors, trace = solve(
            X, spec.generator.rank, spec.solver, start=start, **spec.solve_settings(lam)
        )
        W, H = factors.W, factors.H
        rec.rel_rmse_X, rec.rel_rmse_W, rec.final_obj, rec.outer_iters, rec.stop = (
            rel_rmse_X(gt.X_star, W, H), rel_rmse_W(gt.W_star, W),
            trace.objective, trace.rows[-1].k, trace.stop,
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
    of ``min(jobs, tasks)`` processes.  ``jobs`` that is not an integer
    (a numpy integer will do) or is below 1 raises.
    """
    if check_integer(jobs, "jobs") < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs}")
    tasks = [(spec, *task) for task in _tasks(spec, jobs)]
    if jobs == 1:
        done = [_run_task(*t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(int(jobs), len(tasks))) as pool:
            done = list(pool.map(_run_task_packed, tasks, chunksize=1))
    return [rec for records in done for rec in records]


def summarize(records, sigma_grid, lambda_grid):
    """Per-sigma minima of replicate-averaged errors, with their lambdas.

    Averaging over replicates before taking the minimum keeps the
    reported argmin stable against single-replicate luck.  Faulted
    cells are left out; ties resolve to the earliest lambda in grid
    order.
    """
    rows = []
    for sigma in sigma_grid:
        row = SummaryRow(sigma=sigma)
        ok = [r for r in records if r.status == "ok" and r.sigma == sigma]
        for key in ("X", "W"):
            means = {}
            for lam in lambda_grid:
                errors = [getattr(r, f"rel_rmse_{key}") for r in ok if r.lam == lam]
                if errors:
                    means[lam] = float(np.mean(errors))
            if means:
                lam = min(means, key=means.get)  # the first of equal minima
                setattr(row, f"min_rel_rmse_{key}", means[lam])
                setattr(row, f"argmin_lambda_{key}", lam)
        rows.append(row)
    return rows


def _config_error(path, section, message):
    return InvalidInputError(f"{path}: [{section}] {message}")


def _float_list(raw):
    return tuple(float(tok) for tok in raw.split())


# Every key a config file may hold, with its type, by section; any other
# section or key is an error.  A section's keys are its spec's fields, read
# off the dataclasses, and a grid (a tuple field) is whitespace-separated.
INI_KEYS = {
    "generator": {f.name: f.type for f in fields(InstanceSpec)},
    "sweep": {
        f.name: _float_list if f.type is tuple else f.type
        for f in fields(ExperimentSpec)
        if f.name != "generator"
    },
}


def _read_ini(path, required):
    """The typed values of every section, once the ``required`` keys are found."""
    # No interpolation: a '%' is part of the value, which its key's type then judges.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    text = _read_text(path, "utf-8")
    try:
        parser.read_string(text, source=str(path))
    except configparser.MissingSectionHeaderError as err:
        message = f"line {err.lineno}: {err.line!r} comes before any section"
        raise InvalidInputError(f"{path}: {message}") from err
    except configparser.ParsingError as err:
        # configparser names the file again, and each bad line on a line of its own.
        lineno, line = err.errors[0]
        message = f"line {lineno}: {line} is not key = value"
        raise InvalidInputError(f"{path}: {message}") from err
    except configparser.Error as err:
        # A section or key given twice; configparser's message names the file again.
        key = f"key {err.option!r}" if hasattr(err, "option") else "section"
        message = f"line {err.lineno}: {key} repeated"
        raise _config_error(path, err.section, message) from err
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


def write_ini(path, sections):
    """Write ``{section: spec}`` as INI text that parses back to the same specs.

    A section's keys are its :data:`INI_KEYS`, in field order, each with its
    spec's value: None is left out, a tuple is space-separated, and every
    value is written by :func:`~sqrtminvol.matrixio.format_value`.
    """
    lines = []
    for section, spec in sections.items():
        lines.append(f"[{section}]")
        for key in INI_KEYS[section]:
            value = getattr(spec, key)
            if value is not None:
                values = value if isinstance(value, tuple) else (value,)
                lines.append(f"{key} = " + " ".join(format_value(key, v) for v in values))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_rank(generator):
    """Refuse a generator whose rank SNPA cannot select from its data."""
    top = min(generator.rows, generator.n)
    if generator.rank > top:
        raise InvalidInputError(
            f"r = {generator.rank} exceeds min(m, n) = {top}: "
            f"a sweep cannot select {generator.rank} columns"
        )


def _build_generator(path, values, for_sweep=False):
    try:
        generator = InstanceSpec(**values)
        if for_sweep:
            _check_rank(generator)
        return generator
    except InvalidInputError as err:
        raise _config_error(path, "generator", str(err)) from err


def parse_generator_config(path):
    """[generator] section only, for the generate command."""
    ini = _read_ini(path, {"generator": ("name", "n", "sigma", "seed")})
    return _build_generator(path, ini["generator"])


def parse_experiment_config(path):
    """[generator] and [sweep] sections, as an :class:`ExperimentSpec`."""
    required = ("solver", "sigma_grid", "lambda_grid", "base_seed")
    ini = _read_ini(path, {"generator": ("name", "n"), "sweep": required})
    generator = _build_generator(
        path, {"sigma": 0.0, "seed": 0, **ini["generator"]}, for_sweep=True
    )
    try:
        return ExperimentSpec(generator=generator, **ini["sweep"])
    except InvalidInputError as err:
        raise _config_error(path, "sweep", str(err)) from err

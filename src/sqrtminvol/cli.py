"""Command line front end: generate, solve, sweep.

Exit codes: 0 success, 2 invalid input or config, 3 numerical fault.

Each BLAS thread cap the environment leaves unset is set to one before
numpy loads, so by default results do not depend on the host's core
count; a cap that is already set keeps its value.  Sweep parallelism
comes from the process pool (``--jobs``), not from threaded kernels.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")

import argparse
import sys
from dataclasses import asdict
from pathlib import Path

from .errors import InvalidInputError, NumericalFaultError, SqrtMinvolError
from .baseline import ObjectiveRow
from .solver import SETTINGS, SOLVER_NAMES, TraceRow, make_config, solve


def cmd_generate(args):
    from .datagen import make_instance
    from .matrixio import format_value, write_matrix
    from .sweep import parse_generator_config

    spec = parse_generator_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    gt, X = make_instance(spec)
    for name, M in (
        ("X", X),
        ("X_star", gt.X_star),
        ("W_star", gt.W_star),
        ("H_star", gt.H_star),
    ):
        path = out / f"{name}.txt"
        write_matrix(path, M)
        print(path)
    # The spec's fields are the [generator] keys, so the manifest parses back to spec.
    values = asdict(spec).items()
    lines = [f"{k} = {format_value(k, v)}" for k, v in values if v is not None]
    manifest = out / "manifest.ini"
    manifest.write_text("\n".join(["[generator]", *lines]) + "\n")
    print(manifest)
    return 0


# The solve weights and settings, with their types: one flag each, from _flag.
_SOLVE_FLAGS = {"lam": float, "lambda_tilde": float, **SETTINGS}


def _flag(name):
    """The command-line flag of a solve setting: ``lam`` is ``--lambda``."""
    return "--" + {"lam": "lambda"}.get(name, name).replace("_", "-")


def _write_trace(out, row_type, trace):
    from .matrixio import write_table

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "trace.csv", "w") as fh:
        write_table(fh, row_type, trace.rows)


def cmd_solve(args):
    from .matrixio import read_matrix, write_matrix
    from .metrics import rel_rmse_W, rel_rmse_X

    baseline = args.solver == "minvol-baseline"
    row_type = ObjectiveRow if baseline else TraceRow
    settings = {name: getattr(args, name) for name in _SOLVE_FLAGS}
    make_config(args.solver, spell=_flag, **settings)
    out = Path(args.out)
    # The solve's results need a directory: its nearest existing part must be one.
    found = next(p for p in (out, *out.parents) if p.exists())
    if not found.is_dir():
        raise InvalidInputError(f"--out {out}: {found} is not a directory")
    X = read_matrix(args.x_path)
    W_star = read_matrix(args.w_star) if args.w_star else None
    X_star = read_matrix(args.x_star) if args.x_star else None
    for flag, M, shape in (
        ("--w-star", W_star, (X.shape[0], args.rank)),
        ("--x-star", X_star, X.shape),
    ):
        if M is not None and M.shape != shape:
            raise InvalidInputError(f"{flag} has shape {M.shape}, expected {shape}")
    try:
        W, H, cfg, final_obj, iters, trace = solve(
            X, args.rank, args.solver, ground_truth=(W_star, X_star), **settings
        )
    except NumericalFaultError as err:
        if err.trace is not None:
            _write_trace(out, row_type, err.trace)
        raise
    echo = f"solver={args.solver} rank={args.rank} lambda={cfg.lam:.17g}"
    if args.lambda_tilde is not None:
        echo += f" (from lambda_tilde={args.lambda_tilde:.17g})"
    echo += f" delta={cfg.delta:.17g}"
    print(echo if baseline else f"{echo} epsilon={cfg.epsilon:.17g}")
    _write_trace(out, row_type, trace)
    write_matrix(out / "W.txt", W)
    write_matrix(out / "H.txt", H)
    print(f"outer_iters={iters} final_obj={final_obj:.17g} stop={trace.stop}")
    if X_star is not None:
        print(f"rel_rmse_X={rel_rmse_X(X_star, W, H):.17g}")
    if W_star is not None:
        print(f"rel_rmse_W={rel_rmse_W(W_star, W):.17g}")
    return 0


def cmd_sweep(args):
    from .matrixio import write_table
    from .sweep import SummaryRow, SweepRecord, parse_experiment_config, run_sweep
    from .sweep import summarize

    if args.jobs < 1:
        raise InvalidInputError(f"--jobs must be >= 1, got {args.jobs}")
    spec = parse_experiment_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = run_sweep(spec, jobs=args.jobs)
    with open(out / "sweep.csv", "w") as fh:
        write_table(fh, SweepRecord, records)
    rows = summarize(records, spec.sigma_grid, spec.lambda_grid)
    with open(out / "summary.csv", "w") as fh:
        write_table(fh, SummaryRow, rows)
    print(out / "sweep.csv")
    print(out / "summary.csv")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sqrtminvol",
        description="Min-vol NMF benchmarks: square-root solver and baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic instance to files")
    p_gen.add_argument("config", help="INI file with a [generator] section")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="factor one data matrix")
    p_solve.add_argument("x_path", help="data matrix file")
    p_solve.add_argument("--rank", type=int, required=True)
    p_solve.add_argument("--solver", choices=SOLVER_NAMES, default="sqrt-minvol")
    for name, kind in _SOLVE_FLAGS.items():
        p_solve.add_argument(_flag(name), dest=name, type=kind)
    p_solve.add_argument("--w-star", default=None, help="true W for recovery error")
    p_solve.add_argument("--x-star", default=None, help="noiseless X for fit error")
    p_solve.add_argument("--out", default=".", help="directory for W, H and the trace")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a (sigma, lambda) grid")
    p_sweep.add_argument("config", help="INI file with [generator] and [sweep]")
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SqrtMinvolError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, NumericalFaultError) else 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end: generate, solve, sweep.

Exit codes: 0 success, 2 invalid input or config, 3 numerical fault.

BLAS thread caps are pinned to one before numpy loads so results do
not depend on the host's core count; sweep parallelism comes from the
process pool (``--jobs``), not from threaded kernels.
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
from dataclasses import replace
from pathlib import Path

from .errors import (
    InvalidInputError,
    InvalidParameterError,
    NumericalFaultError,
    SqrtMinvolError,
)


def _manifest_text(spec):
    lines = ["[generator]", f"name = {spec.name}", f"n = {spec.n}"]
    if spec.m is not None:
        lines.append(f"m = {spec.m}")
    if spec.r is not None:
        lines.append(f"r = {spec.r}")
    lines.append(f"alpha = {spec.alpha:.17g}")
    lines.append(f"sigma = {spec.sigma:.17g}")
    lines.append(f"seed = {spec.seed}")
    return "\n".join(lines) + "\n"


def _with_seed(spec, section, **seed):
    """``spec`` with its seed set from ``--seed``, refused as the INI key would be."""
    try:
        return replace(spec, **seed)
    except InvalidParameterError as err:
        raise InvalidInputError(f"--seed: [{section}] {err}") from err


def cmd_generate(args):
    from .datagen import make_instance
    from .matrixio import write_matrix
    from .sweep import parse_generator_config

    spec = parse_generator_config(args.config)
    if args.seed is not None:
        spec = _with_seed(spec, "generator", seed=args.seed)
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
    manifest = out / "manifest.ini"
    manifest.write_text(_manifest_text(spec))
    print(manifest)
    return 0


def _flag(name):
    """The command-line flag of a solve setting: ``lam`` is ``--lambda``."""
    return "--" + {"lam": "lambda"}.get(name, name).replace("_", "-")


def cmd_solve(args):
    from .matrixio import read_matrix, write_matrix
    from .metrics import rel_rmse_W, rel_rmse_X
    from .solver import check_settings, solve

    baseline = args.solver == "minvol-baseline"
    settings = dict(lam=args.lam, lambda_tilde=args.lambda_tilde, epsilon=args.epsilon)
    check_settings(args.solver, settings, spell=_flag)
    X = read_matrix(args.x_path)
    W_star = read_matrix(args.w_star) if args.w_star else None
    X_star = read_matrix(args.x_star) if args.x_star else None
    out = Path(args.out)
    try:
        W, H, cfg, final_obj, iters, trace = solve(
            X,
            args.rank,
            args.solver,
            lam=args.lam,
            lambda_tilde=args.lambda_tilde,
            delta=args.delta,
            epsilon=args.epsilon,
            max_outer=args.max_outer,
            tol=args.tol,
            ground_truth=(W_star, X_star),
        )
    except NumericalFaultError as err:
        if err.trace is not None:
            out.mkdir(parents=True, exist_ok=True)
            with open(out / "trace.csv", "w") as fh:
                err.trace.write_csv(fh)
        raise
    echo = f"solver={args.solver} rank={args.rank} lambda={cfg.lam:.17g}"
    if args.lambda_tilde is not None:
        echo += f" (from lambda_tilde={args.lambda_tilde:.17g})"
    echo += f" delta={cfg.delta:.17g}"
    print(echo if baseline else f"{echo} epsilon={cfg.epsilon:.17g}")
    out.mkdir(parents=True, exist_ok=True)
    write_matrix(out / "W.txt", W)
    write_matrix(out / "H.txt", H)
    with open(out / "trace.csv", "w") as fh:
        trace.write_csv(fh)
    print(f"outer_iters={iters} final_obj={final_obj:.17g} stop={trace.stop}")
    if X_star is not None:
        print(f"rel_rmse_X={rel_rmse_X(X_star, W, H):.17g}")
    if W_star is not None:
        print(f"rel_rmse_W={rel_rmse_W(W_star, W):.17g}")
    return 0


def cmd_sweep(args):
    from .sweep import (
        parse_experiment_config,
        run_sweep,
        summarize,
        write_summary_csv,
        write_sweep_csv,
    )

    if args.jobs < 1:
        raise InvalidParameterError(f"--jobs must be >= 1, got {args.jobs}")
    spec = parse_experiment_config(args.config)
    if args.seed is not None:
        spec = _with_seed(spec, "sweep", base_seed=args.seed)
    out_dir = args.out if args.out is not None else spec.out_dir
    if out_dir is None:
        raise InvalidInputError("no output directory: give --out or an 'out' key")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = run_sweep(spec, jobs=args.jobs)
    with open(out / "sweep.csv", "w") as fh:
        write_sweep_csv(fh, records)
    rows = summarize(records, spec.sigma_grid, spec.lambda_grid)
    with open(out / "summary.csv", "w") as fh:
        write_summary_csv(fh, rows)
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
    p_gen.add_argument("--seed", type=int, default=None, help="override config seed")
    p_gen.set_defaults(func=cmd_generate)

    p_solve = sub.add_parser("solve", help="factor one data matrix")
    p_solve.add_argument("x_path", help="data matrix file")
    p_solve.add_argument("--rank", type=int, required=True)
    p_solve.add_argument(
        "--solver",
        choices=("sqrt-minvol", "minvol-baseline"),
        default="sqrt-minvol",
    )
    p_solve.add_argument("--lambda", dest="lam", type=float, default=None)
    p_solve.add_argument("--lambda-tilde", type=float, default=None)
    p_solve.add_argument("--delta", type=float, default=None)
    p_solve.add_argument("--epsilon", type=float, default=None)
    p_solve.add_argument("--max-outer", type=int, default=None)
    p_solve.add_argument("--tol", type=float, default=None)
    p_solve.add_argument("--w-star", default=None, help="true W for recovery error")
    p_solve.add_argument("--x-star", default=None, help="noiseless X for fit error")
    p_solve.add_argument("--out", default=".", help="directory for W, H and the trace")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run a (sigma, lambda) grid")
    p_sweep.add_argument("config", help="INI file with [generator] and [sweep]")
    p_sweep.add_argument("--out", default=None, help="override output directory")
    p_sweep.add_argument("--seed", type=int, default=None, help="override base seed")
    p_sweep.add_argument("--jobs", type=int, default=1, help="worker processes")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SqrtMinvolError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, ArithmeticError) else 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

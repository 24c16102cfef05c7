"""Benchmark of the sqrtminvol solvers, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload paper-4x4 --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: calls of
the workload, each on a fresh seeded input, for ``--seconds`` seconds
(at least the workload's quality calls), and between them the set-up
cost of fresh processes.  ``--trace 1`` makes the separate traced run:
a fixed number of inputs, each solved untraced and then traced, and
reports per-layer counts, inclusive and self times, the tracing
overhead, and whether the traced answer matched the untraced one bit
for bit.

Every output is checked in numpy apart from the package.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
environment, one line per call and, when traced, the layer table.
"""

import os

# One BLAS thread, as the CLI and the test suite pin it, before numpy loads.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
SETUP_RUNS = 9
SETUP_TIMEOUT_S = 60


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    if not (SRC / "sqrtminvol" / "__init__.py").is_file():
        fail(f"no sqrtminvol package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import sqrtminvol  # noqa: F401  (the traced run patches it through sys.modules)


def commit():
    """The checked-out commit, read from ``.git`` when there is one."""
    git = REPO / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def environment(seed):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "commit": commit(),
        "seed": seed,
    }


def setup_seconds(workload, seed):
    """Time for a fresh interpreter to import and build its first input."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup probe exited {code} after {line!r}")
    return elapsed


def peak_rss_mb(workload, worker_kb):
    """Peak RSS of this process, plus ``jobs`` times the largest pool worker's."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = workload.jobs * worker_kb if workload.kind == "sweep" else 0
    return (own + workers) / 1024.0


def timed(workload, inp):
    """One call of the workload: ``(seconds, output, error)``."""
    t0 = time.perf_counter()
    try:
        out = workload.call(inp)
    except Exception:
        return time.perf_counter() - t0, None, traceback.format_exc()
    return time.perf_counter() - t0, out, None


def report(problems, label):
    for p in problems:
        print(f"CHECK FAILED {label}: {p}", file=sys.stderr)


def metric(value, unit):
    return {"value": value, "unit": unit}


def median_of(values):
    """Median of the values present; ``None`` when every call failed."""
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run_untraced(name, workload, seed, seconds):
    durations, times, qualities, setups = [], [], [], []
    attempted = failed = 0
    paused = 0.0  # spent in set-up samples, not counted against ``seconds``

    def sample_setup():
        nonlocal paused
        t0 = time.perf_counter()
        setups.append(setup_seconds(name, seed))
        paused += time.perf_counter() - t0

    start = time.perf_counter()
    i = 0
    while i < workload.quality_calls or (
        time.perf_counter() - start - paused + statistics.median(durations) <= seconds
    ):
        inp = workload.make_input(seed, i)
        dt, out, err = timed(workload, inp)
        durations.append(dt)
        units = workload.units()
        attempted += units
        if err is not None:
            failed += units
            print(f"CALL FAILED {name}#{i}:\n{err}", file=sys.stderr)
        else:
            problems = workload.check(inp, out)
            report(problems, f"{name}#{i}")
            # A sweep's problems are per cell; any problem fails a single solve.
            failed += min(units, len(problems))
            times.append(dt)
            q = workload.quality(out)
            if i < workload.quality_calls:
                qualities.append(q)
            print(f"call {i}: solve_s={dt:.4f} " + " ".join(f"{k}={v!r}" for k, v in q.items()))
        i += 1
        if i == 1:
            # The first call's pool workers have exited; no set-up process has run yet.
            worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        # Set-up samples are spread over the run, so they see the machine the calls see.
        due = SETUP_RUNS * (time.perf_counter() - start - paused) / seconds
        while len(setups) < min(due, SETUP_RUNS):
            sample_setup()
    while len(setups) < SETUP_RUNS:
        sample_setup()
    rss = peak_rss_mb(workload, worker_kb)
    setup = statistics.median(setups)
    print(f"calls={len(times)} quality_calls={len(qualities)} "
          f"objective={median_of(q['objective'] for q in qualities)!r}")
    metrics = {
        "solve_s": metric(median_of(times), "s"),
        "setup_s": metric(setup, "s"),
        "rel_rmse_W": metric(median_of(q["rel_rmse_W"] for q in qualities), "ratio"),
        "rel_rmse_X": metric(median_of(q["rel_rmse_X"] for q in qualities), "ratio"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    return attempted, failed, metrics


def run_traced(name, workload, seed):
    import layers
    import tracer as tr

    tracer = tr.Tracer(sys.modules["sqrtminvol"], layers.PROBES)
    totals = layers.Totals()
    attempted = failed = 0
    for i in range(workload.trace_calls):
        units = workload.units()
        attempted += units
        inp = workload.make_input(seed, i)
        untraced_s, plain, err = timed(workload, inp)
        if err is not None:
            failed += units
            print(f"CALL FAILED {name}#{i} untraced:\n{err}", file=sys.stderr)
            continue
        with tracer:
            traced_inp = workload.make_input(seed, i)
            tr.merge(totals.setup_stats, tracer.stats)
            tracer.reset()
            traced_s, out, err = timed(workload, traced_inp)
            records = []
            if out is not None and workload.kind == "sweep":
                tracer.collect(out)
                records = out
        problems = []
        if workload.input_key(traced_inp) != workload.input_key(inp):
            problems.append("traced input differs from the untraced one")
        if err is not None:
            problems.append(f"traced call raised:\n{err}")
        else:
            problems += workload.check(traced_inp, out)
            if workload.answer(out) != workload.answer(plain):
                problems.append("traced answer differs from the untraced one")
            problems += layers.trace_problems(tracer, traced_s, records)
        report(problems, f"{name}#{i} traced")
        failed += min(units, len(problems))
        totals.add_call(tracer, untraced_s, traced_s, records)
        tracer.reset()
    for line in totals.table():
        print(line)
    return attempted, failed, totals.metrics(getattr(workload, "jobs", 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if not args.seconds > 0:
        fail("--seconds must be > 0")
    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True), flush=True)
    if args.trace:
        attempted, failed, metrics = run_traced(args.workload, workload, args.seed)
    else:
        attempted, failed, metrics = run_untraced(
            args.workload, workload, args.seed, args.seconds
        )
    print(f"failed_frac={failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the benchmark and the test-suite times of this checkout in BENCH_<pr>.json.

Run from anywhere, with the number of the change the record belongs to:

    python3 tools/bench_record.py 16

For each workload in BENCHMARK.json it runs ``perfbench/run.py --seed 0
--seconds 30`` untraced (``--trace 0``) and traced (``--trace 1``) and
keeps the last line of each run, the JSON result.  It then runs the tier-1
test suite once with ``--durations`` and keeps its wall time, its summary
line and every test that took more than 1 s.  The environment (Python,
numpy, scipy when installed, ``os.cpu_count()`` and the BLAS thread
variables, pinned to 1 as the benchmark pins them) goes in the same file.
A speed claim quotes two such files, one from before the change and one
from after.
"""

import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SEED = 0
SECONDS = 30
SLOW_TEST_S = 1.0
# A --durations line: "95.12s call     tests/test_acceptance.py::test_name".
DURATION = re.compile(r"^(\d+(?:\.\d+)?)s (setup|call|teardown)\s+(\S+)$")


def environment():
    import numpy

    try:
        import scipy
    except ImportError:
        scipy = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__ if scipy else None,
        "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
    }


def bench(workload, trace):
    """The JSON result, the last line, of one ``perfbench/run.py`` run."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload]
    cmd += ["--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tier1():
    """Wall time, summary line and tests over ``SLOW_TEST_S`` of one tier-1 run."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    cmd += ["-p", "no:cacheprovider", f"--durations-min={SLOW_TEST_S}", "--durations=0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=REPO, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    slow = []
    for line in lines:
        match = DURATION.match(line.strip())
        if match:
            seconds, phase, test = match.groups()
            slow.append({"test": test, "phase": phase, "seconds": float(seconds)})
    return {
        "wall_s": round(wall_s, 3),
        "exit_code": proc.returncode,
        "summary": lines[-1].strip("= ") if lines else "",
        "durations_over_1s": slow,
    }


def main(argv):
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 tools/bench_record.py <pr>", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = "1"
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    record = {"environment": environment(), "seed": SEED, "seconds": SECONDS}
    record["workloads"] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        record["workloads"][workload] = {
            f"trace_{trace}": bench(workload, trace) for trace in (0, 1)
        }
        print(f"benchmarked {workload}", flush=True)
    record["tier1"] = tier1()
    out = REPO / f"BENCH_{argv[0]}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

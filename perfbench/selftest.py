"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

For every workload, on seed 0 and on seed 7:

- a traced run reports ``correct``: its answers equal the untraced
  answers on the same inputs bit for bit, its outputs pass the checks,
  and its spans account for the traced call;
- a second traced run gives identical per-layer counts;
- the traced run prints exactly the ``per_layer`` metrics of
  BENCHMARK.json, and an untraced run exactly the ``end_to_end`` ones.

Once: installing and removing the tracer leaves every reference in the
package as it was, and ``run.py`` exits non-zero without a result when
the program is missing.  Exits 1 if any of this fails.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
RUN_TIMEOUT_S = 600
SEEDS = (0, 7)
sys.path[:0] = [str(HERE), str(REPO / "src")]

import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def run(workload, seed, trace, cwd=REPO, seconds=1):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)


def result(proc):
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(res):
    return {
        name: m["value"]
        for name, m in res["metrics"].items()
        if m["unit"] == "count" or name == "projections.overfull_col_frac"
    }


def check_workload(workload, seed, spec, errors):
    label = f"{workload} seed {seed}"
    first, second = (result(run(workload, seed, 1)) for _ in range(2))
    for res in (first, second):
        if not res["correct"] or res["failed"]:
            errors.append(f"{label}: traced run not correct: {res['failed']} failed")
    if counts(first) != counts(second):
        diff = {k: (v, counts(second).get(k)) for k, v in counts(first).items()
                if counts(second).get(k) != v}
        errors.append(f"{label}: per-layer counts differ between traced runs: {diff}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    got = {name: m["unit"] for name, m in first["metrics"].items()}
    if got != expected:
        errors.append(f"{label}: traced metrics differ from BENCHMARK.json per_layer")
    plain = result(run(workload, seed, 0))
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    got = {name: m["unit"] for name, m in plain["metrics"].items()}
    if got != expected or not plain["correct"]:
        errors.append(f"{label}: untraced run gave {got}, correct={plain['correct']}")


def check_restore(errors):
    import sqrtminvol

    def snapshot():
        return {
            (name, attr): value
            for name, mod in list(sys.modules.items())
            if name.startswith("sqrtminvol")
            for attr, value in vars(mod).items()
        }

    tr.public_functions(sqrtminvol)
    before = snapshot()
    tracer = tr.Tracer(sqrtminvol)
    with tracer:
        if tracer.patched_count() == 0:
            errors.append("tracer patched nothing")
        projections = sys.modules["sqrtminvol.projections"]
        baseline = sys.modules["sqrtminvol.baseline"]
        if baseline.project_H_columns is not projections.project_H_columns:
            errors.append("project_H_columns not patched alike in baseline and projections")
    after = snapshot()
    changed = [key for key in before if before[key] is not after.get(key)]
    if changed:
        errors.append(f"tracer left patched references: {changed[:5]}")


def check_missing_program(errors):
    with tempfile.TemporaryDirectory(dir=REPO, prefix=".perfbench-selftest-") as tmp:
        tmp = Path(tmp)
        shutil.copy(REPO / "BENCHMARK.json", tmp / "BENCHMARK.json")
        shutil.copytree(HERE, tmp / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("paper-4x4", 0, 0, cwd=tmp)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"without the program run.py exited {proc.returncode} "
                          f"printing {proc.stdout[-200:]!r}")


def main():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    errors = []
    check_restore(errors)
    check_missing_program(errors)
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            check_workload(workload, seed, spec, errors)
            print(f"checked {workload} seed {seed}", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

"""One fresh-process set-up of a workload: imports plus its first input.

Prints ``ready`` once the input exists; ``run.py`` times several of
these from process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

import run  # pins the BLAS threads before numpy loads

run.import_program()
import workloads

workload = workloads.WORKLOADS[sys.argv[1]]
workloads.module(workload.call_module)
workload.make_input(int(sys.argv[2]), 0)
print("ready", flush=True)

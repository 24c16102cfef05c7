"""The frozen benchmark's calls into the package run and pass its own checks.

``perfbench/workloads.py`` is read from its file and run as it is, with
no change to ``sys.path``, so a change to the package that would break the
benchmark's calls or the names its checks read fails here first.
"""

import types
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    # Compiled from its text, so no bytecode cache is written next to it.
    module = types.ModuleType("perfbench_workloads")
    exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("name", ["paper-4x4", "uniform-r20", "sqrt-sweep"])
def test_first_call_passes_its_check(workloads, name):
    workload = workloads.WORKLOADS[name]
    inp = workload.make_input(0, 0)
    assert workload.check(inp, workload.call(inp)) == []

"""The benchmark's workloads (perfbench/workloads.py) run here at seed 0 and
pass their own checks, so a change to a name the benchmark calls fails in
this suite and not only in a benchmark run.  perfbench/ is read, not changed."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402  (perfbench's modules import each other by name)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_check(name):
    make_inputs, run, check = workloads.WORKLOADS[name]
    inp = make_inputs(0)
    assert check(inp, run(inp)) == []

"""The benchmark's workloads (perfbench/workloads.py) run here at seed 0 and
pass their own checks, so a change to a name the benchmark calls fails in
this suite and not only in a benchmark run; so does a change that breaks the
benchmark's trace mode (perfbench/spans.py).  perfbench/ is read, not changed."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402  (perfbench's modules import each other by name)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_check(name):
    make_inputs, run, check = workloads.WORKLOADS[name]
    inp = make_inputs(0)
    assert check(inp, run(inp)) == []


# As perfbench/worker.py --mode trace does it, for every workload in one
# fresh interpreter: inputs made, spans installed, each run inside the root
# span; then one value() call, whose memo probe no workload's run reaches.
TRACED = """
import json, spans, workloads
from gl3hecke import hecke, tau
inputs = {name: make(0) for name, (make, _, _) in workloads.WORKLOADS.items()}
rec = spans.Recorder()
spans.install(rec)
for name, (_, run, _) in workloads.WORKLOADS.items():
    rec.run(run, inputs[name])
hecke.CoefficientTable(tau.sym2_tau_locals(10), 10, 10).value(6, 4)
print(json.dumps({"absent": rec.absent, "counts": rec.counts}))
"""


def test_trace_mode_wraps_every_name_and_runs_every_workload():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", TRACED], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    assert out["absent"] == ["measures.integrate_adaptive"]
    assert out["counts"]["hecke.CoefficientTable.value.calls"] >= 1
    assert out["counts"]["workload.calls"] == len(workloads.WORKLOADS)

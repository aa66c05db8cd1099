"""gl3hecke benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; gl3hecke is imported from its src/.  Each
repetition of the workload runs in a fresh interpreter (worker.py), one at a
time.  The runner first starts five set-up-only interpreters, then repeats
the workload until S seconds have passed, always finishing the repetition it
is in.  With --trace 0 it reports the medians over repetitions of run_s,
cpu_s and peak_rss_mb, and the median set-up time over all interpreters it
started.  With --trace 1 it alternates untraced and traced repetitions and
reports the per-layer medians of the traced ones, plus trace.overhead_s, the
median traced run_s minus the median untraced run_s.

The last line of standard output is the JSON result.  The line before it
records host noise: steal seconds over the run and over each repetition,
and the 1-minute load average.  Both are also written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import host_steal_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
TIME_LIMIT_S = 170.0      # the whole run, hard stop included


class RunError(RuntimeError):
    """A repetition could not be run at all (not a failed operation)."""


def load_average() -> float | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None


def spawn(workload: str, seed: int, mode: str, layers: str, deadline: float) -> dict:
    """Run one worker interpreter and return its JSON result, with setup_s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--layers", layers]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"{mode} repetition of {workload} passed the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"{mode} repetition of {workload} exited {proc.returncode}:\n"
                       f"{proc.stderr[-4000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - started
    return result


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "gl3hecke" / "__init__.py").is_file():
        print(f"error: no gl3hecke sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    steal0 = host_steal_s()
    layers = ",".join(m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_s")
    modes = ("run", "trace") if args.trace else ("run",)
    try:
        setups = [spawn(args.workload, args.seed, "setup", layers, deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
        reps: list[dict] = []
        measuring = time.monotonic()
        while True:
            for mode in modes:
                rep = spawn(args.workload, args.seed, mode, layers, deadline)
                rep["mode"] = mode
                reps.append(rep)
            now = time.monotonic()
            longest = max(r["setup_s"] + r["run_s"] + r.get("check_s", 0.0) for r in reps)
            if now - measuring >= args.seconds or now + len(modes) * 1.5 * longest > deadline:
                break
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ok = [r for r in reps if not r["failed"]]
    failures = sorted({f for r in ok for f in r["failures"]})
    for f in failures[:20]:
        print(f"check failed: {f}", file=sys.stderr)
    if len(failures) > 20:
        print(f"... and {len(failures) - 20} more failed checks", file=sys.stderr)
    setups += [r["setup_s"] for r in reps]
    untraced = [r for r in ok if r["mode"] == "run"]
    traced = [r for r in ok if r["mode"] == "trace"]
    if args.trace:
        wanted = spec["per_layer"]
        values = {m: statistics.median(r["layers"][m] for r in traced)
                  for m in traced[0]["layers"]} if traced else {}
        if traced and untraced:
            values["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                          - statistics.median(r["run_s"] for r in untraced))
    else:
        wanted = spec["end_to_end"]
        values = {m: statistics.median(r[m] for r in untraced)
                  for m in ("run_s", "cpu_s", "peak_rss_mb")} if untraced else {}
        values["setup_s"] = statistics.median(setups)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in wanted}

    steal1 = host_steal_s()
    host = {
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
        "loadavg_1min": load_average(),
        "reps": [{k: r.get(k) for k in ("mode", "run_s", "cpu_s", "setup_s", "steal_s",
                                         "check_s", "failed")} for r in reps],
        "absent": sorted({a for r in traced for a in r["absent"]}),
        "self_s": traced[-1]["self_s"] if traced else None,
    }
    result = {"correct": not failures, "attempted": len(reps),
              "failed": len(reps) - len(ok), "metrics": metrics}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setups_s": setups, "host": host, **result}
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

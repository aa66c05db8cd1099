"""One repetition of one workload, in a fresh interpreter so that no memo of
gl3hecke (the lru caches in tau, arith and schuralg, or a CoefficientTable)
carries over from one repetition to the next.

    python3 perfbench/worker.py --workload NAME --seed N --mode run|trace|setup

Set-up is the imports and the generation of the inputs; the worker prints
the monotonic time at which it was done, so the parent, which noted the time
before starting the interpreter, gets set-up from interpreter start.  Mode
`run` then times the workload; mode `trace` times it with spans installed
and writes the spans to perfbench/out/.  The last line of standard output is
one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent


def host_steal_s() -> float | None:
    """Steal time of the whole host since boot, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) / 100.0 if len(fields) > 8 and fields[0] == "cpu" else None


def cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("run", "trace", "setup"), required=True)
    ap.add_argument("--layers", default="", help="comma-separated per-layer metrics")
    args = ap.parse_args(argv)

    import spans
    import workloads

    make_inputs, run, check = workloads.WORKLOADS[args.workload]
    inp = make_inputs(args.seed)
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    rec = None
    if args.mode == "trace":
        rec = spans.Recorder()
        spans.install(rec)
    steal0, cpu0, t0 = host_steal_s(), cpu_s(), time.perf_counter()
    try:
        out = run(inp) if rec is None else rec.run(run, inp)
    except Exception:
        traceback.print_exc()
        out = None
    t1, cpu1, steal1 = time.perf_counter(), cpu_s(), host_steal_s()
    result.update({
        "failed": out is None,
        "run_s": t1 - t0,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steal_s": None if steal0 is None or steal1 is None else steal1 - steal0,
    })
    if rec is not None:
        layers = [m for m in args.layers.split(",") if m]
        result["layers"] = spans.layer_metrics(rec, layers)
        result["self_s"] = rec.self_times()
        result["absent"] = rec.absent
        (HERE / "out").mkdir(exist_ok=True)
        rec.save(HERE / "out" / f"spans-{args.workload}.npz")
    if out is not None:
        t2 = time.perf_counter()
        result["failures"] = check(inp, out)
        result["check_s"] = time.perf_counter() - t2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line front end: data generation, CSV ingestion, verification
suites, and experiment reports.

All reports are JSON with sorted keys and no timestamps, so a command re-run
with the same seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

import numpy as np

from . import dirichlet as dmod
from . import hecke, klpoly, measures, schuralg, signstats, suites, tau
from .arith import _MR_PROOF_BOUND, is_prime
from .csvio import IngestError, read_csv, write_csv


def _finite(text: str, field: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{field} = {text.strip()} is not finite")
    return value


def _gl2_row(row) -> tuple[int, float]:
    p = int(row[0])
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p, _finite(row[1], "lambda")


def _seq_row(row) -> tuple[int, float]:
    # ingest allocates a dense sequence up to the largest m: cap it as signs --X
    m = int(row[0])
    if not 1 <= m <= 10**6:
        raise ValueError(f"index m = {m} outside [1, 10^6]")
    return m, _finite(row[1], "value")


def ingest(path: str, fmt: str):
    """Parse a gl2csv (`p,lambda`) or seqcsv (`m,value`) file.

    gl2csv returns GL2FormData, with a warning when its ramanujan flag is
    false; seqcsv returns a RealSequence (missing indices are zero).
    """
    if fmt == "gl2csv":
        form = hecke.GL2FormData(list(read_csv(path, ("p", "lambda"), "prime", _gl2_row).items()))
        if not form.ramanujan:
            print(f"warning: {path} has |lambda| > 2; ramanujan flag is false",
                  file=sys.stderr)
        return form

    if fmt == "seqcsv":
        values = read_csv(path, ("m", "value"), "index", _seq_row)
        top = max(values) if values else 0
        return signstats.RealSequence([values.get(m, 0.0) for m in range(1, top + 1)])

    raise IngestError(f"unknown format {fmt!r}")


def write_report(obj, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _largest(values) -> float:
    """The largest of values, or NaN if any is NaN: Python's max keeps its
    running value when the next one is NaN.  Unlike `suites.worst` there is
    no floor at 0, so a negative largest value is reported as it is."""
    return float(np.max(np.fromiter(values, float)))


def _int_or_auto(text: str):
    return text if text == "auto" else int(text)


def _auto_window(X: int, H_arg, M_arg) -> tuple[int, int]:
    H = math.ceil(X ** (1.0 / 6.0)) if H_arg == "auto" else H_arg
    M = min(math.ceil(X ** 0.1), H - 1) if M_arg == "auto" else M_arg
    return H, M


def cmd_verify(args) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    report: dict = {"command": "verify", "seed": args.seed, "suites": {}}
    ok = True
    for name in names:
        checks = suites.SUITES[name](seed=args.seed)
        report["suites"][name] = {
            "checks": suites.checks_to_json(checks),
            "passed": suites.all_passed(checks),
        }
        ok = ok and suites.all_passed(checks)
    report["passed"] = ok
    write_report(report, args.out)
    return 0 if ok else 1


def cmd_gen(args) -> int:
    if args.what == "tau":
        write_csv(args.out, ("m", "value"), enumerate(tau.ramanujan_tau(args.N), start=1))
        return 0
    if args.what == "gl2":
        write_csv(args.out, ("p", "lambda"), tau.tau_prime_eigenvalues(args.N))
        return 0
    if args.what == "table":
        table = hecke.CoefficientTable(tau.sym2_tau_locals(args.N), args.N, args.bound_n)
        table.export_csv(args.out)
        return 0
    spec = (measures.MeasureSpec.plancherel(args.p) if args.measure == "plancherel"
            else measures.MeasureSpec.sato_tate())
    if args.what == "samples":
        write_csv(args.out, ("theta1", "theta2"),
                  zip(*measures.sample_angles(spec, args.count, args.seed)))
        return 0
    if args.what == "density":
        nodes = measures.QuadratureGrid(args.K).nodes
        write_csv(args.out, ("theta1", "theta2", "density"), (
            (a, b, measures.density(spec, measures.TorusPoint(float(a), float(b))))
            for a in nodes for b in nodes
        ))
        return 0
    raise IngestError(f"unknown generator {args.what!r}")


def cmd_kato(args) -> int:
    rec = klpoly.kato_check(args.l1, args.l2, args.p, tol=args.tol / 10.0)
    report = {"command": "kato", "l1": args.l1, "l2": args.l2, "p": args.p, **rec}
    write_report(report, args.out)
    return 0 if rec["diff"] <= args.tol else 1


def cmd_satotate(args) -> int:
    report: dict = {"command": "satotate", "p": args.p, "samples": args.samples,
                    "seed": args.seed}
    if args.cells:
        width = 9.0 / args.cells
        cells = [(-1.0 + c * width, -1.0 + (c + 1) * width) for c in range(args.cells)]
        recs = schuralg.effective_st_compare(args.p, args.samples, cells, args.seed)
        report["cells"] = recs
        worst = _largest(r["diff"] - r["mass_uncertainty"] for r in recs)
        report["max_excess_diff"] = worst
        ok = worst <= args.tol
    else:
        rec, = schuralg.effective_st_compare(args.p, args.samples, [(args.a, args.b)], args.seed)
        report.update(rec)
        ok = rec["diff"] <= args.tol + rec["mass_uncertainty"]
    write_report(report, args.out)
    return 0 if ok else 1


def cmd_signs(args) -> int:
    report: dict = {"command": "signs", "source": args.source}
    if args.source == "csv":
        seq = ingest(args.path, "seqcsv")
        rep = signstats.count_sign_changes(seq, args.zero_tol)
        report["X"] = len(seq)
        report["sign_changes"] = rep.summary()
        write_report(report, args.out)
        return 0
    X = args.X
    H, M = _auto_window(X, args.H, args.M)
    table = hecke.CoefficientTable(tau.sym2_tau_locals(X), X, X)
    seq = signstats.sequence_from_table(table, X)
    rep = signstats.count_sign_changes(seq, args.zero_tol)
    # scan windows [x, x+H] for x up to 2*scan_X stay inside the table
    cfg = signstats.ShortIntervalConfig((X - H) // 2, H, M)
    scan = signstats.interval_change_scan(table, cfg, args.zero_tol)
    report.update({
        "X": X, "H": H, "M": M,
        "sign_changes": rep.summary(),
        "scan": {"X": cfg.X, "H": H, "M": M,
                 "total_x": scan["total_x"], "with_change": scan["with_change"]},
        "partial_sum_abs": signstats.partial_sum_abs(table, X),
        "rankin_selberg_ratio": signstats.rankin_selberg_ratio(table, X),
        "sign_balance": signstats.sign_balance(table, X, zero_tol=args.zero_tol),
        "nonvanishing": signstats.nonvanishing_density(table, X, zero_tol=args.zero_tol),
    })
    write_report(report, args.out)
    return 0


def cmd_mvt(args) -> int:
    polys = suites.random_sign_polys(random.Random(args.seed), args.N, args.draws)
    recs = dmod.mvt_ratio_many(polys, float(args.T))
    report = {
        "command": "mvt", "N": args.N, "T": args.T, "seed": args.seed,
        "draws": [{"N": args.N, "T": args.T, **r} for r in recs],
        "max_ratio": _largest(r["ratio"] for r in recs),
    }
    write_report(report, args.out)
    return 0 if report["max_ratio"] <= args.tol else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gl3hecke",
        description="Coefficient calculus, measures, and sign statistics "
                    "for degree-three Hecke data.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", default="all", choices=["all", *suites.SUITES])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", help="generate data files")
    p.add_argument("--what", required=True,
                   choices=["tau", "gl2", "table", "samples", "density"])
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--bound-n", type=int, default=1)
    p.add_argument("--measure", default="plancherel", choices=["plancherel", "sato-tate"])
    p.add_argument("--p", type=int, default=5)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--K", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("kato", help="combinatorial moment vs quadrature")
    p.add_argument("--l1", type=int, required=True)
    p.add_argument("--l2", type=int, required=True)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_kato)

    p = sub.add_parser("satotate", help="sampled vs quadrature A(p,p) masses")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--a", type=float, default=-1.0)
    p.add_argument("--b", type=float, default=8.0)
    p.add_argument("--cells", type=int, default=0,
                   help="use an equal partition of [-1,8] instead of [a,b]")
    p.add_argument("--tol", type=float, default=0.01)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_satotate)

    p = sub.add_parser("signs", help="sign statistics pipeline")
    p.add_argument("--source", default="sym2-tau", choices=["sym2-tau", "csv"])
    p.add_argument("--path", default=None, help="input file for --source csv")
    p.add_argument("--X", type=int, default=10_000)
    p.add_argument("--H", type=_int_or_auto, default="auto")
    p.add_argument("--M", type=_int_or_auto, default="auto")
    p.add_argument("--zero-tol", type=float, default=1e-12)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_signs)

    p = sub.add_parser("mvt", help="mean-value calibration on random draws")
    p.add_argument("--N", type=int, default=512)
    p.add_argument("--T", type=int, default=512)
    p.add_argument("--draws", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=8.0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_mvt)
    return ap


def _prime_error(p: int) -> str | None:
    if not (p < _MR_PROOF_BOUND and is_prime(p)):
        return f"field 'p' must be a prime below {_MR_PROOF_BOUND}, got {p}"
    return None


def _config_error(args) -> str | None:
    """The first argument that its command cannot run with, or None."""
    tol = getattr(args, "tol", None)
    if tol is not None and not tol > 0:
        return "field 'tol' must be positive"
    if args.command == "mvt":
        if args.N < 1:
            return "field 'N' must be at least 1"
        if args.T <= 0:
            return "field 'T' must be positive"
        if args.draws < 1:
            return "field 'draws' must be at least 1"
    if args.command == "kato":
        for name in ("l1", "l2"):
            if not 0 <= getattr(args, name) <= 6:
                return f"field '{name}' must lie in [0, 6]"
        if problem := _prime_error(args.p):
            return problem
        # kato_check certifies its quadrature at tol / 10
        spec = measures.MeasureSpec.plancherel(args.p)
        if measures.trapezoid_resolution(spec, args.l1, args.l2, args.tol / 10) is None:
            return (f"field 'tol' = {args.tol} is below what Kato quadrature can certify "
                    f"at ({args.l1}, {args.l2}, p={args.p})")
    if args.command == "satotate":
        if args.samples < 100:
            return "field 'samples' must be at least 100"
        if args.cells < 0:
            return "field 'cells' must be non-negative"
        if not args.cells and not -1.0 <= args.a <= args.b <= 8.0:
            return "fields 'a' and 'b' must satisfy -1 <= a <= b <= 8"
        return _prime_error(args.p)
    if args.command == "gen":
        if args.what in ("tau", "gl2", "table") and not 1 <= args.N <= 10**6:
            return "field 'N' must lie in [1, 10^6]"
        if args.what == "table" and not 1 <= args.bound_n <= args.N:
            return "field 'bound-n' must lie in [1, N]"
        if args.what == "table" and args.N * args.bound_n > 10**6:  # rows export_csv writes
            return "field 'bound-n' must keep N * bound-n at most 10^6"
        if args.what == "samples" and not 1 <= args.count <= 10**6:  # two float64 per sample
            return "field 'count' must lie in [1, 10^6]"
        if args.what == "density" and not 8 <= args.K <= 1000:  # K^2 rows
            return "field 'K' must lie in [8, 1000]"
        if args.what in ("samples", "density") and args.measure == "plancherel":
            return _prime_error(args.p)
    if args.command == "signs":
        if not args.zero_tol >= 0:
            return "field 'zero-tol' must be non-negative"
        if args.H != "auto" and args.H < 2:
            return "field 'H' must be at least 2"
        if args.M != "auto" and args.M < 1:
            return "field 'M' must be at least 1"
        if args.source == "csv":
            return None if args.path is not None else "--source csv needs --path"
        if not 1 <= args.X <= 10**6:
            return "field 'X' must lie in [1, 10^6]"
        H, M = _auto_window(args.X, args.H, args.M)
        if not M < H <= (args.X - H) // 2:
            return f"the scan window needs M < H <= (X - H) / 2, got M={M} H={H} X={args.X}"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _config_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (IngestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

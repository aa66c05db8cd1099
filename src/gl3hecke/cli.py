"""Command-line front end: data generation, CSV ingestion, verification
suites, and experiment reports.

All reports are JSON with sorted keys and no timestamps, so a command re-run
with the same seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import dirichlet as dmod
from . import hecke, klpoly, measures, schuralg, signstats, suites, tau
from .arith import is_prime
from .csvio import IngestError, read_csv, write_csv


def _gl2_row(row) -> tuple[int, float]:
    p = int(row[0])
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    return p, float(row[1])


def _seq_row(row) -> tuple[int, float]:
    m = int(row[0])
    if m < 1:
        raise ValueError(f"index m = {m} < 1")
    return m, float(row[1])


def ingest(path: str, fmt: str):
    """Parse a gl2csv (`p,lambda`) or seqcsv (`m,value`) file.

    gl2csv returns GL2FormData with the ramanujan flag set iff every
    |lambda| <= 2; seqcsv returns a RealSequence (missing indices are zero).
    """
    if fmt == "gl2csv":
        pairs = list(read_csv(path, ("p", "lambda"), "prime", _gl2_row).items())
        ramanujan = all(abs(lam) <= 2.0 for _, lam in pairs)
        if not ramanujan:
            print(f"warning: {path} has |lambda| > 2; ramanujan flag is false",
                  file=sys.stderr)
        return hecke.GL2FormData(pairs, ramanujan=ramanujan)

    if fmt == "seqcsv":
        values = read_csv(path, ("m", "value"), "index", _seq_row)
        top = max(values) if values else 0
        return signstats.RealSequence(
            [values.get(m, 0.0) for m in range(1, top + 1)], label=path
        )

    raise IngestError(f"unknown format {fmt!r}")


def write_report(obj, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_or_auto(text: str):
    return text if text == "auto" else int(text)


def _auto_window(X: int, H_arg, M_arg) -> tuple[int, int]:
    H = math.ceil(X ** (1.0 / 6.0)) if H_arg == "auto" else H_arg
    M = min(math.ceil(X ** 0.1), H - 1) if M_arg == "auto" else M_arg
    return H, M


def cmd_verify(args) -> int:
    names = list(suites.SUITES) if args.suite == "all" else [args.suite]
    report: dict = {"command": "verify", "seed": args.seed, "tol": args.tol, "suites": {}}
    ok = True
    for name in names:
        fn = suites.SUITES[name]
        checks = fn(seed=args.seed) if args.tol is None else fn(seed=args.seed, tol=args.tol)
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
        recs = []
        width = 9.0 / args.cells
        for c in range(args.cells):
            lo, hi = -1.0 + c * width, -1.0 + (c + 1) * width
            recs.append(schuralg.effective_st_compare(
                args.p, args.samples, (lo, hi), args.seed))
        report["cells"] = recs
        worst = max(r["diff"] - r["mass_uncertainty"] for r in recs)
        report["max_excess_diff"] = worst
        ok = worst <= args.tol
    else:
        rec = schuralg.effective_st_compare(args.p, args.samples, (args.a, args.b), args.seed)
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
    table = suites.sym2_tau_table(X)
    seq = signstats.sequence_from_table(table, X)
    rep = signstats.count_sign_changes(seq, args.zero_tol)
    # scan windows [x, x+H] for x up to 2*scan_X stay inside the table
    cfg = signstats.ShortIntervalConfig((X - H) // 2, H, M)
    scan = signstats.interval_change_scan(table, cfg)
    report.update({
        "X": X, "H": H, "M": M,
        "sign_changes": rep.summary(),
        "scan": {"X": cfg.X, "H": H, "M": M,
                 "total_x": scan["total_x"], "with_change": scan["with_change"]},
        "partial_sum_abs": signstats.partial_sum_abs(table, X),
        "rankin_selberg_ratio": signstats.rankin_selberg_ratio(table, X),
        "sign_balance": signstats.sign_balance(table, X),
        "nonvanishing": signstats.nonvanishing_density(table, X),
    })
    write_report(report, args.out)
    return 0


def cmd_mvt(args) -> int:
    import random

    rng = random.Random(args.seed)
    polys = [
        dmod.DirichletPolynomial(
            {n: float(rng.choice((-1.0, 1.0))) for n in range(args.N, 2 * args.N + 1)}
        )
        for _ in range(args.draws)
    ]
    recs = dmod.mvt_ratio_many(polys, float(args.T))
    report = {
        "command": "mvt", "N": args.N, "T": args.T, "seed": args.seed,
        "draws": [{"N": args.N, "T": args.T, **r} for r in recs],
        "max_ratio": max(r["ratio"] for r in recs),
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
    p.add_argument("--tol", type=float, default=None,
                   help="override the suite's default tolerance")
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


def _config_error(args) -> str | None:
    """The first argument that no command can run with, or None."""
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
    if getattr(args, "cells", 0) < 0:
        return "field 'cells' must be non-negative"
    if getattr(args, "M", "auto") != "auto" and args.M < 1:
        return "field 'M' must be at least 1"
    if getattr(args, "source", None) == "csv" and args.path is None:
        return "--source csv needs --path"
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    problem = _config_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (IngestError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

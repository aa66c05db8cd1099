"""The four benchmark workloads: how each makes its inputs from a seed, the
timed calls into gl3hecke, and the checks of the outputs.

A workload is three functions.  inputs(seed) builds plain Python data (no
gl3hecke object), run(inp) makes the timed calls and returns the program's
outputs, and check(inp, out) returns a list of failure messages, computed
with reference.py and never against stored output.  gl3hecke functions are
looked up on their modules at call time, so spans.install can wrap them.
"""

from __future__ import annotations

import math
import random

import numpy as np

import reference as ref
from gl3hecke import dirichlet, hecke, klpoly, measures, schuralg, signstats, tau

ZERO_TOL = 1e-12          # signstats' default zero tolerance
AGREE = 1e-9              # agreement with a reference, relative to the local bound


def _agree(got: np.ndarray, want: np.ndarray, bound: np.ndarray, what: str) -> list[str]:
    err = np.abs(got - want) > AGREE * bound
    if err.any():
        i = int(np.argmax(err))
        return [f"{what} at index {i + 1}: got {float(got[i])!r}, expected {float(want[i])!r}"]
    return []


def _equal(got, want, what: str) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


# ----------------------------------------------------------- selfdual-signs

SD_X = 100_000


def selfdual_inputs(seed: int) -> dict:
    """The tau form is fixed, so tau(1..X) is read back after the timed part
    for the checks; the seed places the short-interval scan
    (X_scan in [10^4, 1.1 * 10^4)) and picks the coprime pairs the tau checks
    use."""
    rng = random.Random(seed)
    scan_X = 10_000 + rng.randrange(1_000)
    pairs = []
    while len(pairs) < 2_000:
        m = rng.randrange(2, math.isqrt(SD_X) + 1)
        n = rng.randrange(2, SD_X // m + 1)
        if math.gcd(m, n) == 1:
            pairs.append((m, n))
    return {"X": SD_X, "scan_X": scan_X, "pairs": pairs}


def selfdual_run(inp: dict) -> dict:
    X = inp["X"]
    table = hecke.CoefficientTable(tau.sym2_tau_locals(X), X, X)
    seq = signstats.sequence_from_table(table, X)
    report = signstats.count_sign_changes(seq)
    psum = signstats.partial_sum_abs(table, X)
    scan_X = inp["scan_X"]
    cfg = signstats.ShortIntervalConfig(scan_X, math.ceil(scan_X ** (1 / 6)),
                                        math.ceil(scan_X ** 0.1))
    sums = [signstats.short_interval_sums(table, cfg, x)
            for x in range(cfg.X, 2 * cfg.X + 1, max(1, cfg.H // 4))]
    scan = signstats.interval_change_scan(table, cfg)
    rs = {xr: signstats.rankin_selberg_ratio(table, xr) for xr in (1_000, 10_000, X)}
    balance = signstats.sign_balance(table, X)
    nv = signstats.nonvanishing_density(table, X)
    return {"seq": seq.values, "report": report,
            "psum": psum, "cfg": cfg, "sums": sums, "scan": scan, "rs": rs,
            "balance": balance, "nv": nv}


def selfdual_check(inp: dict, out: dict) -> list[str]:
    X = inp["X"]
    values = tau.ramanujan_tau(X)
    primes = ref.primes_upto(X).tolist()
    bad = _equal(len(values), X, "number of tau values")
    bad += ref.check_tau(values, inp["pairs"])
    am1 = ref.sym2_am1({p: values[p - 1] / p ** 5.5 for p in primes}, X)[1:]
    bound = ref.sym_bound(X, "m1")[1:]
    bad += _agree(np.array(out["seq"]), am1, bound, "A(m,1)")
    counts = ref.sign_counts(am1, ZERO_TOL)
    bad += _equal(out["report"].summary(), counts, "sign counts of A(m,1)")
    bad += [f"S1 > S2 in window {i}" for i, s in enumerate(out["sums"])
            if s["S1"] > s["S2"] * (1 + 1e-12)]
    cfg = out["cfg"]
    bad += _equal(out["scan"]["with_change"], ref.windows_with_change(am1, cfg.X, cfg.H),
                  "windows with a sign change")
    bad += _equal(out["scan"]["total_x"], len(out["sums"]), "windows scanned")
    bad += ref.close(out["psum"], float(np.abs(am1).sum()), AGREE, "partial_sum_abs")
    for xr, got in out["rs"].items():
        bad += ref.close(got, float(np.sum(am1[:xr] ** 2) / xr), AGREE, f"rankin_selberg X={xr}")
    nonzero = counts["positives"] + counts["negatives"]
    bad += _equal(out["balance"], {"pos_frac": counts["positives"] / nonzero,
                                   "neg_frac": counts["negatives"] / nonzero}, "sign_balance")
    rhs = math.prod(1 - 1 / p for p in primes if abs(am1[p - 1]) <= ZERO_TOL)
    bad += _equal((out["nv"]["lhs"], out["nv"]["rhs"]), (nonzero / X, rhs),
                  "nonvanishing_density")
    return bad


# ------------------------------------------------------------ generic-signs

GS_X = 300_000


def generic_inputs(seed: int) -> dict:
    """Uniform Satake angles (theta1, theta2) for every prime p <= X: a
    random tempered GL(3) form with no symmetry."""
    primes = ref.primes_upto(GS_X)
    angles = np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, (len(primes), 2))
    return {"X": GS_X, "primes": primes.tolist(), "t1": angles[:, 0].tolist(),
            "t2": angles[:, 1].tolist()}


def generic_run(inp: dict) -> dict:
    X = inp["X"]
    locals_ = [hecke.PrimeLocalData(p, hecke.SatakeTriple.from_angles(a, b))
               for p, a, b in zip(inp["primes"], inp["t1"], inp["t2"])]
    table = hecke.CoefficientTable(locals_, X, X)
    seq = signstats.sequence_from_table(table, X, signstats.A_MM)
    report = signstats.count_sign_changes(seq)
    balance = signstats.sign_balance(table, X, signstats.A_MM)
    nv = signstats.nonvanishing_density(table, X, signstats.A_MM)
    return {"table": table, "seq": seq.values, "report": report, "balance": balance, "nv": nv}


def generic_check(inp: dict, out: dict) -> list[str]:
    X, table = inp["X"], out["table"]
    diag = np.array([complex(table.value(m, m)) for m in range(1, X + 1)])
    bad = []
    if np.any(np.abs(diag.imag) > AGREE * (1 + np.abs(diag.real))):
        bad.append("A(m,m) is not real")
    primes = np.array(inp["primes"])
    t1, t2 = np.array(inp["t1"]), np.array(inp["t2"])
    amm = ref.generic_amm(primes, t1, t2, X)[1:]
    bound = ref.sym_bound(X, "mm")[1:]
    bad += _agree(np.array(out["seq"]), amm.real, bound, "A(m,m)")
    bad += _agree(diag.imag, amm.imag, bound, "Im A(m,m)")
    ap1 = np.array([complex(table.value(p, 1)) for p in inp["primes"]])
    bad += _agree(diag[primes - 1].real, np.abs(ap1) ** 2 - 1.0, np.full(len(primes), 9.0),
                  "A(p,p) = |A(p,1)|^2 - 1")
    counts = ref.sign_counts(amm.real, ZERO_TOL)
    bad += _equal(out["report"].summary(), counts, "sign counts of A(m,m)")
    nonzero = counts["positives"] + counts["negatives"]
    bad += _equal(out["balance"], {"pos_frac": counts["positives"] / nonzero,
                                   "neg_frac": counts["negatives"] / nonzero}, "sign_balance")
    bad += _equal(out["nv"]["lhs"], nonzero / X, "nonvanishing density")
    return bad


# ---------------------------------------------------------------------- mvt

MVT_SIZES = (64, 256, 1024)
MVT_DRAWS = 5
MVT_WINDOWS = (100, 1_000)
MVT_POINTS = [complex(sigma, t) for sigma in (0.5, 0.75, 1.0) for t in (0.0, 1.0, 10.0)]


def mvt_inputs(seed: int) -> dict:
    """+-1 coefficients on [N, 2N] for each (N, T) of the 3 x 3 grid and five
    more at N = T = 512; tempered angles for the primes of each D window."""
    rng = random.Random(seed)
    groups = []
    for N, T in [(n, t) for n in MVT_SIZES for t in MVT_SIZES] + [(512, 512)]:
        draws = [{n: rng.choice((-1.0, 1.0)) for n in range(N, 2 * N + 1)}
                 for _ in range(MVT_DRAWS)]
        groups.append((float(T), draws))
    windows = []
    for M in MVT_WINDOWS:
        primes = ref.primes_upto(2 * M).tolist()
        angles = [(rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 2 * math.pi))
                  for _ in primes]
        windows.append((M, primes, angles))
    return {"groups": groups, "windows": windows}


def mvt_run(inp: dict) -> dict:
    moments = []
    for T, draws in inp["groups"]:
        polys = [dirichlet.DirichletPolynomial(c) for c in draws]
        moments.append(dirichlet.mvt_ratio_many(polys, T))
    windows = []
    for M, primes, angles in inp["windows"]:
        locals_ = [hecke.PrimeLocalData(p, hecke.SatakeTriple.from_angles(a, b))
                   for p, (a, b) in zip(primes, angles)]
        table = hecke.CoefficientTable(locals_, 2 * M, 1)
        dpoly = dirichlet.build_MKD(table, 10 * M, M)["D"]
        windows.append((dpoly, [dirichlet.d_estimate_ratio(dpoly, M, s) for s in MVT_POINTS]))
    return {"moments": moments, "windows": windows}


def mvt_check(inp: dict, out: dict) -> list[str]:
    bad = []
    for (T, draws), recs in zip(inp["groups"], out["moments"]):
        exact = ref.second_moments_exact(draws, T)
        for c, rec, want in zip(draws, recs, exact):
            N = min(c)
            what = f"second moment N={N} T={T:g}"
            bad += ref.close(rec["lhs"], want, 1e-9, what)
            rhs = (N + T) * sum(abs(a) ** 2 / n for n, a in c.items())
            bad += ref.close(rec["rhs"], rhs, 1e-12, what + " bound")
            if not rec["ratio"] <= 8.0:
                bad.append(f"{what}: ratio {rec['ratio']} > 8")
    for (M, primes, angles), (dpoly, ratios) in zip(inp["windows"], out["windows"]):
        a = {p: complex(ref.e1_value(t1, t2)) for p, (t1, t2) in zip(primes, angles)}
        for s, ratio in zip(MVT_POINTS, ratios):
            want, scale = ref.d_unexpanded(a, M, s)
            got = dpoly.eval(s)
            if abs(got - want) > AGREE * scale:
                bad.append(f"D(s) M={M} s={s}: got {got}, unexpanded {want}")
            unit = max(1.0, M ** (1.0 - 2.0 * s.real) * math.log(M))
            # The ratio is recomputed but not held to suite_mvt's frozen
            # constant 4: random tempered data exceed it on some seeds.
            bad += ref.close(ratio, abs(want) / unit, 1e-8, f"d_estimate_ratio M={M} s={s}")
    return bad


# ----------------------------------------------------------------- equidist

EQ_SAMPLES = 100_000
EQ_PRIMES = (2, 5)
EQ_KATO_PRIMES = (2, 3, 5, 7)
EQ_CELLS = [(-1.0 + c, float(c)) for c in range(9)]
Z_SAMPLE = 5.0            # standard errors allowed to a sampled statistic


def equidist_inputs(seed: int) -> dict:
    """Seeds of the two rejection samplers and 20 torus points for the Weyl
    invariance check; the quadratures are fixed."""
    rng = random.Random(seed)
    return {"sample_seeds": [rng.getrandbits(63) for _ in EQ_PRIMES],
            "points": [(rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
                       for _ in range(20)]}


def equidist_run(inp: dict) -> dict:
    sampled = {}
    for p, seed in zip(EQ_PRIMES, inp["sample_seeds"]):
        emp = schuralg.sample_app(p, EQ_SAMPLES, seed)
        sampled[p] = (emp.samples, [schuralg.indicator_mass(p, cell) for cell in EQ_CELLS])
    kato = {(l1, l2, p): klpoly.kato_check(l1, l2, p, tol=1e-7)
            for p in EQ_KATO_PRIMES for l1 in range(6) for l2 in range(6 - l1)}
    anchor = klpoly.kato_check(1, 1, 2)

    st = measures.MeasureSpec.sato_tate()
    specs = [st] + [measures.MeasureSpec.plancherel(p) for p in (2, 3, 5, 7, 101)]
    grid = measures.QuadratureGrid(64)
    masses = [measures.integrate(spec, lambda pt: 1.0, grid) for spec in specs]
    pairs = [(a, b) for a in range(3) for b in range(3)]
    gram = {}
    for i, ab in enumerate(pairs):
        for cd in pairs[i:]:
            f = lambda pt, ab=ab, cd=cd: (
                measures.schur_on_torus(*ab, pt.theta1, pt.theta2)
                * np.conj(measures.schur_on_torus(*cd, pt.theta1, pt.theta2)))
            gram[ab, cd] = measures.integrate(st, f, grid)
    pl5 = measures.MeasureSpec.plancherel(5)
    weyl = []
    for t1, t2 in inp["points"]:
        angles = (t1, t2, -(t1 + t2))
        for spec in (st, pl5):
            weyl.append([measures.density(spec, measures.TorusPoint(angles[i], angles[j]))
                         for (i, j, _), _ in klpoly.WEYL])
    nodes = 2 * math.pi * np.arange(32) / 32
    mesh = measures.TorusPoint(*np.meshgrid(nodes, nodes, indexing="ij"))
    base = measures.density(st, mesh)
    sups = [float(np.max(np.abs(measures.density(measures.MeasureSpec.plancherel(p), mesh) - base)))
            for p in (2, 11, 101, 1009)]
    cells_1009 = [(schuralg.indicator_mass(1009, cell), schuralg.indicator_mass(st, cell))
                  for cell in EQ_CELLS]
    return {"sampled": sampled, "kato": kato, "anchor": anchor, "masses": masses,
            "gram": gram, "weyl": weyl, "sups": sups, "cells_1009": cells_1009}


def equidist_check(inp: dict, out: dict) -> list[str]:
    bad = []
    for p, (samples, cells) in out["sampled"].items():
        n = len(samples)
        bad += _equal(n, EQ_SAMPLES, f"samples at p={p}")
        total = sum(m for m, _ in cells)
        if abs(total - 1.0) > sum(u for _, u in cells):
            bad.append(f"p={p}: cell masses sum to {total}, beyond their uncertainties")
        mean, se = float(samples.mean()), float(samples.std(ddof=1)) / math.sqrt(n)
        if abs(mean - (1 / p + 1 / p ** 2)) > Z_SAMPLE * se:
            bad.append(f"p={p}: mean A(p,p) {mean} is {Z_SAMPLE} SE from {1 / p + 1 / p ** 2}")
        for (lo, hi), (mass, unc) in zip(EQ_CELLS, cells):
            frac = float(np.mean((samples >= lo) & (samples <= hi)))
            if not ref.binomial_ok(frac, mass, unc, n, Z_SAMPLE):
                bad.append(f"p={p} cell [{lo}, {hi}]: sampled {frac}, mass {mass} +- {unc}")
    for (l1, l2, p), rec in out["kato"].items():
        quad = ref.kato_quadrature(l1, l2, p, K=64)
        bad += ref.close(rec["lhs"], quad, 1e-9, f"Kato exact ({l1},{l2}) p={p}")
        bad += ref.close(rec["rhs"], quad, 1e-6, f"Kato quadrature ({l1},{l2}) p={p}")
    bad += _equal(out["anchor"]["lhs"], 0.75, "Kato anchor (1,1) p=2")
    bad += ref.close(out["anchor"]["rhs"], 0.75, 1e-6, "Kato anchor quadrature")
    bad += [f"measure mass {m}" for m in out["masses"] if abs(m - 1.0) > 1e-8]
    bad += [f"Schur inner product {k} = {v}" for k, v in out["gram"].items()
            if abs(v - (1.0 if k[0] == k[1] else 0.0)) > 1e-7]
    for i, row in enumerate(out["weyl"]):
        t1, t2 = inp["points"][i // 2]
        want = ref.plancherel_weight(None if i % 2 == 0 else 5, t1, t2)
        bad += [f"density at point {i // 2}" for v in row if abs(v - want) > AGREE * want + 1e-15]
    sups = out["sups"]
    if not all(a > b for a, b in zip(sups, sups[1:])):
        bad.append(f"Plancherel densities do not approach Sato-Tate: {sups}")
    gap = max(abs(mp - ms) - up - us for (mp, up), (ms, us) in out["cells_1009"])
    if gap > 0.02:
        bad.append(f"p=1009 cell masses differ from Sato-Tate by {gap}")
    return bad


WORKLOADS = {
    "selfdual-signs": (selfdual_inputs, selfdual_run, selfdual_check),
    "generic-signs": (generic_inputs, generic_run, generic_check),
    "mvt": (mvt_inputs, mvt_run, mvt_check),
    "equidist": (equidist_inputs, equidist_run, equidist_check),
}

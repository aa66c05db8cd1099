"""Named verification suites: each returns a list of Check records that the
CLI serializes and the acceptance tests assert on.

Every random quantity is derived from the one incoming seed, so repeated runs
produce identical reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import dirichlet as dmod
from . import hecke, klpoly, measures, schuralg, signstats, tau
from .arith import divisor_power_sums_mod, primes_upto


@dataclass
class Check:
    name: str
    status: str
    value: float
    bound: float

    @classmethod
    def le(cls, name: str, value: float, bound: float) -> "Check":
        return cls(name, "pass" if value <= bound else "fail", float(value), float(bound))

    @classmethod
    def ge(cls, name: str, value: float, bound: float) -> "Check":
        return cls(name, "pass" if value >= bound else "fail", float(value), float(bound))


def worst(values) -> float:
    """The largest of values and 0.0, or NaN if any value is NaN.  Python's
    max keeps its running value when the next one is NaN (nan > w is False),
    so a NaN there would read as a pass."""
    return float(np.max(np.fromiter(values, float), initial=0.0))


def all_passed(checks: list[Check]) -> bool:
    return all(c.status == "pass" for c in checks)


def checks_to_json(checks: list[Check]) -> list[dict]:
    return [asdict(c) for c in checks]


def random_tempered_locals(primes: list[int], rng: random.Random) -> list[hecke.PrimeLocalData]:
    out = []
    for p in primes:
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = rng.uniform(0.0, 2.0 * math.pi)
        out.append(hecke.PrimeLocalData(p, hecke.SatakeTriple.from_angles(t1, t2)))
    return out


def random_selfdual_locals(primes: list[int], rng: random.Random) -> hecke.LocalArrays:
    pairs = [(p, rng.uniform(-2.0, 2.0)) for p in primes]
    return hecke.sym2_lift(hecke.GL2FormData(pairs))


def suite_hecke(seed: int = 0) -> list[Check]:
    """Hecke relation residuals, Mobius expansion, Hermitian symmetry, and the
    Ramanujan bound on random tempered data."""
    rng = random.Random(seed)
    bound = 2500  # indices m1*c3/c1 reach 50 * 50
    table = hecke.CoefficientTable(
        random_tempered_locals(primes_upto(bound), rng), bound, bound
    )
    # m, m1, m2 drawn in that order
    residual = worst(hecke.hecke_residual(table, rng.randint(1, 50), rng.randint(1, 50),
                                          rng.randint(1, 50)) for _ in range(200))
    checks = [Check.le("hecke_residual_max_200_triples", residual, 1e-8)]
    checks.append(Check.le("mobius_expand_max_error", worst(
        abs(hecke.mobius_expand(table, m1, m2) - table.value(m1, m2))
        for m1 in range(1, 51) for m2 in range(1, 51)), 1e-8))
    checks.append(Check.le("hermitian_symmetry_max", worst(
        abs(table.value(m, n) - table.value(n, m).conjugate())
        for m in range(1, 31) for n in range(1, 31)), 1e-9))
    checks.append(Check.le("ramanujan_bound_excess", worst(
        abs(table.value(p, 1)) - 3.0 for p in table.local.primes[:100].tolist()), 1e-10))
    return checks


def suite_schur(seed: int = 0) -> list[Check]:
    """The square of S_{1,1} in the Schur basis, exactly, plus the degenerate
    dimension identity 64 = 1 + 16 + 27 + 10 + 10."""
    square = (schuralg.E1 * schuralg.E2 - schuralg.E_ONE) ** 2
    got = schuralg.expand_in_schur(square).as_dict()
    expected = {(0, 0): 1, (1, 1): 2, (2, 2): 1, (3, 0): 1, (0, 3): 1}
    mism = sum(1 for k in set(got) | set(expected) if got.get(k) != expected.get(k))
    checks = [Check.le("s11_square_expansion_mismatches", mism, 0.0)]

    # the triple (1, 1, 1): e1 = e2 = 3
    dims = sum(float(c) * hecke.schur_from_elementary(l1, l2, 3.0 + 0.0j, 3.0 + 0.0j).real
               for (l1, l2), c in got.items())
    checks.append(Check.le("degenerate_point_sum_vs_64", abs(dims - 64.0), 1e-9))
    return checks


def suite_kato(seed: int = 0) -> list[Check]:
    """Combinatorial moment versus Plancherel quadrature for all l1+l2 <= 5
    and p in {2, 3, 5, 7}, plus the 0.75 anchor at (1, 1, p=2)."""
    diff = worst(klpoly.kato_check(l1, l2, p, tol=1e-7)["diff"]
                 for p in (2, 3, 5, 7) for l1 in range(6) for l2 in range(6 - l1))
    anchor = klpoly.kato_check(1, 1, 2)
    return [
        Check.le("kato_identity_max_diff", diff, 1e-6),
        Check.le("kato_anchor_112_vs_0.75", abs(anchor["lhs"] - 0.75), 1e-6),
    ]


def suite_measures(seed: int = 0) -> list[Check]:
    """Total masses, Schur orthonormality, Weyl invariance of the densities,
    and weak convergence of the Plancherel family to Sato-Tate."""
    checks = []
    grid = measures.QuadratureGrid(64)
    one = lambda pt: 1.0
    st = measures.MeasureSpec.sato_tate()
    specs = [st] + [measures.MeasureSpec.plancherel(p) for p in (2, 3, 5, 7, 101)]
    checks.append(Check.le("measure_mass_max_deviation", worst(
        abs(measures.integrate(spec, one, grid) - 1.0) for spec in specs), 1e-8))

    pairs = [(a, b) for a in range(3) for b in range(3)]
    # each Schur element once on the mesh that integrate() evaluates f on
    mesh = grid.mesh()
    schur = {ab: measures.schur_on_torus(*ab, *mesh) for ab in pairs}
    checks.append(Check.le("schur_orthonormality_max_dev", worst(
        abs(measures.integrate(st, lambda pt: schur[ab] * np.conj(schur[cd]), grid)
            - (1.0 if ab == cd else 0.0))
        for i, ab in enumerate(pairs) for cd in pairs[i:]), 1e-7))

    rng = random.Random(seed)
    devs = []
    for _ in range(20):
        t1 = rng.uniform(0.0, 2.0 * math.pi)
        t2 = rng.uniform(0.0, 2.0 * math.pi)
        angles = (t1, t2, -(t1 + t2))
        for spec in (st, measures.MeasureSpec.plancherel(5)):
            base = measures.density(spec, measures.TorusPoint(t1, t2))
            devs += [abs(measures.density(spec, measures.TorusPoint(angles[sigma[0]],
                                                                    angles[sigma[1]])) - base)
                     for sigma, _ in klpoly.WEYL]
    checks.append(Check.le("density_weyl_invariance_max", worst(devs), 1e-12))

    pt = measures.TorusPoint(*measures.QuadratureGrid(32).mesh())
    ref = measures.density(st, pt)
    sups = [float(np.max(np.abs(measures.density(measures.MeasureSpec.plancherel(p), pt) - ref)))
            for p in (2, 11, 101, 1009)]
    monotone = all(sups[i] > sups[i + 1] for i in range(len(sups) - 1))
    checks.append(Check.le("plancherel_to_st_sup_monotone", 0.0 if monotone else 1.0, 0.0))

    gaps = []
    for cell in range(9):
        lo, hi = -1.0 + cell, -1.0 + cell + 1.0
        mp, up = schuralg.indicator_mass(1009, (lo, hi))
        ms, us = schuralg.indicator_mass(st, (lo, hi))
        gaps.append(abs(mp - ms) - up - us)
    checks.append(Check.le("interval_mass_gap_p1009", worst(gaps), 0.02))
    return checks


def suite_bernstein(seed: int = 0) -> list[Check]:
    """Exact l^1 bound on the expansion coefficients for every power
    1 <= l <= 10, plus round trips through the Schur basis.  At l = 0 the
    norm is exactly the bound 1; for l >= 1 it is below 1, since the
    non-negative c_lambda have sum c_lambda dim(lambda) = 1."""
    norm = worst(schuralg.bernstein_coeffs(l).coefficient_l1_norm() for l in range(1, 11))
    checks = [Check.le("bernstein_l1_norm_max", norm, 1.0)]

    # Jacobi-Trudi there and Pieri back: two independent algorithms
    mism = sum(schuralg.expand_in_schur(schuralg.schur_to_epoly(l1, l2)).as_dict()
               != {(l1, l2): 1} for l1 in range(9) for l2 in range(9 - l1))
    checks.append(Check.le("schur_roundtrip_mismatches", mism, 0.0))

    anchor = schuralg.bernstein_coeffs(1).as_dict()
    ok = anchor == {(0, 0): Fraction(1, 9), (1, 1): Fraction(1, 9)}
    checks.append(Check.le("bernstein_l1_anchor", 0.0 if ok else 1.0, 0.0))
    return checks


def suite_satotate(seed: int = 0) -> list[Check]:
    """Sampled A(p,p) interval masses versus exact masses on the 9-cell
    partition of [-1, 8] for p in {2, 5}, 100,000 samples each."""
    cells = [(-1.0 + cell, cell + 0.0) for cell in range(9)]
    checks = []
    for i, p in enumerate((2, 5)):
        recs = schuralg.effective_st_compare(p, 100_000, cells, measures.child_seed(seed, i))
        checks.append(Check.le(f"effective_st_9cell_p{p}", worst(
            r["diff"] - r["mass_uncertainty"] for r in recs), 0.01))
    return checks


def sym2_tau_table(values: list[int]) -> hecke.CoefficientTable:
    """Coefficient table of the symmetric-square lift of the tau form, from
    values = [tau(1), ..., tau(X)], covering A(m, n) for m <= X (diagonal
    entries available on demand)."""
    local = hecke.sym2_lift(hecke.GL2FormData(tau.prime_eigenvalues(values)))
    return hecke.CoefficientTable(local, len(values), len(values))


def tau_identity_failures(values: list[int]) -> int:
    """How often values = [tau(1), ..., tau(X)] break an exact identity:
    Ramanujan's congruence tau(n) = sigma_11(n) mod 691 at each n <= X, and
    the Hecke relation tau(p^2) = tau(p)^2 - p^11 at each prime p <= sqrt X."""
    sigma = divisor_power_sums_mod(len(values), 11, 691)[1:]
    failures = int(np.count_nonzero(np.array([t % 691 for t in values]) != sigma))
    return failures + sum(values[p * p - 1] != values[p - 1] ** 2 - p ** 11
                          for p in primes_upto(math.isqrt(len(values))))


def suite_signs(seed: int = 0) -> list[Check]:
    """The whole sign-change pipeline on symmetric-square-of-tau data up to
    X = 10^5, and the tau values it starts from against exact identities."""
    X = 100_000
    values = tau.ramanujan_tau(X)
    table = sym2_tau_table(values)
    seq = signstats.sequence_from_table(table, X)
    report = signstats.count_sign_changes(seq)
    checks = [
        Check.ge("sign_changes_count", report.changes, X ** (5.0 / 6.0) / 10.0),
        Check.ge("partial_sum_abs_vs_X^0.9", signstats.partial_sum_abs(table, X), X ** 0.9),
    ]

    scan_X = 10_000
    H = math.ceil(scan_X ** (1.0 / 6.0))
    M = math.ceil(scan_X ** 0.1)
    cfg = signstats.ShortIntervalConfig(scan_X, H, M)
    # the windows at x = X, X + H//4, ..., as interval_change_scan strides
    s1, s2 = (a[::max(1, cfg.H // 4)] for a in signstats.window_sums(table, cfg))
    # written so that a NaN window fails
    checks.append(Check.le("s1_le_s2_everywhere", 0.0 if np.all(s1 <= s2 + 1e-12) else 1.0, 0.0))
    checks.append(Check.ge("s1_lt_s2_fraction", np.count_nonzero(s1 < s2 - 1e-9) / len(s1), 0.5))

    scan = signstats.interval_change_scan(table, cfg)
    checks.append(Check.ge("windows_with_change_fraction",
                           scan["with_change"] / scan["total_x"], 0.5))

    for xr in (1_000, 10_000, X):
        ratio = signstats.rankin_selberg_ratio(table, xr)
        checks.append(Check.le(f"rankin_selberg_ratio_X{xr}", abs(math.log10(ratio)), 1.0))

    balance = signstats.sign_balance(table, X)
    checks.append(Check.le("sign_balance_dev", abs(balance["pos_frac"] - 0.5), 0.1))

    nv = signstats.nonvanishing_density(table, X)
    checks.append(Check.le("nonvanishing_ratio_log10", abs(math.log10(nv["ratio"])), math.log10(2.0)))
    checks.append(Check.le("tau_identity_failures", tau_identity_failures(values), 0.0))
    return checks


def suite_euler(seed: int = 0) -> list[Check]:
    """Local Euler factors versus closed forms and the shifted-ratio identity."""
    rng = random.Random(seed)
    # the degenerate triple (1, 1, 1) at p = 2
    res = dmod.euler_factor_check(2, 3.0 + 0.0j, 3.0 + 0.0j, 2.0 + 0.0j, J=60)
    closed_expected = 1.0 / (1.0 - 2.0 ** -2.0) ** 3
    checks = [
        Check.le("euler_degenerate_closed_form",
                 abs(res["series"] - closed_expected), 1e-10),
        Check.le("euler_degenerate_series_vs_closed",
                 abs(res["series"] - res["closed"]), 1e-10),
    ]

    locs = [random_selfdual_locals([3, 5, 7, 11, 13], rng),
            hecke.LocalArrays.from_records(random_tempered_locals([17, 19], rng))]
    triples = [t for loc in locs for t in zip(loc.primes.tolist(), loc.e1.tolist(), loc.e2.tolist())]
    # sigma, then t, drawn for each local in turn
    recs = [dmod.euler_factor_check(*triple, complex(rng.choice((1.2, 1.5, 2.0)),
                                                     rng.uniform(-5.0, 5.0)), J=80)
            for triple in triples * 3]
    checks.append(Check.le("euler_series_vs_closed_max",
                           worst(abs(r["series"] - r["closed"]) for r in recs), 1e-9))
    checks.append(Check.le("euler_ratio_identity_max",
                           worst(r["ratio_identity_residual"] for r in recs), 1e-9))
    return checks


def random_sign_polys(rng: random.Random, N: int, count: int) -> list[dmod.DirichletPolynomial]:
    """count polynomials sum_{N <= n <= 2N} (+-1) n^-s, the signs drawn from
    rng in order of n, one polynomial after the other."""
    return [
        dmod.DirichletPolynomial({n: float(rng.choice((-1.0, 1.0))) for n in range(N, 2 * N + 1)})
        for _ in range(count)
    ]


def suite_mvt(seed: int = 0) -> list[Check]:
    """Second-moment calibration over the (N, T) grid, the second moment of
    1 + 100^-s against its closed form, and the window-product D-estimate with
    the frozen constant 4 on self-dual data."""
    rng = random.Random(seed)
    sizes = (64, 256, 1024)
    checks = [Check.le("mvt_ratio_max_50_draws", worst(
        rec["ratio"] for N, T in [(n, t) for n in sizes for t in sizes] + [(512, 512)]
        for rec in dmod.mvt_ratio_many(random_sign_polys(rng, N, 5), float(T))), 8.0)]

    # |1 + 100^(-1/2-it)|^2 = 1.01 + 0.2 cos(t log 100); the filler on 2..70
    # puts 100 past the first block of second_moment_many, so for T >= 64 the
    # kernel of the pair (1, 100) is formed by angle addition
    pair, filler = dmod.DirichletPolynomial({1: 1.0, 100: 1.0}), dmod.DirichletPolynomial(
        {n: 1.0 for n in range(2, 71)})
    errors = []
    for T in (1.0, 64.0, 512.0, 1024.0):
        want = 2.02 * T + 0.4 * math.sin(T * math.log(100.0)) / math.log(100.0)
        errors.append(abs(dmod.second_moment_many([pair, filler], T)[0] - want) / want)
    checks.append(Check.le("mvt_closed_form_max_rel_error", worst(errors), 1e-12))

    # build_MKD's D is (1 - L_p^-1)^2 only for self-dual data: a random
    # sym^2 lift and the sym^2 lift of tau
    ratios = []
    for M in (100, 1000):
        for locs in (random_selfdual_locals(primes_upto(2 * M), rng),
                     tau.sym2_tau_locals(2 * M)):
            dpoly = dmod.build_MKD(hecke.CoefficientTable(locs, 2 * M, 1), 10 * M, M)["D"]
            ratios += [dmod.d_estimate_ratio(dpoly, M, complex(sigma, t))
                       for sigma in (0.5, 0.75, 1.0) for t in (0.0, 1.0, 10.0)]
    checks.append(Check.le("d_estimate_ratio_max", worst(ratios), 4.0))
    return checks


SUITES = {
    "hecke": suite_hecke,
    "schur": suite_schur,
    "kato": suite_kato,
    "measures": suite_measures,
    "bernstein": suite_bernstein,
    "satotate": suite_satotate,
    "signs": suite_signs,
    "euler": suite_euler,
    "mvt": suite_mvt,
}

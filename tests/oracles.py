"""Independent reference implementations used only to cross-check the
library: determinant-ratio Schur values, naive eta-product expansion,
divisor counting, brute-force root-partition enumeration, the Freudenthal
multiplicity recursion, evaluation of (e1, e2)-polynomials and Schur
combinations, the Schur-to-monomial expansion, the Simpson-rule second
moment, the per-entry sign-change count, the per-window sign-change walk,
primality by trial division, Dirichlet polynomial evaluation term by term,
the window polynomial D expanded per d and evaluated as a product, the
full-square mean-value kernel, the truncated square by Kronecker
substitution on Python ints, the straddle-refined torus grid for A(p, p)
cell masses, and the distribution function of |e1| by mpmath quadrature."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from gl3hecke import measures
from gl3hecke.arith import factorize, mobius
from gl3hecke.dirichlet import DirichletPolynomial
from gl3hecke.hecke import schur_from_elementary
from gl3hecke.klpoly import Weight
from gl3hecke.schuralg import EPoly, schur_to_epoly
from gl3hecke.signstats import SignChangeReport


def det3(rows):
    (a, b, c), (d, e, f), (g, h, i) = rows
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def vandermonde_schur(b1: int, b2: int, x1: complex, x2: complex, x3: complex) -> complex:
    """Determinant-over-Vandermonde form; only valid at pairwise distinct
    coordinates."""
    top = 2 + b1 + b2
    mid = 1 + b2
    num = det3(
        [
            [x1 ** top, x2 ** top, x3 ** top],
            [x1 ** mid, x2 ** mid, x3 ** mid],
            [1.0, 1.0, 1.0],
        ]
    )
    den = (x1 - x2) * (x1 - x3) * (x2 - x3)
    return num / den


def naive_eta_power(N: int, k: int) -> list[int]:
    """Coefficients of prod_{n=1..N} (1 - q^n)^k up to q^(N-1) by direct
    polynomial multiplication; quadratic, for small N only."""
    out = [0] * N
    out[0] = 1
    for n in range(1, N):
        for _ in range(k):
            # multiply by (1 - q^n) in place
            for j in range(N - 1, n - 1, -1):
                out[j] -= out[j - n]
    return out


def d3(m: int) -> int:
    """Number of ordered triples (a, b, c) with abc = m."""
    count = 0
    for a in range(1, m + 1):
        if m % a:
            continue
        rest = m // a
        for b in range(1, rest + 1):
            if rest % b == 0:
                count += 1
    return count


def brute_kostant_counts(beta: Weight, bound: int = 12) -> dict[int, int]:
    """Number of decompositions of beta into n1*a1 + n2*a2 + n3*(a1+a2),
    keyed by n1 + n2 + n3, by exhaustive search.  The default bound covers
    every target with sup-norm at most 6."""
    target = beta.coords
    counts: dict[int, int] = {}
    for n1 in range(bound + 1):
        for n2 in range(bound + 1):
            for n3 in range(bound + 1):
                raw = (n1 + n3, n2 - n1, -n2 - n3)
                m = min(raw)
                if tuple(x - m for x in raw) == target:
                    total = n1 + n2 + n3
                    counts[total] = counts.get(total, 0) + 1
    return counts


def _project(v) -> tuple[Fraction, Fraction, Fraction]:
    mean = Fraction(sum(v), 3)
    return tuple(Fraction(x) - mean for x in v)


def _inner(u, v) -> Fraction:
    pu, pv = _project(u), _project(v)
    return sum(a * b for a, b in zip(pu, pv))


def freudenthal_multiplicities(lam: Weight) -> dict[Weight, int]:
    """Weight multiplicities of the irreducible with highest weight lam via
    the Freudenthal recursion, exact rational arithmetic throughout."""
    pos_roots = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    rho = (1, 0, -1)
    lam_raw = lam.coords
    bound = sum(lam_raw) + 3
    lam_rho = tuple(a + b for a, b in zip(lam_raw, rho))
    lam_norm = _inner(lam_rho, lam_rho)

    order = sorted(
        ((a, b) for a in range(bound + 1) for b in range(bound + 1)),
        key=lambda ab: ab[0] + ab[1],
    )
    raw_of = {}
    mult: dict[tuple, int] = {}
    for a, b in order:
        # mu = lam - a*(1,-1,0) - b*(0,1,-1)
        mu = (lam_raw[0] - a, lam_raw[1] + a - b, lam_raw[2] + b)
        raw_of[(a, b)] = mu
        if (a, b) == (0, 0):
            mult[mu] = 1
            continue
        mu_rho = tuple(x + y for x, y in zip(mu, rho))
        denom = lam_norm - _inner(mu_rho, mu_rho)
        if denom == 0:
            mult[mu] = 0
            continue
        acc = Fraction(0)
        for alpha in pos_roots:
            k = 1
            while True:
                shifted = tuple(x + k * y for x, y in zip(mu, alpha))
                m_up = mult.get(shifted, 0)
                if shifted not in mult and k > bound:
                    break
                if m_up:
                    acc += 2 * m_up * _inner(shifted, alpha)
                k += 1
                if k > 2 * bound + 3:
                    break
        val = acc / denom
        assert val.denominator == 1, "Freudenthal recursion must be integral"
        mult[mu] = int(val)
    return {Weight(mu): m for mu, m in mult.items() if m > 0}


def epoly_eval(epoly, e1, e2):
    """sum c e1^a e2^b over the terms of an EPoly, with float/complex/array
    arguments."""
    acc = e1 * 0
    for (a, b), c in epoly.terms:
        acc = acc + float(c) * e1 ** a * e2 ** b
    return acc


def laurent_eval_elementary(laurent, e1, e2):
    """sum c s_(l1, l2)(e1, e2) over the Schur coefficients of a
    WInvariantLaurent, each Schur element from the library's recurrence."""
    acc = e1 * 0
    for (l1, l2), c in laurent.schur_coeffs:
        acc = acc + float(c) * schur_from_elementary(l1, l2, e1, e2)
    return acc


def laurent_to_epoly(laurent) -> EPoly:
    """The exact expansion of a WInvariantLaurent in e1^a e2^b."""
    acc = EPoly()
    for (l1, l2), c in laurent.schur_coeffs:
        acc = acc + schur_to_epoly(l1, l2).scale(c)
    return acc


def count_sign_changes_loop(values, zero_tol: float = 1e-12) -> SignChangeReport:
    """Sign changes along the entries with |a| > zero_tol, one entry at a
    time; zeros are skipped, never counted as changes."""
    if zero_tol < 0:
        raise ValueError("zero_tol must be non-negative")
    changes = 0
    positives = negatives = zeros = 0
    last_sign = 0
    for v in values:
        if abs(v) <= zero_tol:
            zeros += 1
            continue
        sign = 1 if v > 0 else -1
        if sign > 0:
            positives += 1
        else:
            negatives += 1
        if last_sign and sign != last_sign:
            changes += 1
        last_sign = sign
    return SignChangeReport(changes, positives, negatives, zeros)


def interval_change_scan_walk(table, cfg, zero_tol: float = 1e-12) -> dict:
    """Window scan by walking each window [x, x+H] separately, x on a stride
    of max(1, H//4) over [X, 2X]: O(X/stride * H) reads of A(m, 1)."""
    stride = max(1, cfg.H // 4)
    total = with_change = 0
    for x in range(cfg.X, 2 * cfg.X + 1, stride):
        total += 1
        last_sign = 0
        changed = False
        for m in range(x, x + cfg.H + 1):
            v = table.value(m, 1).real
            if abs(v) <= zero_tol:
                continue
            sign = 1 if v > 0 else -1
            if last_sign and sign != last_sign:
                changed = True
                break
            last_sign = sign
        if changed:
            with_change += 1
    return {"total_x": total, "with_change": with_change}


def _simpson_grid(lo: float, hi: float, N: int) -> tuple[np.ndarray, np.ndarray]:
    step_cap = min(0.01, 1.0 / (10.0 * math.log(max(N, 2))))
    panels = max(2, math.ceil((hi - lo) / step_cap))
    if panels % 2:
        panels += 1
    t = np.linspace(lo, hi, panels + 1)
    w = np.ones(panels + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= ((hi - lo) / panels) / 3.0
    return t, w


def second_moment_simpson(polys, T: float) -> list[float]:
    """Simpson integrals of |F(1/2 + it)|^2 over [-T, T], sharing one phase
    grid across polynomials, with step min(0.01, 1/(10 log N)) for the
    largest frequency N.  For all-real coefficients |F|^2 is even in t and
    only [0, T] is evaluated."""
    support = sorted(set().union(*(set(p.terms) for p in polys)) or {1})
    n_arr = np.array(support, dtype=float)
    log_n = np.log(n_arr)
    amp = n_arr ** -0.5
    coef = np.zeros((len(support), len(polys)), dtype=complex)
    index = {n: i for i, n in enumerate(support)}
    for j, poly in enumerate(polys):
        for n, c in poly.terms.items():
            coef[index[n], j] = c * amp[index[n]]
    all_real = bool(np.all(coef.imag == 0.0))
    n_big = max(max(p.terms) for p in polys if p.terms) if any(p.terms for p in polys) else 2
    if all_real:
        t, w = _simpson_grid(0.0, T, n_big)
        w = 2.0 * w
    else:
        t, w = _simpson_grid(-T, T, n_big)
    out = np.zeros(len(polys))
    chunk = max(1, 4_000_000 // max(1, len(support)))
    for lo in range(0, len(t), chunk):
        tc = t[lo : lo + chunk]
        phases = np.exp(-1j * np.outer(tc, log_n))
        vals = phases @ coef
        out += w[lo : lo + chunk] @ (np.abs(vals) ** 2)
    return [float(v) for v in out]


def dirichlet_eval_loop(poly, s: complex) -> complex:
    """F(s) = sum_n a_n n^{-s}, one term at a time in the order of terms."""
    acc = 0.0 + 0.0j
    for n, c in poly.terms.items():
        acc += c if n == 1 else c * cmath.exp(-s * math.log(n))
    return acc


def d_poly_per_d_merge(table, M: int) -> DirichletPolynomial:
    """D over squarefree d <= 2M with each d expanded from {1: mu(d)}
    through all its primes, ascending, and merged into the sum term by term."""
    dterms: dict = {1: 1.0 + 0.0j}
    for d in range(2, 2 * M + 1):
        mu = mobius(d)
        if mu == 0:
            continue
        factor_terms: dict = {1: complex(mu)}
        for p, _ in factorize(d):
            a = table.value(p, 1)
            local = {
                p ** 2: a * a,
                p ** 3: -2.0 * a * a,
                p ** 4: a * a + 2.0 * a,
                p ** 5: -2.0 * a,
                p ** 6: 1.0 + 0.0j,
            }
            factor_terms = {
                n1 * n2: c1 * c2
                for n1, c1 in factor_terms.items()
                for n2, c2 in local.items()
            }
        for n, c in factor_terms.items():
            dterms[n] = dterms.get(n, 0.0 + 0.0j) + c
    return DirichletPolynomial(dterms)


def d_poly_direct(table, M: int, s: complex) -> tuple[complex, float]:
    """D(s) = sum over squarefree d <= 2M of
    mu(d) prod_{p|d} (a_p p^-s - a_p p^-2s + p^-3s)^2, a_p = A(p, 1), as
    written, with no expansion; and the sum over d of
    prod_{p|d} (|a_p| p^-sigma + |a_p| p^-2sigma + p^-3sigma)^2, which bounds
    the size of every term of both this sum and its expansion."""
    value = 0.0 + 0.0j
    scale = 0.0
    for d in range(1, 2 * M + 1):
        mu = mobius(d)
        if mu == 0:
            continue
        prod, size = complex(mu), 1.0
        for p, _ in factorize(d):
            a, x, r = table.value(p, 1), cmath.exp(-s * math.log(p)), p ** -s.real
            prod *= (a * x - a * x * x + x ** 3) ** 2
            size *= (abs(a) * r + abs(a) * r * r + r ** 3) ** 2
        value += prod
        scale += size
    return value, scale


def second_moment_full_square(polys, T: float) -> list[float]:
    """The mean-value identity sum_{m,n} a_m conj(a_n) (mn)^{-1/2} K_T(log m/n)
    with the kernel K_T(x) = 2T sinc(Tx/pi) built over the whole square of the
    union of the supports, 64 rows at a time."""
    support = np.array(sorted(set().union(*(p.terms for p in polys))), dtype=float)
    log_n = np.log(support)
    coef = np.zeros((len(support), len(polys)), dtype=complex)
    for j, poly in enumerate(polys):
        rows = np.searchsorted(support, list(poly.terms))
        coef[rows, j] = list(poly.terms.values())
    coef /= np.sqrt(support)[:, None]
    parts = np.concatenate([coef.real, coef.imag], axis=1)
    quad = np.zeros(2 * len(polys))
    for lo in range(0, len(support), 64):
        diff = log_n[lo : lo + 64, None] - log_n[None, :]
        kernel = 2.0 * T * np.sinc(diff * (T / math.pi))
        quad += np.einsum("ik,ij,jk->k", parts[lo : lo + 64], kernel, parts)
    return [float(v) for v in quad[: len(polys)] + quad[len(polys) :]]


def is_prime_trial(n: int) -> bool:
    """Primality by trial division by 2 and the odd numbers up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _pack(coeffs: list[int], slot: int) -> int:
    pos = bytearray(len(coeffs) * slot)
    neg = bytearray(len(coeffs) * slot)
    for i, c in enumerate(coeffs):
        if c > 0:
            pos[i * slot : i * slot + slot] = c.to_bytes(slot, "little")
        elif c < 0:
            neg[i * slot : i * slot + slot] = (-c).to_bytes(slot, "little")
    return int.from_bytes(bytes(pos), "little") - int.from_bytes(bytes(neg), "little")


def _unpack(m: int, full_len: int, keep: int, slot: int) -> list[int]:
    # Adding 2^(8*slot-1) per slot makes every balanced digit non-negative,
    # so the plain base-2^(8*slot) digits are coefficient + half.
    half = 1 << (8 * slot - 1)
    offset = int.from_bytes((bytes(slot - 1) + b"\x80") * full_len, "little")
    raw = (m + offset).to_bytes(full_len * slot + slot, "little")
    return [
        int.from_bytes(raw[i * slot : i * slot + slot], "little") - half
        for i in range(keep)
    ]


def square_trunc_kronecker(coeffs: list[int], N: int) -> list[int]:
    """Truncated square by Kronecker substitution on Python ints: pack the
    coefficients into byte slots of one big integer, square it with CPython's
    int product, and read the slots back out."""
    peak = max((abs(c) for c in coeffs), default=0)
    if peak == 0:
        return [0] * N
    bound = len(coeffs) * peak * peak
    slot = (bound.bit_length() + 2 + 7) // 8
    packed = _pack(coeffs, slot)
    full_len = 2 * len(coeffs) - 1
    out = _unpack(packed * packed, full_len, min(N, full_len), slot)
    out.extend([0] * (N - len(out)))
    return out


def _s11_values(theta1, theta2):
    e1 = np.exp(1j * theta1) + np.exp(1j * theta2) + np.exp(-1j * (theta1 + theta2))
    return np.abs(e1) ** 2 - 1.0


def indicator_mass_straddle(spec, interval, base_resolution: int = 256):
    """(mass, uncertainty) of {S_{1,1} in [a, b]} by a midpoint grid on the
    torus.  Cells whose corner and centre values straddle a boundary of the
    interval are refined twice (4 subcells each pass); the decided cells give
    the mass, the still-straddling subcells the uncertainty.  The straddle
    test sees only corners and centre, so mass + uncertainty is a bound only
    where no boundary curve passes between them."""
    a, b = interval

    def pass_masses(c1, c2, half):
        corners = [_s11_values(c1 + dx, c2 + dy) for dx in (-half, half) for dy in (-half, half)]
        center = _s11_values(c1, c2)
        vmin = np.minimum.reduce(corners + [center])
        vmax = np.maximum.reduce(corners + [center])
        straddle = (vmin < a) & (vmax >= a) | (vmin < b) & (vmax >= b)
        inside = ~straddle & (center >= a) & (center <= b)
        dens = measures.density(spec, measures.TorusPoint(c1, c2))
        w = (2.0 * half) ** 2
        return float(np.sum(dens[inside]) * w), c1[straddle], c2[straddle], dens[straddle], w

    step = measures.TWO_PI / base_resolution
    centers = step * (np.arange(base_resolution) + 0.5)
    c1, c2 = np.meshgrid(centers, centers, indexing="ij")
    mass, s1, s2, _, _ = pass_masses(c1.ravel(), c2.ravel(), step / 2.0)
    half = step / 2.0
    for _ in range(2):
        if s1.size == 0:
            break
        quarter = half / 2.0
        sub1 = np.concatenate([s1 + dx for dx in (-quarter, quarter) for _ in (0, 1)])
        sub2 = np.concatenate([s2 + dy for _ in (0, 1) for dy in (-quarter, quarter)])
        m, s1, s2, dens_left, w_left = pass_masses(sub1, sub2, quarter)
        mass += m
        half = quarter
    uncertainty = float(np.sum(dens_left) * w_left) if s1.size else 0.0
    return mass, uncertainty


def radius_cdf_mpmath(p, R: float, dps: int = 17) -> float:
    """Mass of {|e1| <= R} under the p-adic Plancherel measure (Sato-Tate for
    p = None): mpmath's tanh-sinh quadrature in r, split at r = 1, of the
    angular integral over psi = arg(e1^3) in [0, arccos kappa], with the
    density sqrt(8 r^3 (cos psi - kappa)) / (2 pi^2) times 6 c_p / P_q
    written out from the closed forms, not from gl3hecke."""
    import mpmath as mp

    with mp.workdps(dps):
        q = mp.mpf(1) / p if p else mp.mpf(0)
        c = (1 - q ** 2) * (1 - q ** 3) / (1 - q) ** 2

        def ring(r):
            kappa = (r ** 4 + 18 * r ** 2 - 27) / (8 * r ** 3)
            alpha = mp.pi if kappa <= -1 else mp.acos(kappa)

            def dens(psi):
                s, re3 = r * r, r ** 3 * mp.cos(psi)
                pq = (1 + q ** 6 + (q + q ** 5) * (3 - s)
                      + (q ** 2 + q ** 4) * (2 * re3 - 5 * s + 6)
                      + q ** 3 * (4 * re3 - s * s - 6 * s + 7))
                disc = max(8 * r ** 3 * (mp.cos(psi) - kappa), 0)
                return mp.sqrt(disc) / (2 * mp.pi ** 2) * c / pq

            return 2 * r * mp.quad(dens, [0, alpha])

        R = mp.mpf(R)
        return float(mp.quad(ring, [0, R] if R <= 1 else [0, 1, R]))

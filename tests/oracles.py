"""Independent reference implementations used only to cross-check the
library: determinant-ratio Schur values, random tempered data as
per-prime records, naive eta-product expansion,
divisor counting, brute-force root-partition enumeration, the Freudenthal
multiplicity recursion, evaluation of (e1, e2)-polynomials and Schur
combinations, the Schur-to-monomial expansion, the Simpson-rule second
moment, the per-entry sign-change count, the per-window sign-change walk,
the per-window short-interval sums, the row sieve on dense arrays of N + 1
entries, primality by trial division, Dirichlet polynomial evaluation term by term,
the window polynomial D evaluated as a product over squarefree d, the
full-square mean-value kernel, the mean-value identity in mpmath, the
truncated square by Kronecker
substitution on Python ints, the straddle-refined torus grid for A(p, p)
cell masses, the distribution function of |e1| by mpmath quadrature, the
SplitMix64 generator one output at a time, the rejection sampler with the
float64 density on every proposal,
Gauss-Legendre rules by Newton's method in mpmath, the trapezoid error bound
with its alias lattice rebuilt on every call, the window polynomial D sieved
at every point and in Python complex scalars, the limb width tried on
every limb, A(p, p) from whole arrays of half chords, balanced limbs by a
boolean scatter, the terms of a Dirichlet polynomial by one comprehension,
the second moment on the [Re | Im] block of every batch, and table values
A(m, n) from trial division."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np

from gl3hecke import dirichlet, measures, tau
from gl3hecke.arith import factorize, mobius, prime_array
from gl3hecke.hecke import (LocalArrays, PrimeLocalData, SatakeTriple, _PyComplex,
                            schur_from_elementary)
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


def sym2_triple_by_angles(lam: float) -> SatakeTriple:
    """The symmetric-square Satake triple (beta^2, 1, beta^-2) of
    lambda = beta + 1/beta on the unit circle, with beta from acos and exp:
    an independent path to hecke.sym2_lift's e1 = e2 = lambda^2 - 1.  Branch
    at |lambda| = 2: beta = 1 for lambda = 2 and beta = -1 for lambda = -2."""
    half = min(1.0, max(-1.0, lam / 2.0))
    beta = cmath.exp(1j * math.acos(half))
    b2 = beta * beta
    return SatakeTriple(b2, 1.0 + 0.0j, 1.0 / b2)


def tempered_records(primes, rng) -> list[PrimeLocalData]:
    """One PrimeLocalData per prime, its triple `SatakeTriple.from_angles` of
    t1 and then t2 drawn from rng: the records that
    `suites.random_tempered_locals` packs into arrays from the same draws."""
    return [PrimeLocalData(p, SatakeTriple.from_angles(rng.uniform(0.0, 2.0 * math.pi),
                                                       rng.uniform(0.0, 2.0 * math.pi)))
            for p in primes]


def local_arrays_of_triples(primes, triples) -> LocalArrays:
    """LocalArrays of Satake triples (alpha1, alpha2, alpha3), tempered or
    not, with e1 and e2 formed as `SatakeTriple.e1` and `.e2` form them, so a
    table reads the bits it would read from records of the same triples."""
    return LocalArrays(primes, [a1 + a2 + a3 for a1, a2, a3 in triples],
                       [a1 * a2 + a1 * a3 + a2 * a3 for a1, a2, a3 in triples])


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


def canonical(v) -> tuple[int, int, int]:
    """The representative of the weight v mod (1, 1, 1) with minimum coordinate 0."""
    m = min(v)
    return tuple(x - m for x in v)


def brute_kostant_counts(beta: tuple[int, int, int], bound: int = 12) -> dict[int, int]:
    """Number of decompositions of beta into n1*a1 + n2*a2 + n3*(a1+a2) mod
    (1, 1, 1), keyed by n1 + n2 + n3, by exhaustive search.  The default
    bound covers every target with sup-norm at most 6."""
    target = canonical(beta)
    counts: dict[int, int] = {}
    for n1 in range(bound + 1):
        for n2 in range(bound + 1):
            for n3 in range(bound + 1):
                if canonical((n1 + n3, n2 - n1, -n2 - n3)) == target:
                    total = n1 + n2 + n3
                    counts[total] = counts.get(total, 0) + 1
    return counts


def _project(v) -> tuple[Fraction, Fraction, Fraction]:
    mean = Fraction(sum(v), 3)
    return tuple(Fraction(x) - mean for x in v)


def _inner(u, v) -> Fraction:
    pu, pv = _project(u), _project(v)
    return sum(a * b for a, b in zip(pu, pv))


def freudenthal_multiplicities(lam: tuple[int, int, int]) -> dict[tuple[int, int, int], int]:
    """Weight multiplicities of the irreducible with highest weight lam via
    the Freudenthal recursion, exact rational arithmetic throughout; the
    weights are `canonical` triples."""
    pos_roots = [(1, -1, 0), (0, 1, -1), (1, 0, -1)]
    rho = (1, 0, -1)
    lam_raw = canonical(lam)
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
    return {canonical(mu): m for mu, m in mult.items() if m > 0}


def epoly_eval(epoly, e1, e2):
    """sum c e1^a e2^b over the terms of an EPoly, with float/complex/array
    arguments."""
    acc = e1 * 0
    for (a, b), c in epoly.terms:
        acc = acc + float(c) * e1 ** a * e2 ** b
    return acc


def laurent_eval_elementary(coeffs: dict, e1, e2):
    """sum c s_(l1, l2)(e1, e2) over Schur coefficients {(l1, l2): c}, each
    Schur element from the library's recurrence."""
    acc = e1 * 0
    for (l1, l2), c in coeffs.items():
        acc = acc + float(c) * schur_from_elementary(l1, l2, e1, e2)
    return acc


def laurent_to_epoly(coeffs: dict) -> EPoly:
    """The exact expansion of Schur coefficients {(l1, l2): c} in e1^a e2^b."""
    acc = EPoly()
    for (l1, l2), c in coeffs.items():
        acc = acc + schur_to_epoly(l1, l2).scale(c)
    return acc


def count_sign_changes_loop(values, zero_tol: float = 1e-12) -> SignChangeReport:
    """Sign changes along the entries with |a| > zero_tol, one entry at a
    time; zeros are skipped, never counted as changes."""
    if not zero_tol >= 0:
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


def short_interval_sums_loop(table, cfg, x: int) -> dict:
    """S1 = |sum A(mk,1)| and S2 = sum |A(mk,1)| over one window x <= mk <= x+H,
    m in [M, 2M], gcd(m, k) = 1, by a Python loop over its terms, m ascending
    and then k."""
    mk = [m * k for m in range(cfg.M, 2 * cfg.M + 1)
          for k in range(max(1, -(-x // m)), (x + cfg.H) // m + 1)
          if math.gcd(m, k) == 1]
    acc = 0.0 + 0.0j
    acc_abs = 0.0
    if mk:
        window = table.row(max(mk))[x - 1:].tolist()
        for n in mk:
            v = window[n - x]
            acc += v
            acc_abs += abs(v)
    return {"S1": abs(acc), "S2": acc_abs}


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


def second_moment_mpmath(poly, T: float, dps: int = 40) -> float:
    """The mean-value identity sum_{m,n} a_m conj(a_n) (mn)^{-1/2} K_T(log m/n)
    of one polynomial in mpmath at dps digits, each log and sine taken from
    the exact integer frequencies: 2T sum |a_n|^2/n plus twice the sum of
    Re(a_m conj(a_n)) (mn)^{-1/2} 2 sin(T x)/x over m < n, x = log n/m."""
    import mpmath as mp

    with mp.workdps(dps):
        T = mp.mpf(T)
        freqs = sorted(poly.terms)
        logs = [mp.log(n) for n in freqs]
        amps = [mp.mpc(poly.terms[n].real, poly.terms[n].imag) / mp.sqrt(n) for n in freqs]
        total = 2 * T * mp.fsum(abs(a) ** 2 for a in amps)
        for i in range(len(freqs)):
            for j in range(i + 1, len(freqs)):
                x = logs[j] - logs[i]
                total += 4 * (amps[i] * mp.conj(amps[j])).real * mp.sin(T * x) / x
        return float(total)


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


def primes_by_odd_sieve(n: int) -> list[int]:
    """The primes <= n: 2, then the odd k whose flag no odd prime's multiples
    from its square cleared, on a boolean array of the odd numbers."""
    if n < 2:
        return []
    odd = np.ones((n - 1) // 2, dtype=bool)  # 3, 5, ..., the odd k <= n
    for i in range(math.isqrt(n) // 2):
        if odd[i]:
            p = 2 * i + 3
            odd[(p * p - 3) // 2::p] = False
    return [2] + (2 * np.flatnonzero(odd) + 3).tolist()


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


def density_exponential(spec, pt):
    """The density of spec at pt from z = e^{i theta}, theta3 = -(theta1 +
    theta2) mod 2 pi: prod_{l<j} |z_l - z_j|^2 / (24 pi^2) for Sato-Tate, and
    c_p prod |z_l - z_j|^2 / prod |z_l - z_j / p|^2 / (2 pi)^2 for Plancherel."""
    theta3 = (-(pt.theta1 + pt.theta2)) % measures.TWO_PI
    z = (np.exp(1j * pt.theta1), np.exp(1j * pt.theta2), np.exp(1j * theta3))
    vandermonde = denom = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            vandermonde = vandermonde * np.abs(z[i] - z[j]) ** 2
            if spec.p is not None:
                denom = denom * np.abs(z[i] - z[j] / spec.p) ** 2
    if spec.p is None:
        return vandermonde / (24.0 * math.pi ** 2)
    return measures.plancherel_constant(spec.p) * vandermonde / denom / measures.TWO_PI ** 2


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


def splitmix64(seed: int):
    """The outputs of the SplitMix64 generator seeded at seed, without end:
    `next()` of the reference splitmix64.c (Steele, Lea and Flood, OOPSLA
    2014) transcribed to Python ints, one output per step."""
    mask = 2 ** 64 - 1
    x = seed
    while True:
        x = (x + 0x9E3779B97F4A7C15) & mask
        z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def sample_angles_float64(spec, count: int, seed: int):
    """`measures.sample_angles` as it was before its float32 squeeze: the
    float64 density of every proposal decides it.  Proposals t1, t2 and u
    come from the sampler's stream in that order, a batch of each at a time."""
    from gl3hecke.measures import EnvelopeError, TorusPoint, TWO_PI, density, envelope_ratio

    if count < 1:
        raise ValueError("count must be >= 1")
    cap = envelope_ratio(spec) / TWO_PI ** 2
    got1: list[np.ndarray] = []
    got2: list[np.ndarray] = []
    total = 0
    batch, first = 8192, 0
    while total < count:
        t1, t2, u = (np.empty(batch, np.uint64) for _ in range(3))
        for z in (t1, t2, u):
            measures._splitmix64(seed, first, z)
            first += batch
        t1, t2, u = ((z >> 11) * 2.0 ** -53 for z in (t1, t2, u))
        t1, t2 = TWO_PI * t1, TWO_PI * t2
        d = density(spec, TorusPoint(t1, t2))
        worst = float(np.max(d))
        if worst > cap * (1.0 + 1e-9):
            raise EnvelopeError(
                f"density {worst} exceeds envelope bound {cap} for {spec}"
            )
        keep = u * cap <= d
        got1.append(t1[keep])
        got2.append(t2[keep])
        total += int(np.count_nonzero(keep))
    out1 = np.concatenate(got1)[:count]
    out2 = np.concatenate(got2)[:count]
    return out1, out2


def gauss_legendre_mpmath(n: int, dps: int = 40):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1] as
    mpf lists, ascending: Newton's method at dps digits on mpmath's
    Legendre function, one root at a time, each started from Tricomi's
    approximation cos(pi (k - 1/4) / (n + 1/2)) (1 - (n - 1) / (8 n^3)),
    and the weights 1 / ((1 - x^2) P_n'(x)^2) for the roots x on [-1, 1]."""
    import mpmath as mp

    with mp.workdps(dps + 10):
        tiny = mp.mpf(10) ** -(dps + 5)
        nodes, weights = [], []
        for k in range(n, 0, -1):
            x = mp.cos(mp.pi * (k - mp.mpf(1) / 4) / (n + mp.mpf(1) / 2)) * (
                1 - mp.mpf(n - 1) / (8 * mp.mpf(n) ** 3))
            for _ in range(100):
                dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
                step = mp.legendre(n, x) / dp
                x -= step
                if abs(step) < tiny:
                    break
            dp = n * (x * mp.legendre(n, x) - mp.legendre(n - 1, x)) / (x * x - 1)
            nodes.append((x + 1) / 2)
            weights.append(1 / ((1 - x * x) * dp * dp))
        return nodes, weights


def trapezoid_bound_uncached(spec, l1: int, l2: int, K: np.ndarray) -> np.ndarray:
    """`measures._alias_bound` of `_alias_table(l1, l2, K)` as one pass: the
    alias lattice of every K built, and q^||K j - m|| raised, on every call."""
    q = 0.0 if spec.p is None else 1.0 / spec.p
    top, rho = (l1 + l2 + 2, l2 + 1, 0), (2, 1, 0)
    m = np.array([[top[s[i]] - top[s[2]] - rho[t[i]] + rho[t[2]] for i in (0, 1)]
                  for s, _ in measures.WEYL for t, _ in measures.WEYL]).T
    reach = int(np.max(np.abs(m)))
    box = -(-reach // 8)
    j = np.array([(u, v) for u in range(-box, box + 1) for v in range(-box, box + 1) if u or v])
    d1, d2 = K[:, None, None] * j.T[:, None, :, None] - m[:, None, None, :]
    norm = np.maximum(np.maximum(np.abs(2 * d1 - d2), np.abs(d1 + d2)), np.abs(d1 - 2 * d2)) // 3
    near = np.sum(np.where((d1 + d2) % 3 == 0, q ** norm, 0.0), axis=(1, 2))
    s, x = box + 1, q ** (K / 2.0)
    far = 36 * 8 * q ** ((s * K - reach) / 2.0) * (s / (1.0 - x) + x / (1.0 - x) ** 2)
    return ((1.0 - q ** 3) / (6.0 * (1.0 - q) ** 5 * (1.0 + q)) * (near + far)
            + _rounding_floor(spec, l1, l2))


def _rounding_floor(spec, l1: int, l2: int) -> float:
    """The term of `trapezoid_bound_uncached` that no K changes."""
    from gl3hecke.measures import envelope_ratio

    h, dh = (lambda k: math.comb(k + 2, 2)), (lambda k: 160 * math.comb(k + 4, 5))
    schur = sum(dh(u) * h(v) + h(u) * dh(v) + 4 * h(u) * h(v)
                for u, v in ((l1 + l2, l2), (l1 + l2 + 1, l2 - 1)))
    dim = (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2
    return 2.0 ** -53 * envelope_ratio(spec) * (schur + 4096 * dim)


def trapezoid_resolutions_uncached(spec, l1: int, l2: int, tols) -> list[int | None]:
    """`measures.trapezoid_resolution` at each tol, on
    `trapezoid_bound_uncached` of the same 16-wide K chunks, walked once
    for all the tols.  A tol below the rounding floor gets None unwalked:
    the bound adds a non-negative aliasing term to the floor."""
    floor = _rounding_floor(spec, l1, l2)
    found: list[int | None] = [None] * len(tols)
    pending = {i for i, tol in enumerate(tols) if floor <= tol}
    for lo in range(8, 1025, 16):
        if not pending:
            break
        K = np.arange(lo, min(lo + 16, 1025))
        bound = trapezoid_bound_uncached(spec, l1, l2, K)
        for i in sorted(pending):
            ok = np.flatnonzero(bound <= tols[i])
            if ok.size:
                found[i] = int(K[ok[0]])
                pending.discard(i)
    return found


def window_eval_sieve(dpoly, s: complex) -> complex:
    """`dirichlet.WindowPolynomial.eval` sieving at every point: over d <= n,
    primes ascending, each multiple of p takes the factor -g_p in place and
    each multiple of p^2 becomes 0."""
    primes = prime_array(dpoly.n)
    x = np.exp(-s * np.log(primes))
    g = (dpoly.a * x - dpoly.a * x * x + x * x * x) ** 2
    vals = np.ones(dpoly.n + 1, dtype=complex)
    for p, gp in zip(primes.tolist(), g):
        vals[p::p] *= -gp
        vals[p * p :: p * p] = 0.0
    return complex(np.sum(vals[1:]))


def window_eval_python(dpoly, s: complex) -> complex:
    """`dirichlet.WindowPolynomial.eval` in Python complex scalars: g_p from
    the same p^-s, and for each squarefree d <= n the product of -g_p over
    its primes, ascending, from 1, summed as np.sum over the entries d - 1
    of an array of n."""
    primes = prime_array(dpoly.n)
    x = np.exp(-s * np.log(primes)).tolist()
    g = {}
    for p, a, xp in zip(primes.tolist(), dpoly.a.tolist(), x):
        y = a * xp - a * xp * xp + xp * xp * xp
        g[p] = y * y
    vals = np.zeros(dpoly.n, dtype=complex)
    for d in range(1, dpoly.n + 1):
        if mobius(d):
            term = 1.0 + 0.0j
            for p, _ in factorize(d):
                term = term * -g[p]
            vals[d - 1] = term
    return complex(np.sum(vals))


def limb_bits_every_k(c: np.ndarray, L: int) -> tuple[int, list[np.ndarray]]:
    """`tau._limb_bits` building every limb of every limb count it tries."""
    lo, hi, b = int(c.min()), int(c.max()), 62
    for K in range(1, 64):
        while b > 2 and tau._fits(lo, hi, b - 1, K):
            b -= 1
        limbs = tau._limbs(c, b)
        norms = [math.sqrt(np.square(x, dtype=np.float64).sum()) for x in limbs]
        if tau._error_bound(norms, L) < 0.25:
            return b, limbs
    raise ArithmeticError(f"no limb width squares {len(c)} coefficients exactly")


def sample_app_whole(p: int, count: int, seed: int) -> np.ndarray:
    """A(p, p) = 8 - 4 sum s_ij of one whole draw of `measures.sample_angles`."""
    t1, t2 = measures.sample_angles(measures.MeasureSpec.plancherel(p), count, seed)
    return 8.0 - 4.0 * sum(measures.half_chords(t1, t2))


def sieve_row_dense(table, N: int, diagonal: bool) -> np.ndarray:
    """Entries 0..N of a row (entry 0 unused) by A(m) = A(m/q) L(q), q the
    full power of the largest prime of m, in rounds of equal number of
    distinct primes omega(m).  The largest prime goes last, so every product
    is value()'s ascending-prime product, and _PyComplex rounds as it does.

    The sieve before `hecke.PrimePowerSieve` and its one ascending pass:
    dense int64 q(m) and complex L(q) arrays of N + 1 entries, every round
    at once, and one schur_from_elementary per exponent."""
    top = np.ones(N + 1, dtype=np.int64)      # q(m)
    omega = np.zeros(N + 1, dtype=np.int8)
    local = np.zeros(N + 1, dtype=complex)    # L(q) at the prime powers q
    primes, e1, e2 = table.local.primes, table.local.e1, table.local.e2
    n_small, n_primes = np.searchsorted(primes, [math.isqrt(N), N], "right").tolist()
    for p, x1, x2 in zip(primes[:n_small].tolist(), e1[:n_small].tolist(),
                         e2[:n_small].tolist()):  # ascending: top keeps the largest
        omega[p::p] += 1
        q, e = p, 1
        while q <= N:
            top[q::q] = q
            local[q] = schur_from_elementary(e, e if diagonal else 0, x1, x2)
            q, e = q * p, e + 1
    # L(p) at p > sqrt(N) on the arrays, rounded as Python's complex
    big = primes[n_small:n_primes]
    x1, x2 = (_PyComplex(x.real, x.imag) for x in (e1[n_small:n_primes], e2[n_small:n_primes]))
    val = schur_from_elementary(1, 1 if diagonal else 0, x1, x2)
    local.real[big], local.imag[big] = val.re, val.im
    # m = k p with p > sqrt(N) has k < p, so p is its largest prime, to the first power
    count = N // big
    ps = np.repeat(big, count)
    m = ps * (np.arange(1, len(ps) + 1) - np.repeat(np.cumsum(count) - count, count))
    top[m] = ps
    omega[m] += 1
    del x1, x2, val, ps, m  # before the rounds, which hold the most memory
    row = np.zeros(N + 1, dtype=complex)
    row[1] = 1.0
    for k in range(1, int(omega.max(initial=0)) + 1):
        idx = np.flatnonzero(omega == k)
        q = top[idx]
        r = idx // q
        prod = _PyComplex(row.real[r], row.imag[r]) * _PyComplex(local.real[q], local.imag[q])
        row.real[idx], row.imag[idx] = prod.re, prod.im
    row.flags.writeable = False
    return row


def limbs_scatter(c: np.ndarray, b: int) -> list[np.ndarray]:
    """`tau._limbs` with each digit and carry from the mask of the digits
    at or above 2^(b-1)."""
    limbs, half, mask = [], 1 << (b - 1), (1 << b) - 1
    while c.any():
        low = c & mask
        up = low >= half
        limbs.append((low - (up.astype(np.int64) << b)).astype(np.int16 if b <= 16 else np.int64))
        c = (c >> b) + up
    return limbs


def low_norm_scatter(c: np.ndarray, b: int) -> float:
    """`tau._low_norm` by a boolean scatter into the low digits."""
    low = c & ((1 << b) - 1)
    low[low >= 1 << (b - 1)] -= 1 << b
    return math.sqrt(np.square(low, dtype=np.float64).sum())


def second_moment_re_im(polys, T: float) -> list[float]:
    """`dirichlet.second_moment_many` contracting the [Re | Im] block of
    every batch, real or not."""
    support = sorted(set().union(*(p.terms for p in polys)))
    log_n = np.fromiter(map(math.log, support), float, len(support))
    if np.any(np.diff(log_n) <= 0.0):
        raise ValueError("frequencies too large for distinct float logarithms")
    coef = np.zeros((len(support), len(polys)), dtype=complex)
    for j, poly in enumerate(polys):
        poly_log_n, poly_coef = poly._arrays
        coef[np.searchsorted(log_n, poly_log_n), j] = poly_coef
    coef *= np.exp(-0.5 * log_n)[:, None]
    parts = np.concatenate([coef.real, coef.imag], axis=1)
    columns = np.ascontiguousarray(parts.T)
    quad = 2.0 * T * np.einsum("ik,ik->k", parts, parts)
    theta = T * log_n
    sin, cos = np.sin(theta), np.cos(theta)
    rows_per, above = dirichlet._KERNEL_ROWS, dirichlet._ABOVE
    x = np.empty((rows_per, len(support)))
    kernel = np.empty_like(x)
    for lo in range(0, len(support), rows_per):
        block = parts[lo : lo + rows_per]
        m, hi = len(block), lo + len(block)
        w = max(hi, int(np.searchsorted(theta, theta[hi - 1] + dirichlet._DIRECT_BAND))) - lo
        xb, kb = x[:m, : len(support) - lo], kernel[:m, : len(support) - lo]
        np.multiply.outer(cos[lo:hi], sin[lo + w :], out=kb[:, w:])
        np.multiply.outer(sin[lo:hi], cos[lo + w :], out=xb[:, w:])
        kb[:, w:] -= xb[:, w:]
        np.subtract(log_n[None, lo:], log_n[lo:hi, None], out=xb)
        np.multiply(xb[:, :w], T, out=kb[:, :w])
        np.sin(kb[:, :m], out=kb[:, :m], where=above[:m, :m])
        np.sin(kb[:, m:w], out=kb[:, m:w])
        xb[:, :m][~above[:m, :m]] = np.inf
        kb /= xb
        rows = np.einsum("ij,kj->ik", kb, columns[:, lo:])
        quad += 4.0 * np.einsum("ik,ik->k", block, rows)
    return [float(v) for v in quad[: len(polys)] + quad[len(polys) :]]


def table_value_trial_division(table, m: int, n: int) -> complex:
    """`CoefficientTable.value` from trial division: the product from 1 of
    schur_from_elementary(a, b) on the Python complex e1, e2 of each prime,
    m's primes ascending, then the primes of n not in m, ascending."""
    local = table.local
    index = {p: i for i, p in enumerate(local.primes.tolist())}
    of_n = dict(factorize(n))
    exponents = [(p, a, of_n.pop(p, 0)) for p, a in factorize(m)]
    exponents += [(p, 0, b) for p, b in of_n.items()]
    val = 1.0 + 0.0j
    for p, a, b in exponents:
        i = index[p]
        val *= schur_from_elementary(a, b, complex(local.e1[i]), complex(local.e2[i]))
    return val

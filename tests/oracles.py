"""Independent reference implementations used only to cross-check the
library: determinant-ratio Schur values, naive eta-product expansion,
divisor counting, brute-force root-partition enumeration, the Freudenthal
multiplicity recursion, the Simpson-rule second moment, and the per-window
sign-change walk."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from gl3hecke.klpoly import Weight


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


def interval_change_scan_walk(table, cfg, zero_tol: float = 1e-12) -> dict:
    """Window scan by walking each window [x, x+H] separately, x on a stride
    of max(1, H//4) over [X, 2X]: O(X/stride * H) reads of A(m, 1)."""
    stride = max(1, cfg.H // 4)
    total = with_change = disjoint = 0
    next_free = 0
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
            if x >= next_free:
                disjoint += 1
                next_free = x + cfg.H + 1
    return {
        "total_x": total,
        "with_change": with_change,
        "lower_bound_estimate": float(disjoint),
    }


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

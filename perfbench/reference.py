"""Reference computations the benchmark checks gl3hecke's outputs against.

Nothing here imports gl3hecke: every value is computed by a different route
from the one the program takes (Chebyshev recurrences instead of Schur
recurrences, ratios of alternants instead of Jacobi-Trudi, the exact
bilinear mean-value form instead of Simpson quadrature, the unexpanded
product for D(s), a Weyl-integration quadrature for Kato's moments).
Each check returns a list of failure messages; an empty list means pass.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------- arithmetic

def primes_upto(n: int) -> np.ndarray:
    """All primes <= n (numpy sieve)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def spf_table(n: int) -> np.ndarray:
    """Smallest prime factor of 0..n (0 and 1 map to themselves)."""
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, math.isqrt(n) + 1):
        if spf[p] == p:
            block = spf[p * p :: p]
            block[block == np.arange(p * p, n + 1, p)] = p
    return spf


def multiplicative_fill(X: int, local: np.ndarray) -> np.ndarray:
    """The multiplicative function f(1..X) with f(q) = local[q] at every
    prime power q; entry 0 of the result is unused."""
    spf = spf_table(X)
    m = np.arange(X + 1, dtype=np.int64)
    q = spf.copy()                      # prime-power part of m at spf(m)
    rest = m // np.maximum(spf, 1)
    while True:
        more = (rest > 1) & (rest % np.maximum(spf, 1) == 0)
        if not more.any():
            break
        q[more] *= spf[more]
        rest[more] //= spf[more]
    omega = np.zeros(X + 1, dtype=np.int64)
    for p in primes_upto(X):
        omega[p::p] += 1
    out = np.zeros(X + 1, dtype=local.dtype)
    out[1] = 1
    for level in range(1, int(omega.max(initial=0)) + 1):
        idx = np.flatnonzero(omega == level)
        out[idx] = local[q[idx]] * out[rest[idx]]
    return out


# ----------------------------------------------------------------------- tau

def sigma11_mod691(X: int) -> np.ndarray:
    """sigma_11(n) mod 691 for n = 0..X (entry 0 unused)."""
    acc = np.zeros(X + 1, dtype=np.int64)
    for d in range(1, X + 1):
        acc[d::d] += pow(d, 11, 691)
    return acc % 691


def check_tau(values: list[int], pairs: list[tuple[int, int]]) -> list[str]:
    """Ramanujan's congruence tau(n) = sigma_11(n) mod 691, multiplicativity
    at the given coprime pairs, tau(p^2) = tau(p)^2 - p^11 and Deligne's
    bound |tau(p)| <= 2 p^(11/2) (as tau(p)^2 <= 4 p^11), on tau(1..len)."""
    X = len(values)
    tau = [0] + list(values)
    bad: list[str] = []
    sig = sigma11_mod691(X)
    wrong = [n for n in range(1, X + 1) if tau[n] % 691 != sig[n]]
    if wrong:
        bad.append(f"tau(n) != sigma_11(n) mod 691 at n = {wrong[:5]}")
    for m, n in pairs:
        if math.gcd(m, n) != 1 or m * n > X:
            raise ValueError(f"({m}, {n}) is not a coprime pair with mn <= {X}")
        if tau[m * n] != tau[m] * tau[n]:
            bad.append(f"tau({m * n}) != tau({m}) tau({n})")
    for p in primes_upto(X).tolist():
        if p * p <= X and tau[p * p] != tau[p] ** 2 - p ** 11:
            bad.append(f"tau({p}^2) != tau({p})^2 - {p}^11")
        if tau[p] ** 2 > 4 * p ** 11:
            bad.append(f"|tau({p})| > 2 {p}^(11/2)")
    return bad


def sym2_am1(lams: dict[int, float], X: int) -> np.ndarray:
    """A(m, 1), m = 0..X, of the symmetric-square lift of the degree-two
    form with normalized eigenvalues lambda(p): lambda(p^(j+1)) =
    lambda(p) lambda(p^j) - lambda(p^(j-1)), A(p^k, 1) = sum over
    0 <= i <= k/2 of lambda(p^(2k - 4i)), extended multiplicatively."""
    local = np.zeros(X + 1)
    for p, lam in lams.items():
        kmax = 0
        while p ** (kmax + 1) <= X:
            kmax += 1
        lam_pow = [1.0, lam]
        for _ in range(2 * kmax - 1):
            lam_pow.append(lam * lam_pow[-1] - lam_pow[-2])
        for k in range(1, kmax + 1):
            local[p ** k] = sum(lam_pow[2 * k - 4 * i] for i in range(k // 2 + 1))
    return multiplicative_fill(X, local)


def sym_bound(X: int, which: str) -> np.ndarray:
    """Multiplicative bound on |A|: the dimension of the local representation,
    (k+1)(k+2)/2 for A(p^k, 1) and (k+1)^3 for A(p^k, p^k)."""
    local = np.zeros(X + 1)
    for p in primes_upto(X).tolist():
        q, k = p, 1
        while q <= X:
            local[q] = (k + 1) * (k + 2) / 2 if which == "m1" else (k + 1) ** 3
            q, k = q * p, k + 1
    return multiplicative_fill(X, local)


def sign_counts(values: np.ndarray, zero_tol: float = 1e-12) -> dict:
    """Sign changes along the nonzero entries, and positive, negative and
    zero counts."""
    nonzero = values[np.abs(values) > zero_tol]
    signs = np.sign(nonzero)
    return {
        "changes": int(np.count_nonzero(signs[1:] != signs[:-1])),
        "positives": int(np.count_nonzero(signs > 0)),
        "negatives": int(np.count_nonzero(signs < 0)),
        "zeros": int(values.size - nonzero.size),
    }


def windows_with_change(values: np.ndarray, X: int, H: int, zero_tol: float = 1e-12) -> int:
    """How many windows [x, x+H], x = X, X + stride, ..., 2X with stride
    max(1, H // 4), hold a sign change of values[m - 1] along nonzero m."""
    count = 0
    for x in range(X, 2 * X + 1, max(1, H // 4)):
        window = values[x - 1 : x + H]
        signs = np.sign(window[np.abs(window) > zero_tol])
        count += bool(np.any(signs[1:] != signs[:-1]))
    return count


# ------------------------------------------------------------ GL(3) locally

def unit_powers(theta, j: int) -> np.ndarray:
    """e^{i j theta} in extended precision."""
    t = np.asarray(theta, dtype=np.longdouble) * j
    return np.cos(t) + 1j * np.sin(t)


def alternant_schur(b1: int, b2: int, theta1, theta2):
    """A(p^b1, p^b2) at the Satake point (e^{i t1}, e^{i t2}, e^{-i(t1+t2)})
    by the Weyl character formula: the alternant of x^(b1+b2+2), x^(b2+1),
    x^0 over the Vandermonde alternant.  Extended precision; undefined at
    coincident coordinates."""
    thetas = (np.asarray(theta1, dtype=np.longdouble),
              np.asarray(theta2, dtype=np.longdouble))
    thetas = thetas + (-(thetas[0] + thetas[1]),)

    def alternant(e1, e2):
        rows = [[unit_powers(t, e) for t in thetas] for e in (e1, e2, 0)]
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    return alternant(b1 + b2 + 2, b2 + 1) / alternant(2, 1)


def e1_value(theta1, theta2):
    """A(p, 1) = x1 + x2 + x3 at the same Satake point."""
    return sum(unit_powers(t, 1) for t in (theta1, theta2, -(np.asarray(theta1) + theta2)))


def generic_amm(primes: np.ndarray, theta1: np.ndarray, theta2: np.ndarray, X: int) -> np.ndarray:
    """A(m, m) for m = 0..X from per-prime angles: the ratio of alternants at
    each prime power, extended multiplicatively (complex result)."""
    local = np.zeros(X + 1, dtype=complex)
    k = 1
    while True:
        live = primes.astype(float) ** k <= X
        if not live.any():
            break
        q = primes[live] ** k
        local[q] = alternant_schur(k, k, theta1[live], theta2[live]).astype(complex)
        k += 1
    return multiplicative_fill(X, local)


# ------------------------------------------------------- Dirichlet polynomials

def second_moments_exact(term_dicts: list[dict], T: float) -> list[float]:
    """Exact int_{-T}^{T} |F(1/2 + it)|^2 dt for each F = sum a_n n^-s:
    sum over m, n of a_m conj(a_n) (mn)^(-1/2) K_T(log m/n), with
    K_T(0) = 2T and K_T(x) = 2 sin(Tx) / x."""
    support = sorted(set().union(*term_dicts))
    n = np.array(support, dtype=float)
    diff = np.log(n)[:, None] - np.log(n)[None, :]
    off = diff != 0.0
    kernel = np.full(diff.shape, 2.0 * T)
    kernel[off] = 2.0 * np.sin(T * diff[off]) / diff[off]
    index = {m: i for i, m in enumerate(support)}
    out = []
    for terms in term_dicts:
        w = np.zeros(len(support), dtype=complex)
        for m, c in terms.items():
            w[index[m]] = c / math.sqrt(m)
        out.append(float(np.real(w @ kernel @ np.conj(w))))
    return out


def mobius_upto(n: int) -> list[tuple[int, int, list[int]]]:
    """(d, mu(d), primes of d) for squarefree d <= n."""
    spf = spf_table(n).tolist()
    out = []
    for d in range(1, n + 1):
        ps, r = [], d
        while r > 1:
            p = spf[r]
            r //= p
            if r % p == 0:
                break
            ps.append(p)
        else:
            out.append((d, (-1) ** len(ps), ps))
    return out


def d_unexpanded(a: dict[int, complex], M: int, s: complex) -> tuple[complex, float]:
    """D(s) = sum over squarefree d <= 2M of mu(d) prod_{p | d}
    (a_p p^-s - a_p p^-2s + p^-3s)^2, summed as written; returned with the
    sum of the terms' absolute values, the scale of its rounding error."""
    acc, scale = 0.0 + 0.0j, 0.0
    for _, mu, ps in mobius_upto(2 * M):
        term = complex(mu)
        for p in ps:
            u = p ** -s
            term *= (a[p] * u - a[p] * u * u + u ** 3) ** 2
        acc += term
        scale += abs(term)
    return acc, scale


def close(got, want, rel: float, what: str) -> list[str]:
    """Relative agreement |got - want| <= rel (1 + |want|)."""
    if abs(got - want) <= rel * (1.0 + abs(want)):
        return []
    return [f"{what}: got {got!r}, expected {want!r}"]


# --------------------------------------------------------------- measures

def plancherel_weight(p: int | None, theta1, theta2):
    """Density of the p-adic Plancherel measure (Sato-Tate for p = None)
    against d(theta1) d(theta2), by Macdonald's formula:
    W(q)/6 prod_{i<j} |x_i - x_j|^2 / |1 - q x_i/x_j|^2 / (2 pi)^2, q = 1/p,
    W(q) = (1 + q)(1 + q + q^2)."""
    t = (np.asarray(theta1, float), np.asarray(theta2, float))
    t = t + (-(t[0] + t[1]),)
    q = 0.0 if p is None else 1.0 / p
    out = (1 + q) * (1 + q + q * q) / 6.0 / TWO_PI ** 2
    for i in range(3):
        for j in range(i + 1, 3):
            d = t[i] - t[j]
            out = out * (2.0 - 2.0 * np.cos(d)) / (1.0 + q * q - 2.0 * q * np.cos(d))
    return out


def kato_quadrature(l1: int, l2: int, p: int, K: int = 128) -> float:
    """Integral of the (l1, l2) Schur element against the p-adic Plancherel
    measure on a K x K periodic trapezoid grid, in the Weyl-integration form
    a_{lambda+rho} conj(a_rho) / prod |1 - q x_i/x_j|^2, which never divides
    by the Vandermonde."""
    nodes = TWO_PI * np.arange(K) / K
    t1, t2 = np.meshgrid(nodes, nodes, indexing="ij")
    thetas = (t1, t2, -(t1 + t2))

    def alternant(e1, e2):
        rows = [[np.exp(1j * e * t) for t in thetas] for e in (e1, e2, 0)]
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    q = 1.0 / p
    weight = (1 + q) * (1 + q + q * q) / 6.0
    for i in range(3):
        for j in range(i + 1, 3):
            weight = weight / (1.0 + q * q - 2.0 * q * np.cos(thetas[i] - thetas[j]))
    integrand = alternant(l1 + l2 + 2, l2 + 1) * np.conj(alternant(2, 1)) * weight
    return float(np.real(integrand.mean()))


def binomial_ok(fraction: float, mass: float, uncertainty: float, n: int, z: float) -> bool:
    """|fraction - mass| <= z * sqrt(m (1 - m) / n) + uncertainty, with m the
    cell mass clipped into (1/n, 1)."""
    m = min(max(mass, 1.0 / n), 1.0 - 1.0 / n)
    return abs(fraction - mass) <= z * math.sqrt(m * (1.0 - m) / n) + uncertainty

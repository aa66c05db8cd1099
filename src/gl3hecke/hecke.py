"""Exact GL(3) Hecke coefficient calculus built from local Satake data.

Local data at a prime is a triple of complex numbers with product one.  The
coefficient A(p^b1, p^b2) is the Schur polynomial of the partition
(b1+b2, b2, 0) evaluated at the triple; global coefficients A(m, n) follow by
multiplicativity across coprime prime powers.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import are_prime, divisors, factorize, mobius, prime_array, spf_sieve
from .csvio import write_csv

PRODUCT_TOL = 1e-12
UNIT_TOL = 1e-12

A_M1 = "A_m1"   # row selector: A(m, 1)
A_MM = "A_mm"   # row selector: A(m, m)
_BLOCK = 1 << 14  # entries per step of CoefficientTable._sieve_row


class MissingPrimeError(KeyError):
    """Local data for a required prime is absent."""


class IndexBoundsError(IndexError):
    """A requested coefficient index lies outside the table bounds."""


class NonTemperedError(ValueError):
    """Input data violates the |lambda| <= 2 temperedness requirement."""


class SatakeTriple:
    """Local parameters (alpha1, alpha2, alpha3) with alpha1*alpha2*alpha3 = 1:
    a slotted record, checked once, never hashed, compared or changed."""

    __slots__ = ("alpha1", "alpha2", "alpha3", "tempered")

    def __init__(self, alpha1: complex, alpha2: complex, alpha3: complex, tempered=True):
        prod = alpha1 * alpha2 * alpha3
        if not abs(prod - 1.0) <= PRODUCT_TOL:
            raise ValueError(f"Satake product {prod} is not 1 within {PRODUCT_TOL}")
        if tempered:
            for a in (alpha1, alpha2, alpha3):
                if not abs(abs(a) - 1.0) <= UNIT_TOL:
                    raise ValueError(f"tempered triple has |{a}| != 1")
        self.alpha1, self.alpha2, self.alpha3, self.tempered = alpha1, alpha2, alpha3, tempered

    @classmethod
    def from_angles(cls, theta1: float, theta2: float) -> "SatakeTriple":
        """Tempered triple (e^{i t1}, e^{i t2}, e^{-i(t1+t2)})."""
        return cls(cmath.exp(1j * theta1), cmath.exp(1j * theta2),
                   cmath.exp(-1j * (theta1 + theta2)))

    @property
    def e1(self) -> complex:
        return self.alpha1 + self.alpha2 + self.alpha3

    @property
    def e2(self) -> complex:
        return self.alpha1 * self.alpha2 + self.alpha1 * self.alpha3 + self.alpha2 * self.alpha3


class PrimeLocalData:
    """A prime and its Satake triple: a slotted record, unchecked until
    `LocalArrays.from_records` reads it, which refuses a composite p."""

    __slots__ = ("p", "satake")

    def __init__(self, p: int, satake: SatakeTriple):
        self.p, self.satake = p, satake


def nontempered_primes(pairs) -> list[int]:
    """Primes of (p, lambda(p)) pairs with |lambda| > 2 + UNIT_TOL, or NaN:
    one test on the array of lambda, written so that NaN fails it."""
    lam = np.fromiter((lam for _, lam in pairs), float, len(pairs))
    return [pairs[i][0] for i in np.flatnonzero(~(np.abs(lam) <= 2.0 + UNIT_TOL)).tolist()]


@dataclass
class GL2FormData:
    """Real Hecke eigenvalues lambda(p) of a degree-two form, per prime."""

    pairs: list[tuple[int, float]]

    @property
    def ramanujan(self) -> bool:
        """Whether every |lambda(p)| <= 2 + UNIT_TOL (`nontempered_primes`)."""
        return not nontempered_primes(self.pairs)


def _complete_homogeneous(e1, e2, n: int) -> list:
    """h_0, ..., h_n from e1, e2 (with e3 = 1) by the recurrence
    h_k = e1 h_{k-1} - e2 h_{k-2} + h_{k-3}, in any ring whose elements
    have +, -, * and ** 0: scalars, numpy arrays or exact polynomials."""
    h = [e1 ** 0]  # the ring's one, in e1's shape
    for k in range(1, n + 1):
        h_k = e1 * h[k - 1]
        if k >= 2:
            h_k = h_k - e2 * h[k - 2]
        if k >= 3:
            h_k = h_k + h[k - 3]
        h.append(h_k)
    return h


class _PyComplex:
    """Complex (re, im) float64 arrays whose +, - and * round as Python's
    complex scalars do (c_prod is ar*br - ai*bi, ar*bi + ai*br, with no fused
    multiply-add, which numpy's complex128 multiply may use); ** 0 is one."""

    def __init__(self, re: np.ndarray, im: np.ndarray):
        self.re, self.im = re, im

    def __add__(self, other):
        return _PyComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return _PyComplex(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return _PyComplex(self.re * other.re - self.im * other.im,
                          self.re * other.im + self.im * other.re)

    def __pow__(self, n: int):  # only ** 0, the ring's one
        one = (np.ones_like(self.re), np.zeros_like(self.im))
        return _PyComplex(*one) if n == 0 else NotImplemented


class LocalArrays:
    """Local data as read-only arrays: the primes, ascending, as int64, and
    the e1, e2 of their Satake triples (e3 = 1) as complex128, checked once:
    every p is prime and given once, and every e1 and e2 is finite."""

    __slots__ = ("primes", "e1", "e2")

    def __init__(self, primes, e1, e2):
        primes = np.asarray(primes, dtype=np.int64)
        order = np.argsort(primes, kind="stable")
        primes, e1, e2 = primes[order], np.asarray(e1, complex)[order], np.asarray(e2, complex)[order]
        composite = primes[~are_prime(primes)]
        if composite.size:
            raise ValueError(f"{composite[0]} is not prime")
        dup = primes[1:][primes[1:] == primes[:-1]]
        if dup.size:
            raise ValueError(f"more than one local data for prime {dup[0]}")
        bad = primes[~(np.isfinite(e1) & np.isfinite(e2))]
        if bad.size:
            raise ValueError(f"local data at prime {bad[0]} is not finite")
        for a in (primes, e1, e2):
            a.flags.writeable = False
        self.primes, self.e1, self.e2 = primes, e1, e2

    @classmethod
    def from_records(cls, records: list[PrimeLocalData]) -> "LocalArrays":
        """The arrays of PrimeLocalData records: each triple's own e1 and e2."""
        count = len(records)
        return cls(np.fromiter((rec.p for rec in records), np.int64, count),
                   np.fromiter((rec.satake.e1 for rec in records), complex, count),
                   np.fromiter((rec.satake.e2 for rec in records), complex, count))


def schur_from_elementary(l1: int, l2: int, e1, e2):
    """Evaluate the (l1, l2) Schur basis element from e1, e2 (with e3 = 1).

    Equals the local coefficient A(p^l1, p^l2) when e1, e2 come from the
    Satake triple at p.  Uses the two-row Jacobi-Trudi determinant
    h_a h_b - h_{a+1} h_{b-1} for the partition (l1+l2, l2, 0), with the
    complete homogeneous polynomials of _complete_homogeneous.  Stable at
    coincident coordinates; works elementwise on numpy arrays and exactly
    on `schuralg.EPoly`.  Negative exponents raise ValueError.
    """
    if l1 < 0 or l2 < 0:
        raise ValueError(f"exponents must be non-negative, got ({l1}, {l2})")
    a, b = l1 + l2, l2
    h = _complete_homogeneous(e1, e2, a + 1)
    first = h[a] * h[b]
    return first - h[a + 1] * h[b - 1] if b else first


class CoefficientTable:
    """Coefficients A(m, n) for 1 <= m <= bound_m, 1 <= n <= bound_n.

    Entries are generated from the local data, a LocalArrays or a list of
    PrimeLocalData (converted once), by multiplicativity: value() one at a
    time into a memo, row() the dense rows A(m, 1) and A(m, m) by one sieve
    each.  The declared bounds are a hard contract and requests
    outside them raise IndexBoundsError.  The table is logically immutable:
    reads only fill the internal memos (atomic dict updates), so concurrent
    readers are safe.
    """

    def __init__(self, locals_: LocalArrays | list[PrimeLocalData], bound_m: int, bound_n: int):
        if bound_m < 1 or bound_n < 1:
            raise ValueError("bounds must be positive")
        self.bound_m, self.bound_n = bound_m, bound_n
        self.local = (locals_ if isinstance(locals_, LocalArrays)
                      else LocalArrays.from_records(locals_))
        need = prime_array(max(bound_m, bound_n))
        if not np.array_equal(self.local.primes[:len(need)], need):
            missing = np.setdiff1d(need, self.local.primes)
            raise MissingPrimeError(f"no local data for prime {missing[0]}")
        self.entries: dict[tuple[int, int], complex] = {(1, 1): 1.0 + 0.0j}
        self._local_powers: dict[tuple[int, int, int], complex] = {}
        self._rows: dict[str, np.ndarray] = {}

    @cached_property
    def _spf(self) -> list[int]:
        """Smallest prime factors for value(), which rows never need."""
        return spf_sieve(max(self.bound_m, self.bound_n))

    @cached_property
    def _elementary(self) -> dict[int, tuple[complex, complex]]:
        """e1 and e2 of each prime as Python complex for value(), which rows
        never need."""
        loc = self.local
        return dict(zip(loc.primes.tolist(), zip(loc.e1.tolist(), loc.e2.tolist())))

    def _local_value(self, p: int, a: int, b: int) -> complex:
        key = (p, a, b)
        val = self._local_powers.get(key)
        if val is None:
            e = self._elementary.get(p)
            if e is None:
                raise MissingPrimeError(f"no local data for prime {p}")
            val = schur_from_elementary(a, b, *e)
            self._local_powers[key] = val
        return val

    def value(self, m: int, n: int) -> complex:
        if not (1 <= m <= self.bound_m and 1 <= n <= self.bound_n):
            raise IndexBoundsError(f"index ({m}, {n}) outside bounds "
                                   f"({self.bound_m}, {self.bound_n})")
        got = self.entries.get((m, n))
        if got is not None:
            return got
        exps: dict[int, list[int]] = {}
        for p, e in factorize(m, self._spf):
            exps[p] = [e, 0]
        for p, e in factorize(n, self._spf):
            exps.setdefault(p, [0, 0])[1] = e
        val = 1.0 + 0.0j
        for p, (a, b) in exps.items():
            val *= self._local_value(p, a, b)
        self.entries[(m, n)] = val
        return val

    def row(self, X: int, which: str = A_M1) -> np.ndarray:
        """A(m, 1) (which = A_M1) or A(m, m) (which = A_MM) for m = 1..X as a
        read-only complex128 array; entry i holds the coefficient at m = i+1.

        The whole row, to bound_m or to min(bound_m, bound_n), is sieved on
        the first request and kept; its entries are bit-identical to value().
        Beside the row's 16 bytes per m the sieve holds 5 per m and one block's
        temporaries: traced peaks 7.2 MiB at 3e5 (row 4.6 MiB), 22.5 at 10^6 (15.3).
        """
        if which == A_M1:
            top = self.bound_m
        elif which == A_MM:
            top = min(self.bound_m, self.bound_n)
        else:
            raise ValueError(f"unknown selector {which!r}")
        if not 0 <= X <= top:
            m = top + 1 if X > top else X
            raise IndexBoundsError(f"index ({m}, {1 if which == A_M1 else m}) outside bounds "
                                   f"({self.bound_m}, {self.bound_n})")
        full = self._rows.get(which)
        if full is None:
            full = self._rows[which] = self._sieve_row(top, which == A_MM)
        return full[1:X + 1]

    def _sieve_row(self, N: int, diagonal: bool) -> np.ndarray:
        """Entries 0..N of a row (entry 0 unused) by A(m) = A(m/q) L(q), q the
        full power of the largest prime of m, in rounds of equal number of
        distinct primes omega(m).  The largest prime goes last, so every product
        is value()'s ascending-prime product, and _PyComplex rounds as it does.
        L(q) is kept only at the prime powers q, in compact arrays; at[m] is
        the int32 index of q(m) there.  The expansion m = k p over the primes
        p > sqrt(N), and each round, run in blocks of _BLOCK entries."""
        primes, e1, e2 = self.local.primes, self.local.e1, self.local.e2
        n_small, n_primes = np.searchsorted(primes, [math.isqrt(N), N], "right").tolist()
        at = np.zeros(N + 1, dtype=np.int32)
        omega = np.zeros(N + 1, dtype=np.int8)
        qs, local = [], []                        # the powers of p <= sqrt(N) and their L
        for p, x1, x2 in zip(primes[:n_small].tolist(), e1[:n_small].tolist(),
                             e2[:n_small].tolist()):  # ascending: at keeps the largest
            omega[p::p] += 1
            q, e = p, 1
            while q <= N:
                at[q::q] = len(qs)
                qs.append(q)
                local.append(schur_from_elementary(e, e if diagonal else 0, x1, x2))
                q, e = q * p, e + 1
        # L(p) at p > sqrt(N) on the arrays, rounded as Python's complex
        big, offset = primes[n_small:n_primes], len(qs)
        val = schur_from_elementary(1, 1 if diagonal else 0, *(
            _PyComplex(x.real, x.imag) for x in (e1[n_small:n_primes], e2[n_small:n_primes])))
        local = np.array(local, dtype=complex)
        re, im = np.concatenate((local.real, val.re)), np.concatenate((local.imag, val.im))
        qs = np.concatenate((np.array(qs, dtype=np.int64), big))
        del val  # before the rounds, which hold the most memory
        # m = k p with p > sqrt(N) has k < p, so p is its largest prime, to the first power
        count = N // big
        first, total = np.cumsum(count) - count, int(count.sum())  # k = 1 of big[b] at first[b]
        for start in range(0, total, _BLOCK):
            i = np.arange(start, min(start + _BLOCK, total))
            b = np.searchsorted(first, i, "right") - 1
            m = big[b] * (i - first[b] + 1)
            at[m] = b + offset
            omega[m] += 1
            del i, b, m  # so the last block's are not held through the rounds
        del count, first
        row = np.zeros(N + 1, dtype=complex)
        row[1] = 1.0
        for k in range(1, int(omega.max(initial=0)) + 1):
            for start in range(0, N + 1, _BLOCK):
                idx = start + np.flatnonzero(omega[start:start + _BLOCK] == k)
                j = at[idx]
                r = idx // qs[j]
                prod = _PyComplex(row.real[r], row.imag[r]) * _PyComplex(re[j], im[j])
                row.real[idx], row.imag[idx] = prod.re, prod.im
        row.flags.writeable = False
        return row

    def export_csv(self, path: str):
        """Write the full rectangle as rows m,n,re,im."""
        cells = ((m, n, self.value(m, n))
                 for m in range(1, self.bound_m + 1) for n in range(1, self.bound_n + 1))
        write_csv(path, ("m", "n", "re", "im"), ((m, n, v.real, v.imag) for m, n, v in cells))


def hecke_residual(table: CoefficientTable, m: int, m1: int, m2: int) -> float:
    """Residual of the Hecke multiplication identity at (m; m1, m2).

    Returns |A(m,1) A(m1,m2) - sum over c1*c2*c3 = m, c1|m1, c2|m2 of
    A(m1*c3/c1, m2*c1/c2)|.  A correctly generated table stays below 1e-8.
    """
    lhs = table.value(m, 1) * table.value(m1, m2)
    acc = 0.0 + 0.0j
    for c1 in divisors(math.gcd(m, m1)):
        rest = m // c1
        for c2 in divisors(math.gcd(rest, m2)):
            c3 = rest // c2
            acc += table.value(m1 * c3 // c1, m2 * c1 // c2)
    return abs(lhs - acc)


def mobius_expand(table: CoefficientTable, m1: int, m2: int) -> complex:
    """Mobius expansion sum_{d | (m1, m2)} mu(d) A(m1/d, 1) A(1, m2/d).

    Must reproduce the table entry A(m1, m2).
    """
    acc = 0.0 + 0.0j
    for d in divisors(math.gcd(m1, m2)):
        mu = mobius(d)
        if mu:
            acc += mu * table.value(m1 // d, 1) * table.value(1, m2 // d)
    return acc


def sym2_lift(g: GL2FormData) -> LocalArrays:
    """Symmetric-square local data: lambda(p) = beta + 1/beta on the unit
    circle lifts to the Satake triple (beta^2, 1, beta^-2), whose e1 and e2
    are both beta^2 + 1 + beta^-2 = lambda^2 - 1, the real A(p, 1).

    lambda within UNIT_TOL of +-2 is taken as +-2, the triple (1, 1, 1) with
    e1 = e2 = 3.
    """
    bad = nontempered_primes(g.pairs)
    if bad:
        raise NonTemperedError(f"|lambda(p)| > 2 at primes {bad}; lift needs tempered input")
    count = len(g.pairs)
    lam = np.clip(np.fromiter((lam for _, lam in g.pairs), float, count), -2.0, 2.0)
    e = (lam * lam - 1.0).astype(complex)
    return LocalArrays(np.fromiter((p for p, _ in g.pairs), np.int64, count), e, e)

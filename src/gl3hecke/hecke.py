"""Exact GL(3) Hecke coefficient calculus built from local Satake data.

Local data at a prime is a triple of complex numbers with product one.  The
coefficient A(p^b1, p^b2) is the Schur polynomial of the partition
(b1+b2, b2, 0) evaluated at the triple; global coefficients A(m, n) follow by
multiplicativity across coprime prime powers.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property

import numpy as np

from .arith import are_prime, divisors, mobius, prime_array

PRODUCT_TOL = 1e-12
UNIT_TOL = 1e-12

A_M1 = "A_m1"   # row selector: A(m, 1)
A_MM = "A_mm"   # row selector: A(m, m)
_CHUNK = 1 << 12  # entries per step of PrimePowerSieve.run


class MissingPrimeError(KeyError):
    """Local data for a required prime is absent."""


class IndexBoundsError(IndexError):
    """A requested coefficient index lies outside the table bounds."""


class NonTemperedError(ValueError):
    """Input data violates the |lambda| <= 2 temperedness requirement."""


class SatakeTriple:
    """Tempered local parameters (alpha1, alpha2, alpha3), each of modulus one,
    with alpha1*alpha2*alpha3 = 1: a slotted record, checked once, never
    hashed, compared or changed.  Non-tempered data are given as LocalArrays."""

    __slots__ = ("alpha1", "alpha2", "alpha3")

    def __init__(self, alpha1: complex, alpha2: complex, alpha3: complex):
        prod = alpha1 * alpha2 * alpha3
        if not abs(prod - 1.0) <= PRODUCT_TOL:
            raise ValueError(f"Satake product {prod} is not 1 within {PRODUCT_TOL}")
        for a in (alpha1, alpha2, alpha3):
            if not abs(abs(a) - 1.0) <= UNIT_TOL:
                raise ValueError(f"tempered triple has |{a}| != 1")
        self.alpha1, self.alpha2, self.alpha3 = alpha1, alpha2, alpha3

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

    def __getitem__(self, key):
        return _PyComplex(self.re[key], self.im[key])

    def __pow__(self, n: int):  # only ** 0, the ring's one
        one = (np.ones_like(self.re), np.zeros_like(self.im))
        return _PyComplex(*one) if n == 0 else NotImplemented


class LocalArrays:
    """Local data as read-only arrays: the primes, ascending, as int64, and
    the e1, e2 of their Satake triples (e3 = 1) as complex128, checked once:
    the primes are integers (TypeError otherwise), every p is prime and
    given once, and every e1 and e2 is finite."""

    __slots__ = ("primes", "e1", "e2")

    def __init__(self, primes, e1, e2):
        if not len(primes) == len(e1) == len(e2):
            raise ValueError(f"{len(primes)} primes, {len(e1)} e1 and {len(e2)} e2")
        primes = np.asarray(primes)
        if primes.size and primes.dtype.kind not in "iu":
            raise TypeError(f"primes must be integers, got dtype {primes.dtype}")
        primes = primes.astype(np.int64, copy=False)
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
        return cls(np.array([rec.p for rec in records]),
                   np.fromiter((rec.satake.e1 for rec in records), complex, count),
                   np.fromiter((rec.satake.e2 for rec in records), complex, count))


class PrimePowerSieve:
    """The prime powers q <= N, built once from N alone: `powers`,
    exponent-major (the primes p <= N ascending, then p^2 <= N, ...), so the
    primes with p^e <= N are a prefix of them, `counts[e - 1]` long; and,
    allocated first (which keeps the peak RSS down), the int32 index `at[m]`
    in `powers` of q(m), the full power of the largest prime of m: 4 bytes per m.
    A negative N raises ValueError; N = 0 and 1 have no prime power."""

    __slots__ = ("powers", "counts", "at")

    def __init__(self, N: int):
        if N < 0:
            raise ValueError(f"prime power sieve needs N >= 0, got N = {N}")
        self.at = np.zeros(N + 1, dtype=np.int32)
        powers = [prime_array(N)]
        while len(q := powers[-1] * powers[0][:len(powers[-1])]) and q[0] <= N:
            powers.append(q[q <= N])
        self.powers, self.counts = np.concatenate(powers), np.array([len(q) for q in powers])
        n_small = len(powers[1]) if len(powers) > 1 else 0  # the p <= sqrt(N)
        starts = np.cumsum(self.counts) - self.counts       # of each exponent in powers
        for i in range(n_small):  # ascending: at keeps the largest prime
            for j in (starts[self.counts > i] + i).tolist():  # p, p^2, ... <= N
                self.at[self.powers[j]::self.powers[j]] = j
        # m = k p, p > sqrt(N), has k < p: p is its largest prime, to the first power
        big, index = powers[0][n_small:], np.arange(n_small, len(powers[0]), dtype=np.int32)
        for k in range(1, N // big[0] + 1 if len(big) else 1):
            n = np.searchsorted(big, N // k, "right")
            self.at[k * big[:n]] = index[:n]

    def run(self, local: list[_PyComplex]) -> np.ndarray:
        """Entries 0..N (entry 0 unused) of the multiplicative f whose values
        at the powers are the parts of local, one after another, by f(m) =
        f(m/q(m)) f(q(m)) over the chunks [s, min(2s, s + _CHUNK)) ascending,
        each reading m/q(m) < s: every f(m) is its prime powers' product from
        1, primes ascending, rounded as Python's complex; the array is read-only."""
        local = _PyComplex(np.concatenate([z.re for z in local]),
                           np.concatenate([z.im for z in local]))
        row = np.zeros(len(self.at), dtype=complex)
        row[1:2] = 1.0  # f(1), the empty product; N = 0 has entry 0 alone
        end = 2
        while end < len(row):
            s, end = end, min(2 * end, end + _CHUNK, len(row))
            j = self.at[s:end]
            r = np.arange(s, end) // self.powers[j]
            prod = _PyComplex(row.real[r], row.imag[r]) * local[j]
            row.real[s:end], row.imag[s:end] = prod.re, prod.im
        row.flags.writeable = False
        return row


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
    return _jacobi_trudi(_complete_homogeneous(e1, e2, l1 + 2 * l2 + 1), l1, l2)


def _jacobi_trudi(h: list, l1: int, l2: int):
    """The (l1, l2) Schur element h_a h_b - h_{a+1} h_{b-1}, a = l1 + l2, b = l2."""
    a, b = l1 + l2, l2
    first = h[a] * h[b]
    return first - h[a + 1] * h[b - 1] if b else first


class CoefficientTable:
    """Coefficients A(m, n) for 1 <= m <= bound_m, 1 <= n <= bound_n.

    Entries are generated from the local data, a LocalArrays or a list of
    PrimeLocalData (converted once), by multiplicativity: value() one at a
    time from memoised local values A(p^a, p^b) (no cell is memoised), row()
    the dense rows A(m, 1) and A(m, m) by one sieve each, kept.  The declared
    bounds are a hard contract and requests outside them raise
    IndexBoundsError.  The table is logically immutable: reads only fill the
    internal memos (atomic dict updates), so concurrent readers are safe.
    """

    # perfbench's memo probe looks each value() cell up here; none is memoised
    entries: frozenset[tuple[int, int]] = frozenset()

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
        self._local_powers: dict[tuple[int, int, int], complex] = {}
        self._rows: dict[str, np.ndarray] = {}

    @cached_property
    def _walk(self) -> tuple[memoryview, list[int], list[int], list[int]]:
        """For value(), which rows never need: the PrimePowerSieve of
        max(bound_m, bound_n) as its index at[m] of q(m), and per prime power
        q the index of its prime in local, its exponent and q, as lists."""
        sieve = PrimePowerSieve(max(self.bound_m, self.bound_n))
        index = np.concatenate([np.arange(c) for c in sieve.counts])
        exponent = np.repeat(np.arange(1, len(sieve.counts) + 1), sieve.counts)
        return sieve.at.data, index.tolist(), exponent.tolist(), sieve.powers.tolist()

    def _local_value(self, i: int, a: int, b: int) -> complex:
        """A(p^a, p^b) at the i-th prime p of local, memoised."""
        key = (i, a, b)
        val = self._local_powers.get(key)
        if val is None:
            e1, e2 = complex(self.local.e1[i]), complex(self.local.e2[i])
            val = self._local_powers[key] = schur_from_elementary(a, b, e1, e2)
        return val

    def _prime_powers(self, k: int) -> list[tuple[int, int]]:
        """(index in local, exponent) of each prime of k, primes descending."""
        at, index, exponent, power = self._walk
        out = []
        while k > 1:
            j = at[k]
            out.append((index[j], exponent[j]))
            k //= power[j]
        return out

    def value(self, m: int, n: int) -> complex:
        """A(m, n): the product from one of the local values A(p^a, p^b) over
        m's primes ascending, then over the other primes of n, ascending."""
        if not (1 <= m <= self.bound_m and 1 <= n <= self.bound_n):
            raise IndexBoundsError(f"index ({m}, {n}) outside bounds "
                                   f"({self.bound_m}, {self.bound_n})")
        of_n = dict(self._prime_powers(n))
        val = 1.0 + 0.0j
        for i, a in reversed(self._prime_powers(m)):
            val *= self._local_value(i, a, of_n.pop(i, 0))
        for i in reversed(of_n):
            val *= self._local_value(i, 0, of_n[i])
        return val

    def row(self, X: int, which: str = A_M1) -> np.ndarray:
        """A(m, 1) (which = A_M1) or A(m, m) (which = A_MM) for m = 1..X as a
        read-only complex128 array; entry i holds the coefficient at m = i+1.

        The whole row, to bound_m or to min(bound_m, bound_n), is sieved on
        the first request and kept; its entries are bit-identical to value().
        Beside the row's 16 bytes per m the sieve holds 4 per m and one chunk's
        temporaries: traced peaks 6.7 MiB at 3e5 (row 4.6 MiB), 21.3 at 10^6 (15.3).
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
        """Entries 0..N of a row (entry 0 unused): the PrimePowerSieve of
        L(p^e) = A(p^e, 1) or A(p^e, p^e), at e = 1 over every p <= N, at e >= 2
        from one _PyComplex h run over the p <= sqrt(N): value()'s bits."""
        sieve, d = PrimePowerSieve(N), int(diagonal)
        e1, e2 = (_PyComplex(x.real, x.imag) for x in (self.local.e1, self.local.e2))
        counts = sieve.counts.tolist() + [0]  # per e; counts[1]: the p <= sqrt(N)
        h = _complete_homogeneous(e1[:counts[1]], e2[:counts[1]], (1 + d) * len(counts))
        return sieve.run([schur_from_elementary(1, d, e1[:counts[0]], e2[:counts[0]])]
                         + [_jacobi_trudi(h, e, d * e)[:n] for e, n in enumerate(counts[1:-1], 2)])


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


def sym2_lift(primes, lam) -> LocalArrays:
    """Symmetric-square local data of lambda(p) = lam[i] at p = primes[i]:
    lambda = beta + 1/beta on the unit circle lifts to the Satake triple
    (beta^2, 1, beta^-2), whose e1 = e2 = lambda^2 - 1, the real A(p, 1).

    lambda within UNIT_TOL of +-2 is taken as +-2, the triple (1, 1, 1) with
    e1 = e2 = 3.  Unequal lengths raise ValueError, and |lambda| > 2 + UNIT_TOL
    or NaN raises NonTemperedError naming the primes.
    """
    if len(primes) != len(lam):
        raise ValueError(f"{len(primes)} primes and {len(lam)} lambda")
    # written so that NaN fails the test
    if bad := np.asarray(primes)[~(np.abs(lam) <= 2.0 + UNIT_TOL)].tolist():
        raise NonTemperedError(f"|lambda(p)| > 2 at primes {bad}; lift needs tempered input")
    lam = np.clip(np.asarray(lam, dtype=float), -2.0, 2.0)
    e = (lam * lam - 1.0).astype(complex)
    return LocalArrays(primes, e, e)

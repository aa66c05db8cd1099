"""Elementary arithmetic helpers: primes, factorization by trial division, Mobius, divisors."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to all twelve bases above (Sorenson and
# Webster, Math. Comp. 2017): below it Miller-Rabin on them is a proof.
_MR_PROOF_BOUND = 318_665_857_834_031_151_167_461
# is_prime looks n <= _SIEVE_CAP up in a sieve.
_SIEVE_CAP = 1 << 20


def _sieve(n: int) -> bytearray:
    """flags[k] == 1 iff k is prime, for 0 <= k <= n, n >= 1 (Eratosthenes)."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    p = 2
    while p * p <= n:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
        p += 1
    return flags


@lru_cache(maxsize=None)
def _small_prime_bits(size: int) -> bytes:
    """Bit k % 8 of byte k // 8 is 1 iff k is prime, for 0 <= k <= size, a
    power of two <= 2^20.  Packed, all 20 sizes take about 2^18 bytes."""
    return np.packbits(np.frombuffer(_sieve(size), dtype=np.uint8), bitorder="little").tobytes()


def is_prime(n: int) -> bool:
    """Deterministic for n < 3.18e23.  Up to 2^20 a lookup in a cached sieve
    up to the next power of two >= n; above it trial division by the primes
    <= 37, then Miller-Rabin with bases (2, 3) below 1,373,653, (2, 3, 5, 7)
    below 3,215,031,751 and the twelve primes <= 37 above.  Larger n raise
    ValueError rather than get a probable answer."""
    if n < 2:
        return False
    if n <= _SIEVE_CAP:
        return _small_prime_bits(1 << (n - 1).bit_length())[n >> 3] >> (n & 7) & 1 == 1
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n >= _MR_PROOF_BOUND:
        raise ValueError(f"is_prime is proven only below {_MR_PROOF_BOUND}, got {n}")
    if n < 1_373_653:
        bases = _SMALL_PRIMES[:2]
    elif n < 3_215_031_751:
        bases = _SMALL_PRIMES[:4]
    else:
        bases = _SMALL_PRIMES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def are_prime(ns: np.ndarray) -> np.ndarray:
    """is_prime of each entry of an int64 array, up to 2^20 by one lookup in
    its cached sieve."""
    small, big = (ns >= 2) & (ns <= _SIEVE_CAP), ns > _SIEVE_CAP
    n = ns[small]
    bits = np.frombuffer(_small_prime_bits(1 << (int(n.max(initial=2)) - 1).bit_length()), np.uint8)
    out = np.zeros(len(ns), dtype=bool)
    out[small] = bits[n >> 3] >> (n & 7) & 1 == 1
    out[big] = [is_prime(k) for k in ns[big].tolist()]
    return out


def prime_array(n: int) -> np.ndarray:
    """All primes <= n by Eratosthenes, as an int64 array."""
    return np.flatnonzero(np.frombuffer(_sieve(max(n, 1)), np.uint8)).astype(np.int64, copy=False)


def primes_upto(n: int) -> list[int]:
    """All primes <= n by Eratosthenes."""
    return prime_array(n).tolist()


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (p, exponent) pairs, ascending p, by trial division."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out: list[tuple[int, int]] = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """Sorted list of positive divisors."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d * d != n:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError(f"mobius undefined for {n}")
    mu = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        mu = -mu
    return mu


def divisor_power_sums_mod(N: int, k: int, m: int) -> np.ndarray:
    """sigma_k(n) mod m for 0 <= n <= N (sigma_k(0) taken as 0), from the
    divisor pairs (a, b), a <= b, ab = n.  Needs m N < 2^63."""
    d = np.arange(N + 1, dtype=np.int64)
    power = np.ones(N + 1, dtype=np.int64)
    for _ in range(k):
        power = power * d % m
    sigma = np.zeros(N + 1, dtype=np.int64)
    for a in range(1, math.isqrt(N) + 1):
        b = np.arange(a, N // a + 1)
        sigma[a * b] += power[a] + power[b]
        sigma[a * a] -= power[a]
    return sigma % m

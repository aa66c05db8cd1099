"""Primality by deterministic Miller-Rabin against trial division."""

import bisect
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl3hecke import arith, hecke, signstats, tau
from gl3hecke.arith import divisor_power_sums_mod, is_prime, prime_array, primes_upto
from oracles import is_prime_trial, primes_by_odd_sieve

# Each is the least strong pseudoprime to the primes up to the named base,
# so each catches a base set cut one prime too short.
STRONG_PSEUDOPRIMES = {
    3: 1_373_653,
    7: 3_215_031_751,
    11: 2_152_302_898_747,
    13: 3_474_749_660_383,
    17: 341_550_071_728_321,
    23: 3_825_123_056_546_413_051,
}


def test_agrees_with_trial_division_below_4e5():
    assert [n for n in range(400_000) if is_prime(n) != is_prime_trial(n)] == []


def test_sieve_agrees_with_trial_division_over_its_range():
    # is_prime answers n <= 2^20 from a cached sieve, Miller-Rabin above it.
    cap = 1 << 20
    assert [n for n in range(-3, cap + 2000) if is_prime(n) != is_prime_trial(n)] == []


@pytest.mark.parametrize("N, k, m", [(1, 11, 691), (2000, 11, 691), (500, 3, 7), (360, 0, 10**6)])
def test_divisor_power_sums_against_divisor_lists(N, k, m):
    expected = [0] + [sum(d**k for d in range(1, n + 1) if n % d == 0) % m for n in range(1, N + 1)]
    assert divisor_power_sums_mod(N, k, m).tolist() == expected


def test_primes_upto_edges():
    assert primes_upto(-1) == primes_upto(1) == []
    assert primes_upto(2) == [2]
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_array_is_an_independent_sieve_at_every_power_of_two():
    ns = [0, 1, 2, 3] + [2 ** k + d for k in range(2, 21) for d in (-1, 0, 1)]
    want = primes_by_odd_sieve(max(ns))
    for n in ns:
        got = prime_array(n)
        assert got.dtype == np.int64
        assert got.tolist() == want[:bisect.bisect_right(want, n)], n


def test_one_eratosthenes_pass_serves_a_table_and_its_statistics(monkeypatch):
    # LocalArrays checks its primes with are_prime, the table and
    # nonvanishing_density list theirs with prime_array: one cached sieve
    passes, sieve = [], arith._sieve
    monkeypatch.setattr(arith, "_sieve", lambda n: passes.append(n) or sieve(n))
    arith._small_prime_bits.cache_clear()
    X = 300_000
    primes = prime_array(X)
    t1, t2 = np.random.default_rng(5).uniform(0.0, 2.0 * math.pi, (2, len(primes)))
    e1 = np.exp(1j * t1) + np.exp(1j * t2) + np.exp(-1j * (t1 + t2))
    table = hecke.CoefficientTable(hecke.LocalArrays(primes, e1, e1.conj()), X, X)
    signstats.sequence_from_table(table, X, hecke.A_MM)
    signstats.nonvanishing_density(table, X, hecke.A_MM)
    assert passes == [2 ** 19]


@settings(max_examples=200, deadline=None)
@given(st.integers(-5, 10**12))
@example(1_373_653)
@example(3_215_031_751)
@example(999_999_999_989)  # the largest prime below 10^12
def test_agrees_with_trial_division_below_1e12(n):
    assert is_prime(n) == is_prime_trial(n)


@pytest.mark.parametrize("base,n", sorted(STRONG_PSEUDOPRIMES.items()))
def test_strong_pseudoprimes_are_composite(base, n):
    assert not is_prime(n)


def test_large_primes():
    assert is_prime(2**61 - 1)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287


def test_numpy_integers_are_integers():
    # numpy integers have no bit_length: is_prime reads n by operator.index
    for n in [*range(-2, 40), 2**20 - 3, 2**20 + 7, 2**31 - 1]:
        for dtype in (np.int32, np.int64):
            assert is_prime(dtype(n)) is is_prime(n)
    assert is_prime(np.uint64(2**61 - 1))
    for n in (5.0, 5.5, np.float64(5.0)):
        with pytest.raises(TypeError):
            is_prime(n)


def test_numpy_integer_sizes_give_the_same_primes_and_rows():
    # prime_array reads its size by operator.index, as is_prime reads n
    local = hecke.sym2_lift(prime_array(60), np.linspace(-1.9, 1.9, 17))
    for n in (0, 1, 2, 10, 50, 1000):
        want = prime_array(n)
        for dtype in (np.int32, np.int64):
            got = prime_array(dtype(n))
            assert got.dtype == want.dtype and np.array_equal(got, want)
            assert primes_upto(dtype(n)) == primes_upto(n)
    row = hecke.CoefficientTable(local, 50, 1).row(50)
    primes, lam = tau.tau_prime_eigenvalues(200)
    for dtype in (np.int32, np.int64):
        got = hecke.CoefficientTable(local, dtype(50), 1).row(50)
        assert got.tobytes() == row.tobytes()
        got = tau.tau_prime_eigenvalues(dtype(200))
        assert got[0].tobytes() == primes.tobytes() and got[1].tobytes() == lam.tobytes()


@pytest.mark.parametrize("n", [7.5, 7.0, np.float64(7.0)])
def test_float_sizes_are_refused(n):
    with pytest.raises(TypeError):
        prime_array(n)
    with pytest.raises(TypeError):
        hecke.CoefficientTable(hecke.LocalArrays([], [], []), n, 1)


def test_refuses_beyond_the_proven_range():
    # the least strong pseudoprime to all twelve prime bases <= 37
    with pytest.raises(ValueError, match="proven only below"):
        is_prime(318_665_857_834_031_151_167_461)

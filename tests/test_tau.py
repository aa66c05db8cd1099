import math
import os
import random
import subprocess
import sys
from pathlib import Path

import _decimal
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl3hecke import tau
from gl3hecke.arith import primes_upto
from oracles import naive_eta_power, square_trunc_kronecker


def test_first_value_is_one():
    assert tau.ramanujan_tau(1) == [1]


def test_small_values_match_naive_eta_product():
    # tau(2) = -24 and tau(3) = 252 via the direct product expansion
    naive = naive_eta_power(20, 24)
    assert naive[1] == -24
    assert naive[2] == 252
    assert tau.ramanujan_tau(20) == naive


def test_prefix_against_naive_oracle():
    n = 150
    assert tau.ramanujan_tau(n) == naive_eta_power(n, 24)


def test_eta_sixth_from_jacobi_pairs():
    for n in (1, 2, 3, 300):
        assert tau.eta_sixth_coeffs(n) == naive_eta_power(n, 6)


def test_square_trunc_matches_schoolbook():
    coeffs = [3, -2, 0, 7, -5, 11]
    n = 11
    expected = [0] * n
    for i, a in enumerate(coeffs):
        for j, b in enumerate(coeffs):
            if i + j < n:
                expected[i + j] += a * b
    assert tau.square_trunc(coeffs, n) == expected


def test_range_guard():
    with pytest.raises(ValueError):
        tau.ramanujan_tau(0)
    with pytest.raises(ValueError):
        tau.ramanujan_tau(10 ** 6 + 1)


def test_normalized_eigenvalues_are_tempered():
    pairs = tau.tau_prime_eigenvalues(2000)
    assert pairs[0][0] == 2
    assert pairs[0][1] == pytest.approx(-24 / 2 ** 5.5)
    assert all(abs(lam) < 2.0 for _, lam in pairs)


def test_repeat_call_is_consistent():
    assert tau.ramanujan_tau(50) == tau.ramanujan_tau(50)


def test_decimal_is_the_c_module():
    assert tau.Decimal is _decimal.Decimal


def test_import_fails_without_c_decimal():
    # With _decimal blocked, `decimal` would fall back to _pydecimal.
    code = ("import sys; sys.modules['_decimal'] = None\n"
            "try:\n    import gl3hecke.tau\nexcept ImportError as exc:\n    print(exc)")
    env = {**os.environ, "PYTHONPATH": str(Path(tau.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert "libmpdec" in proc.stdout


coefficient = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(10**40), 10**40),
    # beyond the 4300-digit limit of int <-> str
    st.integers(10**4400, 10**4401).flatmap(lambda c: st.sampled_from([c, -c])),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficient, max_size=10), st.integers(0, 22))
@example([], 3)
@example([0, 0, 0], 2)
@example([7], 1)
@example([0, 0, -5], 7)
@example([3, -2, 0, 7], 4)
@example([10**4400 + 1, -3, 0, 2], 7)
@example([-(10**4400), 10**4400], 4)
@example([15, -15], 2)  # the top kept slot, -450 + 500, has a leading zero
def test_square_trunc_matches_kronecker(coeffs, N):
    # N runs below, at and above the 2 len - 1 terms of the full square
    assert tau.square_trunc(coeffs, N) == square_trunc_kronecker(coeffs, N)


def _coeffs_of_width(width: int, n: int, rng: random.Random) -> list[int]:
    """n coefficients whose square_trunc slots are `width` digits wide, that
    is 10^(width-1) <= 2 sum c^2 < 10^width."""
    top = math.isqrt(10 ** (width - 1) // n)
    coeffs = [rng.choice((-1, 1)) * rng.randint(top * 3 // 4, top) for _ in range(n)]
    assert len(str(2 * sum(c * c for c in coeffs))) == width
    return coeffs


# 18 and 36 digits fill one and two int64 limbs exactly, 19 and 37 spill one
# digit into the next; at 45 and 55 the coefficients pass int64.
@pytest.mark.parametrize("width", [18, 19, 36, 37, 45, 55])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_square_trunc_at_limb_edges(width, n):
    rng = random.Random(width * 10 + n)
    coeffs = _coeffs_of_width(width, n, rng)
    for N in sorted({0, 1, n - 1, n, 2 * n - 2, 2 * n - 1, 2 * n, 2 * n + 3}):
        assert tau.square_trunc(coeffs, N) == square_trunc_kronecker(coeffs, N)


def test_square_trunc_across_chunks():
    # More slots than one packing chunk, with coefficients past int64 in the
    # last chunk only.
    rng = random.Random(7)
    n = tau._CHUNK + 5
    coeffs = [rng.randrange(-(10**12), 10**12) for _ in range(n)]
    coeffs[-3] = -(10**30) - 7
    for N in (n - 2, 2 * n - 1):
        assert tau.square_trunc(coeffs, N) == square_trunc_kronecker(coeffs, N)


def test_eta24_squarings_match_kronecker():
    n = 20_000
    f = tau.eta_sixth_coeffs(n)
    for _ in range(2):
        g = tau.square_trunc(f, n)
        assert g == square_trunc_kronecker(f, n)
        f = g
    assert f == tau.ramanujan_tau(n)


def _sigma11_mod691(N: int) -> np.ndarray:
    """sigma_11(m) mod 691 for 0 <= m <= N, from the divisor pairs (a, b),
    a <= b, ab = m."""
    d = np.arange(N + 1, dtype=np.int64)
    pow11 = np.ones(N + 1, dtype=np.int64)
    for _ in range(11):
        pow11 = pow11 * d % 691
    sigma = np.zeros(N + 1, dtype=np.int64)
    for a in range(1, math.isqrt(N) + 1):
        b = np.arange(a, N // a + 1)
        sigma[a * b] += pow11[a] + pow11[b]
        sigma[a * a] -= pow11[a]
    return sigma % 691


def test_full_range():
    N = 10**6
    values = tau.ramanujan_tau(N)
    assert values[: 10**5] == tau.ramanujan_tau(10**5)
    # Ramanujan's congruence tau(n) = sigma_11(n) mod 691
    assert [t % 691 for t in values] == _sigma11_mod691(N)[1:].tolist()
    rng = random.Random(691)
    pairs = 0
    while pairs < 2000:
        m = rng.randrange(2, 1001)
        n = rng.randrange(2, N // m + 1)
        if math.gcd(m, n) == 1:
            assert values[m * n - 1] == values[m - 1] * values[n - 1]
            pairs += 1
    for p in primes_upto(1000):
        assert values[p * p - 1] == values[p - 1] ** 2 - p**11

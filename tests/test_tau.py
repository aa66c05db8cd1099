import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl3hecke import tau
from gl3hecke.arith import divisor_power_sums_mod, primes_upto
from oracles import (
    limb_bits_every_k,
    limbs_scatter,
    low_norm_scatter,
    naive_eta_power,
    square_trunc_kronecker,
)

INT64_MIN, INT64_MAX = -(2**63), 2**63 - 1


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
        assert tau.eta_sixth_coeffs(n).tolist() == naive_eta_power(n, 6)


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
    primes, lam = tau.tau_prime_eigenvalues(2000)
    assert primes[0] == 2
    assert lam[0] == pytest.approx(-24 / 2 ** 5.5)
    assert np.all(np.abs(lam) < 2.0)


def test_repeat_call_is_consistent():
    assert tau.ramanujan_tau(50) == tau.ramanujan_tau(50)


coefficient = st.one_of(
    st.just(0),
    st.integers(-9, 9),
    st.integers(-(2**40), 2**40),
    st.integers(INT64_MIN, INT64_MAX),
    st.sampled_from([INT64_MIN, INT64_MAX, INT64_MIN + 1]),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(coefficient, max_size=10), st.integers(0, 22))
@example([], 3)
@example([0, 0, 0], 2)
@example([7], 1)
@example([0, 0, -5], 7)
@example([3, -2, 0, 7], 4)
@example([INT64_MIN, INT64_MAX, 0, 2], 7)
@example([INT64_MIN] * 3, 5)
@example([15, -15], 2)
@example([1, 2, 3], 0)
def test_square_trunc_matches_kronecker(coeffs, N):
    # N runs below, at and above the 2 len - 1 terms of the full square
    assert tau.square_trunc(coeffs, N) == square_trunc_kronecker(coeffs, N)


@pytest.mark.parametrize("N", [-3, -1])
def test_square_trunc_refuses_negative_N(N):
    # -3 once returned [] and -1 raised numpy's error on an empty reduction
    with pytest.raises(ValueError, match=f"^square_trunc needs N >= 0, got N = {N}$"):
        tau.square_trunc([1, 2, 3], N)


@pytest.mark.parametrize("c", [2**63, INT64_MIN - 1, 10**40, -(10**4400)],
                         ids=["2^63", "-2^63-1", "10^40", "-10^4400"])
def test_square_trunc_rejects_beyond_int64(c):
    with pytest.raises(ValueError, match="int64"):
        tau.square_trunc([3, c, -1], 5)


def _edges(kind: str, b: int) -> list[int]:
    """Coefficients on the edges of balanced b-bit limbs: the ends of the
    digit range [-2^(b-1), 2^(b-1)), powers 2^(k b) and 2^(k b) - 1 for the
    lowest two and the top limb, or the int64 extremes."""
    if kind == "half":
        h = 1 << (b - 1)
        return [h, -h, h - 1, -h - 1, 3 * h, -3 * h]
    if kind == "power":
        values = [s * (2**(k * b) - d) for k in {1, 2, 63 // b} for d in (0, 1) for s in (1, -1)]
        return [c for c in values if INT64_MIN <= c <= INT64_MAX]
    return [INT64_MIN, INT64_MAX, INT64_MIN + 1, -(2**62), 2**62]


def _coeffs_of_width(width: int, n: int, rng: random.Random) -> list[int]:
    """n coefficients with 10^(width-1) <= 2 sum c^2 < 10^width."""
    top = math.isqrt(10 ** (width - 1) // n)
    coeffs = [rng.choice((-1, 1)) * rng.randint(top * 3 // 4, top) for _ in range(n)]
    assert len(str(2 * sum(c * c for c in coeffs))) == width
    return coeffs


# Coefficient sizes set by the decimal digits of 2 sum c^2: near 10^9 and
# 10^18, and past int64 at 45 and 55 digits, which square_trunc refuses.
@pytest.mark.parametrize("width", [18, 19, 36, 37, 45, 55])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_square_trunc_at_limb_edges(width, n):
    rng = random.Random(width * 10 + n)
    coeffs = _coeffs_of_width(width, n, rng)
    for N in sorted({0, 1, n - 1, n, 2 * n - 2, 2 * n - 1, 2 * n, 2 * n + 3}):
        if max(map(abs, coeffs)) > INT64_MAX:
            with pytest.raises(ValueError):
                tau.square_trunc(coeffs, N)
        else:
            assert tau.square_trunc(coeffs, N) == square_trunc_kronecker(coeffs, N)


@pytest.mark.parametrize("kind", ["half", "power", "int64"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_square_trunc_at_balanced_limb_edges(n, kind, monkeypatch):
    # Each limb width is forced, with its error bound checked first, so the
    # edges are edges of the limbs that square_trunc actually uses; then the
    # width square_trunc picks for itself.
    real = tau._limb_bits
    for b in (2, 3, 7, 12, 15, 16, 17, 21, None):
        values = _edges(kind, b or 12)
        for start in range(len(values)):
            coeffs = [values[(start + i) % len(values)] for i in range(n)]
            if b is None:
                monkeypatch.setattr(tau, "_limb_bits", real)
            else:
                limbs = tau._limbs(np.array(coeffs, dtype=np.int64), b)
                norms = [math.sqrt(float(np.square(x, dtype=np.float64).sum())) for x in limbs]
                assert tau._error_bound(norms, tau._fft_length(2 * n - 1)) < 0.25
                monkeypatch.setattr(tau, "_limb_bits", lambda c, L: (b, tau._limbs(c, b)))
            for N in sorted({0, 1, n - 1, n, 2 * n - 2, 2 * n - 1, 2 * n, 2 * n + 3}):
                assert tau.square_trunc(coeffs, N) == square_trunc_kronecker(coeffs, N)


def test_square_trunc_across_chunks():
    # More outputs than one rebuild chunk, with int64 extremes in the last
    # chunk only, so chunks differ in how far int64 arithmetic carries them.
    rng = random.Random(7)
    n = tau._CHUNK + 5
    coeffs = [rng.randrange(-(10**12), 10**12) for _ in range(n)]
    coeffs[-3], coeffs[-1] = INT64_MIN, INT64_MAX
    for N in (n - 2, 2 * n - 1):
        assert tau.square_trunc(coeffs, N) == square_trunc_kronecker(coeffs, N)


@pytest.mark.parametrize("N", [10**5, 10**6])
def test_limb_width_bound_at_tau_inputs(N, monkeypatch):
    # The width picked for both squarings of tau(1..N) has a proven bound
    # below 1/4, and every rounding distance seen lies within that bound.
    real, seen = np.fft.irfft, []

    def irfft(spectrum, n):
        x = real(spectrum, n)
        seen.append(float(np.max(np.abs(x - np.rint(x)))))
        return x

    monkeypatch.setattr(np.fft, "irfft", irfft)
    L = tau._fft_length(2 * N - 1)
    f = tau.eta_sixth_coeffs(N)
    for _ in range(2):
        b, limbs = tau._limb_bits(np.array(f, dtype=np.int64), L)
        bound = tau._error_bound([math.sqrt(float(np.square(x, dtype=np.float64).sum()))
                                  for x in limbs], L)
        assert b >= 8 and bound < 0.25
        seen.clear()
        f = tau.square_trunc(f, N)
        assert len(seen) == 2 * len(limbs) - 1 and max(seen) <= bound


@pytest.mark.parametrize("N", [10, 10**3, 10**5])
def test_limb_bits_as_when_every_limb_count_built_its_limbs(N, monkeypatch):
    # eta^6 and eta^12: the same width and limbs, and the limbs of only the
    # limb count picked are built
    eta6 = tau.eta_sixth_coeffs(N)
    eta12, j = tau._fold(*tau._square_words(eta6, N))
    assert j == 0
    real, widths = tau._limbs, []
    monkeypatch.setattr(tau, "_limbs", lambda c, b: widths.append(b) or real(c, b))
    for c in (eta6, eta12):
        L = tau._fft_length(2 * len(c) - 1)
        widths.clear()
        b, limbs = tau._limb_bits(c, L)
        assert widths == [b]
        want_b, want = limb_bits_every_k(c, L)
        assert b == want_b and len(limbs) == len(want)
        assert all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(limbs, want))


@pytest.mark.parametrize("b", range(2, 63))
def test_limbs_are_the_scatter_digits(b):
    # random int64 with the extremes and the edges of the b-bit digit range:
    # the same limbs, dtypes and low-limb norm as the boolean scatter's
    c = np.random.default_rng(b).integers(INT64_MIN, INT64_MAX, 500, np.int64, endpoint=True)
    h = 1 << (b - 1)
    c[:10] = [INT64_MIN, INT64_MAX, INT64_MIN + 1, 0, -1, 1, h, -h, h - 1, -h - 1]
    for x in (c, c[3:4], c[:2], c // (1 << 40)):
        got, want = tau._limbs(x, b), limbs_scatter(x, b)
        assert [(y.dtype, y.tobytes()) for y in got] == [(y.dtype, y.tobytes()) for y in want]
        assert tau._low_norm(x, b) == low_norm_scatter(x, b)


def test_nan_product_is_refused():
    # NaN in the spectrum would pass a test written off > 1/4
    spectrum = np.fft.rfft(np.arange(8.0))
    spectrum[2] = complex(math.nan, 0.0)
    with pytest.raises(ArithmeticError, match="nan from an integer"):
        tau._rounded(spectrum, 8, 8)
    assert tau._rounded(np.fft.rfft(np.arange(8.0)), 8, 8).tolist() == list(range(8))


def test_off_integer_product_is_a_program_fault(monkeypatch, tmp_path):
    # One FFT output moved by 0.3 must raise ArithmeticError, never round
    # silently and never be reported as a configuration error (exit code 2).
    real = np.fft.irfft

    def shifted(spectrum, n):
        x = real(spectrum, n)
        x[len(x) // 3] += 0.3
        return x

    monkeypatch.setattr(np.fft, "irfft", shifted)
    with pytest.raises(ArithmeticError):
        tau.square_trunc(tau.eta_sixth_coeffs(50), 50)
    code = ("import sys, numpy as np\n"
            "real = np.fft.irfft\n"
            "def shifted(spectrum, n):\n"
            "    x = real(spectrum, n)\n"
            "    x[len(x) // 3] += 0.3\n"
            "    return x\n"
            "np.fft.irfft = shifted\n"
            "from gl3hecke.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(tau.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, "gen", "--what", "tau", "--N", "50",
                           "--out", str(tmp_path / "tau.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode not in (0, 2)
    assert "ArithmeticError" in proc.stderr


def test_eta12_past_int64_is_a_program_fault(monkeypatch, tmp_path):
    # eta^12 goes back into int64 between the squarings: eta^6 scaled by
    # 2^40 still fits, its square does not, and that must raise
    # ArithmeticError in both entry points and through the CLI, never wrap
    # around and never be reported as a configuration error (exit code 2).
    real = tau.eta_sixth_coeffs
    monkeypatch.setattr(tau, "eta_sixth_coeffs", lambda N: [c << 40 for c in real(N)])
    for entry in (tau.ramanujan_tau, tau.tau_prime_eigenvalues):
        with pytest.raises(ArithmeticError, match="int64"):
            entry(50)
    code = ("import sys\n"
            "from gl3hecke import tau\n"
            "real = tau.eta_sixth_coeffs\n"
            "tau.eta_sixth_coeffs = lambda N: [c << 40 for c in real(N)]\n"
            "from gl3hecke.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(tau.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code, "gen", "--what", "tau", "--N", "50",
                           "--out", str(tmp_path / "tau.csv")],
                          capture_output=True, text=True, env=env)
    assert proc.returncode not in (0, 2)
    assert "ArithmeticError" in proc.stderr


@pytest.mark.parametrize("N", [1, 2, 1000, 10**5, 10**6])
def test_prime_eigenvalues_from_the_packed_words(N):
    # tau(p) rebuilt at the primes alone, against every tau(n) rebuilt, over
    # the full supported range: the same primes and the same doubles
    (got_primes, got), (want_primes, want) = (tau.tau_prime_eigenvalues(N),
                                              tau.prime_eigenvalues(tau.ramanujan_tau(N)))
    assert got_primes.tolist() == want_primes.tolist() == primes_upto(N)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_eta24_squarings_match_kronecker():
    n = 20_000
    f = tau.eta_sixth_coeffs(n).tolist()
    for _ in range(2):
        g = tau.square_trunc(f, n)
        assert g == square_trunc_kronecker(f, n)
        f = g
    assert f == tau.ramanujan_tau(n)


def test_full_range():
    N = 10**6
    values = tau.ramanujan_tau(N)
    assert values[: 10**5] == tau.ramanujan_tau(10**5)
    # Ramanujan's congruence tau(n) = sigma_11(n) mod 691
    assert [t % 691 for t in values] == divisor_power_sums_mod(N, 11, 691)[1:].tolist()
    # The digest of the same values from the libmpdec Kronecker squarings
    # that this FFT path replaced.
    digest = hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()
    assert digest == "bae012f6396909a9df7fcf2e7bd2c4bf854012f9c8c2efe4790df5716d04e548"
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

"""Small cases, known by hand, for the benchmark's reference computations.
Each check is shown to accept the right value and to reject a wrong one.

    python3 -m pytest -q perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref

TAU_1_10 = [1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920]
COPRIME = [(2, 3), (2, 5)]


def test_tau_checks_accept_known_values():
    assert ref.check_tau(TAU_1_10, COPRIME) == []


@pytest.mark.parametrize("n", range(1, 11))
def test_tau_checks_reject_each_wrong_value(n):
    wrong = list(TAU_1_10)
    wrong[n - 1] += 1
    assert ref.check_tau(wrong, COPRIME)


def test_tau_checks_catch_a_congruent_but_wrong_product():
    wrong = list(TAU_1_10)
    wrong[5] += 691                      # tau(6) still right mod 691
    assert any("tau(6)" in msg for msg in ref.check_tau(wrong, COPRIME))


def test_sigma11_mod691():
    assert ref.sigma11_mod691(6)[1:].tolist() == [
        sum(d ** 11 for d in range(1, n + 1) if n % d == 0) % 691 for n in range(1, 7)]


def test_one_term_second_moment_is_2T_a2_over_n():
    a, n, T = 3.0 - 4.0j, 7, 50.0
    got = ref.second_moments_exact([{n: a}], T)[0]
    want = 2.0 * T * abs(a) ** 2 / n
    assert ref.close(got, want, 1e-12, "one term") == []
    assert ref.close(got * (1 + 1e-6), want, 1e-9, "one term")


def test_two_term_second_moment_cross_term():
    a, b, m, n, T = 1.0, -2.0, 3, 5, 7.0
    x = math.log(m / n)
    want = (2 * T * (a * a / m + b * b / n)
            + 2 * a * b / math.sqrt(m * n) * 2 * math.sin(T * x) / x)
    got = ref.second_moments_exact([{m: a, n: b}], T)[0]
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("theta, a_p1, a_pp", [
    ((0.5 * math.pi, -0.5 * math.pi), 1.0, 0.0),          # (i, -i, 1)
    ((2 * math.pi / 3, 4 * math.pi / 3), 0.0, -1.0),      # cube roots of unity
])
def test_app_is_abs_ap1_squared_minus_one(theta, a_p1, a_pp):
    assert complex(ref.e1_value(*theta)) == pytest.approx(a_p1, abs=1e-15)
    got = complex(ref.alternant_schur(1, 1, *theta))
    assert got == pytest.approx(a_pp, abs=1e-15)
    assert got == pytest.approx(abs(complex(ref.alternant_schur(1, 0, *theta))) ** 2 - 1,
                                abs=1e-15)
    assert ref.close(got.real + 1e-6, a_pp, 1e-9, "A(p,p)")


def test_app_at_random_angles():
    rng = np.random.default_rng(5)
    t1, t2 = rng.uniform(0, 2 * math.pi, (2, 50))
    got = ref.alternant_schur(1, 1, t1, t2).astype(complex)
    np.testing.assert_allclose(got, np.abs(ref.e1_value(t1, t2).astype(complex)) ** 2 - 1,
                               atol=1e-12)


def test_sym2_local_values_and_multiplicativity():
    lam2, lam3 = 0.5, -1.5
    A = ref.sym2_am1({2: lam2, 3: lam3, 5: 0.0, 7: 1.0}, 12)
    assert A[2] == pytest.approx(lam2 ** 2 - 1)
    assert A[4] == pytest.approx(lam2 ** 4 - 3 * lam2 ** 2 + 2)
    assert A[6] == pytest.approx(A[2] * A[3])
    assert A[12] == pytest.approx(A[4] * A[3])


def test_generic_amm_degenerates_to_dimension_at_identity_limit():
    # near the identity A(p^k, p^k) tends to the dimension (k+1)^3
    A = ref.generic_amm(np.array([2]), np.array([1e-3]), np.array([2e-3]), 8)
    assert A[2].real == pytest.approx(8.0, rel=1e-4)
    assert A[4].real == pytest.approx(27.0, rel=1e-4)


def test_sign_counts():
    got = ref.sign_counts(np.array([1.0, -1.0, 0.0, -2.0, 3.0]))
    assert got == {"changes": 2, "positives": 2, "negatives": 2, "zeros": 1}


def test_windows_with_change():
    values = np.array([1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0])
    # X = 2, H = 1, stride 1: windows [2,3], [3,4], [4,5]; only [2,3] changes
    assert ref.windows_with_change(values, 2, 1) == 1


def test_d_unexpanded_with_one_prime():
    a, s = 1.5 + 0.5j, complex(0.75, 2.0)
    u = 2 ** -s
    got, scale = ref.d_unexpanded({2: a}, 1, s)
    assert got == pytest.approx(1 - (a * u - a * u * u + u ** 3) ** 2, abs=1e-15)
    assert scale >= abs(got)


def test_kato_quadrature_anchor_and_mass():
    assert ref.kato_quadrature(1, 1, 2, K=64) == pytest.approx(0.75, abs=1e-12)
    assert ref.kato_quadrature(0, 0, 3, K=64) == pytest.approx(1.0, abs=1e-12)
    assert ref.close(ref.kato_quadrature(1, 1, 2, K=64), 0.75 + 1e-6, 1e-9, "anchor")


def test_plancherel_weight_has_mass_one():
    nodes = 2 * math.pi * np.arange(64) / 64
    t1, t2 = np.meshgrid(nodes, nodes, indexing="ij")
    for p in (None, 2, 7):
        assert ref.plancherel_weight(p, t1, t2).mean() * (2 * math.pi) ** 2 == pytest.approx(1.0)


def test_binomial_error_band():
    assert ref.binomial_ok(0.25, 0.25, 0.0, 10_000, 5.0)
    assert not ref.binomial_ok(0.25 + 0.03, 0.25, 0.0, 10_000, 5.0)
    assert ref.binomial_ok(0.25 + 0.03, 0.25, 0.02, 10_000, 5.0)


def test_multiplicative_fill_counts_divisors():
    X = 60
    local = np.zeros(X + 1)
    for p in ref.primes_upto(X).tolist():
        q, k = p, 1
        while q <= X:
            local[q] = k + 1
            q, k = q * p, k + 1
    d = ref.multiplicative_fill(X, local)
    assert d[1:].tolist() == [sum(1 for e in range(1, n + 1) if n % e == 0)
                              for n in range(1, X + 1)]

import cmath
import math
import random

import numpy as np
import pytest

from conftest import random_tempered_triple
from oracles import (
    d_poly_direct,
    dirichlet_eval_loop,
    second_moment_full_square,
    second_moment_mpmath,
    second_moment_re_im,
    second_moment_simpson,
    window_eval_python,
    window_eval_sieve,
)
from gl3hecke import dirichlet, suites, tau
from gl3hecke.arith import factorize, mobius, primes_upto
from gl3hecke.dirichlet import (
    DirichletPolynomial,
    build_MKD,
    d_estimate_ratio,
    euler_factor_check,
    mvt_ratio_many,
    second_moment_many,
)
from gl3hecke.hecke import (
    CoefficientTable,
    GL2FormData,
    PrimeLocalData,
    PrimePowerSieve,
    SatakeTriple,
    _PyComplex,
    sym2_lift,
)


class TestEvaluation:
    def test_constant_term_only(self):
        poly = DirichletPolynomial({1: 1.0})
        for s in (0.0, 2.0 + 3.0j, -1.5j):
            assert poly.eval(s) == 1.0

    def test_counting_at_zero(self):
        poly = DirichletPolynomial({n: 1.0 for n in range(1, 11)})
        assert poly.eval(0.0) == pytest.approx(10.0)

    def test_matches_direct_summation(self):
        poly = DirichletPolynomial({n: 1.0 / n for n in range(1, 101)})
        direct = sum(1.0 / n ** 2 for n in range(1, 101))
        assert poly.eval(1.0) == pytest.approx(direct, rel=1e-14)

    def test_rejects_bad_frequency(self):
        with pytest.raises(ValueError):
            DirichletPolynomial({0: 1.0})

    # Fixed before measuring: the array sum may differ from the term-by-term
    # loop by rounding, bounded relative to sum |a_n| n^-sigma.
    EVAL_REL = 1e-12

    @pytest.mark.parametrize("which", ["keys_past_2_64", "random_complex", "constant", "empty"])
    def test_matches_loop_oracle(self, which):
        gen = np.random.default_rng(11)
        if which == "keys_past_2_64":
            # p^6 for 1825 < p < 2048 has 66 bits: math.log must read the
            # exact integer, as a float64 or int64 key would round or overflow
            poly = DirichletPolynomial(
                {p ** 6: complex(gen.normal(), gen.normal())
                 for p in primes_upto(2047) if p > 1900}
            )
            assert max(poly.terms).bit_length() == 66
        elif which == "random_complex":
            poly = DirichletPolynomial(
                {n: complex(gen.normal(), gen.normal()) for n in range(1, 3000)}
            )
        elif which == "constant":
            poly = DirichletPolynomial({1: 0.3 - 1.7j})
        else:
            poly = DirichletPolynomial({})
        for s in [complex(sigma, t) for sigma in (0.5, 0.75, 1.0) for t in (0.0, 1.0, 10.0)] + [
            -0.5 + 3.0j, 2.0 - 40.0j
        ]:
            scale = sum(abs(c) * n ** -s.real for n, c in poly.terms.items())
            assert abs(poly.eval(s) - dirichlet_eval_loop(poly, s)) <= self.EVAL_REL * scale
        if which == "empty":
            assert poly.eval(0.5 + 1.0j) == 0.0


def d_table(kind, M):
    """A(p, 1) for p <= 2M: random tempered, random self-dual, or sym^2 tau."""
    primes = primes_upto(2 * M)
    if kind == "tempered":
        locs = suites.random_tempered_locals(primes, random.Random(M))
    elif kind == "selfdual":
        locs = suites.random_selfdual_locals(primes, random.Random(M))
    else:
        locs = tau.sym2_tau_locals(2 * M)
    return CoefficientTable(locs, 2 * M, 1)


def refuse_value(self, m, n):
    raise AssertionError(f"value({m}, {n}) was called")


class TestBuildMKD:
    # Fixed before measuring: both sides round each term, and every term is
    # at most the matching summand of sum_d prod_p (|a_p| p^-sigma + ...)^2.
    DIRECT_REL = 1e-12

    @pytest.mark.parametrize("kind", ["tempered", "selfdual", "sym2_tau"])
    @pytest.mark.parametrize("M", [1, 2, 3, 100, 1000])
    def test_matches_product_as_written(self, kind, M):
        table = d_table(kind, M)
        dpoly = build_MKD(table, 10 * M, M)["D"]
        for sigma in (0.5, 0.75, 1.0):
            for t in (0.0, 1.0, 10.0):
                want, scale = d_poly_direct(table, M, complex(sigma, t))
                assert abs(dpoly.eval(complex(sigma, t)) - want) <= self.DIRECT_REL * scale

    @pytest.mark.parametrize("kind", ["tempered", "selfdual", "sym2_tau"])
    @pytest.mark.parametrize("M", [1, 2, 3, 100, 1000])
    def test_reads_a_p_from_the_row(self, kind, M, monkeypatch):
        # D's A(p, 1) are value()'s bit for bit, but come from the row:
        # build_MKD runs with value() refused
        table = d_table(kind, M)
        want = np.array([table.value(p, 1) for p in primes_upto(2 * M)])
        monkeypatch.setattr(CoefficientTable, "value", refuse_value)
        dpoly = build_MKD(table, 10 * M, M)["D"]
        assert dpoly.a.view(np.int64).tolist() == want.view(np.int64).tolist()

    def test_suite_mvt_reads_no_single_coefficient(self, monkeypatch):
        # every table suite_mvt builds gives its D with value() refused
        monkeypatch.setattr(CoefficientTable, "value", refuse_value)
        assert suites.all_passed(suites.suite_mvt(0))

    def test_at_M_1_is_one_minus_g2(self):
        # squarefree d <= 2 are 1 and 2, so D = 1 - g_2; the degenerate triple
        # has A(2, 1) = 3, so g_2(0) = 1 and g_2(1) = (3/2 - 3/4 + 1/8)^2 = 49/64
        loc = PrimeLocalData(2, SatakeTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j))
        dpoly = build_MKD(CoefficientTable([loc], 2, 1), 10, 1)["D"]
        assert dpoly.eval(0.0 + 0.0j) == 0.0
        assert dpoly.eval(1.0 + 0.0j) == pytest.approx(15.0 / 64.0, rel=1e-15)

    def test_d_estimate_with_frozen_constant(self):
        rng = random.Random(31)
        for M in (100, 1000):
            # D is (1 - L_p^-1)^2 only for self-dual data
            locs = suites.random_selfdual_locals(primes_upto(2 * M), rng)
            table = CoefficientTable(locs, 2 * M, 1)
            dpoly = build_MKD(table, 10 * M, M)["D"]
            for sigma in (0.5, 0.75, 1.0):
                for t in (0.0, 1.0, 10.0):
                    assert d_estimate_ratio(dpoly, M, complex(sigma, t)) <= 4.0


def same_bits(x: complex, y: complex) -> bool:
    return np.complex128(x).tobytes() == np.complex128(y).tobytes()


class TestWindowSieve:
    POINTS = [complex(sigma, t) for sigma in (0.5, 0.75, 1.0, 2.0) for t in (0.0, 1.0, 10.0, -3.3)]

    # M = 3 and 15: 6 is the one d <= 2M with two primes, 30 the one with three
    @pytest.mark.parametrize("kind", ["tempered", "selfdual", "sym2_tau"])
    @pytest.mark.parametrize("M", [1, 2, 3, 15, 100, 1000])
    def test_eval_is_the_python_products_bit_for_bit(self, kind, M):
        dpoly = build_MKD(d_table(kind, M), 10 * M, M)["D"]
        for s in self.POINTS:
            assert same_bits(dpoly.eval(s), window_eval_python(dpoly, s)), s

    @pytest.mark.parametrize("kind", ["tempered", "selfdual", "sym2_tau"])
    @pytest.mark.parametrize("M", [1, 2, 3, 15, 100, 1000])
    def test_eval_matches_the_per_point_sieve(self, kind, M):
        # numpy's complex multiply in the sieve may fuse a multiply and an
        # add, so the sieve is a reference to within rounding, not to its bits
        table = d_table(kind, M)
        dpoly = build_MKD(table, 10 * M, M)["D"]
        for s in self.POINTS:
            _, scale = d_poly_direct(table, M, s)
            diff = abs(dpoly.eval(s) - window_eval_sieve(dpoly, s))
            assert diff <= TestBuildMKD.DIRECT_REL * scale, s

    def test_nan_a_p_reaches_d_as_in_the_sieve(self):
        dpoly = build_MKD(d_table("tempered", 100), 1000, 100)["D"]
        a = dpoly.a.copy()
        a[7] = np.nan
        bad = dirichlet.WindowPolynomial(dpoly.primes, a, dpoly.n)
        for s in self.POINTS:
            got, want = bad.eval(s), window_eval_sieve(bad, s)
            assert cmath.isnan(got)
            assert (math.isnan(got.real), math.isnan(got.imag)) == (
                math.isnan(want.real), math.isnan(want.imag))

    def test_squarefree_d_are_sieved_once(self, monkeypatch):
        dpoly = build_MKD(d_table("selfdual", 100), 1000, 100)["D"]
        sieve = dpoly._sieve
        assert dpoly._sieve is sieve
        # f = 1 at the primes and 0 at their higher powers is the indicator
        # of the squarefree d
        local = np.zeros(len(sieve.powers))
        local[:sieve.counts[0]] = 1.0
        row = sieve.run([_PyComplex(local, np.zeros_like(local))])
        assert (np.flatnonzero(row[1:]) + 1).tolist() == [n for n in range(1, 201) if mobius(n)]
        assert sieve.omega[1:].tolist() == [len(factorize(n)) for n in range(1, 201)]
        # no evaluation builds the sieve again
        def refuse(*args):
            raise AssertionError("the sieve was built again")

        monkeypatch.setattr(PrimePowerSieve, "__init__", refuse)
        for s in self.POINTS:
            dpoly.eval(s)


class TestEulerFactor:
    # e1 = e2 = 3 at p = 2: the degenerate triple (1, 1, 1)
    DEGENERATE = (2, 3.0 + 0.0j, 3.0 + 0.0j)

    def test_degenerate_against_binomial_dimensions(self):
        rec = euler_factor_check(*self.DEGENERATE, 2.0 + 0.0j, J=60)
        direct = sum(
            (j + 1) * (j + 2) / 2.0 * 2.0 ** (-2.0 * j) for j in range(61)
        )
        closed = (1.0 - 2.0 ** -2.0) ** -3.0
        assert rec["series"] == pytest.approx(direct, rel=1e-14)
        assert abs(rec["series"] - closed) <= 1e-10
        assert abs(rec["closed"] - closed) <= 1e-14

    def test_random_self_dual_local(self):
        rng = random.Random(9)
        local = sym2_lift(GL2FormData([(3, rng.uniform(-2, 2))]))
        rec = euler_factor_check(3, local.e1[0], local.e2[0], 1.5 + 0.0j, J=80)
        assert abs(rec["series"] - rec["closed"]) <= 1e-9
        assert rec["ratio_identity_residual"] <= 1e-9

    def test_residuals_on_grid(self, rng):
        local = sym2_lift(GL2FormData([(p, rng.uniform(-2, 2)) for p in (3, 5, 7, 11, 13)]))
        x = random_tempered_triple(rng)
        triples = [*zip(local.primes.tolist(), local.e1.tolist(), local.e2.tolist()),
                   (17, x.e1, x.e2)]
        for triple in triples:
            for sigma in (1.2, 1.5, 2.0):
                for t in (-5.0, 0.0, 3.3):
                    rec = euler_factor_check(*triple, complex(sigma, t), J=90)
                    assert abs(rec["series"] - rec["closed"]) <= 1e-9
                    assert rec["ratio_identity_residual"] <= 1e-9

    @staticmethod
    def closed_with_e2(p, e1, e2, s):
        x = cmath.exp(-s * math.log(p))
        return 1.0 / (1.0 - e1 * x + e2 * x * x - x ** 3)

    def test_closed_form_takes_a_1_p_as_e2_at_large_e1(self):
        # A(1, p) = e2 exactly; the Schur route e1 e1 - (e1 e1 - e2) cancels
        # to -0.25j here, and x = 1e-6 keeps e2 x^2 above the rounding of
        # the cubic and the series finite
        p, e1, e2, s = 10_000, 1e8 + 3j, 0.5 - 0.25j, 1.5 + 0.0j
        rec = euler_factor_check(p, e1, e2, s, J=20)
        assert rec["closed"] == self.closed_with_e2(p, e1, e2, s)

    def test_closed_form_takes_a_1_p_as_e2_on_random_pairs(self):
        rng = random.Random(12)
        for _ in range(200):
            e1, e2 = (complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(2))
            rec = euler_factor_check(2, e1, e2, 2.0 + 0.5j, J=60)
            assert rec["closed"] == self.closed_with_e2(2, e1, e2, 2.0 + 0.5j), (e1, e2)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            euler_factor_check(*self.DEGENERATE, 1.0 + 0.0j)
        with pytest.raises(ValueError):
            euler_factor_check(*self.DEGENERATE, 2.0 + 0.0j, J=10)

    def test_tail_warning_on_short_truncation(self):
        with pytest.warns(RuntimeWarning, match="tail"):
            euler_factor_check(*self.DEGENERATE, 1.1 + 0.0j, J=20)


class TestMeanValue:
    def test_zero_polynomial(self):
        (rec,) = mvt_ratio_many([DirichletPolynomial({})], 64.0)
        assert rec == {"lhs": 0.0, "rhs": 0.0, "ratio": 0.0}

    def test_single_term_exact(self):
        for N, T in ((64, 64.0), (256, 32.0)):
            (rec,) = mvt_ratio_many([DirichletPolynomial({N: 1.0})], T)
            assert rec["lhs"] == pytest.approx(2.0 * T / N, rel=1e-10)
            assert rec["ratio"] == pytest.approx(2.0 * T / (N + T), rel=1e-10)
            assert rec["ratio"] <= 2.0

    def test_random_sign_draws_stay_calibrated(self):
        rng = random.Random(12)
        polys = [
            DirichletPolynomial(
                {n: float(rng.choice((-1.0, 1.0))) for n in range(N, 2 * N + 1)}
            )
            for N in (64, 256)
            for _ in range(3)
        ]
        for rec in mvt_ratio_many(polys, 128.0):
            assert rec["ratio"] <= 8.0

    def test_batch_matches_single(self):
        rng = random.Random(3)
        poly = DirichletPolynomial(
            {n: float(rng.choice((-1.0, 1.0))) for n in range(64, 129)}
        )
        (single,) = second_moment_many([poly], 64.0)
        (rec,) = mvt_ratio_many([poly], 64.0)
        assert rec["lhs"] == pytest.approx(single, rel=1e-14)

    # Fixed before measuring.  The observed gap to the quadrature is about
    # 3e-14 on the sign draws and 2e-11 on the complex coefficients.
    SIMPSON_REL = 1e-9

    @pytest.mark.parametrize("N,T", [(64, 64.0), (256, 256.0), (64, 1024.0)])
    def test_exact_matches_simpson_on_sign_draws(self, N, T):
        rng = random.Random(N + int(T))
        polys = [
            DirichletPolynomial(
                {n: float(rng.choice((-1.0, 1.0))) for n in range(N, 2 * N + 1)}
            )
            for _ in range(3)
        ]
        for got, want in zip(second_moment_many(polys, T), second_moment_simpson(polys, T)):
            assert got == pytest.approx(want, rel=self.SIMPSON_REL)

    def test_exact_matches_simpson_on_complex_coefficients(self):
        gen = np.random.default_rng(7)
        polys = [
            DirichletPolynomial(
                {n: complex(gen.normal(), gen.normal()) for n in range(1, 300)}
            )
            for _ in range(2)
        ]
        for got, want in zip(second_moment_many(polys, 100.0),
                             second_moment_simpson(polys, 100.0)):
            assert got == pytest.approx(want, rel=self.SIMPSON_REL)

    # Fixed before measuring: at most S^2 products of size up to
    # 2T |a_m a_n| (mn)^-1/2 are summed, S <= 129, in another order and with
    # another kernel formula, so the gap stays below S^2 ulp of their sum.
    SQUARE_REL = 1e-11

    @staticmethod
    def block_edge_batch(size):
        # an empty polynomial, complex coefficients on the whole support of
        # `size` frequencies, and signs on its first half
        gen = np.random.default_rng(size)
        lo = 10
        return [
            DirichletPolynomial({}),
            DirichletPolynomial(
                {n: complex(gen.normal(), gen.normal()) for n in range(lo, lo + size)}
            ),
            DirichletPolynomial(
                {n: float(gen.choice((-1.0, 1.0))) for n in range(lo, lo + size // 2)}
            ),
        ]

    @pytest.mark.parametrize("size", [63, 64, 65, 129])
    @pytest.mark.parametrize("T", [64.0, 1024.0])
    def test_triangle_matches_full_square_at_block_edges(self, size, T):
        polys = self.block_edge_batch(size)
        assert len(set().union(*(p.terms for p in polys))) == size
        got = second_moment_many(polys, T)
        want = second_moment_full_square(polys, T)
        assert got[0] == want[0] == 0.0
        for poly, g, w in zip(polys, got, want):
            scale = 2.0 * T * sum(abs(c) / math.sqrt(n) for n, c in poly.terms.items()) ** 2
            assert abs(g - w) <= self.SQUARE_REL * scale

    @pytest.mark.parametrize("size", [63, 64, 65, 129])
    def test_triangle_matches_simpson_at_block_edges(self, size):
        polys = self.block_edge_batch(size)
        got = second_moment_many(polys, 64.0)
        want = second_moment_simpson(polys, 64.0)
        assert got[0] == want[0] == 0.0
        for g, w in zip(got[1:], want[1:]):
            assert g == pytest.approx(w, rel=self.SIMPSON_REL)

    @pytest.mark.parametrize("T", [1.0, 37.0, 512.0])
    def test_two_term_closed_form(self, T):
        # F = 1 + 2^-s: |F(1/2+it)|^2 = 3/2 + sqrt(2) cos(t log 2)
        (got,) = second_moment_many([DirichletPolynomial({1: 1.0, 2: 1.0})], T)
        want = 3.0 * T + 2.0 * math.sqrt(2.0) * math.sin(T * math.log(2.0)) / math.log(2.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_frequencies_with_equal_float_logarithms_rejected(self):
        poly = DirichletPolynomial({2 ** 60: 1.0, 2 ** 60 + 1: 1.0})
        with pytest.raises(ValueError, match="distinct float logarithms"):
            second_moment_many([poly], 64.0)

    def test_empty_batch(self):
        assert second_moment_many([], 64.0) == []

    def test_zero_length_interval(self):
        poly = DirichletPolynomial({n: complex(n, -n) for n in range(1, 200)})
        assert second_moment_many([poly], 0.0) == [0.0]

    def test_batch_mixing_empty_and_nonempty(self):
        poly = DirichletPolynomial({n: (-1.0) ** n for n in range(16, 33)})
        empty, rec = mvt_ratio_many([DirichletPolynomial({}), poly], 64.0)
        assert empty == {"lhs": 0.0, "rhs": 0.0, "ratio": 0.0}
        (alone,) = mvt_ratio_many([poly], 64.0)
        assert rec["lhs"] == pytest.approx(alone["lhs"], rel=1e-14)
        assert rec["rhs"] == alone["rhs"]


def _moment_batches() -> dict:
    rng = random.Random(29)
    gen = np.random.default_rng(29)
    signs = [DirichletPolynomial({n: rng.choice((-1.0, 1.0)) for n in range(N, 2 * N + 1)})
             for N in (64, 64, 100)]
    cplx = DirichletPolynomial({n: complex(gen.normal(), gen.normal()) for n in range(10, 139)})
    return {
        "real": signs,
        "real_with_empty": [DirichletPolynomial({}), *signs],
        "negative_zero_imag": [DirichletPolynomial({n: complex(1.0 / n, -0.0)
                                                    for n in range(3, 70)}), *signs[:1]],
        "complex": [cplx],
        "mixed": [cplx, *signs, DirichletPolynomial({})],
        "nan_imag": [DirichletPolynomial({5: complex(1.0, math.nan), 6: 1.0}), signs[0]],
        "single_term": [DirichletPolynomial({7: -2.0})],
        "empty_poly": [DirichletPolynomial({})],
        "empty_batch": [],
    }


class TestRealBlock:
    """second_moment_many on the real block alone where no coefficient has
    a nonzero imaginary part: every value is the [Re | Im] contraction's
    bit for bit, the sign of a zero and NaN included."""

    BATCHES = _moment_batches()

    @pytest.mark.parametrize("T", [64.0, 1024.0, 0.0, -0.0, -64.0])
    @pytest.mark.parametrize("name", BATCHES)
    def test_is_the_re_im_contraction_bit_for_bit(self, name, T):
        polys = self.BATCHES[name]
        got, want = second_moment_many(polys, T), second_moment_re_im(polys, T)
        assert len(got) == len(want) == len(polys)
        assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()

    @pytest.mark.parametrize("name,width", [("real", 3), ("negative_zero_imag", 2),
                                            ("mixed", 10), ("nan_imag", 4)])
    def test_contracts_the_real_block_only_on_real_data(self, name, width, monkeypatch):
        real, widths = np.einsum, set()

        def einsum(spec, *ops, **kw):
            if spec == "ik,ik->k":
                widths.add(ops[0].shape[1])
            return real(spec, *ops, **kw)

        monkeypatch.setattr(np, "einsum", einsum)
        second_moment_many(self.BATCHES[name], 64.0)
        assert widths == {width}


class TestKernelAgainstMpmath:
    """second_moment_many against the mean-value identity at 40 digits.  Past
    a direct band of columns the kernel is formed by angle addition, which
    loses digits where T x << 1; the band keeps the direct sine there."""

    # Fixed before measuring, as a share of the scale 2T (sum |a_n| n^-1/2)^2:
    # a few ulp of the largest kernel value 2T, summed with random signs
    MPMATH_REL = 1e-15

    @staticmethod
    def batch(case):
        """Complex coefficients and signs on 129 consecutive frequencies from
        10^5 or 10^6 (every pair there has T x < 1 for T <= 3), or complex
        coefficients on 65 or 129 frequencies from 10 (a block edge)."""
        kind, size = case.split("_")
        gen = np.random.default_rng(int(size) + len(kind))
        if kind == "edge":
            return [DirichletPolynomial(
                {n: complex(gen.normal(), gen.normal()) for n in range(10, 10 + int(size))})]
        base = {"1e5": 10 ** 5, "1e6": 10 ** 6}[kind]
        support = range(base, base + int(size))
        return [
            DirichletPolynomial({n: complex(gen.normal(), gen.normal()) for n in support}),
            DirichletPolynomial({n: float(gen.choice((-1.0, 1.0))) for n in support}),
        ]

    @staticmethod
    def worst_error(polys, T):
        got = second_moment_many(polys, T)
        return max(
            abs(g - second_moment_mpmath(poly, T))
            / (2.0 * T * sum(abs(c) / math.sqrt(n) for n, c in poly.terms.items()) ** 2)
            for poly, g in zip(polys, got))

    @pytest.mark.parametrize("case,T", [
        ("1e5_129", 1.0), ("1e5_129", 3.0), ("1e6_129", 1.0), ("1e6_129", 3.0),
        ("edge_65", 1.0), ("edge_65", 64.0), ("edge_129", 3.0), ("edge_129", 1024.0),
    ])
    def test_matches_mpmath(self, case, T):
        assert self.worst_error(self.batch(case), T) <= self.MPMATH_REL

    @pytest.mark.parametrize("case,T", [("1e5_129", 3.0), ("1e6_129", 1.0), ("1e6_129", 3.0)])
    def test_angle_addition_everywhere_fails(self, monkeypatch, case, T):
        # a band of width 0 leaves the direct sine on each block's own columns
        # only: the pairs with T x << 1 across block edges lose digits
        monkeypatch.setattr(dirichlet, "_DIRECT_BAND", 0.0)
        assert self.worst_error(self.batch(case), T) > self.MPMATH_REL

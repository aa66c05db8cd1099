import math
import random

import numpy as np
import pytest

from conftest import random_tempered_triple
from oracles import dirichlet_eval_loop, second_moment_full_square, second_moment_simpson
from gl3hecke import suites
from gl3hecke.arith import primes_upto
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
    SatakeTriple,
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

    @pytest.mark.parametrize("which", ["D_at_M_1000", "random_complex", "constant", "empty"])
    def test_matches_loop_oracle(self, which):
        gen = np.random.default_rng(11)
        if which == "D_at_M_1000":
            poly = build_MKD(tempered_table(2000), 10_000, 1000)["D"]
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


def tempered_table(bound, seed=5):
    rng = random.Random(seed)
    locs = suites.random_tempered_locals(primes_upto(bound), rng)
    return CoefficientTable(locs, bound, 1)


class TestBuildMKD:
    def test_dyadic_convention_at_one(self):
        table = tempered_table(40)
        polys = build_MKD(table, 12, 1)
        assert sorted(polys["M"].terms) == [1, 2]

    def test_k_range_count(self):
        table = tempered_table(400)
        X, M = 100, 5
        polys = build_MKD(table, X, M)
        k_lo, k_hi = math.ceil(X / (3 * M)), (3 * X) // M
        assert len(polys["K"].terms) == sum(
            1 for k in range(k_lo, k_hi + 1) if abs(table.value(k, 1)) > 0
        )

    def test_d_poly_smallest_frequencies(self):
        table = tempered_table(300)
        dpoly = build_MKD(table, 100, 3)["D"]
        # d = 1 contributes the constant term 1; d = 2 starts at 2^2
        assert dpoly.terms[1] == 1.0
        a = table.value(2, 1)
        assert dpoly.terms[4] == pytest.approx(-a * a)

    def test_product_matches_triple_sum_oracle(self):
        for seed in (1, 2, 3):
            table = tempered_table(128, seed=seed)
            X, M = 40, 4
            polys = build_MKD(table, X, M)
            product = polys["M"] * polys["K"] * polys["D"]
            direct = {}
            k_lo, k_hi = math.ceil(X / (3 * M)), (3 * X) // M
            for m in range(M, 2 * M + 1):
                for k in range(k_lo, k_hi + 1):
                    for n_d, c_d in polys["D"].terms.items():
                        key = m * k * n_d
                        direct[key] = (
                            direct.get(key, 0j)
                            + table.value(m, 1) * table.value(k, 1) * c_d
                        )
            oracle = DirichletPolynomial(direct)
            s = 1.5 + 0.7j
            assert abs(product.eval(s) - oracle.eval(s)) <= 1e-9

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


class TestEulerFactor:
    def test_degenerate_against_binomial_dimensions(self):
        loc = PrimeLocalData(2, SatakeTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j))
        rec = euler_factor_check(loc, 2.0 + 0.0j, J=60)
        direct = sum(
            (j + 1) * (j + 2) / 2.0 * 2.0 ** (-2.0 * j) for j in range(61)
        )
        closed = (1.0 - 2.0 ** -2.0) ** -3.0
        assert rec["series"] == pytest.approx(direct, rel=1e-14)
        assert abs(rec["series"] - closed) <= 1e-10
        assert abs(rec["closed"] - closed) <= 1e-14

    def test_random_self_dual_local(self):
        rng = random.Random(9)
        (loc,) = sym2_lift(GL2FormData([(3, rng.uniform(-2, 2))]))
        rec = euler_factor_check(loc, 1.5 + 0.0j, J=80)
        assert abs(rec["series"] - rec["closed"]) <= 1e-9
        assert rec["ratio_identity_residual"] <= 1e-9

    def test_residuals_on_grid(self, rng):
        locs = sym2_lift(
            GL2FormData([(p, rng.uniform(-2, 2)) for p in (3, 5, 7, 11, 13)])
        ) + [PrimeLocalData(17, random_tempered_triple(rng))]
        for loc in locs:
            for sigma in (1.2, 1.5, 2.0):
                for t in (-5.0, 0.0, 3.3):
                    rec = euler_factor_check(loc, complex(sigma, t), J=90)
                    assert abs(rec["series"] - rec["closed"]) <= 1e-9
                    assert rec["ratio_identity_residual"] <= 1e-9

    def test_preconditions(self):
        loc = PrimeLocalData(2, SatakeTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j))
        with pytest.raises(ValueError):
            euler_factor_check(loc, 1.0 + 0.0j)
        with pytest.raises(ValueError):
            euler_factor_check(loc, 2.0 + 0.0j, J=10)

    def test_tail_warning_on_short_truncation(self):
        loc = PrimeLocalData(2, SatakeTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j))
        with pytest.warns(RuntimeWarning, match="tail"):
            euler_factor_check(loc, 1.1 + 0.0j, J=20)


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

    def test_batch_mixing_empty_and_nonempty(self):
        poly = DirichletPolynomial({n: (-1.0) ** n for n in range(16, 33)})
        empty, rec = mvt_ratio_many([DirichletPolynomial({}), poly], 64.0)
        assert empty == {"lhs": 0.0, "rhs": 0.0, "ratio": 0.0}
        (alone,) = mvt_ratio_many([poly], 64.0)
        assert rec["lhs"] == pytest.approx(alone["lhs"], rel=1e-14)
        assert rec["rhs"] == alone["rhs"]


class TestCsvRoundTrip:
    def test_polynomial_survives_round_trip(self, tmp_path):
        from gl3hecke.dirichlet import poly_from_csv, poly_to_csv

        poly = DirichletPolynomial({3: 1.5 - 0.25j, 10: -2.0, 7: 0.125j})
        path = tmp_path / "poly.csv"
        poly_to_csv(poly, str(path))
        back = poly_from_csv(str(path))
        assert back.terms == poly.terms

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("freq,re,im\n2,1.0,0.0\n")
        from gl3hecke.dirichlet import poly_from_csv

        with pytest.raises(ValueError, match="header"):
            poly_from_csv(str(path))

    def test_duplicate_frequency_rejected_with_line(self, tmp_path):
        from gl3hecke.dirichlet import poly_from_csv

        path = tmp_path / "poly.csv"
        path.write_text("n,re,im\n2,1.0,0.0\n2,0.5,0.0\n")
        with pytest.raises(ValueError, match=f"{path}:3: duplicate frequency 2"):
            poly_from_csv(str(path))

    def test_zero_frequency_rejected_with_line(self, tmp_path):
        from gl3hecke.dirichlet import poly_from_csv

        path = tmp_path / "poly.csv"
        path.write_text("n,re,im\n1,1.0,0.0\n\n0,0.5,0.0\n")
        with pytest.raises(ValueError, match=f"{path}:4: frequency n = 0 < 1"):
            poly_from_csv(str(path))

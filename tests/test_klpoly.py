from fractions import Fraction

import pytest

from gl3hecke import measures

from gl3hecke.klpoly import (
    ALPHA1,
    ALPHA2,
    RHO,
    WEYL,
    ZERO,
    QPolynomial,
    Weight,
    hw_weight,
    kato_check,
    kato_moment,
    kostant_partition,
    lusztig_q_analog,
)
from oracles import brute_kostant_counts, freudenthal_multiplicities


class TestQPolynomial:
    def test_trims_trailing_zeros(self):
        assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)

    def test_arithmetic(self):
        p = QPolynomial([1, 1])
        assert (p * p).coeffs == (1, 2, 1)
        assert (p - p).is_zero()
        assert (p + QPolynomial([0, 0, 3])).coeffs == (1, 1, 3)

    def test_exact_fraction_evaluation(self):
        p = QPolynomial([0, 1, 1])  # q + q^2
        assert p(Fraction(1, 2)) == Fraction(3, 4)


class TestWeight:
    def test_canonicalization(self):
        assert Weight((3, -1, 0)).coords == (4, 0, 1)
        assert Weight((5, 5, 5)) == ZERO

    def test_rho_and_fundamental_weights(self):
        assert RHO.coords == (2, 1, 0)
        assert hw_weight(1, 0).coords == (1, 0, 0)
        assert hw_weight(0, 1).coords == (1, 1, 0)
        assert hw_weight(1, 1).coords == (2, 1, 0)


class TestKostantPartition:
    def test_zero_weight_has_empty_decomposition(self):
        assert kostant_partition(ZERO).coeffs == (1,)

    def test_simple_root(self):
        assert kostant_partition(ALPHA1).coeffs == (0, 1)

    def test_long_root_two_decompositions(self):
        assert kostant_partition(ALPHA1 + ALPHA2).coeffs == (0, 1, 1)

    def test_exhaustive_against_brute_force(self):
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    beta = Weight((a, b, c))
                    counts = {
                        k: v for k, v in enumerate(kostant_partition(beta).coeffs) if v
                    }
                    assert counts == brute_kostant_counts(beta), beta

    def test_inexpressible_weights_give_zero(self):
        assert kostant_partition(Weight((1, 0, 0))).is_zero()
        assert kostant_partition(Weight((0, 2, 1))).is_zero()


class TestLusztigQAnalog:
    def test_adjoint_zero_weight(self):
        assert lusztig_q_analog(hw_weight(1, 1), ZERO).coeffs == (0, 1, 1)

    def test_standard_rep_has_no_zero_weight(self):
        assert lusztig_q_analog(hw_weight(1, 0), ZERO).is_zero()

    def test_highest_weight_itself(self):
        for l1, l2 in ((0, 0), (1, 0), (2, 1), (3, 3)):
            lam = hw_weight(l1, l2)
            assert lusztig_q_analog(lam, lam).coeffs == (1,)

    def test_value_at_one_is_weight_multiplicity(self):
        for l1 in range(4):
            for l2 in range(4):
                lam = hw_weight(l1, l2)
                mult = freudenthal_multiplicities(lam)
                for beta, m in mult.items():
                    a, b, c = beta.coords
                    if a >= b >= c:
                        assert lusztig_q_analog(lam, beta)(1) == m

    def test_antisymmetry_under_shifted_weyl_action(self):
        # replacing lam+rho by w(lam+rho) and multiplying by (-1)^len(w)
        # leaves the alternating sum unchanged
        lam = hw_weight(2, 1)
        beta = hw_weight(1, 0)
        base = lusztig_q_analog(lam, beta)
        shifted = lam + RHO
        target = beta + RHO
        for sigma0, sign0 in WEYL:
            acc = QPolynomial.zero()
            start = shifted.permuted(sigma0)
            for sigma, sign in WEYL:
                term = kostant_partition(start.permuted(sigma) - target)
                total_sign = sign0 * sign
                acc = acc + term if total_sign > 0 else acc - term
            assert acc.coeffs == base.coeffs


class TestKatoCheck:
    def test_anchor_value(self):
        rec = kato_check(1, 1, 2)
        assert rec["lhs"] == pytest.approx(0.75, abs=1e-12)
        assert rec["diff"] <= 1e-6

    def test_standard_rep_moment_vanishes(self):
        for p in (2, 7):
            rec = kato_check(1, 0, p)
            assert rec["lhs"] == 0.0
            assert rec["diff"] <= 1e-6

    def test_constant_function(self):
        rec = kato_check(0, 0, 3)
        assert rec["lhs"] == 1.0
        assert rec["diff"] <= 1e-8

    def test_exact_moment_is_rational(self):
        assert kato_moment(1, 1, 2) == Fraction(3, 4)
        assert kato_moment(1, 1, 5) == Fraction(6, 25)

    def test_full_grid_small_degrees(self):
        for p in (2, 3, 5, 7):
            for l1 in range(6):
                for l2 in range(6 - l1):
                    assert kato_check(l1, l2, p)["diff"] <= 1e-6

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            kato_check(7, 0, 2)

    def test_one_grid_per_check(self, monkeypatch):
        grids = []
        real = measures.integrate

        def counting(spec, f, grid):
            grids.append(grid.resolution)
            return real(spec, f, grid)

        monkeypatch.setattr(measures, "integrate", counting)
        for l1, l2, p in [(0, 0, 3), (1, 1, 2), (5, 0, 7), (6, 6, 1009)]:
            grids.clear()
            kato_check(l1, l2, p, tol=1e-7)
            assert len(grids) == 1
            assert grids[0] == measures.trapezoid_resolution(
                measures.MeasureSpec.plancherel(p), l1, l2, 1e-7)

    def test_matches_the_fine_grid_over_full_range(self):
        # the replaced path stopped at K = 128; the one a-priori grid agrees
        # with it within tol, and with the exact moment within tol
        tol = 1e-7
        grid = measures.QuadratureGrid(128)
        pt = measures.TorusPoint(*grid.mesh())
        for l1 in range(7):
            for l2 in range(7):
                vals = measures.schur_on_torus(l1, l2, pt.theta1, pt.theta2).real
                for p in (2, 3, 5, 7, 11, 101, 1009):
                    rec = kato_check(l1, l2, p, tol=tol)
                    fine = measures.integrate(measures.MeasureSpec.plancherel(p), lambda _: vals, grid)
                    assert abs(rec["rhs"] - fine.real) <= tol, (l1, l2, p)
                    assert rec["diff"] <= tol, (l1, l2, p)

    def test_uncertifiable_tol_raises_without_a_grid(self, monkeypatch):
        def no_grid(*args):
            raise AssertionError("a grid was built")

        monkeypatch.setattr(measures, "integrate", no_grid)
        for tol in (1e-17, 0.0):
            with pytest.raises(ValueError, match="certifies"):
                kato_check(1, 1, 2, tol=tol)

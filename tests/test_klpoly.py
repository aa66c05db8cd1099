from fractions import Fraction

import pytest

from gl3hecke import measures

from gl3hecke.klpoly import kato_check, kato_moment, kostant_partition, lusztig_q_analog
from oracles import brute_kostant_counts, freudenthal_multiplicities

# exact evaluation points: q = 1 counts, the others weigh by root count
QS = (1, Fraction(1, 2), Fraction(1, 3), Fraction(1, 7))
ALPHA1, ALPHA2, LONG = (1, -1, 0), (0, 1, -1), (1, 0, -1)


class TestKostantPartition:
    def test_zero_weight_has_empty_decomposition(self):
        for q in QS:
            assert kostant_partition((0, 0, 0), q) == 1
            assert kostant_partition((4, 4, 4), q) == 1

    def test_simple_root(self):
        for q in QS:
            assert kostant_partition(ALPHA1, q) == q
            assert kostant_partition(ALPHA2, q) == q

    def test_long_root_two_decompositions(self):
        for q in QS:
            assert kostant_partition(LONG, q) == q + q ** 2

    def test_exhaustive_against_brute_force(self):
        for a in range(7):
            for b in range(7):
                for c in range(7):
                    counts = brute_kostant_counts((a, b, c))
                    for q in QS:
                        want = sum(n * q ** k for k, n in counts.items())
                        assert kostant_partition((a, b, c), q) == want, ((a, b, c), q)

    def test_inexpressible_weights_give_zero(self):
        # (1, 0, 0) lies outside the root lattice; (0, 2, 1) = -ALPHA1
        for beta in ((1, 0, 0), (0, 2, 1), (0, 0, 1)):
            assert brute_kostant_counts(beta) == {}
            for q in QS:
                assert kostant_partition(beta, q) == 0

    def test_exact_in_the_type_of_q(self):
        assert isinstance(kostant_partition(LONG, Fraction(1, 5)), Fraction)
        assert isinstance(kostant_partition((1, 0, 0), Fraction(1, 5)), Fraction)
        assert kostant_partition(LONG, 0.5) == 0.75


class TestLusztigQAnalog:
    def test_adjoint_zero_weight(self):
        for q in QS:
            assert lusztig_q_analog(1, 1, (0, 0, 0), q) == q + q ** 2

    def test_standard_rep_has_no_zero_weight(self):
        for q in QS:
            assert lusztig_q_analog(1, 0, (0, 0, 0), q) == 0

    def test_highest_weight_itself(self):
        for l1, l2 in ((0, 0), (1, 0), (2, 1), (3, 3)):
            for q in QS:
                assert lusztig_q_analog(l1, l2, (l1 + l2, l2, 0), q) == 1

    def test_value_at_one_is_weight_multiplicity(self):
        # every dominant beta = (a, b, 0), a >= b, in a box past the
        # weights of lam, including those of multiplicity zero
        for l1 in range(4):
            for l2 in range(4):
                mult = freudenthal_multiplicities((l1 + l2, l2, 0))
                for a in range(2 * (l1 + l2) + 3):
                    for b in range(a + 1):
                        got = lusztig_q_analog(l1, l2, (a, b, 0), 1)
                        assert got == mult.get((a, b, 0), 0), (l1, l2, a, b)

    def test_antisymmetry_under_shifted_weyl_action(self):
        # replacing lam+rho by w(lam+rho) and multiplying by (-1)^len(w)
        # leaves the alternating sum unchanged
        shifted = (3 + 2, 1 + 1, 0)  # lam + rho for lam = (3, 1, 0), the (2, 1) element
        target = (1 + 2, 0 + 1, 0)   # beta + rho for beta = (1, 0, 0)
        for q in QS:
            base = lusztig_q_analog(2, 1, (1, 0, 0), q)
            for sigma0, sign0 in measures.WEYL:
                start = tuple(shifted[i] for i in sigma0)
                acc = sum(sign0 * sign * kostant_partition(
                    tuple(start[i] - t for i, t in zip(sigma, target)), q)
                    for sigma, sign in measures.WEYL)
                assert acc == base

    def test_negative_indices_raise(self):
        for l1, l2 in ((-1, 0), (0, -1)):
            with pytest.raises(ValueError, match="non-negative"):
                lusztig_q_analog(l1, l2, (0, 0, 0), 1)
            with pytest.raises(ValueError, match="non-negative"):
                kato_moment(l1, l2, 2)


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
        assert isinstance(kato_moment(1, 0, 3), Fraction)

    def test_moment_against_brute_force(self):
        # the alternating sum over the Weyl group of brute-force partition
        # counts, at q = 1/p
        shifted = lambda l1, l2: (l1 + l2 + 2, l2 + 1, 0)
        for l1 in range(4):
            for l2 in range(4 - l1):
                counts = [(sign, brute_kostant_counts(
                    tuple(shifted(l1, l2)[i] - r for i, r in zip(sigma, (2, 1, 0)))))
                    for sigma, sign in measures.WEYL]
                for p in (2, 3, 7):
                    want = sum(sign * n * Fraction(1, p) ** k
                               for sign, c in counts for k, n in c.items())
                    assert kato_moment(l1, l2, p) == want, (l1, l2, p)

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

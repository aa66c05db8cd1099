import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_tempered_triple
from oracles import (
    epoly_eval,
    indicator_mass_straddle,
    laurent_eval_elementary,
    laurent_to_epoly,
    radius_cdf_mpmath,
)
from gl3hecke import measures, schuralg
from gl3hecke.klpoly import ZERO, hw_weight, kato_moment, lusztig_q_analog
from gl3hecke.schuralg import (
    E1,
    E2,
    E_ONE,
    EmpiricalDistribution,
    WInvariantLaurent,
    bernstein_coeffs,
    effective_st_compare,
    expand_in_schur,
    indicator_mass,
    sample_app,
    schur_to_epoly,
)


class TestSchurToEPoly:
    def test_standard_and_dual(self):
        assert schur_to_epoly(1, 0).as_dict() == {(1, 0): Fraction(1)}
        assert schur_to_epoly(0, 1).as_dict() == {(0, 1): Fraction(1)}

    def test_adjoint(self):
        assert schur_to_epoly(1, 1).as_dict() == {
            (1, 1): Fraction(1),
            (0, 0): Fraction(-1),
        }

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            schur_to_epoly(20, 5)


class TestExpandInSchur:
    def test_e1_is_standard(self):
        assert expand_in_schur(E1).as_dict() == {(1, 0): Fraction(1)}

    def test_pieri_square(self):
        got = expand_in_schur(E1 * E1).as_dict()
        assert got == {(2, 0): Fraction(1), (0, 1): Fraction(1)}

    def test_adjoint_square(self):
        got = expand_in_schur((E1 * E2 - E_ONE).pow(2)).as_dict()
        assert got == {
            (0, 0): Fraction(1),
            (1, 1): Fraction(2),
            (2, 2): Fraction(1),
            (3, 0): Fraction(1),
            (0, 3): Fraction(1),
        }

    def test_round_trip_up_to_degree_eight(self):
        for l1 in range(9):
            for l2 in range(9 - l1):
                back = expand_in_schur(schur_to_epoly(l1, l2)).as_dict()
                assert back == {(l1, l2): Fraction(1)}

    def test_evaluation_consistency(self, rng):
        laurents = []
        for _ in range(10):
            support = {
                (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(5)
            }
            laurents.append(WInvariantLaurent(support))
        epolys = [laurent_to_epoly(lau) for lau in laurents]
        for _ in range(50):
            x = random_tempered_triple(rng)
            for laurent, epoly in zip(laurents, epolys):
                via_schur = complex(laurent_eval_elementary(laurent, x.e1, x.e2))
                via_epoly = epoly_eval(epoly, x.e1, x.e2)
                assert abs(via_schur - via_epoly) <= 1e-9 * (1.0 + abs(via_epoly))


class TestBernsteinCoeffs:
    def test_power_zero(self):
        assert bernstein_coeffs(0).as_dict() == {(0, 0): Fraction(1)}

    def test_power_one(self):
        got = bernstein_coeffs(1)
        assert got.as_dict() == {(0, 0): Fraction(1, 9), (1, 1): Fraction(1, 9)}
        assert got.coefficient_l1_norm() == Fraction(2, 9)

    def test_l1_bound_exact_up_to_ten(self):
        for l in range(11):
            assert bernstein_coeffs(l).coefficient_l1_norm() <= 1

    def test_range_guard(self):
        with pytest.raises(ValueError):
            bernstein_coeffs(13)

    def test_moment_chain_matches_quadrature(self):
        # sum of coefficients times exact combinatorial moments equals the
        # quadrature integral of ((S_11 + 1)/9)^l
        grid = measures.QuadratureGrid(64)
        for p in (2, 5):
            spec = measures.MeasureSpec.plancherel(p)
            for l in range(6):
                coeffs = bernstein_coeffs(l).as_dict()
                lhs = float(
                    sum(c * kato_moment(l1, l2, p) for (l1, l2), c in coeffs.items())
                )
                f = lambda pt: (
                    (measures.schur_on_torus(1, 1, pt.theta1, pt.theta2).real + 1.0)
                    / 9.0
                ) ** l
                rhs = measures.integrate(spec, f, grid).real
                assert abs(lhs - rhs) <= 1e-6


class TestEffectiveSTCompare:
    def test_full_interval_is_certain(self):
        rec, = effective_st_compare(2, 1000, [(-1.0, 8.0)], seed=4)
        assert rec["empirical"] == 1.0
        assert rec["mass"] == pytest.approx(1.0, abs=1e-6)
        assert rec["diff"] <= 1e-6

    def test_additivity_of_masses(self):
        m1, u1 = indicator_mass(2, (-1.0, 0.0))
        m2, u2 = indicator_mass(2, (0.0, 8.0))
        assert abs(m1 + m2 - 1.0) <= u1 + u2 + 1e-6

    def test_monte_carlo_vs_quadrature(self):
        rec, = effective_st_compare(5, 100_000, [(0.0, 8.0)], seed=77)
        assert rec["diff"] <= 0.01

    def test_sample_range_invariant(self):
        emp = sample_app(7, 20_000, seed=3)
        assert emp.samples.min() >= -1.0 - 1e-10
        assert emp.samples.max() <= 8.0 + 1e-10

    def test_empirical_distribution_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([9.0]))

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            effective_st_compare(5, 10, [(0.0, 1.0)], seed=0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            indicator_mass(5, (-2.0, 0.0))


class TestTemperedRange:
    def test_s11_lies_in_minus_one_eight(self, rng):
        for _ in range(200):
            x = random_tempered_triple(rng)
            val = (abs(x.e1) ** 2 - 1.0)
            assert -1.0 - 1e-10 <= val <= 8.0 + 1e-10


ST = measures.MeasureSpec.sato_tate()
CELLS = [(c - 1.0, float(c)) for c in range(9)]
CELL_MEASURES = [ST] + [measures.MeasureSpec.plancherel(p) for p in (2, 5, 1009)]


class TestPushforwardMasses:
    @pytest.mark.parametrize("spec", CELL_MEASURES, ids=["st", "p2", "p5", "p1009"])
    def test_nine_cells_sum_to_one(self, spec):
        cells = [indicator_mass(spec, cell) for cell in CELLS]
        total = sum(m for m, _ in cells)
        assert abs(total - 1.0) <= 1e-12
        assert abs(total - 1.0) <= sum(e for _, e in cells)
        for _, err in cells:
            assert 0.0 < err <= 1e-10

    @pytest.mark.parametrize("spec", CELL_MEASURES, ids=["st", "p2", "p5", "p1009"])
    def test_inside_straddle_grid_bracket(self, spec):
        # the grid counts only cells it decided, so its mass is low and its
        # uncertainty covers the rest
        for cell in CELLS:
            mass, _ = indicator_mass(spec, cell)
            old, old_unc = indicator_mass_straddle(spec, cell)
            assert old - 1e-12 <= mass <= old + old_unc

    @pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
    def test_pushforward_reproduces_exact_moments(self, p):
        # E[S_11] and E[S_11^2], with S_11^2 expanded in the Schur basis and
        # each element's moment taken from the Lusztig q-analog at q = 1/p
        # (q = 0 for Sato-Tate)
        if p is None:
            spec = ST
            moment = lambda l1, l2: lusztig_q_analog(hw_weight(l1, l2), ZERO)(Fraction(0))
        else:
            spec = measures.MeasureSpec.plancherel(p)
            moment = lambda l1, l2: kato_moment(l1, l2, p)
        square = expand_in_schur((E1 * E2 - E_ONE).pow(2)).as_dict()
        want_2 = float(sum(c * moment(l1, l2) for (l1, l2), c in square.items()))
        r, w = schuralg._pushforward_rule(spec, 3.0, schuralg._ORDERS[-1])
        assert abs(np.sum(w) - 1.0) <= 1e-12
        assert abs(np.sum(w * (r * r - 1.0)) - float(moment(1, 1))) <= 1e-12
        assert abs(np.sum(w * (r * r - 1.0) ** 2) - want_2) <= 1e-12

    def test_macdonald_p_matches_torus_density(self):
        rng = np.random.default_rng(5)
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi, (2, 500))
        z = (np.exp(1j * t1), np.exp(1j * t2), np.exp(-1j * (t1 + t2)))
        e1 = z[0] + z[1] + z[2]
        pt = measures.TorusPoint(t1, t2)
        for p in (2, 3, 5, 7, 1009):
            q = 1.0 / p
            direct = np.ones_like(e1)
            for i in range(3):
                for j in range(3):
                    if i != j:
                        direct = direct * (1.0 - q * z[i] / z[j])
            got = schuralg._macdonald_p(q, np.abs(e1) ** 2, (e1 ** 3).real)
            assert np.max(np.abs(got - direct.real) / direct.real) <= 1e-12
            assert np.max(np.abs(direct.imag)) <= 1e-12
            ratio = (measures.density(measures.MeasureSpec.plancherel(p), pt)
                     / measures.density(ST, pt))
            factor = 6.0 * measures.plancherel_constant(p) / got
            assert np.max(np.abs(factor - ratio) / ratio) <= 1e-12

    @pytest.mark.parametrize("p,R", [(None, math.sqrt(2.0)), (2, 2.0), (1009, 0.5)])
    def test_distribution_of_e1_matches_mpmath(self, p, R):
        # an independent 17-digit evaluation lies within the reported error
        spec = ST if p is None else measures.MeasureSpec.plancherel(p)
        got, err = schuralg._radius_cdf(spec, R)
        assert abs(got - radius_cdf_mpmath(p, R)) <= err

    def test_error_never_zero(self):
        for cell in [(-1.0, -1.0), (8.0, 8.0), (3.0, 3.0), (-1.0, 8.0)]:
            mass, err = indicator_mass(ST, cell)
            assert err > 0.0
        assert indicator_mass(ST, (-1.0, -1.0))[0] == 0.0

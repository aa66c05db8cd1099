import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_tempered_triple, traced_peak
from oracles import (
    _s11_values,
    epoly_eval,
    gauss_legendre_mpmath,
    indicator_mass_straddle,
    laurent_eval_elementary,
    laurent_to_epoly,
    radius_cdf_mpmath,
    sample_app_whole,
)
from gl3hecke import measures, schuralg
from gl3hecke.klpoly import kato_moment, lusztig_q_analog
from gl3hecke.schuralg import (
    E1,
    E2,
    E_ONE,
    EPoly,
    EmpiricalDistribution,
    bernstein_coeffs,
    effective_st_compare,
    expand_in_schur,
    indicator_mass,
    sample_app,
    schur_to_epoly,
)


class TestSchurToEPoly:
    def test_standard_and_dual(self):
        assert dict(schur_to_epoly(1, 0).terms) == {(1, 0): Fraction(1)}
        assert dict(schur_to_epoly(0, 1).terms) == {(0, 1): Fraction(1)}

    def test_adjoint(self):
        assert dict(schur_to_epoly(1, 1).terms) == {
            (1, 1): Fraction(1),
            (0, 0): Fraction(-1),
        }

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            schur_to_epoly(20, 5)


class TestExpandInSchur:
    def test_e1_is_standard(self):
        assert expand_in_schur(E1) == {(1, 0): Fraction(1)}

    def test_pieri_square(self):
        got = expand_in_schur(E1 * E1)
        assert got == {(2, 0): Fraction(1), (0, 1): Fraction(1)}

    def test_adjoint_square(self):
        got = expand_in_schur((E1 * E2 - E_ONE) ** 2)
        assert list(got) == sorted(got)
        assert got == {
            (0, 0): Fraction(1),
            (1, 1): Fraction(2),
            (2, 2): Fraction(1),
            (3, 0): Fraction(1),
            (0, 3): Fraction(1),
        }

    def test_monomial_multiplicities_sum_to_the_dimension(self):
        # e1^a e2^b is the character of V^(x a) (x) (V*)^(x b), of dimension
        # 3^(a+b): non-negative integer multiplicities times the Weyl
        # dimensions (l1+1)(l2+1)(l1+l2+2)/2 of the Schur elements
        for a in range(25):
            for b in range(25 - a):
                got = expand_in_schur(EPoly({(a, b): 1}))
                assert all(m.denominator == 1 and m > 0 for m in got.values())
                assert sum(m * (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2
                           for (l1, l2), m in got.items()) == 3 ** (a + b)

    @pytest.mark.parametrize("a,b", [(25, 0), (0, 25), (12, 13)])
    def test_monomial_degree_guard(self, a, b):
        with pytest.raises(ValueError):
            expand_in_schur(EPoly({(a, b): 1}))

    def test_round_trip_up_to_degree_eight(self):
        for l1 in range(9):
            for l2 in range(9 - l1):
                back = expand_in_schur(schur_to_epoly(l1, l2))
                assert back == {(l1, l2): Fraction(1)}

    def test_evaluation_consistency(self, rng):
        laurents = []
        for _ in range(10):
            support = {
                (rng.randint(0, 4), rng.randint(0, 4)): Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                for _ in range(5)
            }
            laurents.append(support)
        epolys = [laurent_to_epoly(lau) for lau in laurents]
        for _ in range(50):
            x = random_tempered_triple(rng)
            for laurent, epoly in zip(laurents, epolys):
                via_schur = complex(laurent_eval_elementary(laurent, x.e1, x.e2))
                via_epoly = epoly_eval(epoly, x.e1, x.e2)
                assert abs(via_schur - via_epoly) <= 1e-9 * (1.0 + abs(via_epoly))


class TestBernsteinCoeffs:
    def test_power_zero(self):
        assert bernstein_coeffs(0) == {(0, 0): Fraction(1)}

    def test_power_one(self):
        got = bernstein_coeffs(1)
        assert got == {(0, 0): Fraction(1, 9), (1, 1): Fraction(1, 9)}
        assert sum(map(abs, got.values())) == Fraction(2, 9)

    def test_l1_bound_exact_up_to_ten(self):
        for l in range(11):
            assert sum(map(abs, bernstein_coeffs(l).values())) <= 1

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
                coeffs = bernstein_coeffs(l)
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

    def test_samples_are_s11_at_the_sampled_angles(self):
        # 8 - 4 sum s_ij from the half chords against |e1|^2 - 1 from e^{i theta}
        t1, t2 = measures.sample_angles(measures.MeasureSpec.plancherel(5), 20_000, seed=3)
        emp = sample_app(5, 20_000, seed=3)
        assert np.max(np.abs(emp.samples - _s11_values(t1, t2))) <= 1e-13

    @pytest.mark.parametrize("count", [1, 8191, 100_000])
    def test_samples_match_the_whole_draw_form(self, count):
        # A(p, p) a batch at a time, bit for bit as from whole arrays
        for p, seed in ((2, 4), (5, 9)):
            got = sample_app(p, count, seed).samples
            assert got.tobytes() == sample_app_whole(p, count, seed).tobytes()

    def test_draw_holds_its_samples_and_a_batch(self):
        # 10^5 samples are 0.8 MB and their angles 1.6 MB; three whole arrays
        # of half chords on top of them took the peak to 6.2 MB
        sample_app(2, 10, seed=0)               # first-call allocations untraced
        peak, _ = traced_peak(lambda: sample_app(2, 10 ** 5, seed=17))
        assert peak <= 3e6

    def test_empirical_distribution_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EmpiricalDistribution(np.array([9.0]))

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            effective_st_compare(5, 10, [(0.0, 1.0)], seed=0)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            indicator_mass(5, (-2.0, 0.0))

    def test_numpy_prime_masses_are_bit_identical(self):
        # each mass is computed afresh: the pushforward memo is cleared first
        masses = []
        for p in (np.int32(5), np.int64(5), 5):
            schuralg._pushforward_piece.cache_clear()
            masses.append(np.array(indicator_mass(p, (0.0, 1.0)), dtype=float).view(np.int64))
        assert all(np.array_equal(masses[-1], m) for m in masses)
        with pytest.raises(TypeError):
            indicator_mass(5.0, (0.0, 1.0))


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
            moment = lambda l1, l2: lusztig_q_analog(l1, l2, (0, 0, 0), 0)
        else:
            spec = measures.MeasureSpec.plancherel(p)
            moment = lambda l1, l2: kato_moment(l1, l2, p)
        square = expand_in_schur((E1 * E2 - E_ONE) ** 2)
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

    def test_nine_cells_build_each_piece_once(self):
        # ten radii 0, 1, sqrt 2, ..., 3; the nine above 0 share the piece
        # r <= 1, so each order builds 2 + 8 pieces
        schuralg._pushforward_piece.cache_clear()
        first = [indicator_mass(5, (cell - 1.0, float(cell))) for cell in range(9)]
        assert schuralg._pushforward_piece.cache_info().misses == 2 * 10
        assert [indicator_mass(5, (cell - 1.0, float(cell))) for cell in range(9)] == first
        r, w = schuralg._pushforward_piece(measures.MeasureSpec.plancherel(5), -1.0, 0.0, 1.0, 48)
        with pytest.raises(ValueError):
            w[0] = 0.0

    def test_error_never_zero(self):
        for cell in [(-1.0, -1.0), (8.0, 8.0), (3.0, 3.0), (-1.0, 8.0)]:
            mass, err = indicator_mass(ST, cell)
            assert err > 0.0
        assert indicator_mass(ST, (-1.0, -1.0))[0] == 0.0


GL_ORDERS = (1, 2, 3, 5, 48, 96, 200)


def gl_oracle_errors(t, w, n):
    """Largest absolute node error and relative weight error of a rule on
    [0, 1] against the 40-digit oracle."""
    import mpmath as mp

    nodes, weights = gauss_legendre_mpmath(n)
    with mp.workdps(50):
        dx = max(abs(mp.mpf(float(a)) - b) for a, b in zip(t, nodes))
        dw = max(abs(mp.mpf(float(a)) / b - 1) for a, b in zip(w, weights))
    return float(dx), float(dw)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", GL_ORDERS)
    def test_matches_mpmath_newton(self, n):
        t, w = schuralg._gauss_legendre(n)
        assert t.shape == w.shape == (n,)
        dx, dw = gl_oracle_errors(t, w, n)
        assert dx <= 2e-16 and dw <= 5e-13, (dx, dw)

    @pytest.mark.parametrize("n", GL_ORDERS)
    def test_integrates_polynomials_of_degree_below_2n(self, n):
        t, w = schuralg._gauss_legendre(n)
        for k in range(2 * n):
            assert abs(float(np.sum(w * t ** k)) - 1.0 / (k + 1)) <= 1e-14, k

    def test_read_only_and_memoised(self):
        t, w = schuralg._gauss_legendre(48)
        assert schuralg._gauss_legendre(48)[0] is t
        with pytest.raises(ValueError):
            w[0] = 0.0

    @pytest.mark.parametrize("n", [48, 96, 200])
    def test_newton_stopped_a_step_early_fails_the_oracle(self, monkeypatch, n):
        # negative control: the Newton loop ends before its last step above
        # 1e-15 (a zero step reported in its place), so the nodes stay about
        # 1e-10 off the roots and the oracle test must see it
        real, calls = schuralg._legendre, []

        def counted(m, x):
            calls.append(m)
            return real(m, x)

        monkeypatch.setattr(schuralg, "_legendre", counted)
        schuralg._gauss_legendre.__wrapped__(n)
        # the evaluations are the Newton steps, the last one below 1e-15,
        # then one for the weights: cut the step before the last
        cut = len(calls) - 2

        def early(m, x):
            calls.append(m)
            p, dp = real(m, x)
            return (0.0 * p if len(calls) == cut else p), dp

        calls.clear()
        monkeypatch.setattr(schuralg, "_legendre", early)
        dx, _ = gl_oracle_errors(*schuralg._gauss_legendre.__wrapped__(n), n)
        assert dx > 1e-13

import math
from fractions import Fraction

import numpy as np
import pytest

from gl3hecke import klpoly, measures
from gl3hecke.klpoly import kato_moment
from gl3hecke.measures import (
    EnvelopeError,
    MeasureSpec,
    QuadratureGrid,
    TorusPoint,
    density,
    integrate,
    sample_angles,
)

ST = MeasureSpec.sato_tate()


class TestDensity:
    def test_sato_tate_vanishes_at_coincident_angles(self):
        assert density(ST, TorusPoint(0.0, 0.0)) == 0.0

    def test_plancherel_vanishes_at_coincident_angles(self):
        assert density(MeasureSpec.plancherel(3), TorusPoint(0.0, 0.0)) == pytest.approx(0.0)

    def test_sato_tate_regular_point(self):
        # all three pairwise squared distances equal 3
        val = density(ST, TorusPoint(2 * math.pi / 3, -2 * math.pi / 3))
        assert val == pytest.approx(27.0 / (24.0 * math.pi ** 2), rel=1e-12)

    def test_weyl_invariance(self):
        t1, t2 = 0.7, 2.9
        t3 = -(t1 + t2)
        angles = (t1, t2, t3)
        for spec in (ST, MeasureSpec.plancherel(5)):
            base = density(spec, TorusPoint(t1, t2))
            for sigma, _ in klpoly.WEYL:
                perm = density(spec, TorusPoint(angles[sigma[0]], angles[sigma[1]]))
                assert abs(perm - base) <= 1e-12

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            MeasureSpec.plancherel(4)
        with pytest.raises(ValueError):
            MeasureSpec("plancherel")
        with pytest.raises(ValueError):
            MeasureSpec("sato-tate", 5)


class TestIntegrate:
    def test_sato_tate_is_probability_measure(self):
        val = integrate(ST, lambda pt: 1.0, QuadratureGrid(64))
        assert abs(val - 1.0) <= 1e-10

    def test_plancherel_masses(self):
        grid = QuadratureGrid(64)
        for p in (2, 3, 5, 7, 101):
            val = integrate(MeasureSpec.plancherel(p), lambda pt: 1.0, grid)
            assert abs(val - 1.0) <= 1e-8

    def test_schur_normalization(self):
        f = lambda pt: abs(measures.schur_on_torus(1, 0, pt.theta1, pt.theta2)) ** 2
        v64 = integrate(ST, f, QuadratureGrid(64))
        v128 = integrate(ST, f, QuadratureGrid(128))
        assert abs(v64 - 1.0) <= 1e-8
        assert abs(v64 - v128) <= 1e-10

    def test_schur_orthonormality(self):
        grid = QuadratureGrid(64)
        pairs = [(a, b) for a in range(3) for b in range(3)]
        for a, b in pairs:
            for c, d in pairs:
                f = lambda pt: measures.schur_on_torus(
                    a, b, pt.theta1, pt.theta2
                ) * np.conj(measures.schur_on_torus(c, d, pt.theta1, pt.theta2))
                val = integrate(ST, f, grid)
                expect = 1.0 if (a, b) == (c, d) else 0.0
                assert abs(val - expect) <= 1e-7

    def test_scalar_only_integrand_error_propagates(self):
        # the integrand is called once on the whole mesh; a callable that
        # rejects array input fails loudly instead of being retried per node
        def f(pt):
            if not isinstance(pt.theta1, float):
                raise TypeError("scalar only")
            return 1.0

        with pytest.raises(TypeError, match="scalar only"):
            integrate(ST, f, QuadratureGrid(16))

    def test_grid_validation_and_weights(self):
        with pytest.raises(ValueError):
            QuadratureGrid(4)
        g = QuadratureGrid(16)
        assert g.cell_weight * g.resolution ** 2 == pytest.approx((2 * math.pi) ** 2)


KATO_PRIMES = (2, 3, 5, 7, 11, 101, 1009)


def bounds(l1, l2, p, K):
    return measures._trapezoid_bound(MeasureSpec.plancherel(p), l1, l2, np.asarray(K))


def bound(l1, l2, p, K):
    return float(bounds(l1, l2, p, [K])[0])


class TestTrapezoidResolution:
    def test_bound_covers_measured_error_over_full_range(self):
        # |integrate at K - exact moment| <= bound(K) for every (l1, l2) in
        # [0, 6]^2, every p and K = 8..64, resonant K = 24 at (6, 6), p = 2 included
        pairs = [(l1, l2) for l1 in range(7) for l2 in range(7)]
        exact = {(l1, l2, p): float(kato_moment(l1, l2, p)) for l1, l2 in pairs for p in KATO_PRIMES}
        proven = {key: bounds(*key, np.arange(8, 65)) for key in exact}
        for K in range(8, 65):
            grid = QuadratureGrid(K)
            pt = TorusPoint(*grid.mesh())
            schur = {lam: measures.schur_on_torus(*lam, pt.theta1, pt.theta2).real for lam in pairs}
            for p in KATO_PRIMES:
                dens = density(MeasureSpec.plancherel(p), pt)
                for l1, l2 in pairs:
                    # the sum `integrate` forms, with the density computed once per grid
                    got = float(np.sum(schur[l1, l2] * dens) * grid.cell_weight)
                    err = abs(got - exact[l1, l2, p])
                    assert err <= proven[l1, l2, p][K - 8], (l1, l2, p, K, err)

    def test_polynomial_part_and_resonance(self):
        # at p = 101 and K = 8 the (5, 0) quadrature misses by 1.0 (polynomial
        # aliasing); at p = 2 for (6, 6), K = 24 (3 | K) is worse than K = 20
        spec = MeasureSpec.plancherel(101)
        err = abs(integrate(spec, lambda pt: measures.schur_on_torus(5, 0, pt.theta1, pt.theta2).real,
                            QuadratureGrid(8)).real)
        assert err == pytest.approx(1.0, abs=1e-9)
        assert bound(5, 0, 101, 8) >= err
        assert bound(6, 6, 2, 24) > 10 * bound(6, 6, 2, 20)

    def test_resolution_is_the_smallest_certified_grid(self):
        for l1, l2, p, tol in [(1, 1, 2, 1e-7), (6, 6, 2, 1e-7), (5, 0, 101, 1e-9), (0, 0, 3, 1e-8)]:
            K = measures.trapezoid_resolution(MeasureSpec.plancherel(p), l1, l2, tol)
            assert bound(l1, l2, p, K) <= tol
            assert K == 8 or np.all(bounds(l1, l2, p, np.arange(8, K)) > tol)

    def test_tol_below_rounding_floor_has_no_grid(self):
        spec = MeasureSpec.plancherel(2)
        assert measures.trapezoid_resolution(spec, 1, 1, 1e-17) is None
        assert measures.trapezoid_resolution(spec, 6, 6, 1e-9) is None
        assert bound(0, 0, 2, 1024) > 0.0


class TestSampling:
    def test_same_seed_identical(self):
        a = sample_angles(MeasureSpec.plancherel(5), 500, seed=11)
        b = sample_angles(MeasureSpec.plancherel(5), 500, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sample_angles(ST, 0, seed=1)

    def test_plancherel_mean_matches_exact_moment(self):
        # mean of S_{1,1} under the p = 5 measure is 1/5 + 1/25
        t1, t2 = sample_angles(MeasureSpec.plancherel(5), 100_000, seed=5)
        vals = np.abs(np.exp(1j * t1) + np.exp(1j * t2) + np.exp(-1j * (t1 + t2))) ** 2 - 1.0
        stderr = float(np.std(vals)) / math.sqrt(len(vals))
        assert abs(float(np.mean(vals)) - 0.24) <= 3.0 * stderr

    def test_sato_tate_mean_of_standard_character(self):
        t1, t2 = sample_angles(ST, 100_000, seed=9)
        vals = np.exp(1j * t1) + np.exp(1j * t2) + np.exp(-1j * (t1 + t2))
        stderr = float(np.std(vals)) / math.sqrt(len(vals))
        assert abs(complex(np.mean(vals))) <= 3.0 * stderr

    def test_density_never_exceeds_envelope(self):
        k = 600
        nodes = 2 * math.pi * (np.arange(k) + 0.5) / k
        g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
        pt = TorusPoint(g1, g2)
        for spec in (ST, MeasureSpec.plancherel(2), MeasureSpec.plancherel(5),
                     MeasureSpec.plancherel(101)):
            cap = measures.envelope_ratio(spec) / (2 * math.pi) ** 2
            assert float(np.max(density(spec, pt))) <= cap * (1 + 1e-12)

    def test_sampler_ks_distance_against_quadrature_cdf(self):
        # one-sample Kolmogorov-Smirnov against the quadrature CDF of S_{1,1}
        p = 5
        t1, t2 = sample_angles(MeasureSpec.plancherel(p), 100_000, seed=123)
        vals = np.sort(
            np.abs(np.exp(1j * t1) + np.exp(1j * t2) + np.exp(-1j * (t1 + t2))) ** 2 - 1.0
        )
        k = 1024
        nodes = 2 * math.pi * (np.arange(k) + 0.5) / k
        g1, g2 = np.meshgrid(nodes, nodes, indexing="ij")
        s11 = np.abs(np.exp(1j * g1) + np.exp(1j * g2) + np.exp(-1j * (g1 + g2))) ** 2 - 1.0
        w = density(MeasureSpec.plancherel(p), TorusPoint(g1, g2)) * (2 * math.pi / k) ** 2
        order = np.argsort(s11.ravel())
        support = s11.ravel()[order]
        cdf = np.cumsum(w.ravel()[order])
        f_at_samples = np.interp(vals, support, cdf)
        n = len(vals)
        emp_hi = np.arange(1, n + 1) / n
        emp_lo = np.arange(0, n) / n
        ks = max(float(np.max(np.abs(emp_hi - f_at_samples))),
                 float(np.max(np.abs(emp_lo - f_at_samples))))
        assert ks <= 0.01

    def test_child_seed_is_deterministic_and_spread(self):
        seeds = {measures.child_seed(7, i) for i in range(16)}
        assert len(seeds) == 16
        assert measures.child_seed(7, 3) == measures.child_seed(7, 3)


class TestPlancherelConstant:
    @staticmethod
    def length(sigma):
        return sum(1 for i in range(3) for j in range(i + 1, 3) if sigma[i] > sigma[j])

    def test_weyl_signs_are_parities_of_length(self):
        for sigma, sign in klpoly.WEYL:
            assert sign == (-1) ** self.length(sigma)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1009, 10 ** 6 + 3])
    def test_equals_weyl_length_polynomial_over_six(self, p):
        # W(q) = sum over the Weyl group of q^length, exact at q = 1/p
        want = sum(Fraction(1, p) ** self.length(sigma) for sigma, _ in klpoly.WEYL) / 6
        got = measures.plancherel_constant(p)
        assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 15) * want


class TestEnvelopeGuard:
    def test_buggy_envelope_detected(self, monkeypatch):
        monkeypatch.setattr(measures, "envelope_ratio", lambda spec: 0.5)
        with pytest.raises(EnvelopeError):
            sample_angles(ST, 100, seed=2)

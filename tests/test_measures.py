import dataclasses
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import traced_peak
from oracles import (
    density_exponential,
    sample_angles_float64,
    splitmix64,
    trapezoid_bound_uncached,
    trapezoid_resolutions_uncached,
)
from gl3hecke import measures, schuralg, suites
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
            for sigma, _ in measures.WEYL:
                perm = density(spec, TorusPoint(angles[sigma[0]], angles[sigma[1]]))
                assert abs(perm - base) <= 1e-12

    @pytest.mark.parametrize("p", [None, 2, 5, 101, 1009])
    def test_half_chord_form_matches_exponential_oracle(self, p):
        # on the K = 64 mesh, near the diagonal (t1 = t2, 2 t1 + t2 = 0 and
        # t1 + 2 t2 = 0 mod 2 pi, down to offsets of 1e-300) and around the
        # cube roots of unity, where the density peaks
        spec = ST if p is None else MeasureSpec.plancherel(p)
        c = 2 * math.pi / 3
        offsets = [0.0, 1e-300, 1e-12, 1e-8, 1e-4, -1e-8]
        bases = [(0.0, 0.0), (1.0, 1.0), (1.0, 2 * math.pi - 2.0), (0.3, 2 * math.pi - 0.6),
                 (c, c), (c, 2 * c), (0.0, c), (2 * c, c)]
        near = [(a + e, b + f) for a, b in bases for e in offsets for f in (0.0, -e, e)]
        points = [TorusPoint(*QuadratureGrid(64).mesh()),
                  TorusPoint(np.array([a for a, _ in near]), np.array([b for _, b in near]))]
        tol = 1e-14 * measures.envelope_ratio(spec)
        for pt in points:
            assert np.max(np.abs(density(spec, pt) - density_exponential(spec, pt))) <= tol

    def test_half_chords_are_chord_lengths(self):
        rng = np.random.default_rng(3)
        t1, t2 = rng.uniform(0.0, 2 * math.pi, (2, 200))
        z = (np.exp(1j * t1), np.exp(1j * t2), np.exp(-1j * (t1 + t2)))
        for s, (i, j) in zip(measures.half_chords(t1, t2), [(0, 1), (0, 2), (1, 2)]):
            assert np.max(np.abs(4 * s - np.abs(z[i] - z[j]) ** 2)) <= 1e-14

    def test_spec_validation(self):
        # a measure is its prime: p = None is Sato-Tate, and nothing else names one
        with pytest.raises(ValueError):
            MeasureSpec.plancherel(4)
        with pytest.raises(ValueError, match="^plancherel measure needs a prime p, got 4$"):
            MeasureSpec(4)
        with pytest.raises(TypeError):
            MeasureSpec("plancherel")
        with pytest.raises(TypeError):
            MeasureSpec.plancherel(None)
        assert MeasureSpec() == MeasureSpec.sato_tate() == MeasureSpec(None)
        assert MeasureSpec(5) == MeasureSpec.plancherel(5)
        assert [f.name for f in dataclasses.fields(MeasureSpec)] == ["p"]

    def test_numpy_prime_is_kept_as_a_python_int(self):
        # as a loop over prime_array hands it: p ** -2 on a numpy int raises
        want = MeasureSpec.plancherel(5)
        for p in (np.int32(5), np.int64(5)):
            spec = MeasureSpec.plancherel(p)
            assert spec == want and type(spec.p) is int
            assert measures.plancherel_constant(spec.p) == measures.plancherel_constant(5)
        for p in (5.0, np.float64(5.0)):
            with pytest.raises(TypeError):
                MeasureSpec.plancherel(p)


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

    def test_mesh_and_density_built_once_per_measure_and_grid(self, monkeypatch):
        real, built = measures.density, []

        def counted(spec, pt):
            built.append(spec)
            return real(spec, pt)

        monkeypatch.setattr(measures, "density", counted)
        measures._mesh_density.cache_clear()
        grid = QuadratureGrid(64)
        f = lambda pt: measures.schur_on_torus(1, 0, pt.theta1, pt.theta2)
        vals = [integrate(ST, f, grid) for _ in range(3)]
        assert built == [ST]
        pt = TorusPoint(*grid.mesh())
        assert vals == [complex(np.sum(f(pt) * real(ST, pt)) * grid.cell_weight)] * 3
        integrate(MeasureSpec.plancherel(5), f, grid)
        integrate(ST, f, grid)
        assert len(built) == 3
        pt, dens = measures._mesh_density(ST, grid)
        with pytest.raises(ValueError):
            pt.theta1[0, 0] = 1.0
        with pytest.raises(ValueError):
            dens[0, 0] = 1.0

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
        for K in (8.5, 16.0):  # not 9 nodes spaced 2 pi / 8.5
            with pytest.raises(TypeError):
                QuadratureGrid(K)
        assert np.array_equal(QuadratureGrid(np.int64(16)).nodes, QuadratureGrid(16).nodes)
        g = QuadratureGrid(16)
        assert g.cell_weight * g.resolution ** 2 == pytest.approx((2 * math.pi) ** 2)


KATO_PRIMES = (2, 3, 5, 7, 11, 101, 1009)


def bounds(l1, l2, p, K):
    aliases = measures._alias_table(l1, l2, np.asarray(K))
    return measures._alias_bound(MeasureSpec.plancherel(p), l1, l2, aliases)


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


ALIAS_SPECS = [ST] + [MeasureSpec.plancherel(p) for p in (2, 3, 5, 7, 101, 1009)]


class TestAliasTables:
    def test_bound_and_resolution_match_the_uncached_bound(self):
        # every shape up to (6, 6), each measure in turn on the same shape, so
        # the memoised tables of one prime serve the next
        memo = measures._resolution_aliases
        memo.cache_clear()
        K = np.concatenate([np.arange(8, 72), [255, 256, 511, 512, 513, 1000, 1024]])
        tols = (1e-6, 1e-7, 1e-8, 1e-10)
        for l1 in range(7):
            for l2 in range(7):
                for spec in ALIAS_SPECS:
                    got = [measures.trapezoid_resolution(spec, l1, l2, tol) for tol in tols]
                    assert got == trapezoid_resolutions_uncached(spec, l1, l2, tols)
                    bound = measures._alias_bound(spec, l1, l2, measures._alias_table(l1, l2, K))
                    assert bound.tobytes() == trapezoid_bound_uncached(spec, l1, l2, K).tobytes()
                    for lo in (8, 24, 504, 1016):
                        aliases = measures._resolution_aliases(l1, l2, lo)
                        bound = measures._alias_bound(spec, l1, l2, aliases)
                        want = trapezoid_bound_uncached(spec, l1, l2, np.asarray(aliases[0]))
                        assert bound.tobytes() == want.tobytes()
        info = memo.cache_info()
        assert info.hits > info.misses and info.currsize == info.maxsize

    def test_memo_after_the_kato_sweep_is_small(self):
        # the K chunks of the kato suite's grid searches, p = 2, 3, 5, 7
        memo = measures._resolution_aliases
        memo.cache_clear()

        def sweep():
            for p in (2, 3, 5, 7):
                for l1 in range(6):
                    for l2 in range(6 - l1):
                        measures.trapezoid_resolution(MeasureSpec.plancherel(p), l1, l2, 1e-7)
            measures.trapezoid_resolution(MeasureSpec.plancherel(2), 1, 1, 1e-8)

        _, held = traced_peak(sweep)
        info = memo.cache_info()
        assert info.currsize <= info.maxsize and info.hits > info.misses
        assert held < 10 ** 6

    def test_tables_are_read_only(self):
        K, _, _, norms = measures._resolution_aliases(2, 1, 8)
        assert not K.flags.writeable and not norms.flags.writeable


class TestSampling:
    def test_same_seed_identical(self):
        a = sample_angles(MeasureSpec.plancherel(5), 500, seed=11)
        b = sample_angles(MeasureSpec.plancherel(5), 500, seed=11)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    @pytest.mark.parametrize("p", [2, 5])
    def test_angles_unchanged_under_exponential_density(self, monkeypatch, p):
        # the half-chord density accepts exactly the proposals the complex
        # exponential form accepted
        spec = MeasureSpec.plancherel(p)
        got = [sample_angles(spec, 20_000, seed) for seed in (0, 7, 2024)]
        consulted = []

        def counted(spec, pt):
            consulted.append(np.size(pt.theta1))
            return density_exponential(spec, pt)

        monkeypatch.setattr(measures, "density", counted)
        for seed, (t1, t2) in zip((0, 7, 2024), got):
            consulted.clear()
            o1, o2 = sample_angles(spec, 20_000, seed)
            assert np.array_equal(t1, o1) and np.array_equal(t2, o2)
            # the squeeze leaves the proposals near u cap = density to it
            assert sum(consulted) > 0

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

    def test_draw_holds_its_outputs_and_a_batch(self):
        # 10^5 angles are 1.6 MB; a draw that kept every batch and joined them
        # at the end peaked above 3.5 MB
        schuralg.sample_app(2, 10, seed=0)      # first-call allocations untraced
        peak, _ = traced_peak(lambda: sample_angles(MeasureSpec.plancherel(2), 10 ** 5, seed=17))
        assert peak <= 2.5e6

    def test_child_seed_is_deterministic_and_spread(self):
        seeds = {measures.child_seed(7, i) for i in range(16)}
        assert len(seeds) == 16
        assert measures.child_seed(7, 3) == measures.child_seed(7, 3)

    def test_same_bytes_in_two_processes(self):
        code = ("import sys\n"
                "from gl3hecke.measures import MeasureSpec, sample_angles\n"
                "t1, t2 = sample_angles(MeasureSpec.plancherel(5), 20_000, 7)\n"
                "sys.stdout.buffer.write(t1.tobytes() + t2.tobytes())")
        env = {**os.environ, "PYTHONPATH": str(Path(measures.__file__).parents[1])}
        outs = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                               env=env, check=True).stdout for _ in range(2)]
        assert len(outs[0]) == 2 * 20_000 * 8 and outs[0] == outs[1]


SEEDS_64 = [0, 1, 2 ** 63, 2 ** 64 - 1]


def fills_match_splitmix64(seed: int) -> bool:
    """Batches of 8192, 5 and 8192 outputs of `_splitmix64` at the counters
    0, 8192 and 8197 against the scalar transcription, bit for bit: the
    second and third start past a batch boundary of the counter."""
    ref, first = splitmix64(seed), 0
    for n in (8192, 5, 8192):
        got = np.empty(n, np.uint64)
        measures._splitmix64(seed, first, got)
        first += n
        if got.tolist() != list(itertools.islice(ref, n)):
            return False
    return True


def mix64(x: int) -> int:
    """The SplitMix64 finaliser of x: output 1 of the stream seeded at x - gamma."""
    return next(splitmix64((x - measures._GAMMA) % 2 ** 64))


class TestSplitMix64:
    @pytest.mark.parametrize("seed", SEEDS_64)
    def test_fills_are_the_reference_outputs(self, seed):
        assert fills_match_splitmix64(seed)

    def test_a_stream_that_does_not_advance_fails(self, monkeypatch):
        stream = measures._splitmix64
        monkeypatch.setattr(measures, "_splitmix64", lambda seed, first, z: stream(seed, 0, z))
        assert not any(fills_match_splitmix64(seed) for seed in SEEDS_64)

    @pytest.mark.parametrize("seed", SEEDS_64)
    def test_counter_wraps_to_the_seed_itself(self, seed):
        # outputs 2^64 = 0, 1 and 2 of the stream: mix64(seed), then its start
        got = np.empty(3, np.uint64)
        measures._splitmix64(seed, 2 ** 64 - 1, got)
        assert got.tolist() == [mix64(seed), *itertools.islice(splitmix64(seed), 2)]
        assert measures.child_seed(seed, 2 ** 64 - 1) == mix64(seed)

    @pytest.mark.parametrize("seed", SEEDS_64)
    def test_child_seed_is_the_reference_output_index_plus_one(self, seed):
        want = list(itertools.islice(splitmix64(seed), 10))
        assert [measures.child_seed(seed, i) for i in range(10)] == want

    def test_scaled_fill_is_the_unit_fill_times_scale(self):
        # sample_angles' one multiply by scale 2^-53 against the unit
        # doubles (z >> 11) 2^-53 that the float64 oracle scales afterwards
        z = np.empty(measures.SAMPLE_BATCH, np.uint64)
        measures._splitmix64(5, 0, z)
        unit = (z >> 11) * 2.0 ** -53
        for scale in (2 * math.pi, measures.envelope_ratio(ST) / (2 * math.pi) ** 2):
            got = z.copy().view(np.float64)
            bits = got.view(np.uint64)
            bits >>= 11
            np.multiply(bits, scale * 2.0 ** -53, out=got)
            assert got.tobytes() == (unit * scale).tobytes()

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            sample_angles(ST, 10, seed)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
            measures.child_seed(seed, 0)

    def test_negative_index_is_refused(self):
        with pytest.raises(ValueError, match=r"index must lie in \[0, 2\^64\)"):
            measures.child_seed(3, -1)


SQUEEZE_SPECS = [ST] + [MeasureSpec.plancherel(p) for p in (2, 3, 5, 7, 101, 1009)]
SQUEEZE_IDS = ["st", "p2", "p3", "p5", "p7", "p101", "p1009"]


def same_as_float64_sampler(spec, seeds=range(6), count=50_000):
    for seed in seeds:
        t1, t2 = sample_angles(spec, count, seed)
        o1, o2 = sample_angles_float64(spec, count, seed)
        if not (np.array_equal(t1, o1) and np.array_equal(t2, o2)):
            return False
    return True


class TestSqueeze:
    @pytest.mark.parametrize("spec", SQUEEZE_SPECS, ids=SQUEEZE_IDS)
    def test_angles_identical_to_float64_sampler(self, spec):
        assert same_as_float64_sampler(spec)

    @pytest.mark.parametrize("spec", SQUEEZE_SPECS, ids=SQUEEZE_IDS)
    def test_float32_density_within_a_quarter_of_the_slack(self, spec):
        # the error the proof bounds, on 2e6 random points and the 600^2
        # midpoint grid, where the density peaks at the cube roots of unity
        cap = measures.envelope_ratio(spec) / (2 * math.pi) ** 2
        rng = np.random.default_rng(23)
        k = 600
        nodes = 2 * math.pi * (np.arange(k) + 0.5) / k
        points = [rng.uniform(0.0, 2 * math.pi, (2, 250_000)) for _ in range(8)]
        points.append([g.ravel() for g in np.meshgrid(nodes, nodes, indexing="ij")])
        worst = 0.0
        for t1, t2 in points:
            d32 = measures._density_s(spec, measures._half_chords32(t1, t2))
            d = density(spec, TorusPoint(t1, t2))
            worst = max(worst, float(np.max(np.abs(d32.astype(float) - d))) / cap)
        assert worst <= measures._SQUEEZE / 4

    def test_unsound_squeeze_breaks_the_identity(self, monkeypatch):
        # mutation: float32 chords 1e-3 off and no slack decide proposals
        # the exact density would not, and the identity test must see it
        real = measures._half_chords32
        monkeypatch.setattr(measures, "_half_chords32",
                            lambda t1, t2: tuple(s * (1 + 1e-3) for s in real(t1, t2)))
        monkeypatch.setattr(measures, "_SQUEEZE", 0.0)
        assert not same_as_float64_sampler(MeasureSpec.plancherel(5), seeds=[0])


LINALG = ("eigvalsh", "eigh", "eig", "eigvals", "svd", "solve", "lstsq", "inv")


def test_measure_layer_makes_no_linalg_call(monkeypatch):
    # numpy.linalg runs LAPACK, whose OpenBLAS threads spin on idle cores
    # after a call; the measures, satotate and kato suites build every rule
    # and density without it, memos cleared so that nothing is reused
    calls = []

    def refuse(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"numpy.linalg.{name} called")
        return call

    for name in LINALG:
        monkeypatch.setattr(np.linalg, name, refuse(name))
    for memo in (schuralg._gauss_legendre, schuralg._pushforward_piece, measures._mesh_density):
        memo.cache_clear()
    for suite in (suites.suite_satotate, suites.suite_measures, suites.suite_kato):
        assert all(c.status == "pass" for c in suite(0))
    assert calls == []


class TestPlancherelConstant:
    @staticmethod
    def length(sigma):
        return sum(1 for i in range(3) for j in range(i + 1, 3) if sigma[i] > sigma[j])

    def test_weyl_signs_are_parities_of_length(self):
        for sigma, sign in measures.WEYL:
            assert sign == (-1) ** self.length(sigma)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 101, 1009, 10 ** 6 + 3])
    def test_equals_weyl_length_polynomial_over_six(self, p):
        # W(q) = sum over the Weyl group of q^length, exact at q = 1/p
        want = sum(Fraction(1, p) ** self.length(sigma) for sigma, _ in measures.WEYL) / 6
        got = measures.plancherel_constant(p)
        assert abs(Fraction(got) - want) <= Fraction(1, 10 ** 15) * want


class TestEnvelopeGuard:
    def test_buggy_envelope_detected(self, monkeypatch):
        monkeypatch.setattr(measures, "envelope_ratio", lambda spec: 0.5)
        with pytest.raises(EnvelopeError):
            sample_angles(ST, 100, seed=2)

import cmath
import inspect
import math
import random

import numpy as np
import pytest

from conftest import random_tempered_triple, traced_peak
from gl3hecke import cli, hecke, signstats, suites, tau
from gl3hecke.arith import factorize, prime_array, primes_upto
from gl3hecke.hecke import (
    A_M1,
    A_MM,
    CoefficientTable,
    IndexBoundsError,
    LocalArrays,
    MissingPrimeError,
    NonTemperedError,
    PrimeLocalData,
    SatakeTriple,
    hecke_residual,
    mobius_expand,
    schur_from_elementary,
    sym2_lift,
)
from gl3hecke.suites import random_tempered_locals
from oracles import (
    local_arrays_of_triples,
    sieve_row_dense,
    sym2_triple_by_angles,
    table_value_trial_division,
    tempered_records,
    vandermonde_schur,
)

DEGENERATE = SatakeTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j)


def degenerate_locals(bound):
    from gl3hecke.arith import primes_upto

    return [PrimeLocalData(p, DEGENERATE) for p in primes_upto(bound)]


class TestSatakeTriple:
    def test_product_must_be_one(self):
        with pytest.raises(ValueError):
            SatakeTriple(2.0 + 0j, 1.0 + 0j, 1.0 + 0j)

    def test_tempered_needs_unit_modulus(self):
        with pytest.raises(ValueError):
            SatakeTriple(2.0 + 0j, 0.5 + 0j, 1.0 + 0j)

    def test_records_are_always_tempered(self):
        # non-tempered data are LocalArrays: a record has no switch that skips the check
        assert SatakeTriple.__slots__ == ("alpha1", "alpha2", "alpha3")
        assert list(inspect.signature(SatakeTriple).parameters) == ["alpha1", "alpha2", "alpha3"]

    def test_from_angles_tempered(self):
        x = SatakeTriple.from_angles(0.3, 1.1)
        assert abs(x.alpha1 * x.alpha2 * x.alpha3 - 1.0) < 1e-14

    def test_from_angles_is_the_three_exponentials(self, rng):
        for _ in range(1000):
            t1, t2 = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
            x = SatakeTriple.from_angles(t1, t2)
            want = (cmath.exp(1j * t1), cmath.exp(1j * t2), cmath.exp(-1j * (t1 + t2)))
            assert [bits(a) for a in (x.alpha1, x.alpha2, x.alpha3)] == [bits(a) for a in want]

    def test_records_are_slotted(self):
        # no per-object __dict__: a table holds tens of thousands of them
        x = SatakeTriple.from_angles(0.3, 1.1)
        for record in (x, PrimeLocalData(5, x)):
            assert not hasattr(record, "__dict__")

    @pytest.mark.parametrize("make", [
        lambda: SatakeTriple.from_angles(math.nan, 0.0),
        lambda: SatakeTriple.from_angles(math.inf, 0.0),
        # non-tempered data are LocalArrays, whose e1 and e2 must be finite
        lambda: local_arrays_of_triples([2], [(math.nan, 1.0, 1.0)]),
        lambda: local_arrays_of_triples([2], [(math.inf, 1.0, 1.0)]),
        lambda: SatakeTriple(1.0, 1.0, complex(math.nan, 0.0)),
    ], ids=["nan_angle", "inf_angle", "nan_alpha_not_tempered", "inf_alpha_not_tempered",
            "nan_alpha_tempered"])
    def test_rejects_non_finite_parameters(self, make):
        # abs(nan - 1) > tol is False: each test must be written so NaN fails it
        with pytest.raises(ValueError):
            make()

    def test_prime_local_rejects_composite(self):
        # a record is checked where the table reads it into LocalArrays
        with pytest.raises(ValueError, match="^6 is not prime$"):
            CoefficientTable([PrimeLocalData(6, DEGENERATE)], 6, 1)


def bits(z: complex) -> tuple[int, int]:
    """The bit patterns of a complex number's parts (signed zeros differ)."""
    return tuple(np.array([z.real, z.imag]).view(np.int64).tolist())


def schur(l1, l2, x):
    return schur_from_elementary(l1, l2, x.e1, x.e2)


class TestSchurEval:
    def test_negative_exponents_rejected(self):
        for l1, l2 in ((-1, 0), (0, -1), (1, -1)):
            with pytest.raises(ValueError, match="non-negative"):
                schur_from_elementary(l1, l2, DEGENERATE.e1, DEGENERATE.e2)

    def test_empty_partition_is_one(self):
        assert schur(0, 0, DEGENERATE) == 1.0

    def test_standard_rep_at_identity(self):
        # limit of the determinant ratio at a perturbed degenerate point; the
        # triple point needs a coarse step (the ratio is 0/0 of order eps^3)
        eps = 1e-3
        x1, x2, x3 = cmath.exp(1j * eps), cmath.exp(2j * eps), 1.0 / cmath.exp(3j * eps)
        oracle = vandermonde_schur(1, 0, x1, x2, x3)
        assert abs(oracle - 3.0) < 1e-4
        assert schur(1, 0, DEGENERATE) == pytest.approx(3.0)

    def test_adjoint_at_identity(self):
        assert schur(1, 1, DEGENERATE) == pytest.approx(8.0)

    def test_matches_determinant_ratio_at_generic_points(self, rng):
        for _ in range(50):
            x = random_tempered_triple(rng)
            b1, b2 = rng.randint(0, 4), rng.randint(0, 4)
            oracle = vandermonde_schur(b1, b2, x.alpha1, x.alpha2, x.alpha3)
            got = schur(b1, b2, x)
            assert abs(got - oracle) <= 1e-7 * (1.0 + abs(oracle))

    def test_degenerate_continuity(self, rng):
        # coincident coordinates: compare against the ratio form at a 1e-6
        # perturbation
        for _ in range(20):
            t = rng.uniform(0.0, 2.0 * math.pi)
            x = SatakeTriple.from_angles(t, t)
            b1, b2 = rng.randint(0, 3), rng.randint(0, 3)
            eps = 1e-6
            oracle = vandermonde_schur(
                b1,
                b2,
                cmath.exp(1j * (t + eps)),
                cmath.exp(1j * (t - eps)),
                cmath.exp(-1j * 2 * t),
            )
            got = schur(b1, b2, x)
            assert abs(got - oracle) <= 1e-8 * (1.0 + abs(oracle)) + 1e-4 * eps

    def test_dual_symmetry_tempered(self, rng):
        for _ in range(30):
            x = random_tempered_triple(rng)
            for a in range(5):
                for b in range(5):
                    lhs = schur(a, b, x)
                    rhs = schur(b, a, x).conjugate()
                    assert abs(lhs - rhs) <= 1e-10

    def test_ramanujan_bound_from_tempered_input(self, rng):
        for _ in range(100):
            x = random_tempered_triple(rng)
            assert abs(schur(1, 0, x)) <= 3.0 + 1e-10


class TestCoefficientTable:
    def test_multiplicative_extension_degenerate(self):
        table = CoefficientTable(degenerate_locals(10), 10, 10)
        assert table.value(6, 1) == pytest.approx(9.0)  # A(2,1) * A(3,1)
        assert table.value(1, 1) == 1.0

    def test_single_prime_power_matches_schur(self, random_table_2500):
        local = random_table_2500.local
        assert local.primes[0] == 2
        expected = schur_from_elementary(2, 1, local.e1[0], local.e2[0])
        assert random_table_2500.value(4, 2) == pytest.approx(expected)

    def test_missing_prime_is_reported(self):
        with pytest.raises(MissingPrimeError, match="3"):
            CoefficientTable([PrimeLocalData(2, DEGENERATE)], 10, 1)

    def test_missing_prime_among_unsorted_data(self):
        locs = [PrimeLocalData(p, DEGENERATE) for p in (7, 2, 5, 11)]
        with pytest.raises(MissingPrimeError, match="prime 3"):
            CoefficientTable(locs, 12, 1)
        assert CoefficientTable(locs + [PrimeLocalData(3, DEGENERATE)], 12, 1).value(12, 1) == 18

    def test_duplicate_prime_is_rejected(self):
        other = SatakeTriple.from_angles(0.5, 0.25)
        locs = [PrimeLocalData(2, DEGENERATE), PrimeLocalData(3, DEGENERATE),
                PrimeLocalData(2, other)]
        with pytest.raises(ValueError, match="prime 2"):
            CoefficientTable(locs, 4, 1)
        # a duplicate beyond the bounds is still ambiguous data
        with pytest.raises(ValueError, match="prime 13"):
            CoefficientTable(degenerate_locals(13) + [PrimeLocalData(13, other)], 4, 1)

    def test_out_of_bounds_is_reported(self, random_table_2500):
        with pytest.raises(IndexBoundsError, match=r"\(2501, 1\)"):
            random_table_2500.value(2501, 1)

    def test_hermitian_symmetry(self, random_table_2500):
        for m in range(1, 31):
            for n in range(1, 31):
                lhs = random_table_2500.value(m, n)
                rhs = random_table_2500.value(n, m).conjugate()
                assert abs(lhs - rhs) <= 1e-9

    def test_coprime_multiplicativity(self, random_table_2500, rng):
        t = random_table_2500
        for _ in range(100):
            m1, m2 = rng.randint(1, 12), rng.randint(1, 12)
            m1p, m2p = rng.randint(1, 12), rng.randint(1, 12)
            if math.gcd(m1 * m2, m1p * m2p) != 1:
                continue
            lhs = t.value(m1 * m1p, m2 * m2p)
            rhs = t.value(m1, m2) * t.value(m1p, m2p)
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))

    @pytest.mark.parametrize("bound_m, bound_n", [(360, 40), (40, 360), (1, 1)])
    def test_value_is_trial_division_bit_for_bit(self, bound_m, bound_n):
        # every cell: m and n that share primes and m and n that share none,
        # the prime powers coming from the sieve of the larger bound
        X = max(bound_m, bound_n)
        table = CoefficientTable(non_tempered_locals(primes_upto(X), random.Random(39)),
                                 bound_m, bound_n)
        cells = [(m, n) for m in range(1, bound_m + 1) for n in range(1, bound_n + 1)]
        assert {math.gcd(m, n) > 1 for m, n in cells} == ({True, False} if X > 1 else {False})
        got = [table.value(m, n) for m, n in cells]
        want = [table_value_trial_division(table, m, n) for m, n in cells]
        assert np.array_equal(entry_bits(got), entry_bits(want))

    def test_csv_export_round_trip(self, tmp_path):
        # the table export is cli's `gen --what table`, on sym^2 tau
        table = CoefficientTable(tau.sym2_tau_locals(6), 6, 2)
        path = tmp_path / "table.csv"
        assert cli.main(["gen", "--what", "table", "--N", "6", "--bound-n", "2",
                         "--out", str(path)]) == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "m,n,re,im"
        assert len(lines) == 1 + 6 * 2
        cells = [line.split(",") for line in lines[1:]]
        assert [(int(m), int(n)) for m, n, _, _ in cells] == [
            (m, n) for m in range(1, 7) for n in (1, 2)]
        assert [complex(float(re), float(im)) for _, _, re, im in cells] == [
            table.value(m, n) for m in range(1, 7) for n in (1, 2)]


def value_walk(table, X, which):
    return np.array([table.value(m, 1 if which == A_M1 else m) for m in range(1, X + 1)])


def entry_bits(values) -> np.ndarray:
    """The bit patterns of complex entries: equal only when every real and
    imaginary part, signed zeros included, is the same double."""
    return np.asarray(values, dtype=complex).view(np.int64)


X_WIDE = 300_000


@pytest.fixture(scope="module")
def random_table_wide():
    """Random tempered data for every prime <= 3 * 10^5, the size of the
    generic-signs benchmark."""
    locs = random_tempered_locals(primes_upto(X_WIDE), random.Random(31))
    return CoefficientTable(locs, X_WIDE, X_WIDE)


class TestRow:
    @pytest.mark.parametrize("which", [A_M1, A_MM])
    def test_matches_value_walk_on_lift(self, tau_table_100k, which):
        row = tau_table_100k.row(100_000, which)
        walk = value_walk(tau_table_100k, 100_000, which)
        assert np.array_equal(row.real, walk.real)
        assert np.array_equal(row.imag, walk.imag)

    def test_matches_value_walk_on_random_tempered(self, random_table_wide):
        # every prime power and 20,000 random m up to 3 * 10^5, bit for bit
        X, table = X_WIDE, random_table_wide
        ms = {q for p in primes_upto(X) for q in powers_upto(p, X)}
        ms |= set(random.Random(32).sample(range(1, X + 1), 20_000))
        ms = sorted(ms)
        for which in (A_MM, A_M1):
            row = table.row(X, which)
            walk = [table.value(m, 1 if which == A_M1 else m) for m in ms]
            assert np.array_equal(entry_bits(row[np.array(ms) - 1]), entry_bits(walk))

    def test_bounds(self):
        table = CoefficientTable(degenerate_locals(50), 50, 1)
        assert len(table.row(50)) == 50
        assert len(table.row(0)) == 0
        assert table.row(1, A_MM).tolist() == [1.0]
        with pytest.raises(IndexBoundsError, match=r"\(51, 1\)"):
            table.row(51)
        with pytest.raises(IndexBoundsError, match=r"\(2, 2\)"):
            table.row(2, A_MM)
        with pytest.raises(ValueError, match="unknown selector"):
            table.row(5, "A_1m")

    def test_built_once_and_read_only(self):
        table = CoefficientTable(degenerate_locals(100), 100, 100)
        head = table.row(10)
        assert np.shares_memory(head, table.row(100))
        with pytest.raises(ValueError):
            head[0] = 2.0


CHUNK = hecke._CHUNK
# N at the edges of the ascending pass's chunks: the last doubling one
# [CHUNK / 2, CHUNK) and the fixed ones after it; around 67^2, where the
# primes p <= sqrt(N) gain 67; and 25,828, where an expansion once ended
SIEVE_NS = [1, 2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK - 1, 2 * CHUNK, 2 * CHUNK + 1,
            67 ** 2 - 1, 67 ** 2, 67 ** 2 + 1, 4 * CHUNK - 1, 4 * CHUNK, 4 * CHUNK + 1,
            25_828, 100_000, X_WIDE]


def non_tempered_locals(primes, rng, radius=1.2):
    """LocalArrays of the triples (r e^{i t1}, e^{i t2} / r, e^{-i(t1 + t2)})
    off the unit circle."""
    triples = []
    for _ in primes:
        t1, t2 = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi)
        triples.append((radius * cmath.exp(1j * t1), cmath.exp(1j * t2) / radius,
                        cmath.exp(-1j * (t1 + t2))))
    return local_arrays_of_triples(primes, triples)


class TestSieveAgainstDense:
    """The ascending sieve against the dense one in rounds of equal omega(m),
    bit for bit, on its chunk edges, where the primes p <= sqrt(N) change,
    and to the size of the generic-signs benchmark."""

    @pytest.fixture(scope="class", params=["tempered", "selfdual", "sym2_tau", "radius_1.2"])
    def local(self, request, random_table_wide):
        primes = primes_upto(X_WIDE)
        return {
            "tempered": lambda: random_table_wide.local,
            "selfdual": lambda: suites.random_selfdual_locals(primes, random.Random(36)),
            "sym2_tau": lambda: tau.sym2_tau_locals(X_WIDE),
            "radius_1.2": lambda: non_tempered_locals(primes, random.Random(37)),
        }[request.param]()

    @pytest.mark.parametrize("N", SIEVE_NS)
    def test_rows_are_the_dense_sieve_bit_for_bit(self, local, N):
        table = CoefficientTable(local, N, N)
        for which in (A_M1, A_MM):
            dense = sieve_row_dense(table, N, which == A_MM)[1:]
            assert np.array_equal(entry_bits(table.row(N, which)), entry_bits(dense))

    def test_non_tempered_row_is_value_bit_for_bit(self):
        X = 5_000
        table = CoefficientTable(non_tempered_locals(primes_upto(X), random.Random(38)), X, X)
        for which in (A_M1, A_MM):
            assert np.array_equal(entry_bits(table.row(X, which)),
                                  entry_bits(value_walk(table, X, which)))


class TestPrimePowerSieve:
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 8, 9, 10, 30, CHUNK + 1, 67 ** 2 + 1])
    def test_at_is_the_full_power_of_the_largest_prime(self, N):
        sieve = hecke.PrimePowerSieve(N)
        assert sieve.powers[:sieve.counts[0]].tolist() == primes_upto(N)
        want = [p ** e for p, e in (factorize(m)[-1] for m in range(2, N + 1))]
        assert sieve.at[:2].tolist() == [0, 0][:N + 1]
        assert sieve.powers[sieve.at[2:]].tolist() == want

    @pytest.mark.parametrize("N", [0, 1])
    def test_no_prime_power_leaves_the_empty_product(self, N):
        # N = 0 has only the unused entry 0
        sieve = hecke.PrimePowerSieve(N)
        empty = np.zeros(0)
        assert sieve.run([hecke._PyComplex(empty, empty)]).tolist() == [0.0, 1.0][:N + 1]

    @pytest.mark.parametrize("N", [-1, -2])
    def test_negative_n_is_refused(self, N):
        # N = -1 built an empty sieve and N = -2 reached numpy's negative
        # dimensions; neither error named N
        with pytest.raises(ValueError, match=f"^prime power sieve needs N >= 0, got N = {N}$"):
            hecke.PrimePowerSieve(N)


def test_row_peaks_within_its_result_and_6_mib(random_table_wide):
    # the dense sieve held int64 q(m) and complex L(q) for every m and all
    # of a round's temporaries at once: 17.6 MiB beside the row at 3 * 10^5
    table = CoefficientTable(random_table_wide.local, X_WIDE, X_WIDE)
    peak, held = traced_peak(lambda: table.row(X_WIDE, A_MM))
    result = 16 * (X_WIDE + 1)
    assert held >= result
    assert peak <= result + 6 * 2 ** 20


def test_row_sieve_frees_its_expansion_before_the_rounds(random_table_wide):
    # beside the row at 3 * 10^5 the sieve holds at, the powers and their
    # values, and one chunk's temporaries: 2.2 MiB; chunks of 2^14 take 3.2
    table = CoefficientTable(random_table_wide.local, X_WIDE, X_WIDE)
    peak, _ = traced_peak(lambda: table.row(X_WIDE, A_MM))
    assert peak <= 16 * (X_WIDE + 1) + 3 * 2 ** 20


class TestLocalArrays:
    def test_from_records_is_the_properties_bit_for_bit(self):
        recs = tempered_records(primes_upto(X_WIDE), random.Random(33))
        local = LocalArrays.from_records(recs)
        assert local.primes.tolist() == [rec.p for rec in recs]
        for name in ("e1", "e2"):
            want = [getattr(rec.satake, name) for rec in recs]
            assert np.array_equal(entry_bits(getattr(local, name)), entry_bits(want))

    def test_table_from_arrays_equals_table_from_records(self):
        # the same data as records and as arrays given in descending order
        X = 30_000
        recs = tempered_records(primes_upto(X), random.Random(34))
        local = LocalArrays([rec.p for rec in recs][::-1], [rec.satake.e1 for rec in recs][::-1],
                            [rec.satake.e2 for rec in recs][::-1])
        tables = [CoefficientTable(recs, X, X), CoefficientTable(local, X, X)]
        for which in (A_M1, A_MM):
            rows = [entry_bits(t.row(X, which)) for t in tables]
            assert np.array_equal(*rows)
        rng = random.Random(35)
        cells = [(rng.randint(1, X), rng.randint(1, X)) for _ in range(2_000)]
        cells += [(p, 1) for p in primes_upto(X)]
        values = [entry_bits([t.value(m, n) for m, n in cells]) for t in tables]
        assert np.array_equal(*values)

    @pytest.mark.parametrize("primes, e1, e2, message", [
        ([2, 3, 4], [1, 1, 1], [1, 1, 1], "4 is not prime"),
        ([2, 1, 3], [1, 1, 1], [1, 1, 1], "1 is not prime"),
        ([2, 3, 2], [1, 1, 1], [1, 1, 1], "more than one local data for prime 2"),
        ([2, 3, 5], [1, math.nan, 1], [1, 1, 1], "local data at prime 3 is not finite"),
        ([2, 3, 5], [1, 1, 1], [1, 1, complex(1, math.nan)], "local data at prime 5 is not finite"),
        ([2, 3, 5], [1, 1, math.inf], [1, 1, 1], "local data at prime 5 is not finite"),
        ([2, 3, 5], [1, 2, 3, 4], [1, 2, 3], "3 primes, 4 e1 and 3 e2"),
        ([2, 3, 5, 7], [1, 2, 3], [1, 2, 3], "4 primes, 3 e1 and 3 e2"),
    ], ids=["composite", "one", "duplicate", "nan_e1", "nan_e2_imag", "inf_e1",
            "e1_longer", "primes_longer"])
    def test_refusals(self, primes, e1, e2, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            LocalArrays(primes, e1, e2)

    @pytest.mark.parametrize("primes", [[5.7], [2.0, 3.0], np.array([2.5, 3.9]), [2, 3.5]])
    def test_non_integer_primes_are_refused_not_truncated(self, primes):
        # np.asarray(primes, dtype=np.int64) once read 5.7 as the prime 5
        message = r"^primes must be integers, got dtype float64$"
        with pytest.raises(TypeError, match=message):
            LocalArrays(primes, [1.0] * len(primes), [1.0] * len(primes))
        with pytest.raises(TypeError, match=message):
            sym2_lift(primes, [1.0] * len(primes))
        records = [PrimeLocalData(p, SatakeTriple.from_angles(0.1, 0.2)) for p in primes]
        with pytest.raises(TypeError, match=message):
            LocalArrays.from_records(records)

    def test_integer_primes_of_any_width_are_accepted(self):
        want = LocalArrays([3, 2], [1.0, 2.0], [1.0, 2.0])
        for primes in (np.array([3, 2], np.int32), np.array([3, 2], np.uint64),
                       [np.int64(3), np.int64(2)]):
            got = LocalArrays(primes, [1.0, 2.0], [1.0, 2.0])
            assert got.primes.dtype == np.int64 and got.primes.tolist() == [2, 3]
            assert got.e1.tobytes() == want.e1.tobytes()
        records = [PrimeLocalData(np.int64(5), SatakeTriple.from_angles(0.1, 0.2))]
        assert LocalArrays.from_records(records).primes.tolist() == [5]
        assert LocalArrays.from_records([]).primes.dtype == np.int64

    def test_lift_refuses_non_tempered_lambda(self):
        with pytest.raises(NonTemperedError,
                           match=r"^\|lambda\(p\)\| > 2 at primes \[3, 5\]; lift needs tempered input$"):
            sym2_lift([2, 3, 5], [1.0, 2.5, math.nan])

    @pytest.mark.parametrize("primes, lam", [([2, 3, 5], [1.0, 0.5]), ([2], [1.0, 0.5]),
                                             ([], [1.0]), ([2], [])])
    def test_lift_refuses_unequal_lengths(self, primes, lam):
        # a ValueError naming both lengths, not the IndexError of the mask
        message = f"^{len(primes)} primes and {len(lam)} lambda$"
        with pytest.raises(ValueError, match=message):
            sym2_lift(primes, lam)
        with pytest.raises(ValueError, match=message):
            sym2_lift(np.array(primes, dtype=np.int64), np.array(lam, dtype=float))

    def test_lift_of_lists_is_the_lift_of_arrays_bit_for_bit(self):
        primes = primes_upto(2000)
        lam = np.random.default_rng(34).uniform(-2.0, 2.0, len(primes))
        lam[:4] = (2.0, -2.0, 2.0 + 0.5 * hecke.UNIT_TOL, -0.0)
        got = [sym2_lift(primes, lam.tolist()), sym2_lift(np.array(primes), lam),
               sym2_lift(prime_array(2000), list(lam))]
        for a in ("primes", "e1", "e2"):
            bits = [getattr(local, a).view(np.int64) for local in got]
            assert all(np.array_equal(bits[0], b) for b in bits[1:])
            assert getattr(got[0], a).dtype == (np.int64 if a == "primes" else complex)

    def test_lift_of_nothing_is_empty(self):
        for primes, lam in (([], []), (np.array([], dtype=np.int64), np.array([]))):
            local = sym2_lift(primes, lam)
            assert (local.primes.dtype, local.e1.dtype, local.e2.dtype) == (np.int64, complex, complex)
            assert len(local.primes) == len(local.e1) == len(local.e2) == 0
            assert CoefficientTable(local, 1, 1).value(1, 1) == 1.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_lift_refuses_non_finite_lambda(self, bad):
        for primes, lam in (([2], [bad]), (np.array([2, 3]), np.array([0.5, bad]))):
            with pytest.raises(NonTemperedError, match=rf"at primes \[{primes[-1]}\];"):
                sym2_lift(primes, lam)

    def test_read_only(self):
        local = LocalArrays([3, 2], [1.0, 2.0], [1.0, 2.0])
        assert local.primes.tolist() == [2, 3] and local.e1.tolist() == [2.0, 1.0]
        for a in (local.primes, local.e1, local.e2):
            with pytest.raises(ValueError):
                a[0] = 0


@pytest.mark.parametrize("seed", [0, 1, 33])
def test_random_tempered_locals_are_the_records_bit_for_bit(seed):
    # one pass over numpy arrays, from the same draws as one SatakeTriple per
    # prime: e1 and e2 equal the records' properties to the bit
    primes = primes_upto(X_WIDE)
    local = random_tempered_locals(primes, random.Random(seed))
    want = LocalArrays.from_records(tempered_records(primes, random.Random(seed)))
    assert np.array_equal(local.primes, want.primes)
    for name in ("e1", "e2"):
        assert np.array_equal(entry_bits(getattr(local, name)), entry_bits(getattr(want, name)))
    assert random_tempered_locals([], random.Random(seed)).primes.tolist() == []


def test_suites_build_no_per_prime_records(monkeypatch):
    # the random tempered data of the hecke and euler suites are arrays
    def refuse(*args, **kwargs):
        raise AssertionError("a per-prime record was built or converted")

    for cls in (SatakeTriple, PrimeLocalData):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(LocalArrays, "from_records", refuse)
    assert suites.all_passed(suites.suite_hecke(0))
    assert suites.all_passed(suites.suite_euler(0))


def test_sym2_path_builds_no_per_prime_records(monkeypatch):
    # the sym^2 lift of tau goes from the packed tau words to the table in
    # arrays: no SatakeTriple or PrimeLocalData on the way, and suite_signs
    # reads its windows from the window_sums arrays, not one x at a time;
    # suite_schur evaluates the triple (1, 1, 1) from e1 = e2 = 3
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built on the sym^2 path")

    def refuse_window(*args):
        raise AssertionError("suite_signs read a window through short_interval_sums")

    for cls in (SatakeTriple, PrimeLocalData):
        monkeypatch.setattr(cls, "__init__", refuse)
    monkeypatch.setattr(signstats, "short_interval_sums", refuse_window)
    assert len(tau.sym2_tau_locals(10**4).primes) == 1229
    assert suites.all_passed(suites.suite_signs(0))
    assert suites.all_passed(suites.suite_schur(0))


def powers_upto(p, X):
    q = p
    while q <= X:
        yield q
        q *= p


class TestPrimeValuesAgainstScalarRecords:
    """Every prime's local value in a row, against schur_from_elementary on
    the table's e1 and e2 as Python complex scalars: Python's scalar complex
    arithmetic, apart from the _PyComplex arrays the row is made with.  A row
    holds A(p, p^b) = 1 * L(p), value()'s product started from one."""

    @staticmethod
    def check(table, X):
        primes = primes_upto(X)
        local = table.local
        e = dict(zip(local.primes.tolist(), zip(local.e1.tolist(), local.e2.tolist())))
        for which, b in ((A_M1, 0), (A_MM, 1)):
            row = table.row(X, which)
            want = [(1.0 + 0.0j) * schur_from_elementary(1, b, *e[p]) for p in primes]
            assert np.array_equal(entry_bits(row[np.array(primes) - 1]), entry_bits(want))

    def test_random_tempered_to_3e5(self, random_table_wide):
        self.check(random_table_wide, X_WIDE)

    def test_sym2_tau_to_1e5(self, tau_table_100k):
        self.check(tau_table_100k, 100_000)


class TestPythonComplexRing:
    @staticmethod
    def parts(rng, n):
        """Finite doubles over a wide range of scales, with signed zeros and
        exact ones mixed in."""
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150, n)
        special = rng.integers(0, 6, n)
        x[special == 0] = 0.0
        x[special == 1] = -0.0
        x[special == 2] = rng.choice([1.0, -1.0], n)[special == 2]
        return x

    def test_operations_round_as_python_complex(self):
        rng = np.random.default_rng(7)
        n = 20_000
        ar, ai, br, bi = (self.parts(rng, n) for _ in range(4))
        a, b = hecke._PyComplex(ar, ai), hecke._PyComplex(br, bi)
        xs = [complex(r, i) for r, i in zip(ar.tolist(), ai.tolist())]
        ys = [complex(r, i) for r, i in zip(br.tolist(), bi.tolist())]
        for got, want in ((a + b, [x + y for x, y in zip(xs, ys)]),
                          (a - b, [x - y for x, y in zip(xs, ys)]),
                          (a * b, [x * y for x, y in zip(xs, ys)]),
                          (a ** 0, [x ** 0 for x in xs])):
            pairs = np.stack([got.re, got.im], axis=1)
            assert np.array_equal(pairs.view(np.int64).ravel(), entry_bits(want))
        with pytest.raises(TypeError):  # only ** 0, the ring's one, is defined
            a ** 1

    def test_numpy_complex_multiply_in_its_place_is_seen(self, monkeypatch):
        # negative control: numpy's complex128 multiply may fuse a multiply
        # and an add, so a row made with it differs from value() somewhere
        rng = np.random.default_rng(8)
        a = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        b = rng.standard_normal(10_000) + 1j * rng.standard_normal(10_000)
        python = [x * y for x, y in zip(a.tolist(), b.tolist())]
        if np.array_equal(entry_bits(a * b), entry_bits(python)):
            pytest.skip("numpy's complex multiply rounds as Python's on this CPU")

        def numpy_mul(self, other):
            prod = (self.re + 1j * self.im) * (other.re + 1j * other.im)
            return hecke._PyComplex(prod.real.copy(), prod.imag.copy())

        monkeypatch.setattr(hecke._PyComplex, "__mul__", numpy_mul)
        X = 30_000
        table = CoefficientTable(random_tempered_locals(primes_upto(X), random.Random(31)), X, X)
        walk = value_walk(table, X, A_MM)
        assert not np.array_equal(entry_bits(table.row(X, A_MM)), entry_bits(walk))


class TestHeckeResidual:
    def test_trivial_m_one(self, random_table_2500):
        assert hecke_residual(random_table_2500, 1, 7, 9) == pytest.approx(0.0, abs=1e-12)

    def test_square_relation_at_prime(self, random_table_2500):
        # A(p,1)^2 = A(p^2,1) + A(1,p)
        for p in (2, 3, 5, 7):
            assert hecke_residual(random_table_2500, p, p, 1) <= 1e-10

    def test_prime_five_triple(self, random_table_2500):
        assert hecke_residual(random_table_2500, 5, 5, 5) <= 1e-8

    def test_random_triples(self, random_table_2500, rng):
        for _ in range(200):
            m = rng.randint(1, 50)
            m1 = rng.randint(1, 50)
            m2 = rng.randint(1, 50)
            assert hecke_residual(random_table_2500, m, m1, m2) <= 1e-8

    def test_out_of_bounds_names_offending_index(self):
        table = CoefficientTable(degenerate_locals(10), 10, 10)
        # the divisor sum needs A(25, 1), which lies outside the bounds
        with pytest.raises(IndexBoundsError, match=r"\(25, 1\)"):
            hecke_residual(table, 5, 5, 1)


class TestMobiusExpand:
    def test_row_is_identity(self, random_table_2500):
        for m in (1, 7, 30, 49):
            assert mobius_expand(random_table_2500, m, 1) == random_table_2500.value(m, 1)

    def test_prime_diagonal_modulus_identity(self, random_table_2500):
        # A(p,p) = |A(p,1)|^2 - 1 for Hermitian data
        for p in (2, 3, 5, 7, 11):
            expanded = mobius_expand(random_table_2500, p, p)
            a = random_table_2500.value(p, 1)
            assert abs(expanded - (abs(a) ** 2 - 1.0)) <= 1e-10

    def test_reproduces_all_entries_to_50(self, random_table_2500):
        for m1 in range(1, 51):
            for m2 in range(1, 51):
                got = mobius_expand(random_table_2500, m1, m2)
                assert abs(got - random_table_2500.value(m1, m2)) <= 1e-8


class TestSym2Lift:
    @staticmethod
    def lift(lam):
        local = sym2_lift([2], [lam])
        return local.e1[0], local.e2[0]

    def test_extreme_eigenvalue_two(self):
        # the triple (1, 1, 1), at lambda = -2 as at 2
        for lam in (2.0, -2.0):
            assert self.lift(lam) == (3.0, 3.0)

    def test_zero_eigenvalue(self):
        # the triple (-1, 1, -1)
        assert self.lift(0.0) == (-1.0, -1.0)

    def test_eigenvalue_one_gives_vanishing_coefficient(self):
        assert self.lift(1.0) == (0.0, 0.0)
        assert self.lift(-1.0) == (0.0, 0.0)

    def test_lift_coefficient_identities(self, rng):
        primes = [2, 3, 5, 7, 11, 13]
        lams = [rng.uniform(-2.0, 2.0) for _ in primes]
        local = sym2_lift(primes, lams)
        assert local.primes.tolist() == primes
        for e1, e2, lam in zip(local.e1.tolist(), local.e2.tolist(), lams):
            a1 = schur_from_elementary(1, 0, e1, e2)
            app = schur_from_elementary(1, 1, e1, e2)
            assert a1.imag == 0.0
            assert abs(a1 - (lam * lam - 1.0)) < 1e-10
            assert abs(app - (a1 * a1 - 1.0)) < 1e-10
            assert -1.0 - 1e-12 <= a1.real <= 3.0 + 1e-12

    def test_within_unit_tol_of_two_is_the_degenerate_triple(self):
        for lam in (2.0 + 1e-12, -2.0 - 1e-12):
            assert self.lift(lam) == (3.0, 3.0)

    def test_near_the_old_lift(self):
        # lambda^2 - 1 against the triple (beta^2, 1, beta^-2) built from acos
        # and exp, for 10^4 random lambda and the edges of [-2, 2]
        rng = np.random.default_rng(24)
        lams = np.concatenate([rng.uniform(-2.0, 2.0, 10_000), [2.0, -2.0, 0.0, 1.0, -1.0]])
        primes = primes_upto(200_000)[:len(lams)]
        local = sym2_lift(primes, lams)
        old = [sym2_triple_by_angles(lam) for lam in lams.tolist()]
        for got, want in ((local.e1, [x.e1 for x in old]), (local.e2, [x.e2 for x in old])):
            assert np.max(np.abs(got - np.array(want))) <= 1e-14

    def test_non_tempered_input_lists_primes(self):
        with pytest.raises(NonTemperedError, match=r"\[3, 7\]"):
            sym2_lift([2, 3, 7], [1.0, 2.5, -2.2])

    def test_gl2_ramanujan_flag_enforced(self):
        # the Ramanujan test |lambda| <= 2 + UNIT_TOL is sym2_lift's gate
        cases = [
            ([2, 3, 5], [1.0, -2.0, 0.0], None),
            ([2, 3], [1.0, 2.0 + 0.5 * hecke.UNIT_TOL], None),
            ([2], [2.5], r"\[2\]"),
            ([2, 3], [1.0, 2.5], r"\[3\]"),
            ([2, 3, 5], [1.0, 0.5, -2.0 - 2 * hecke.UNIT_TOL], r"\[5\]"),
        ]
        for primes, lam, refused in cases:
            if refused is None:
                assert sym2_lift(primes, lam).primes.tolist() == primes
            else:
                with pytest.raises(NonTemperedError, match=refused):
                    sym2_lift(primes, lam)

    def test_lift_within_unit_tol_of_2_is_the_triple_1_1_1(self):
        # |lambda| <= 2 + UNIT_TOL is tempered, and lambda is taken as +-2,
        # the triple (1, 1, 1), whose e1 and e2 are 3
        local = sym2_lift([2, 3], [2.0000000000001, -2.0000000000001])
        assert (local.e1.tolist(), local.e2.tolist()) == ([3.0, 3.0], [3.0, 3.0])

    def test_nan_lambda_is_not_tempered(self):
        # |nan| > 2 is false, so a NaN once passed the test and the lift
        # clamped it to lambda = -2, which gives A(2, 1) = 3
        for primes, lam, refused in (([2, 3], [1.0, math.nan], r"\[3\]"),
                                     ([2], [math.nan], r"\[2\]")):
            with pytest.raises(NonTemperedError, match=refused):
                sym2_lift(primes, lam)

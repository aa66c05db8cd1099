import gc
import math
import random
import re
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gl3hecke.hecke import (
    A_M1,
    A_MM,
    CoefficientTable,
    IndexBoundsError,
    PrimeLocalData,
    SatakeTriple,
)
from gl3hecke.arith import factorize, primes_upto
from gl3hecke import signstats
from gl3hecke.suites import random_tempered_locals
from gl3hecke.signstats import (
    _BLOCK as BLOCK,
    RealSequence,
    ShortIntervalConfig,
    count_sign_changes,
    interval_change_scan,
    nonvanishing_density,
    partial_sum_abs,
    rankin_selberg_ratio,
    sequence_from_table,
    short_interval_sums,
    sign_balance,
)
from conftest import traced_peak
from oracles import (
    count_sign_changes_loop,
    d3,
    interval_change_scan_walk,
    local_arrays_of_triples,
    short_interval_sums_loop,
)

DEGENERATE = SatakeTriple(1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
TOL = 1e-12
# entries that sit in the zero band, on its edges, or repeat one sign
EDGE_ENTRIES = st.sampled_from([0.0, -0.0, TOL, -TOL, 1e-15, 2e-12, -2e-12, 1.0, -1.0, 3.5])


def degenerate_table(bound_m, bound_n=1):
    locs = [PrimeLocalData(p, DEGENERATE) for p in primes_upto(max(bound_m, bound_n))]
    return CoefficientTable(locs, bound_m, bound_n)


class RowFromValue:
    """row() of a toy table, assembled entry by entry from its value()."""

    def row(self, X, which=A_M1):
        return np.array([self.value(m, 1 if which == A_M1 else m) for m in range(1, X + 1)],
                        dtype=complex)


class ToyTable(RowFromValue):
    """Fully multiplicative toy coefficients: value 0 at powers of the listed
    primes, 1 elsewhere; value(m, m) mirrors value(m, 1)."""

    def __init__(self, vanishing_primes, bound):
        self.vanishing = set(vanishing_primes)
        self.bound_m = self.bound_n = bound

    def value(self, m, n):
        assert n in (1, m)
        if any(p in self.vanishing for p, _ in factorize(m)):
            return 0.0 + 0.0j
        return 1.0 + 0.0j


class AlternatingTable(RowFromValue):
    """value(m, 1) = (-1)^m; not multiplicative, used for window scanning."""

    def __init__(self, bound):
        self.bound_m = self.bound_n = bound

    def value(self, m, n):
        return complex((-1) ** m)


class TestCountSignChanges:
    def test_basic_alternation(self):
        rep = count_sign_changes(RealSequence([1.0, -1.0, 1.0]))
        assert rep.changes == 2

    def test_zero_is_skipped_not_counted(self):
        rep = count_sign_changes(RealSequence([1.0, 0.0, -1.0]))
        assert rep.changes == 1
        assert rep.zeros == 1

    def test_all_zero(self):
        rep = count_sign_changes(RealSequence([0.0, 0.0, 0.0]))
        assert rep.changes == 0
        assert rep.zeros == 3

    def test_counts_partition_length(self):
        rep = count_sign_changes(RealSequence([1.0, -2.0, 0.0, 3.0, 0.0]))
        assert rep.positives + rep.negatives + rep.zeros == 5

    def test_invariant_under_positive_scaling(self):
        values = [0.3, -1.2, 0.0, 2.0, -4.0, 4.0]
        base = count_sign_changes(RealSequence(values))
        scaled = count_sign_changes(RealSequence([7.5 * v for v in values]))
        assert base == scaled

    def test_negation_swaps_positive_negative(self):
        values = [0.3, -1.2, 0.0, 2.0, -4.0, 4.0]
        base = count_sign_changes(RealSequence(values))
        flipped = count_sign_changes(RealSequence([-v for v in values]))
        assert flipped.changes == base.changes
        assert flipped.positives == base.negatives
        assert flipped.negatives == base.positives

    def test_zero_tolerance_threshold(self):
        rep = count_sign_changes(RealSequence([1.0, 1e-15, -1.0]), zero_tol=1e-12)
        assert rep.changes == 1
        assert rep.zeros == 1

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(EDGE_ENTRIES, st.floats()), max_size=80),
           st.sampled_from([0.0, TOL, 0.5]))
    @example([], TOL)
    @example([0.0, -0.0, 0.0], TOL)
    @example([TOL, -TOL, 1.0, TOL, -1.0, -TOL], TOL)
    @example([1.0, 1.0, 2.0, -1.0, -3.0, -3.0, 0.0, 5.0, 5.0], TOL)
    def test_matches_entry_loop(self, values, zero_tol):
        got = count_sign_changes(RealSequence(values), zero_tol)
        assert got == count_sign_changes_loop(values, zero_tol)


class TestShortIntervalSums:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShortIntervalConfig(X=100, H=5, M=5)
        with pytest.raises(ValueError):
            ShortIntervalConfig(X=100, H=200, M=3)

    def test_triangle_inequality(self, tau_table_100k):
        cfg = ShortIntervalConfig(X=10_000, H=252, M=3)
        for x in (10_000, 15_000, 19_000):
            sums = short_interval_sums(tau_table_100k, cfg, x)
            assert sums["S1"] <= sums["S2"] + 1e-12

    def test_equality_for_single_signed_data(self):
        table = degenerate_table(3000)
        cfg = ShortIntervalConfig(X=1000, H=40, M=4)
        sums = short_interval_sums(table, cfg, 1200)
        assert sums["S1"] == pytest.approx(sums["S2"], rel=1e-12)
        assert sums["S2"] > 0

    def test_strict_inequality_on_mixed_sign_data(self, tau_table_100k):
        cfg = ShortIntervalConfig(
            X=10_000, H=math.ceil(10_000 ** 0.6), M=math.ceil(10_000 ** 0.1)
        )
        sums = short_interval_sums(tau_table_100k, cfg, 10_000)
        assert sums["S1"] < sums["S2"]

    def test_x_must_be_dyadic(self, tau_table_100k):
        cfg = ShortIntervalConfig(X=10_000, H=100, M=3)
        with pytest.raises(ValueError):
            short_interval_sums(tau_table_100k, cfg, 9_000)

    @pytest.mark.parametrize("X", [10_000, 10_437])
    def test_matches_window_loop_on_lift(self, tau_table_100k, X):
        cfg = ShortIntervalConfig(X=X, H=5, M=3)
        for x in range(X, 2 * X + 1):
            assert short_interval_sums(tau_table_100k, cfg, x) == \
                short_interval_sums_loop(tau_table_100k, cfg, x)

    def test_matches_window_loop_on_complex_data(self, complex_table):
        cfg = ShortIntervalConfig(X=5_000, H=300, M=6)
        for x in [*range(5_000, 10_000, 37), 10_000]:
            assert short_interval_sums(complex_table, cfg, x) == \
                short_interval_sums_loop(complex_table, cfg, x)

    def test_windows_whose_terms_all_vanish(self):
        # A(n, 1) = 0 at even n and 1 at odd n: a window whose coprime
        # products mk are all even sums to exactly zero
        cfg = ShortIntervalConfig(X=100, H=3, M=2)
        table = ToyTable([2], 2 * cfg.X + cfg.H)
        sums = [short_interval_sums(table, cfg, x) for x in range(100, 201)]
        assert sums == [short_interval_sums_loop(table, cfg, x) for x in range(100, 201)]
        zero = [s for s in sums if s == {"S1": 0.0, "S2": 0.0}]
        assert 0 < len(zero) < len(sums)

    def test_independent_of_call_order(self, tau_table_100k, complex_table):
        # fresh copies of the tables, so that no window sum is memoised yet
        tables = [CoefficientTable(t.local, t.bound_m, t.bound_n)
                  for t in (tau_table_100k, complex_table)]
        cfgs = [ShortIntervalConfig(X=2_000, H=40, M=4), ShortIntervalConfig(X=2_000, H=7, M=2)]
        xs = range(4_000, 1_999, -3)
        want = {(i, c, x): short_interval_sums_loop(t, c, x)
                for i, t in enumerate(tables) for c in cfgs for x in xs}
        for x in xs:
            for i, t in enumerate(tables):
                for c in cfgs[::-1] if x % 2 else cfgs:
                    assert short_interval_sums(t, c, x) == want[i, c, x]

    def test_memo_entry_is_freed_with_its_table(self):
        # one entry, the latest (table, cfg): a call for another table
        # replaces it, and the entry is emptied when its own table dies
        cfg = ShortIntervalConfig(X=100, H=8, M=2)
        table, other = degenerate_table(300), degenerate_table(300)
        short_interval_sums(table, cfg, 150)
        assert signstats._latest[0][0]() is table and signstats._latest[0][1] is cfg
        short_interval_sums(other, cfg, 150)
        del table  # the replaced entry took its weakref and callback with it
        gc.collect()
        assert signstats._latest[0][0]() is other
        ref = weakref.ref(other)
        del other
        gc.collect()
        assert ref() is None
        assert signstats._latest == {}

    def test_a_walk_computes_its_windows_once(self, monkeypatch):
        calls = []
        real = signstats.window_sums
        monkeypatch.setattr(signstats, "window_sums", lambda t, c: calls.append(c) or real(t, c))
        table = degenerate_table(300)
        cfg = ShortIntervalConfig(X=100, H=8, M=2)
        walk = [short_interval_sums(table, cfg, x) for x in range(100, 201)]
        assert calls == [cfg]
        # an equal cfg that is another object computes the windows again
        again = ShortIntervalConfig(X=100, H=8, M=2)
        assert [short_interval_sums(table, again, x) for x in range(100, 201)] == walk
        assert len(calls) == 2 and calls[1] is again

    def test_table_must_reach_2X_plus_H(self):
        # the window at x = X ends near 108, but the table must reach 208
        cfg = ShortIntervalConfig(X=100, H=8, M=2)
        table = degenerate_table(2 * cfg.X + cfg.H - 1)
        for x in (cfg.X, 2 * cfg.X):
            with pytest.raises(IndexBoundsError):
                short_interval_sums(table, cfg, x)
        with pytest.raises(IndexBoundsError):
            interval_change_scan(table, cfg)


class TestIntervalChangeScan:
    def test_single_sign_data_has_no_changes(self):
        table = degenerate_table(2100)
        scan = interval_change_scan(table, ShortIntervalConfig(X=1000, H=20, M=2))
        assert scan["with_change"] == 0

    def test_alternating_data_changes_everywhere(self):
        scan = interval_change_scan(
            AlternatingTable(5000), ShortIntervalConfig(X=1000, H=4, M=2)
        )
        assert scan["with_change"] == scan["total_x"]

    def test_lift_data_changes_often(self, tau_table_100k):
        X = 10_000
        cfg = ShortIntervalConfig(X=X, H=math.ceil(X ** (1.0 / 6.0)), M=3)
        scan = interval_change_scan(tau_table_100k, cfg)
        assert scan["with_change"] / scan["total_x"] >= 0.5

    def test_matches_window_walk_on_lift(self, tau_table_100k):
        for X, H in ((10_000, 5), (10_000, 10), (2_000, 3), (1_000, 40), (30_000, 8)):
            cfg = ShortIntervalConfig(X=X, H=H, M=2)
            assert interval_change_scan(tau_table_100k, cfg) == \
                interval_change_scan_walk(tau_table_100k, cfg)

    def test_matches_window_walk_with_vanishing_primes(self):
        # A(m, 1) = 0 whenever 2 or 3 divides m; the rest alternate in sign
        # along the nonzero entries, so windows need the zero-skipping walk
        class Table(RowFromValue):
            def value(self, m, n):
                if m % 2 == 0 or m % 3 == 0:
                    return 0.0 + 0.0j
                return complex((-1) ** (m // 6))

        for X, H in ((100, 2), (100, 3), (500, 5), (500, 9), (1_000, 16)):
            cfg = ShortIntervalConfig(X=X, H=H, M=1)
            assert interval_change_scan(Table(), cfg) == interval_change_scan_walk(Table(), cfg)
        cfg = ShortIntervalConfig(X=400, H=12, M=2)
        toy = ToyTable([2, 5], 2 * cfg.X + cfg.H)
        assert interval_change_scan(toy, cfg) == interval_change_scan_walk(toy, cfg)


class TestNonvanishingDensity:
    def test_no_vanishing_primes(self):
        table = degenerate_table(500)
        rec = nonvanishing_density(table, 500)
        assert rec["rhs"] == 1.0
        assert rec["lhs"] == 1.0

    def test_vanishing_at_two(self):
        rec = nonvanishing_density(ToyTable({2}, 10_000), 10_000)
        assert rec["lhs"] == pytest.approx(0.5)
        assert rec["rhs"] == pytest.approx(0.5)
        assert rec["ratio"] == pytest.approx(1.0)

    def test_nan_is_nonzero_as_in_the_sign_counts(self):
        # one zero test for both statistics: a NaN entry, here at the prime 2,
        # is kept by the sign counts, so it must count as non-vanishing too
        class Table(RowFromValue):
            def value(self, m, n):
                return complex([1.0, math.nan, -1.0, 0.5, 2.0][m - 1])

        rec = nonvanishing_density(Table(), 5)
        counts = count_sign_changes(sequence_from_table(Table(), 5))
        assert counts.zeros == 0
        assert rec["lhs"] * 5 == counts.positives + counts.negatives
        assert rec["rhs"] == 1.0

    def test_sieve_product_reproduced_within_ten_percent(self):
        X = 100_000
        rec = nonvanishing_density(ToyTable({3, 7, 19}, X), X)
        assert abs(rec["ratio"] - 1.0) <= 0.1

    def test_lift_data_ratio(self, tau_table_100k):
        rec = nonvanishing_density(tau_table_100k, 100_000)
        assert 0.5 <= rec["ratio"] <= 2.0


class TestPartialSums:
    def test_single_entry(self):
        table = degenerate_table(10)
        assert partial_sum_abs(table, 1) == pytest.approx(1.0)

    def test_degenerate_matches_triple_divisor_sum(self):
        table = degenerate_table(1000)
        expected = float(sum(d3(m) for m in range(1, 1001)))
        assert partial_sum_abs(table, 1000) == pytest.approx(expected, rel=1e-12)

    def test_lift_data_lower_bound(self, tau_table_100k):
        X = 100_000
        assert partial_sum_abs(tau_table_100k, X) >= X ** 0.9


def left_sum(values, start):
    for v in values:
        start += v
    return start


@pytest.fixture(scope="module")
def complex_table():
    """Random tempered table: A(m, 1) complex for m <= 20_000."""
    X = 20_000
    return CoefficientTable(random_tempered_locals(primes_upto(X), random.Random(7)), X, 1)


class TestComplexSums:
    """On complex A(m, 1) the row sums equal the entry-by-entry loops bit for bit."""

    def test_partial_sum_abs(self, complex_table):
        want = left_sum((abs(complex_table.value(m, 1)) for m in range(1, 20_001)), 0.0)
        assert partial_sum_abs(complex_table, 20_000) == want

    def test_rankin_selberg_ratio(self, complex_table):
        for X in (1, 999, 20_000):
            squares = (abs(complex_table.value(m, 1)) ** 2 for m in range(1, X + 1))
            assert rankin_selberg_ratio(complex_table, X) == left_sum(squares, 0.0) / X

    def test_short_interval_sums(self, complex_table):
        cfg = ShortIntervalConfig(X=5_000, H=300, M=6)
        for x in (5_000, 7_321, 10_000):
            vals = [complex_table.value(m * k, 1) for m in range(6, 13)
                    for k in range(-(-x // m), (x + 300) // m + 1) if math.gcd(m, k) == 1]
            want = {"S1": abs(left_sum(vals, 0j)), "S2": left_sum(map(abs, vals), 0.0)}
            assert short_interval_sums(complex_table, cfg, x) == want


class TestSignBalance:
    def test_alternating(self):
        bal = sign_balance(AlternatingTable(100), 100)
        assert bal == {"pos_frac": 0.5, "neg_frac": 0.5}

    def test_all_positive(self):
        bal = sign_balance(degenerate_table(100), 100)
        assert bal == {"pos_frac": 1.0, "neg_frac": 0.0}

    def test_lift_data_is_balanced(self, tau_table_100k):
        bal = sign_balance(tau_table_100k, 100_000)
        assert abs(bal["pos_frac"] - 0.5) <= 0.1


class TestCalibrations:
    def test_rankin_selberg_window(self, tau_table_100k):
        for X in (1_000, 10_000, 100_000):
            assert 0.1 <= rankin_selberg_ratio(tau_table_100k, X) <= 10.0

    def test_negativity_detector_inequalities(self):
        # (a^2 - 3a)/4 <= 1_{a<0} on [-1, 3] and (a^2 - 8a)/9 <= 1_{a<0} on [-1, 8]
        n = 4000
        for i in range(n + 1):
            a = -1.0 + 4.0 * i / n
            assert (a * a - 3.0 * a) / 4.0 <= (1.0 if a < 0 else 0.0) + 1e-12
        for i in range(n + 1):
            a = -1.0 + 9.0 * i / n
            assert (a * a - 8.0 * a) / 9.0 <= (1.0 if a < 0 else 0.0) + 1e-12

    def test_lift_sign_change_count(self, tau_table_100k):
        X = 100_000
        seq = sequence_from_table(tau_table_100k, X)
        rep = count_sign_changes(seq)
        assert rep.changes >= X ** (5.0 / 6.0) / 10.0

    def test_complex_entry_is_named(self):
        # real A(m, 1) and A(m, m) below 7: self-dual triples (e^{it}, 1, e^{-it});
        # at 7 a non-tempered triple whose A(7, 1) and A(7, 7) are complex
        primes = primes_upto(60)
        triples = [(2.0, 0.5j, -1j) if p == 7 else (x.alpha1, x.alpha2, x.alpha3)
                   for p, x in ((p, SatakeTriple.from_angles(0.3 * p, 0.0)) for p in primes)]
        table = CoefficientTable(local_arrays_of_triples(primes, triples), 60, 60)
        with pytest.raises(ValueError, match=r"^A\(7,1\) has non-negligible imaginary part"):
            sequence_from_table(table, 60)
        with pytest.raises(ValueError, match=r"^A\(7,7\) has non-negligible imaginary part"):
            sign_balance(table, 60, A_MM)
        # the scan reads m in [10, 28]; its first complex entry is A(14, 1)
        with pytest.raises(ValueError, match=r"^A\(14,1\) has non-negligible imaginary part"):
            interval_change_scan(table, ShortIntervalConfig(X=10, H=8, M=2))
        assert len(sequence_from_table(table, 6)) == 6

    def test_sequence_extraction_rejects_complex(self):
        locs = [
            PrimeLocalData(p, SatakeTriple.from_angles(0.4, 1.3))
            for p in primes_upto(50)
        ]
        table = CoefficientTable(locs, 50, 1)
        with pytest.raises(ValueError):
            sequence_from_table(table, 50)


class FixedRow:
    """A table whose rows are slices of one given complex array."""

    def __init__(self, entries):
        self.entries = entries

    def row(self, X, which=A_M1):
        return self.entries[:X]


class TestRealView:
    """The sequence is a read-only view of the table's row, tested for
    imaginary parts one row block at a time."""

    def test_values_are_a_read_only_view_of_the_row(self, tau_table_100k):
        X = 100_000
        seq = sequence_from_table(tau_table_100k, X)
        row = tau_table_100k.row(X)
        assert np.shares_memory(seq.values, row)
        assert not seq.values.flags.writeable
        assert seq.values.dtype == np.float64
        assert seq.values.tobytes() == np.array(row.real, copy=True).tobytes()

    def test_a_writeable_row_gets_a_read_only_view(self):
        entries = np.arange(1.0, 6.0) + 0j
        values = sequence_from_table(FixedRow(entries), 5).values
        assert np.shares_memory(values, entries) and not values.flags.writeable
        assert entries.flags.writeable

    @pytest.mark.parametrize("at", [BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("which", [A_M1, A_MM])
    def test_first_complex_entry_is_named_across_block_edges(self, at, which):
        # entries on the tolerance edge pass; the first past it is named,
        # ahead of later ones in its own block and the next
        entries = np.ones(3 * BLOCK, dtype=complex)
        entries.imag[at - 3] = 2.0 * signstats.IMAG_TOL
        entries[at] = 1.0 + 3e-9j
        entries[at + 1] = 1.0 - 3e-9j
        entries[at + BLOCK] = 1.0 + 1j
        m = at + 1
        what = f"A({m},1)" if which == A_M1 else f"A({m},{m})"
        with pytest.raises(ValueError, match=rf"^{re.escape(what)} has non-negligible "
                                             rf"imaginary part: \(1\+3e-09j\)$"):
            sequence_from_table(FixedRow(entries), len(entries), which)
        entries[at] = entries[at + 1] = 1.0
        with pytest.raises(ValueError, match=rf"^A\({m + BLOCK},"):
            sequence_from_table(FixedRow(entries), len(entries), which)
        assert len(sequence_from_table(FixedRow(entries), at + BLOCK, which)) == at + BLOCK

    @pytest.mark.parametrize("which", [A_M1, A_MM])
    def test_nan_imaginary_part_is_named(self, which):
        # a NaN value with a zero imaginary part is real; a NaN imaginary
        # part fails both comparisons with the bound and is named all the same
        entries = np.ones(5, dtype=complex)
        entries[1] = complex(math.nan, 0.0)
        entries[3] = complex(2.0, math.nan)
        what = "A(4,1)" if which == A_M1 else "A(4,4)"
        with pytest.raises(ValueError, match=rf"^{re.escape(what)} has non-negligible "
                                             rf"imaginary part: \(2\+nanj\)$"):
            sequence_from_table(FixedRow(entries), 5, which)
        values = sequence_from_table(FixedRow(entries), 3, which).values
        assert math.isnan(values[1]) and values[2] == 1.0


class TestInfiniteEntries:
    """An infinite real part makes the bound IMAG_TOL (1 + |re|) infinite, so
    it is refused on its own, whatever its imaginary part."""

    def test_row_of_infinities_is_refused(self):
        entries = np.array([complex(math.inf, 1.0), complex(-math.inf, 5.0)])
        with pytest.raises(ValueError, match=r"^A\(1,1\) is infinite: \(inf\+1j\)$"):
            sequence_from_table(FixedRow(entries), 2)

    @pytest.mark.parametrize("at", [BLOCK - 1, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("which", [A_M1, A_MM])
    @pytest.mark.parametrize("value", [complex(math.inf, 1.0), complex(-math.inf, 0.0),
                                       complex(math.inf, math.nan)])
    def test_first_infinite_entry_is_named_across_block_edges(self, at, which, value):
        entries = np.ones(3 * BLOCK, dtype=complex)
        entries[at] = value
        entries[at + 1] = 1.0 + 1j  # named only once the infinite entry is gone
        m = at + 1
        what = f"A({m},1)" if which == A_M1 else f"A({m},{m})"
        with pytest.raises(ValueError, match=rf"^{re.escape(what)} is infinite: "
                                             rf"{re.escape(str(value))}$"):
            sequence_from_table(FixedRow(entries), len(entries), which)
        assert len(sequence_from_table(FixedRow(entries), at, which)) == at
        entries[at] = 1.0
        with pytest.raises(ValueError, match=rf"^A\({m + 1},.* has non-negligible"):
            sequence_from_table(FixedRow(entries), len(entries), which)


class TestZeroTol:
    """A zero_tol that is not >= 0, negative or NaN, is refused by every
    statistic that takes it; a NaN once counted every entry as nonzero."""

    CALLS = {
        "count_sign_changes": lambda tol: count_sign_changes(
            RealSequence([1.0, 0.0, -1.0, 0.0]), tol),
        "interval_change_scan": lambda tol: interval_change_scan(
            AlternatingTable(100), ShortIntervalConfig(X=20, H=4, M=2), tol),
        "nonvanishing_density": lambda tol: nonvanishing_density(
            ToyTable({2}, 100), 100, zero_tol=tol),
        "sign_balance": lambda tol: sign_balance(AlternatingTable(100), 100, zero_tol=tol),
    }

    @pytest.mark.parametrize("name", sorted(CALLS))
    @pytest.mark.parametrize("tol", [-1e-12, math.nan], ids=["negative", "nan"])
    def test_refused(self, name, tol):
        with pytest.raises(ValueError, match="^zero_tol must be non-negative$"):
            self.CALLS[name](tol)
        self.CALLS[name](0.0)


class TestBounds:
    """degenerate_table(50) has bound_n = 1, so A(m, m) stops at m = 1."""

    @pytest.mark.parametrize("call", [
        lambda t: sequence_from_table(t, 51),
        lambda t: sequence_from_table(t, 2, A_MM),
        lambda t: sign_balance(t, 2, A_MM),
        lambda t: nonvanishing_density(t, 51),
        lambda t: partial_sum_abs(t, 51),
        lambda t: rankin_selberg_ratio(t, 51),
        # the windows reach 2X + H = 85
        lambda t: short_interval_sums(t, ShortIntervalConfig(X=30, H=25, M=2), 30),
        # the last window is [40, 56]
        lambda t: interval_change_scan(t, ShortIntervalConfig(X=20, H=16, M=2)),
    ], ids=["seq", "seq-mm", "balance-mm", "density", "abs-sum", "rankin", "short", "scan"])
    def test_past_the_bound_is_an_index_error(self, call):
        with pytest.raises(IndexBoundsError):
            call(degenerate_table(50))

    def test_at_the_bound(self):
        table = degenerate_table(50)
        assert len(sequence_from_table(table, 50)) == 50
        assert sequence_from_table(table, 1, A_MM).values.tolist() == [1.0]


class TestBelowOne:
    """X = 0 reads an empty row: the statistics that divide by X refuse it,
    the counts have answers."""

    @pytest.mark.parametrize("X", [0, -1])
    @pytest.mark.parametrize("stat", [nonvanishing_density, rankin_selberg_ratio])
    def test_densities_refuse_x_below_one(self, stat, X):
        with pytest.raises(ValueError, match=f"^{stat.__name__} needs X >= 1, got X = {X}$"):
            stat(degenerate_table(50), X)

    def test_counts_of_an_empty_row(self):
        table = degenerate_table(50)
        assert len(table.row(0)) == 0
        assert sign_balance(table, 0) == {"pos_frac": 0.0, "neg_frac": 0.0}
        report = count_sign_changes(sequence_from_table(table, 0))
        assert report.summary() == {"changes": 0, "positives": 0, "negatives": 0, "zeros": 0}


X_WIDE = 300_000
MIB = 2 ** 20


@pytest.fixture(scope="module")
def wide_table():
    """Random tempered data to 3 * 10^5, the generic-signs size, with its
    A(m, m) row sieved."""
    locs = random_tempered_locals(primes_upto(X_WIDE), random.Random(41))
    table = CoefficientTable(locs, X_WIDE, X_WIDE)
    table.row(X_WIDE, A_MM)
    return table


class TestWorkingMemory:
    """On A(m, m) at X = 3 * 10^5 a statistic holds a few masks of one byte
    per entry (0.3 MiB each) and reads the sequence in the row.  Index arrays
    and float copies of the kept entries took the peaks to 4.9, 4.9, 7.2 and
    4.9 MiB, and a copy of the 2.3 MiB sequence per call to 3.2 MiB."""

    @pytest.mark.parametrize("name", ["sequence_from_table", "count_sign_changes",
                                      "sign_balance", "nonvanishing_density"])
    def test_peak(self, wide_table, name):
        seq = sequence_from_table(wide_table, X_WIDE, A_MM)
        call = {
            "sequence_from_table": lambda: sequence_from_table(wide_table, X_WIDE, A_MM),
            "count_sign_changes": lambda: count_sign_changes(seq),
            "sign_balance": lambda: sign_balance(wide_table, X_WIDE, A_MM),
            "nonvanishing_density": lambda: nonvanishing_density(wide_table, X_WIDE, A_MM),
        }[name]
        peak, _ = traced_peak(call)
        assert peak <= 3.5 * MIB

    @pytest.mark.parametrize("stat", [sign_balance, nonvanishing_density],
                             ids=["sign_balance", "nonvanishing_density"])
    def test_no_sequence_is_copied(self, wide_table, stat):
        peak, _ = traced_peak(lambda: stat(wide_table, X_WIDE, A_MM))
        assert peak < MIB

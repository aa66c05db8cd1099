import math
import random

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
from gl3hecke.suites import random_tempered_locals
from gl3hecke.signstats import (
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
from oracles import count_sign_changes_loop, d3, interval_change_scan_walk

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
        locs = [PrimeLocalData(p, SatakeTriple.from_angles(0.3 * p, 0.0))
                for p in primes_upto(60) if p != 7]
        locs.append(PrimeLocalData(7, SatakeTriple(2.0, 0.5j, -1j, tempered=False)))
        table = CoefficientTable(locs, 60, 60)
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


class TestBounds:
    """degenerate_table(50) has bound_n = 1, so A(m, m) stops at m = 1."""

    @pytest.mark.parametrize("call", [
        lambda t: sequence_from_table(t, 51),
        lambda t: sequence_from_table(t, 2, A_MM),
        lambda t: sign_balance(t, 2, A_MM),
        lambda t: nonvanishing_density(t, 51),
        lambda t: partial_sum_abs(t, 51),
        lambda t: rankin_selberg_ratio(t, 51),
        # the window reaches mk = 51 = 3 * 17
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

"""Planted defects that the Kato, Hecke, signs, measures, satotate, schur,
bernstein, euler and mvt checks must catch.

Each test plants one defect by monkeypatch and runs a suite (`suite_kato`,
`suite_hecke`, `suite_signs`, ...) as `gl3hecke verify --suite NAME` does; a
check that passes on a planted defect could not tell it from working code.
"""

import inspect
import math

import numpy as np
import pytest

from gl3hecke import arith, dirichlet, hecke, klpoly, measures, schuralg, signstats, suites, tau


def kato_identity(**kwargs):
    return {c.name: c for c in suites.suite_kato(seed=0, **kwargs)}["kato_identity_max_diff"]


def test_unplanted_suite_passes():
    assert kato_identity().status == "pass"


@pytest.fixture
def fresh_measure_memos():
    # the pushforward pieces and the last mesh density of `integrate` are
    # memoised: a defect must neither be hidden by values built before it nor
    # leave its own values to later tests
    memos = (schuralg._pushforward_piece, measures._mesh_density)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_plancherel_constant_off_by_1e5(monkeypatch, fresh_measure_memos):
    real = measures.plancherel_constant
    monkeypatch.setattr(measures, "plancherel_constant", lambda p: real(p) * (1.0 + 1e-5))
    check = kato_identity()
    assert check.status == "fail"
    assert check.value > 5e-6


def test_dropped_kostant_term(monkeypatch):
    # drop the term with the most long roots, q^max(x, y), from every
    # partition function that uses the long root at all
    real = klpoly.kostant_partition

    def dropped(beta):
        rc = klpoly.root_coordinates(beta)
        if rc is None or min(rc) == 0:
            return real(beta)
        return real(beta) - klpoly.QPolynomial.monomial(max(rc))

    monkeypatch.setattr(klpoly, "kostant_partition", dropped)
    assert kato_identity().status == "fail"


def failed_hecke_checks():
    return {c.name: c.value for c in suites.suite_hecke(seed=0) if c.status == "fail"}


def test_unplanted_hecke_suite_passes():
    assert failed_hecke_checks() == {}


def test_mobius_of_four_planted_as_one(monkeypatch):
    monkeypatch.setattr(hecke, "mobius", lambda d: 1 if d == 4 else arith.mobius(d))
    failed = failed_hecke_checks()
    assert set(failed) == {"mobius_expand_max_error"}
    assert failed["mobius_expand_max_error"] > 1.0


@pytest.fixture
def fresh_expansions():
    # schur_to_epoly and the Pieri multiplicities are memoised, and each
    # recursion reads its patched name: a defect must neither be hidden by
    # entries built before it nor leave its own entries to later tests.  The
    # memos are taken before the test patches their names.
    memos = (schuralg.schur_to_epoly, schuralg._monomial_in_schur)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_schur_recurrence_e2_sign_flipped(monkeypatch, fresh_expansions):
    # h_k = e1 h_{k-1} + e2 h_{k-2} + h_{k-3} is the recurrence of another
    # triple, the one with elementary symmetric values (e1, -e2, 1).  The Hecke
    # relation and the Mobius expansion hold for every triple; only the
    # Hermitian symmetry, which needs e2 = conj(e1), sees the defect.
    real = hecke._complete_homogeneous
    monkeypatch.setattr(hecke, "_complete_homogeneous", lambda e1, e2, n: real(e1, -e2, n))
    failed = failed_hecke_checks()
    assert set(failed) == {"hermitian_symmetry_max"}
    assert failed["hermitian_symmetry_max"] > 1.0


def test_local_values_off_by_1e6_beyond_degree_one(monkeypatch):
    # A(p^a, p^b) scaled by 1 + 1e-6 whenever a + b >= 2: the Hecke relation
    # and the Mobius expansion mix local values of different degrees, so both
    # see it; the Hermitian symmetry and the Ramanujan bound do not.
    real = hecke.CoefficientTable._local_value

    def scaled(self, p, a, b):
        val = real(self, p, a, b)
        return val * (1.0 + 1e-6) if a + b >= 2 else val

    monkeypatch.setattr(hecke.CoefficientTable, "_local_value", scaled)
    failed = failed_hecke_checks()
    assert set(failed) == {"hecke_residual_max_200_triples", "mobius_expand_max_error"}
    assert all(value > 1e-5 for value in failed.values())


def test_satake_radius_1_2_at_every_prime(monkeypatch):
    # alpha1, alpha2 times 1.2 and alpha3 over 1.44 keep the product one, so
    # the Hecke relation and the Mobius expansion still hold; the Hermitian
    # symmetry and the Ramanujan bound need |alpha| = 1.  At one prime only
    # the symmetry would see it: |A(p, 1)| <= 3 can still hold there.
    real = suites.random_tempered_locals

    def planted(primes, rng):
        return [hecke.PrimeLocalData(rec.p, hecke.SatakeTriple(
            rec.satake.alpha1 * 1.2, rec.satake.alpha2 * 1.2, rec.satake.alpha3 / 1.44,
            tempered=False)) for rec in real(primes, rng)]

    monkeypatch.setattr(suites, "random_tempered_locals", planted)
    failed = failed_hecke_checks()
    assert set(failed) == {"hermitian_symmetry_max", "ramanujan_bound_excess"}
    assert failed["hermitian_symmetry_max"] > 1.0
    assert failed["ramanujan_bound_excess"] > 0.05


def failed_signs_checks():
    return {c.name for c in suites.suite_signs(seed=0) if c.status == "fail"}


def test_unplanted_signs_suite_passes():
    assert failed_signs_checks() == set()


def test_sym2_tau_table_planted_as_the_trivial_lift(monkeypatch):
    # lambda(p) = 2 at every p lifts to (1, 1, 1), so A(m, 1) = d_3(m) > 0:
    # no sign changes, S1 = S2 in every window, and the Rankin-Selberg sum
    # grows like X log^8 X instead of X; a sign check that passes this
    # cannot tell a positive sequence from the sym^2 lift of tau
    monkeypatch.setattr(suites, "sym2_tau_table", lambda values: hecke.CoefficientTable(
        hecke.sym2_lift(hecke.GL2FormData([(p, 2.0) for p in arith.primes_upto(len(values))])),
        len(values), len(values)))
    assert failed_signs_checks() == {
        "sign_changes_count", "s1_lt_s2_fraction", "windows_with_change_fraction",
        "rankin_selberg_ratio_X1000", "rankin_selberg_ratio_X10000",
        "rankin_selberg_ratio_X100000", "sign_balance_dev"}


def test_dropped_jacobi_term_of_eta_cubed(monkeypatch):
    # eta^6 squared from Jacobi's series for eta^3 with its last term below
    # N dropped: only tau(n) for n past that term's exponent 99681 change,
    # and only the exact identities see it.
    def dropped(N):
        terms = [(j * (j + 1) // 2, (-1) ** j * (2 * j + 1)) for j in range(N) if j * (j + 1) < 2 * N]
        terms.pop()
        exps = np.array([e for e, _ in terms])
        weights = np.array([w for _, w in terms], dtype=np.float64)
        pair = exps[:, None] + exps[None, :]
        inside = pair < N
        six = np.bincount(pair[inside], np.outer(weights, weights)[inside], minlength=N)
        return six.astype(np.int64)

    monkeypatch.setattr(tau, "eta_sixth_coeffs", dropped)
    assert failed_signs_checks() == {"tau_identity_failures"}


def test_square_trunc_output_off_by_one(monkeypatch):
    # tau(99991), at the largest prime below X = 10^5, one too large in the
    # second squaring of the kernel that square_trunc, ramanujan_tau and
    # tau_prime_eigenvalues share: lambda(p) moves by 1e-27, which no sign
    # statistic can see.
    real, calls = tau._square_words, []

    def off_by_one(c, N):
        top, words, widths = real(c, N)
        calls.append(N)
        if len(calls) == 2:
            (words or [top])[0][99_990] += 1
        return top, words, widths

    monkeypatch.setattr(tau, "_square_words", off_by_one)
    assert failed_signs_checks() == {"tau_identity_failures"}


def test_prime_taus_gathered_at_p(monkeypatch):
    # tau_prime_eigenvalues reading the packed words at p instead of p - 1,
    # that is tau(p + 1) for tau(p): the cross-check against
    # prime_eigenvalues(ramanujan_tau(N)) must see it
    real = tau._gather
    monkeypatch.setattr(tau, "_gather", lambda packed, at: real(packed, at + 1))
    N = 1000
    assert tau.tau_prime_eigenvalues(N) != tau.prime_eigenvalues(tau.ramanujan_tau(N))


def test_window_s2_over_signed_terms(monkeypatch):
    # S2 summed over the signed real parts of the terms instead of |A|: then
    # S1 = |S2|, so every window with a negative sum breaks S1 <= S2 and no
    # window has S1 < S2.  suite_signs calls window_sums itself, past the
    # per-x memo of short_interval_sums, so nothing planted outlives the test.
    real = signstats.window_sums

    def signed(table, cfg):
        with monkeypatch.context() as inner:
            inner.setattr(signstats, "_abs", lambda row: row.real)
            return real(table, cfg)

    monkeypatch.setattr(signstats, "window_sums", signed)
    assert failed_signs_checks() == {"s1_le_s2_everywhere", "s1_lt_s2_fraction"}


def test_window_s1_nan_in_one_window(monkeypatch):
    # NaN > S2 + 1e-12 is False, so a check that looks for a window out of
    # order reads a NaN window as in order; one scanned window in the middle
    real = signstats.window_sums

    def planted(table, cfg):
        s1, s2 = real(table, cfg)
        stride = max(1, cfg.H // 4)
        s1[cfg.X // 2 // stride * stride] = math.nan
        return s1, s2

    monkeypatch.setattr(signstats, "window_sums", planted)
    assert failed_signs_checks() == {"s1_le_s2_everywhere"}


def failed_checks(suite):
    return {c.name: c.value for c in suite(seed=0) if c.status == "fail"}


def test_unplanted_measures_and_satotate_suites_pass():
    assert failed_checks(suites.suite_measures) == {}
    assert failed_checks(suites.suite_satotate) == {}


def test_plancherel_constant_off_by_1e6(monkeypatch, fresh_measure_memos):
    # every Plancherel density and pushforward weighs 1e-6 too much; only the
    # total mass, 1e-6 against a bound of 1e-8, is fine enough to see it
    real = measures.plancherel_constant
    monkeypatch.setattr(measures, "plancherel_constant", lambda p: real(p) * (1.0 + 1e-6))
    failed = failed_checks(suites.suite_measures)
    assert set(failed) == {"measure_mass_max_deviation"}
    assert failed["measure_mass_max_deviation"] > 9e-7


def test_one_half_chord_off_by_1e6(monkeypatch, fresh_measure_memos):
    # s_12 = sin^2((t1 - t2) / 2) scaled by 1 + 1e-6 in every density: the
    # masses and Schur inner products move by 1e-6, and the density is no
    # longer symmetric under the Weyl group
    real = measures.half_chords

    def scaled(theta1, theta2):
        s = real(theta1, theta2)
        return (s[0] * (1.0 + 1e-6),) + s[1:]

    monkeypatch.setattr(measures, "half_chords", scaled)
    assert set(failed_checks(suites.suite_measures)) == {
        "measure_mass_max_deviation", "schur_orthonormality_max_dev",
        "density_weyl_invariance_max"}


def test_sampler_at_the_next_prime(monkeypatch):
    # A(p, p) drawn from the Plancherel measure at 3 and 7 instead of 2 and 5
    real = measures.sample_angles
    after = {2: 3, 5: 7}
    monkeypatch.setattr(measures, "sample_angles", lambda spec, count, seed: real(
        measures.MeasureSpec.plancherel(after[spec.p]), count, seed))
    failed = failed_checks(suites.suite_satotate)
    assert set(failed) == {"effective_st_9cell_p2", "effective_st_9cell_p5"}
    assert all(value > 0.02 for value in failed.values())


def test_unplanted_schur_bernstein_and_euler_suites_pass():
    for suite in (suites.suite_schur, suites.suite_bernstein, suites.suite_euler):
        assert failed_checks(suite) == {}


def test_s11_jacobi_trudi_plus_one(monkeypatch, fresh_expansions):
    # S_{1,1} = e1 e2 - 1 expanded as e1 e2: the Schur expansions run by the
    # Pieri rule and never read it, so only the round trip, Jacobi-Trudi
    # there and Pieri back, sees the defect
    real = schuralg.schur_to_epoly
    monkeypatch.setattr(schuralg, "schur_to_epoly", lambda l1, l2: (
        real(l1, l2) + schuralg.E_ONE if (l1, l2) == (1, 1) else real(l1, l2)))
    assert failed_checks(suites.suite_schur) == {}
    assert failed_checks(suites.suite_bernstein) == {"schur_roundtrip_mismatches": 1.0}


def test_pieri_steps_scale_multiplicities_by_5(monkeypatch, fresh_expansions):
    # every Pieri step multiplies by 5, so e1^a e2^b comes out 5^(a+b) times
    # too large: the l^1 norm of (e1 e2 / 9)^l is 25^l times its value, and
    # every round trip but the one of S_{0,0} = 1 fails
    real = schuralg._monomial_in_schur
    monkeypatch.setattr(schuralg, "_monomial_in_schur", lambda a, b: tuple(
        (key, 5 * m) for key, m in real(a, b)) if a + b else real(a, b))
    failed = failed_checks(suites.suite_bernstein)
    assert set(failed) == {"bernstein_l1_norm_max", "schur_roundtrip_mismatches",
                           "bernstein_l1_anchor"}
    assert failed["bernstein_l1_norm_max"] > 5.0
    assert failed["schur_roundtrip_mismatches"] == 44.0


def test_pieri_drops_the_trivial_summand_of_e1_e2(monkeypatch, fresh_expansions):
    # e1 e2 = S_{1,1} + S_{0,0} expanded as S_{1,1} alone; every e1^a e2^b
    # with a, b >= 1 is built on it, so the square of S_{1,1}, the anchor
    # e1 e2 / 9 and 37 of the 45 round trips come out wrong
    real = schuralg._monomial_in_schur
    monkeypatch.setattr(schuralg, "_monomial_in_schur", lambda a, b: tuple(
        t for t in real(a, b) if (a, b) != (1, 1) or t[0] != (0, 0)))
    assert set(failed_checks(suites.suite_schur)) == {
        "s11_square_expansion_mismatches", "degenerate_point_sum_vs_64"}
    failed = failed_checks(suites.suite_bernstein)
    assert set(failed) == {"schur_roundtrip_mismatches", "bernstein_l1_anchor"}
    assert failed["schur_roundtrip_mismatches"] == 37.0


def test_dual_coefficient_taken_as_a_p1(monkeypatch):
    # A(1, p) read as A(p, 1) in the closed-form Euler factor: equal on
    # self-dual data, wrong on the two generic tempered primes
    source = inspect.getsource(dirichlet.euler_factor_check)
    planted = source.replace("a1, a1_dual = coeffs[1], e2", "a1, a1_dual = coeffs[1], coeffs[1]")
    assert planted != source
    namespace = dict(vars(dirichlet))
    exec(planted, namespace)
    monkeypatch.setattr(dirichlet, "euler_factor_check", namespace["euler_factor_check"])
    failed = failed_checks(suites.suite_euler)
    assert set(failed) == {"euler_series_vs_closed_max", "euler_ratio_identity_max"}
    assert all(value > 1e-4 for value in failed.values())


def test_worst_keeps_a_nan_that_follows_a_number():
    assert math.isnan(suites.worst([1.0, math.nan, 0.5]))
    assert suites.worst([]) == 0.0
    assert suites.worst([-2.0]) == 0.0


def test_second_moments_all_nan(monkeypatch):
    # Python's max would drop the NaN ratios and read the last number seen
    monkeypatch.setattr(dirichlet, "second_moment_many", lambda polys, T: [math.nan] * len(polys))
    failed = failed_checks(suites.suite_mvt)
    assert set(failed) == {"mvt_ratio_max_50_draws", "mvt_closed_form_max_rel_error"}
    assert all(math.isnan(value) for value in failed.values())


def test_window_polynomial_eval_nan(monkeypatch):
    monkeypatch.setattr(dirichlet.WindowPolynomial, "eval", lambda self, s: complex(math.nan, 0.0))
    failed = failed_checks(suites.suite_mvt)
    assert set(failed) == {"d_estimate_ratio_max"}
    assert math.isnan(failed["d_estimate_ratio_max"])


def test_second_moment_kernel_at_zero_off_by_1e6(monkeypatch):
    # K_T(0) = 2T (1 + 1e-6): every second moment gains 2e-6 T sum |a_n|^2/n,
    # which moves the mean-value ratios by 1e-6 and the closed form far past
    # its bound of 1e-12
    real = dirichlet.second_moment_many

    def shifted(polys, T):
        return [v + 2e-6 * T * float(np.sum(np.abs(p._arrays[1]) ** 2 * np.exp(-p._arrays[0])))
                for v, p in zip(real(polys, T), polys)]

    monkeypatch.setattr(dirichlet, "second_moment_many", shifted)
    failed = failed_checks(suites.suite_mvt)
    assert set(failed) == {"mvt_closed_form_max_rel_error"}
    assert failed["mvt_closed_form_max_rel_error"] > 5e-7


def test_angle_addition_numerator_sign_flipped(monkeypatch):
    # sin(T log n) negated turns s_j c_i - c_j s_i into its negative: every
    # pair past the direct band gets -K_T(x).  The mean-value ratios stay
    # far under their bound of 8; only the closed form sees the defect.
    monkeypatch.setattr(dirichlet, "_phases", lambda theta: (-np.sin(theta), np.cos(theta)))
    failed = failed_checks(suites.suite_mvt)
    assert set(failed) == {"mvt_closed_form_max_rel_error"}
    assert failed["mvt_closed_form_max_rel_error"] > 1e-4

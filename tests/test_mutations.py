"""Planted defects that the Kato and Hecke checks must catch.

Each test plants one defect by monkeypatch and runs `suite_kato` or
`suite_hecke` as `gl3hecke verify --suite kato|hecke` does; a check that
passes on a planted defect could not tell it from working code.
"""

from gl3hecke import arith, hecke, klpoly, measures, suites


def kato_identity(**kwargs):
    return {c.name: c for c in suites.suite_kato(seed=0, **kwargs)}["kato_identity_max_diff"]


def test_unplanted_suite_passes():
    assert kato_identity().status == "pass"


def test_plancherel_constant_off_by_1e5(monkeypatch):
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


def test_schur_recurrence_e2_sign_flipped(monkeypatch):
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

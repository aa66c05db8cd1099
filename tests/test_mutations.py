"""Planted defects that the Kato identity check must catch.

Each test plants one defect by monkeypatch and runs `suite_kato` as
`gl3hecke verify --suite kato` does; a check that passes on a planted defect
could not tell it from working code.
"""

from gl3hecke import klpoly, measures, suites


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

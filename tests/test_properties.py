"""Property tests of the exact identities: the Hecke relation, the Mobius
expansion, the Schur round trip and Kato's identity at random inputs."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import laurent_to_epoly
from gl3hecke import hecke, klpoly, schuralg
from gl3hecke.arith import primes_upto
from gl3hecke.suites import random_tempered_locals

BOUND = 400  # the Hecke relation at indices <= 20 reaches 20 * 20


def random_table(seed):
    locs = random_tempered_locals(primes_upto(BOUND), random.Random(seed))
    return hecke.CoefficientTable(locs, BOUND, BOUND)


index = st.integers(1, 20)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32), m=index, m1=index, m2=index)
def test_hecke_relation(seed, m, m1, m2):
    assert hecke.hecke_residual(random_table(seed), m, m1, m2) <= 1e-8


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 2**32), m1=index, m2=index)
def test_mobius_expansion(seed, m1, m2):
    table = random_table(seed)
    assert abs(hecke.mobius_expand(table, m1, m2) - table.value(m1, m2)) <= 1e-8


schur_coeffs = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool),
    max_size=6,
)


@settings(deadline=None, max_examples=50)
@given(coeffs=schur_coeffs)
def test_schur_round_trip(coeffs):
    back = schuralg.expand_in_schur(laurent_to_epoly(coeffs))
    assert back == {k: Fraction(v) for k, v in coeffs.items()}


@settings(deadline=None, max_examples=40)
@given(l1=st.integers(0, 6), l2=st.integers(0, 6),
       p=st.sampled_from([2, 3, 5, 7, 11, 101, 1009]))
def test_kato_identity(l1, l2, p):
    rec = klpoly.kato_check(l1, l2, p, tol=1e-7)
    assert rec["diff"] <= 1e-7
    assert rec["lhs"] == float(klpoly.kato_moment(l1, l2, p))

import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gl3hecke import hecke, suites, tau
from gl3hecke.arith import primes_upto


def traced_peak(fn):
    """Run fn() under tracemalloc; return (peak, held): the most bytes traced
    at once while it ran, and the bytes still traced when it returned."""
    tracemalloc.start()
    try:
        fn()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, held


@pytest.fixture(scope="session")
def tau_table_100k():
    """Symmetric-square-of-tau coefficient table covering indices to 10^5."""
    return suites.sym2_tau_table(tau.ramanujan_tau(100_000))


@pytest.fixture(scope="session")
def random_table_2500():
    """Random tempered table usable for Hecke-relation checks with indices
    up to 50 (divisor sums reach 2500)."""
    rng = random.Random(20240)
    locs = suites.random_tempered_locals(primes_upto(2500), rng)
    return hecke.CoefficientTable(locs, 2500, 2500)


@pytest.fixture()
def rng():
    return random.Random(987)


def random_tempered_triple(rng):
    t1 = rng.uniform(0.0, 2.0 * math.pi)
    t2 = rng.uniform(0.0, 2.0 * math.pi)
    return hecke.SatakeTriple.from_angles(t1, t2)

"""Exact A2 root-system combinatorics: Kostant q-partitions, the Lusztig
q-analog of weight multiplicity, and its quadrature cross-check against the
p-adic Plancherel measure (Kato's identity).

Weights live in Z^3 modulo the diagonal (1,1,1), canonicalized so the minimum
coordinate is zero; the Weyl group acts by permuting coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QPolynomial:
    """Integer-coefficient polynomial in q; coeffs[k] is the q^k coefficient."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "QPolynomial":
        return cls((0,) * k + (c,))

    def __add__(self, other: "QPolynomial") -> "QPolynomial":
        return QPolynomial(map(sum, itertools.zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __sub__(self, other: "QPolynomial") -> "QPolynomial":
        return self + QPolynomial([-c for c in other.coeffs])

    def __call__(self, q):
        """Horner evaluation; exact for Fraction arguments."""
        acc = q * 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc


@dataclass(frozen=True)
class Weight:
    """Element of Z^3 mod (1,1,1), stored with minimum coordinate zero."""

    coords: tuple[int, int, int]

    def __init__(self, coords):
        a, b, c = coords
        m = min(a, b, c)
        object.__setattr__(self, "coords", (a - m, b - m, c - m))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple(x - y for x, y in zip(self.coords, other.coords)))

    def permuted(self, sigma: tuple[int, int, int]) -> "Weight":
        return Weight(tuple(self.coords[i] for i in sigma))


ZERO = Weight((0, 0, 0))
RHO = Weight((2, 1, 0))
ALPHA1 = Weight((1, -1, 0))
ALPHA2 = Weight((0, 1, -1))


def _inversions(sigma: tuple[int, ...]) -> int:
    return sum(1 for i in range(3) for j in range(i + 1, 3) if sigma[i] > sigma[j])


# The six permutations with sign (-1)^length; lengths are 0,1,1,2,2,3.
WEYL = tuple(
    (sigma, -1 if _inversions(sigma) % 2 else 1)
    for sigma in itertools.permutations(range(3))
)


def hw_weight(l1: int, l2: int) -> Weight:
    """Highest weight l1*LAMBDA1 + l2*LAMBDA2 = (l1+l2, l2, 0), for the
    fundamental weights LAMBDA1 = (1, 0, 0) and LAMBDA2 = (1, 1, 0); its
    character is the (l1, l2) Schur basis element attached to A(p^l1, p^l2)."""
    if l1 < 0 or l2 < 0:
        raise ValueError("indices must be non-negative")
    return Weight((l1 + l2, l2, 0))


def root_coordinates(beta: Weight) -> tuple[int, int] | None:
    """(x, y) with beta = x*ALPHA1 + y*ALPHA2 in the weight lattice, or None."""
    b1, b2, b3 = beta.coords
    s = b1 + b2 + b3
    if s % 3:
        return None
    c = -s // 3
    x = b1 + c
    y = -b3 - c
    if x < 0 or y < 0:
        return None
    return x, y


def kostant_partition(beta: Weight) -> QPolynomial:
    """Generating polynomial over decompositions of beta into non-negative
    combinations of the three positive roots, graded by total root count."""
    rc = root_coordinates(beta)
    if rc is None:
        return QPolynomial.zero()
    x, y = rc
    # n3 copies of the long root ALPHA1+ALPHA2 leave n1 = x-n3, n2 = y-n3.
    acc = QPolynomial.zero()
    for n3 in range(min(x, y) + 1):
        acc = acc + QPolynomial.monomial(x + y - n3)
    return acc


def lusztig_q_analog(lam: Weight, beta: Weight) -> QPolynomial:
    """Alternating Weyl sum sum_w sign(w) P_q(w(lam+rho) - (beta+rho)).

    At q = 1 this is the multiplicity of the weight beta in the irreducible
    of highest weight lam.
    """
    shifted = lam + RHO
    target = beta + RHO
    acc = QPolynomial.zero()
    for sigma, sign in WEYL:
        term = kostant_partition(shifted.permuted(sigma) - target)
        acc = acc + term if sign > 0 else acc - term
    return acc


def kato_moment(l1: int, l2: int, p: int) -> Fraction:
    """Exact rational value of the zero-weight Lusztig q-analog at q = 1/p
    for the highest weight matching the (l1, l2) Schur element."""
    return lusztig_q_analog(hw_weight(l1, l2), ZERO)(Fraction(1, p))


def kato_check(l1: int, l2: int, p: int, tol: float = 1e-8) -> dict:
    """Compare the exact combinatorial moment with quadrature of the matching
    Schur basis element against the p-adic Plancherel measure, on the one
    grid that `measures.trapezoid_resolution` proves accurate to within tol.
    ValueError when no grid up to 1024 nodes per axis is.
    """
    if l1 > 6 or l2 > 6:
        raise ValueError("indices above 6 are blocked (combinatorial blow-up)")
    from . import measures  # deferred: measures imports WEYL from here

    lhs = float(kato_moment(l1, l2, p))
    spec = measures.MeasureSpec.plancherel(p)
    K = measures.trapezoid_resolution(spec, l1, l2, tol)
    if K is None:
        raise ValueError(f"no grid up to 1024 nodes certifies tol={tol} at ({l1}, {l2}, p={p})")
    schur = lambda pt: measures.schur_on_torus(l1, l2, pt.theta1, pt.theta2).real
    rhs = measures.integrate(spec, schur, measures.QuadratureGrid(K)).real
    return {"lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}

"""Exact A2 root-system combinatorics in closed form at a given q: the
Kostant q-partition function, the Lusztig q-analog of weight multiplicity,
and its quadrature cross-check against the p-adic Plancherel measure (Kato's
identity).  Weights are integer triples modulo the diagonal (1, 1, 1).
"""

from __future__ import annotations

from fractions import Fraction

from . import measures
from .measures import WEYL


def kostant_partition(beta: tuple[int, int, int], q):
    """P_q(beta), the sum of q^(n1 + n2 + n3) over the decompositions
    beta = n1 (1, -1, 0) + n2 (0, 1, -1) + n3 (1, 0, -1) mod (1, 1, 1), in q's
    type (exact for Fraction q); 0 unless 3 | b1 + b2 + b3.  Then beta =
    x (1, -1, 0) + y (0, 1, -1) + c (1, 1, 1) with c = (b1 + b2 + b3) / 3,
    x = b1 - c and y = c - b3; the n3 = 0..min(x, y) long roots leave
    n1 = x - n3 and n2 = y - n3, so P_q(beta) = sum over n3 of q^(x + y - n3),
    and 0 if x or y < 0."""
    s = sum(beta)
    if s % 3:
        return q * 0
    x, y = beta[0] - s // 3, s // 3 - beta[2]
    return sum((q ** (x + y - n3) for n3 in range(min(x, y) + 1)), q * 0)


def lusztig_q_analog(l1: int, l2: int, beta: tuple[int, int, int], q):
    """sum over w in `measures.WEYL` of sign(w) P_q(w(lam + rho) - (beta + rho)),
    rho = (2, 1, 0), for the highest weight lam = (l1 + l2, l2, 0) of the
    (l1, l2) Schur element; at q = 1 the multiplicity of the weight beta in
    the irreducible of highest weight lam.  Negative indices raise ValueError."""
    if l1 < 0 or l2 < 0:
        raise ValueError("indices must be non-negative")
    shifted = (l1 + l2 + 2, l2 + 1, 0)
    target = (beta[0] + 2, beta[1] + 1, beta[2])
    return sum((sign * kostant_partition(tuple(shifted[i] - t for i, t in zip(sigma, target)), q)
                for sigma, sign in WEYL), q * 0)


def kato_moment(l1: int, l2: int, p: int) -> Fraction:
    """Exact rational value of the zero-weight Lusztig q-analog at q = 1/p
    for the highest weight matching the (l1, l2) Schur element."""
    return lusztig_q_analog(l1, l2, (0, 0, 0), Fraction(1, p))


def kato_check(l1: int, l2: int, p: int, tol: float = 1e-8) -> dict:
    """Compare the exact combinatorial moment with quadrature of the matching
    Schur basis element against the p-adic Plancherel measure, on the one
    grid that `measures.trapezoid_resolution` proves accurate to within tol.
    ValueError when no grid up to 1024 nodes per axis is.
    """
    if l1 > 6 or l2 > 6:
        raise ValueError("indices above 6 are blocked (combinatorial blow-up)")
    lhs = float(kato_moment(l1, l2, p))
    spec = measures.MeasureSpec.plancherel(p)
    K = measures.trapezoid_resolution(spec, l1, l2, tol)
    if K is None:
        raise ValueError(f"no grid up to 1024 nodes certifies tol={tol} at ({l1}, {l2}, p={p})")
    schur = lambda pt: measures.schur_on_torus(l1, l2, pt.theta1, pt.theta2).real
    rhs = measures.integrate(spec, schur, measures.QuadratureGrid(K)).real
    return {"lhs": lhs, "rhs": rhs, "diff": abs(lhs - rhs)}

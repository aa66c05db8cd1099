"""Exact algebra of Weyl-invariant Laurent polynomials in the Schur basis,
the Bernstein coefficient bound for effective equidistribution, and the
sampled-versus-exact distribution comparison for A(p, p).

All basis changes run in exact rational arithmetic; floats appear only at
evaluation time.  The masses of A(p, p) = |e1|^2 - 1 come from pushing the
Sato-Tate and Plancherel measures forward to |e1| in closed form, so the
only error left is that of a one-dimensional quadrature, reported with each
mass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import measures

MAX_SCHUR_DEGREE = 24


def _clean_terms(terms) -> tuple:
    """Sorted ((a, b), Fraction) pairs from a dict or an iterable of pairs,
    with repeated keys summed and zero coefficients dropped."""
    cleaned = {}
    for (a, b), c in (terms.items() if isinstance(terms, dict) else terms):
        c = Fraction(c)
        if c:
            cleaned[(a, b)] = cleaned.get((a, b), Fraction(0)) + c
    return tuple(sorted((k, v) for k, v in cleaned.items() if v))


@dataclass(frozen=True)
class EPoly:
    """Polynomial in the elementary symmetric values (e1, e2) with e3 = 1;
    terms maps (a, b) -> exact rational coefficient of e1^a e2^b."""

    terms: tuple

    def __init__(self, terms=()):
        object.__setattr__(self, "terms", _clean_terms(terms))

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "EPoly") -> "EPoly":
        out = dict(self.terms)
        for k, v in other.terms:
            out[k] = out.get(k, Fraction(0)) + v
        return EPoly(out)

    def __sub__(self, other: "EPoly") -> "EPoly":
        return self + other.scale(-1)

    def scale(self, c) -> "EPoly":
        c = Fraction(c)
        return EPoly({k: v * c for k, v in self.terms})

    def __mul__(self, other: "EPoly") -> "EPoly":
        out: dict = {}
        for (a1, b1), c1 in self.terms:
            for (a2, b2), c2 in other.terms:
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return EPoly(out)

    def pow(self, n: int) -> "EPoly":
        acc = EPoly({(0, 0): 1})
        for _ in range(n):
            acc = acc * self
        return acc


E_ONE = EPoly({(0, 0): 1})
E1 = EPoly({(1, 0): 1})
E2 = EPoly({(0, 1): 1})


@dataclass(frozen=True)
class WInvariantLaurent:
    """Finite Schur-basis combination (l1, l2) -> exact rational coefficient."""

    schur_coeffs: tuple

    def __init__(self, coeffs=()):
        object.__setattr__(self, "schur_coeffs", _clean_terms(coeffs))

    def as_dict(self) -> dict:
        return dict(self.schur_coeffs)

    def coefficient_l1_norm(self) -> Fraction:
        return sum((abs(c) for _, c in self.schur_coeffs), Fraction(0))


@lru_cache(maxsize=None)
def _h_epoly(k: int) -> EPoly:
    """Complete homogeneous polynomial h_k in (e1, e2) under e3 = 1, by
    h_k = e1 h_{k-1} - e2 h_{k-2} + h_{k-3}."""
    if k < 0:
        return EPoly()
    if k == 0:
        return E_ONE
    acc = E1 * _h_epoly(k - 1) - E2 * _h_epoly(k - 2)
    if k >= 3:
        acc = acc + _h_epoly(k - 3)
    return acc


@lru_cache(maxsize=None)
def schur_to_epoly(l1: int, l2: int) -> EPoly:
    """Exact expansion of the (l1, l2) Schur basis element in e1, e2 via the
    two-row Jacobi-Trudi determinant."""
    if l1 < 0 or l2 < 0:
        raise ValueError("indices must be non-negative")
    if l1 + l2 > MAX_SCHUR_DEGREE:
        raise ValueError(f"l1 + l2 = {l1 + l2} exceeds guard {MAX_SCHUR_DEGREE}")
    a, b = l1 + l2, l2
    out = _h_epoly(a) * _h_epoly(b)
    if b >= 1:
        out = out - _h_epoly(a + 1) * _h_epoly(b - 1)
    return out


def expand_in_schur(f: EPoly) -> WInvariantLaurent:
    """Exact Schur-basis coordinates of f by graded leading-term elimination:
    S_{a,b} = e1^a e2^b + lower total degree, so stripping the top-degree
    monomials one at a time terminates."""
    residual = dict(f.terms)
    out: dict = {}
    while residual:
        a, b = max(residual, key=lambda k: (k[0] + k[1], k))
        c = residual[(a, b)]
        out[(a, b)] = out.get((a, b), Fraction(0)) + c
        for k, v in schur_to_epoly(a, b).scale(c).terms:
            residual[k] = residual.get(k, Fraction(0)) - v
            if not residual[k]:
                del residual[k]
    return WInvariantLaurent(out)


def bernstein_coeffs(l: int) -> WInvariantLaurent:
    """Schur-basis coefficients of ((S_{1,1} + 1) / 9)^l = (e1 e2 / 9)^l.

    The l^1 norm of the coefficients is at most 1: the expansion of the
    character e1^l e2^l has non-negative integer multiplicities summing to
    at most its value 9^l at the identity.
    """
    if not 0 <= l <= 12:
        raise ValueError("l must lie in [0, 12]")
    monomial = EPoly({(l, l): Fraction(1, 9 ** l)})
    return expand_in_schur(monomial)


@dataclass
class EmpiricalDistribution:
    """Sampled values of A(p, p) = S_{1,1} drawn from the p-adic Plancherel
    measure; tempered values lie in [-1, 8]."""

    samples: np.ndarray

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size and (
            self.samples.min() < -1.0 - 1e-10 or self.samples.max() > 8.0 + 1e-10
        ):
            raise ValueError("sampled S_{1,1} values strayed outside [-1, 8]")


def sample_app(p: int, count: int, seed: int) -> EmpiricalDistribution:
    """Draw A(p, p) = |e1|^2 - 1 under the p-adic Plancherel measure."""
    t1, t2 = measures.sample_angles(measures.MeasureSpec.plancherel(p), count, seed)
    e1 = np.exp(1j * t1) + np.exp(1j * t2) + np.exp(-1j * (t1 + t2))
    return EmpiricalDistribution(np.abs(e1) ** 2 - 1.0)


# Gauss-Legendre orders of the two rules behind every mass: the finer one
# gives the value, its distance to the coarser one the quadrature error.
_ORDERS = (48, 96)
# Added to every error: the rules' sums of O(1) positive terms carry a few
# ulps of rounding that their difference does not show.
_ROUNDING = 64 * np.finfo(float).eps


def _macdonald_p(q, s, re3):
    """P_q = prod_{i != j} (1 - q z_i / z_j) at a tempered point, written in
    s = |e1|^2 and re3 = Re e1^3; the p-adic Plancherel density is 6 c_p / P_q
    times the Sato-Tate density, q = 1/p (Macdonald 1971)."""
    return (1.0 + q ** 6 + (q + q ** 5) * (3.0 - s)
            + (q ** 2 + q ** 4) * (2.0 * re3 - 5.0 * s + 6.0)
            + q ** 3 * (4.0 * re3 - s * s - 6.0 * s + 7.0))


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    t, w = (x + 1.0) / 2.0, w / 2.0
    t.flags.writeable = w.flags.writeable = False
    return t, w


def _pushforward_rule(
    spec: measures.MeasureSpec, R: float, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes r in [0, R] and weights w such that sum(w g(r)) is the integral
    of g(|e1|) over {|e1| <= R} under spec, for smooth g.

    The Weyl integration formula pushes Sato-Tate forward to the density
    |Delta| / (2 pi^2) in the e1-plane, where |Delta|^2 = 27 - 18 s
    + 8 Re e1^3 - s^2 = 8 r^3 (cos psi - kappa) for e1 = r e^{i psi / 3} and
    kappa = (r^4 + 18 r^2 - 27) / (8 r^3).  With 1 - kappa = (3 - r)^3 (r + 1)
    / (8 r^3) and 1 + kappa = (r - 1)(r + 3)^3 / (8 r^3), the support in psi
    is |psi| <= alpha: the whole circle (alpha = pi) for r <= 1, three arcs
    closing at the cusps r = 3 above.  Each angular integral runs over
    psi = alpha sin(theta), which takes out the square-root edge of the arcs
    and maps every arc onto one theta-interval; at the cusps alpha^2 vanishes
    like (3 - r)^3, and the angular integral is alpha^2 times a smooth
    function of alpha^2, so the cusp leaves the radial integrand smooth.  The
    radial integral is split at the kink r = 1 and runs over
    v = |r - 1|^(1/3), which smooths the (r - 1) log|r - 1| term there.  Every
    integral is an n-point Gauss-Legendre rule, summed without BLAS.
    """
    t, gw = _gauss_legendre(n)
    theta = t * (math.pi / 2.0)
    sin_t, cos_t = np.sin(theta), np.cos(theta)
    pieces = ([(-1.0, (1.0 - R) ** (1.0 / 3.0), 1.0)] if R <= 1.0
              else [(-1.0, 0.0, 1.0), (1.0, 0.0, (R - 1.0) ** (1.0 / 3.0))])
    nodes, weights = [], []
    for side, v0, v1 in pieces:
        v = v0 + (v1 - v0) * t
        r = (1.0 + side * v ** 3)[:, None]
        alpha = 2.0 * np.arctan2(np.sqrt((3.0 - r) ** 3 * (r + 1.0)),
                                 np.sqrt(np.maximum(r - 1.0, 0.0) * (r + 3.0) ** 3))
        psi = alpha * sin_t
        # 8 r^3 (cos psi - cos alpha) + 8 r^3 (cos alpha - kappa), as products
        delta_sq = (16.0 * r ** 3 * np.sin((alpha + psi) / 2.0)
                    * np.sin(alpha * cos_t ** 2 / (2.0 * (1.0 + sin_t)))
                    + np.maximum(1.0 - r, 0.0) * (r + 3.0) ** 3)
        dens = np.sqrt(delta_sq) / (2.0 * math.pi ** 2)
        if spec.kind == measures.PLANCHEREL:
            q = 1.0 / spec.p
            dens = dens * (6.0 * measures.plancherel_constant(spec.p)
                           / _macdonald_p(q, r * r, r ** 3 * np.cos(psi)))
        # the integral over phi in [0, 2 pi) is 2 times that over psi in [0, alpha]
        ring = math.pi * alpha[:, 0] * np.sum(dens * (gw * cos_t), axis=1)
        nodes.append(r[:, 0])
        weights.append(gw * (v1 - v0) * 3.0 * v * v * r[:, 0] * ring)
    return np.concatenate(nodes), np.concatenate(weights)


def _radius_cdf(spec: measures.MeasureSpec, R: float) -> tuple[float, float]:
    """Mass of {|e1| <= R} and its a-posteriori error."""
    coarse, fine = (float(np.sum(_pushforward_rule(spec, R, n)[1])) for n in _ORDERS)
    return fine, abs(fine - coarse) + _ROUNDING


def indicator_mass(measure, interval: tuple[float, float]) -> tuple[float, float]:
    """Mass of {S_{1,1} in [a, b]} under the given measure (a MeasureSpec, or
    a prime p meaning the p-adic Plancherel measure) and its error bound.

    S_{1,1} = |e1|^2 - 1, so the mass is F(sqrt(b + 1)) - F(sqrt(a + 1)) for
    the distribution function F of |e1|, each value integrated exactly up to
    quadrature error by `_pushforward_rule`.  The error is the sum of both
    values' errors; it is never zero, and the mass is not renormalized.
    """
    a, b = interval
    if not -1.0 <= a <= b <= 8.0:
        raise ValueError("interval must sit inside [-1, 8]")
    spec = (
        measure
        if isinstance(measure, measures.MeasureSpec)
        else measures.MeasureSpec.plancherel(measure)
    )
    hi, err_hi = _radius_cdf(spec, math.sqrt(b + 1.0))
    lo, err_lo = _radius_cdf(spec, math.sqrt(a + 1.0))
    return hi - lo, err_hi + err_lo


def effective_st_compare(
    p: int,
    n_samples: int,
    intervals: list[tuple[float, float]],
    seed: int,
) -> list[dict]:
    """For each interval, the fraction of one draw of sampled A(p, p) in it
    versus the exact Plancherel mass, with the mass's quadrature error."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    emp = sample_app(p, n_samples, seed)
    out = []
    for a, b in intervals:
        empirical = float(np.mean((emp.samples >= a) & (emp.samples <= b)))
        mass, unc = indicator_mass(p, (a, b))
        out.append({"p": p, "interval": [a, b], "samples": n_samples, "empirical": empirical,
                    "mass": mass, "mass_uncertainty": unc, "diff": abs(empirical - mass)})
    return out

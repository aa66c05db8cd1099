"""Exact algebra of Weyl-invariant Laurent polynomials in the Schur basis,
the Bernstein-polynomial machinery for effective equidistribution, and the
sampled-versus-quadrature distribution comparison for A(p, p).

All basis changes run in exact rational arithmetic; floats appear only at
evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import measures
from .hecke import SatakeTriple, schur_from_elementary

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

    def eval(self, e1, e2):
        """Evaluate with float/complex/array arguments."""
        acc = e1 * 0
        for (a, b), c in self.terms:
            acc = acc + float(c) * e1 ** a * e2 ** b
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

    def eval_satake(self, x: SatakeTriple) -> complex:
        return complex(self.eval_elementary(x.e1, x.e2))

    def eval_elementary(self, e1, e2):
        acc = e1 * 0
        for (l1, l2), c in self.schur_coeffs:
            acc = acc + float(c) * schur_from_elementary(l1, l2, e1, e2)
        return acc

    def to_epoly(self) -> EPoly:
        acc = EPoly()
        for (l1, l2), c in self.schur_coeffs:
            acc = acc + schur_to_epoly(l1, l2).scale(c)
        return acc


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


def bernstein_approx(w_samples, x: float) -> float:
    """Bernstein polynomial sum_j w(j/n) C(n,j) x^j (1-x)^(n-j) given the
    n+1 samples w(0), w(1/n), ..., w(1); logarithmic binomials above n = 60."""
    n = len(w_samples) - 1
    if n < 1:
        raise ValueError("need samples at j/n for j = 0..n with n >= 1")
    if x <= 0.0:
        return float(w_samples[0])
    if x >= 1.0:
        return float(w_samples[-1])
    if n <= 60:
        acc = 0.0
        for j, w in enumerate(w_samples):
            acc += w * math.comb(n, j) * x ** j * (1.0 - x) ** (n - j)
        return acc
    lx, l1x = math.log(x), math.log1p(-x)
    lgn = math.lgamma(n + 1)
    acc = 0.0
    for j, w in enumerate(w_samples):
        if w == 0.0:
            continue
        log_term = (
            lgn - math.lgamma(j + 1) - math.lgamma(n - j + 1) + j * lx + (n - j) * l1x
        )
        acc += w * math.exp(log_term)
    return acc


def smoothstep_plateau(support: tuple[float, float], plateau: tuple[float, float]):
    """Piecewise-cubic bump: 0 outside `support`, 1 on `plateau`, smoothstep
    ramps between; derivative bounded by 3/(2*ramp) <= 3/delta."""
    lo, hi = support
    plo, phi = plateau
    if not lo < plo <= phi < hi:
        raise ValueError("need support_lo < plateau_lo <= plateau_hi < support_hi")

    def w(t: float) -> float:
        if t <= lo or t >= hi:
            return 0.0
        if plo <= t <= phi:
            return 1.0
        u = (t - lo) / (plo - lo) if t < plo else (hi - t) / (hi - phi)
        return u * u * (3.0 - 2.0 * u)

    return w


@dataclass
class EmpiricalDistribution:
    """Sampled values of A(p, p) = S_{1,1} drawn from the p-adic Plancherel
    measure; tempered values lie in [-1, 8]."""

    samples: np.ndarray
    p: int
    seed: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.size and (
            self.samples.min() < -1.0 - 1e-10 or self.samples.max() > 8.0 + 1e-10
        ):
            raise ValueError("sampled S_{1,1} values strayed outside [-1, 8]")


def _s11_values(theta1: np.ndarray, theta2: np.ndarray) -> np.ndarray:
    e1 = np.exp(1j * theta1) + np.exp(1j * theta2) + np.exp(-1j * (theta1 + theta2))
    return np.abs(e1) ** 2 - 1.0


def sample_app(p: int, count: int, seed: int) -> EmpiricalDistribution:
    """Draw A(p, p) values under the p-adic Plancherel measure."""
    t1, t2 = measures.sample_angles(measures.MeasureSpec.plancherel(p), count, seed)
    return EmpiricalDistribution(_s11_values(t1, t2), p, seed)


def indicator_mass(
    measure, interval: tuple[float, float], base_resolution: int = 256
) -> tuple[float, float]:
    """Mass of {S_{1,1} in [a, b]} under the given measure (a MeasureSpec, or
    a prime p meaning the p-adic Plancherel measure) by midpoint quadrature.

    Cells whose corner/center values straddle a boundary of the interval are
    refined twice (4 subcells each pass); the mass of still-straddling
    subcells is returned as an uncertainty bound on the quadrature value.
    """
    a, b = interval
    if not -1.0 <= a <= b <= 8.0:
        raise ValueError("interval must sit inside [-1, 8]")
    spec = (
        measure
        if isinstance(measure, measures.MeasureSpec)
        else measures.MeasureSpec.plancherel(measure)
    )

    def pass_masses(c1, c2, half):
        """(decided inside-mass, straddle list) for square cells centered at
        (c1, c2) with half-width `half`."""
        corners = [
            _s11_values(c1 + dx, c2 + dy)
            for dx in (-half, half)
            for dy in (-half, half)
        ]
        center = _s11_values(c1, c2)
        vmin = np.minimum.reduce(corners + [center])
        vmax = np.maximum.reduce(corners + [center])
        straddle = (vmin < a) & (vmax >= a) | (vmin < b) & (vmax >= b)
        inside = ~straddle & (center >= a) & (center <= b)
        dens = measures.density(spec, measures.TorusPoint(c1, c2))
        w = (2.0 * half) ** 2
        mass = float(np.sum(dens[inside]) * w)
        return mass, c1[straddle], c2[straddle], dens[straddle], w

    k = base_resolution
    step = measures.TWO_PI / k
    centers = step * (np.arange(k) + 0.5)
    c1, c2 = np.meshgrid(centers, centers, indexing="ij")
    mass, s1, s2, _, _ = pass_masses(c1.ravel(), c2.ravel(), step / 2.0)

    half = step / 2.0
    for _ in range(2):
        if s1.size == 0:
            break
        quarter = half / 2.0
        sub1 = np.concatenate([s1 + dx for dx in (-quarter, quarter) for _ in (0, 1)])
        sub2 = np.concatenate([s2 + dy for _ in (0, 1) for dy in (-quarter, quarter)])
        m, s1, s2, dens_left, w_left = pass_masses(sub1, sub2, quarter)
        mass += m
        half = quarter
    uncertainty = float(np.sum(dens_left) * w_left) if s1.size else 0.0
    return mass, uncertainty


def _lambert_w(x: float) -> float:
    """Principal branch for x > 0 by Newton iteration."""
    w = math.log(1.0 + x)
    for _ in range(64):
        ew = math.exp(w)
        step = (w * ew - x) / (ew * (1.0 + w))
        w -= step
        if abs(step) < 1e-14 * (1.0 + abs(w)):
            break
    return w


def bernstein_rate_diagnostic(
    p: int, T: float, A: float = 1.0, eta_prime: float = 0.01
) -> dict:
    """Report the three error terms of the equidistribution argument at the
    coupled parameter choice delta = n^(-1/5), n picked through the Lambert W
    function.  Purely diagnostic: the implied constants are not pinned, so
    nothing here is asserted against a bound.

    Returns n, delta, the smoothing term n^(-1/3) delta^(-2/3), the spectral
    remainder (2p)^n / T^(1/3 - eta'), the exceptional-mass term
    (log p / log T)^(3/2), and the target rate (log p / log T)^(1/5).
    """
    if T <= math.e:
        raise ValueError("T must be large enough that log T > 1")
    logq = math.log(2.0 * p)
    n = int(_lambert_w(5.0 * T ** (5.0 / 3.0 - 5.0 * eta_prime) * logq) / (8.0 * A * logq))
    n = max(n, 1)
    delta = n ** -0.2
    ratio = math.log(p) / math.log(T)
    return {
        "n": n,
        "delta": delta,
        "smoothing_term": n ** (-1.0 / 3.0) * delta ** (-2.0 / 3.0),
        "remainder_term": (2.0 * p) ** n / T ** (1.0 / 3.0 - eta_prime),
        "exceptional_term": ratio ** 1.5,
        "target_rate": ratio ** 0.2,
    }


def effective_st_compare(
    p: int,
    n_samples: int,
    interval: tuple[float, float],
    seed: int,
    base_resolution: int = 256,
) -> dict:
    """Empirical fraction of sampled A(p, p) in the interval versus the
    quadrature Plancherel mass, with the boundary-cell uncertainty."""
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    a, b = interval
    emp = sample_app(p, n_samples, seed)
    empirical = float(np.mean((emp.samples >= a) & (emp.samples <= b)))
    mass, unc = indicator_mass(p, interval, base_resolution)
    return {
        "p": p,
        "interval": [a, b],
        "samples": n_samples,
        "empirical": empirical,
        "mass": mass,
        "mass_uncertainty": unc,
        "diff": abs(empirical - mass),
    }

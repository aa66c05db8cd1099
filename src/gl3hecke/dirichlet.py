"""Dirichlet polynomial toolkit: evaluation, the window polynomial D of the
bilinear-sum decomposition, local Euler-factor identities, and second-moment
(mean value) calibration.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arith import factorize, spf_sieve
from .hecke import PrimeLocalData, _complete_homogeneous, schur_from_elementary

# Truncation tail of euler_factor_check above which it warns.
TAIL_TOL = 1e-12


@dataclass
class DirichletPolynomial:
    """Finite sum F(s) = sum_n a_n n^{-s}; terms maps n -> a_n.

    terms is fixed once constructed: the first evaluation keeps arrays of
    log n and a_n built from it.
    """

    terms: dict

    def __post_init__(self):
        self.terms = {int(n): complex(c) for n, c in self.terms.items() if c != 0}
        if any(n < 1 for n in self.terms):
            raise ValueError("frequencies must be positive integers")

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(log n, a_n) in the order of terms.  log n is math.log of the exact
        integer key, so a frequency past 2^53 is not rounded to a float first."""
        count = len(self.terms)
        log_n = np.fromiter(map(math.log, self.terms), float, count)
        coef = np.fromiter(self.terms.values(), complex, count)
        return log_n, coef

    def eval(self, s: complex) -> complex:
        log_n, coef = self._arrays
        return complex(np.sum(coef * np.exp(-s * log_n)))


def build_MKD(table, X: int, M: int) -> dict:
    """The window polynomial D(s) of the bilinear-sum decomposition, as
    {"D": D}: the sum over squarefree d <= 2M of
    mu(d) prod_{p|d} (A(p,1) p^-s - A(p,1) p^-2s + p^-3s)^2, expanded exactly
    into a Dirichlet polynomial.

    Each d, walked in ascending order, extends its prefix d/P, P the largest
    prime of d: its terms are the prefix's terms times the local factor at P,
    negated, since mu(d) = -mu(d/P).  Every frequency n of d has rad(n) = d,
    so no two d share one and the terms are inserted, never merged.  X is not
    read; it stays in the signature because perfbench's mvt workload calls
    build_MKD(table, 10 * M, M).

    D assumes self-dual data, A(1,p) = A(p,1): only then is the local factor
    the square of 1 - L_p(s)^-1 = A(p,1) p^-s - A(1,p) p^-2s + p^-3s.  For
    other data D is still the product above, expanded as written.
    """
    spf = spf_sieve(2 * M)
    prefixes: dict = {1: {1: 1.0 + 0.0j}}
    dterms = dict(prefixes[1])
    for d in range(2, 2 * M + 1):
        P, e = factorize(d, spf)[-1]
        prefix = prefixes.get(d // P)
        if prefix is None or e > 1:
            continue
        a = table.value(P, 1)
        local = {
            P ** 2: a * a,
            P ** 3: -2.0 * a * a,
            P ** 4: a * a + 2.0 * a,
            P ** 5: -2.0 * a,
            P ** 6: 1.0 + 0.0j,
        }
        terms = {n1 * n2: -c1 * c2 for n1, c1 in prefix.items() for n2, c2 in local.items()}
        dterms.update(terms)
        # d is the prefix only of d P' with a prime P' > P
        if d * (P + 1) <= 2 * M:
            prefixes[d] = terms
    return {"D": DirichletPolynomial(dterms)}


def d_estimate_ratio(dpoly: DirichletPolynomial, M: int, s: complex) -> float:
    """|D(s)| divided by max(1, M^(1-2 sigma) log M).

    The floor at 1 is forced: the d = 1 term of D is exactly 1, so the bare
    target M^(1-2 sigma) log M is unattainable once sigma > 1/2.  On the
    critical line sigma = 1/2 the divisor reduces to log M.
    """
    sigma = s.real
    unit = M ** (1.0 - 2.0 * sigma) * math.log(M)
    return abs(dpoly.eval(s)) / max(1.0, unit)


def euler_factor_check(local: PrimeLocalData, s: complex, J: int = 60) -> dict:
    """Check the local generating series against its closed form.

    series: sum_{j<=J} A(p^j, 1) p^{-js}.  closed: the inverse cubic
    (1 - A(p,1) p^-s + A(1,p) p^-2s - p^-3s)^-1; the quadratic coefficient is
    A(1, p) = conj A(p, 1), which reduces to the self-dual display for real
    data.  ratio_identity_residual checks that the shifted series over the
    plain series equals A(p,1) - A(1,p) p^-s + p^-2s.
    """
    if s.real < 1.1:
        raise ValueError("need Re s >= 1.1 for comfortable convergence")
    if J < 20:
        raise ValueError("need J >= 20 truncation terms")
    p = local.p
    x = cmath.exp(-s * math.log(p))
    # A(p^j, 1) is the complete homogeneous polynomial h_j of the triple
    coeffs = _complete_homogeneous(local.satake.e1, local.satake.e2, J)
    series = 0.0 + 0.0j
    for j in range(J, -1, -1):
        series = series * x + coeffs[j]
    shifted = 0.0 + 0.0j
    for j in range(J - 1, -1, -1):
        shifted = shifted * x + coeffs[j + 1]

    a1 = coeffs[1]
    a1_dual = schur_from_elementary(0, 1, local.satake.e1, local.satake.e2)
    closed = 1.0 / (1.0 - a1 * x + a1_dual * x * x - x ** 3)
    ratio_residual = abs(shifted / series - (a1 - a1_dual * x + x * x))

    # tempered tail bound: |A(p^j, 1)| <= C(j+2, 2), and in closed form
    # sum_{j>J} C(j+2, 2) r^j = r^(J+1) [C(J+3, 2)/(1-r) + (J+3) r/(1-r)^2 + r^2/(1-r)^3]
    r = abs(x)
    tail = r ** (J + 1) * ((J + 2) * (J + 3) / 2.0 / (1.0 - r)
                           + (J + 3) * r / (1.0 - r) ** 2 + r * r / (1.0 - r) ** 3)
    if tail > TAIL_TOL:
        warnings.warn(
            f"Euler-factor truncation tail estimate {tail:.3e} exceeds {TAIL_TOL:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return {
        "series": series,
        "closed": closed,
        "ratio_identity_residual": ratio_residual,
    }


_KERNEL_ROWS = 64


def _kernel(T: float, x: np.ndarray) -> np.ndarray:
    """K_T(x) = 2 sin(Tx)/x, for x > 0."""
    return 2.0 * np.sin(T * x) / x


def second_moment_many(polys: list[DirichletPolynomial], T: float) -> list[float]:
    """Exact integrals of |F(1/2 + it)|^2 over [-T, T] by the mean-value
    identity sum_{m,n} a_m conj(a_n) (mn)^{-1/2} K_T(log m/n), where
    K_T(x) = 2 sin(Tx)/x and K_T(0) = 2T.

    K_T is real and symmetric, so Re(conj(a) K a) = Re(a) K Re(a) + Im(a) K
    Im(a), and the form is its diagonal 2T sum |a_n|^2/n plus twice the part
    strictly above it.  That part is summed _KERNEL_ROWS rows at a time over
    the sorted union of the supports, so memory stays O(support x rows), and
    every x = log n_j - log n_i there is positive.  The reduction is einsum
    rather than a matrix product: its summation order does not depend on the
    number of BLAS threads, so reports stay byte-identical.
    """
    support = sorted(set().union(*(p.terms for p in polys)))
    log_n = np.fromiter(map(math.log, support), float, len(support))
    if np.any(np.diff(log_n) <= 0.0):
        raise ValueError("frequencies too large for distinct float logarithms")
    coef = np.zeros((len(support), len(polys)), dtype=complex)
    for j, poly in enumerate(polys):
        poly_log_n, poly_coef = poly._arrays
        coef[np.searchsorted(log_n, poly_log_n), j] = poly_coef
    coef *= np.exp(-0.5 * log_n)[:, None]
    parts = np.concatenate([coef.real, coef.imag], axis=1)
    quad = 2.0 * T * np.einsum("ik,ik->k", parts, parts)
    for lo in range(0, len(support), _KERNEL_ROWS):
        block = parts[lo : lo + _KERNEL_ROWS]
        hi = lo + len(block)
        i, j = np.triu_indices(len(block), 1)
        x = log_n[lo + j] - log_n[lo + i]
        quad += 2.0 * np.einsum("pk,p,pk->k", block[i], _kernel(T, x), block[j])
        x = log_n[None, hi:] - log_n[lo:hi, None]
        quad += 2.0 * np.einsum("ik,ij,jk->k", block, _kernel(T, x), parts[hi:])
    return [float(v) for v in quad[: len(polys)] + quad[len(polys) :]]


def mvt_ratio_many(polys: list[DirichletPolynomial], T: float) -> list[dict]:
    """Observed second moment of each polynomial against the mean-value bound
    (N + T) sum |a_n|^2 / n, with N the smallest frequency of the support."""
    out = []
    for poly, lhs in zip(polys, second_moment_many(polys, T)):
        if not poly.terms:
            out.append({"lhs": 0.0, "rhs": 0.0, "ratio": 0.0})
            continue
        log_n, coef = poly._arrays
        rhs = (min(poly.terms) + T) * float(np.sum(np.abs(coef) ** 2 * np.exp(-log_n)))
        out.append({"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs else 0.0})
    return out

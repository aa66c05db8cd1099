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

from .arith import prime_array
from .hecke import PrimePowerSieve, _complete_homogeneous, _PyComplex

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
        if min(self.terms, default=1) < 1:
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


@dataclass(frozen=True)
class WindowPolynomial:
    """D(s) = sum over squarefree d <= n of mu(d) prod_{p|d} g_p(s), with
    g_p(s) = (a_p p^-s - a_p p^-2s + p^-3s)^2, kept as the primes p <= n,
    ascending, and their a_p: the sum over d <= n of the multiplicative f
    with f(p) = -g_p and f(p^k) = 0 for k >= 2.  eval forms g_p in the
    _PyComplex ring and runs the polynomial's one PrimePowerSieve, so each
    term is its -g_p multiplied from 1, primes ascending, as Python would."""

    primes: np.ndarray
    a: np.ndarray
    n: int

    @cached_property
    def _sieve(self) -> PrimePowerSieve:
        return PrimePowerSieve(self.n, self.primes)

    def eval(self, s: complex) -> complex:
        x = np.exp(-s * np.log(self.primes))
        x, a = _PyComplex(x.real, x.imag), _PyComplex(self.a.real, self.a.imag)
        y = a * x - a * x * x + x * x * x
        g = y * y
        rest = np.zeros(len(self._sieve.powers) - len(g.re))  # f(p^k) = 0 for k >= 2
        terms = self._sieve.run([_PyComplex(-g.re, -g.im), _PyComplex(rest, rest)])
        return complex(np.sum(terms[1:]))


def build_MKD(table, X: int, M: int) -> dict:
    """The window polynomial D of the bilinear-sum decomposition, as
    {"D": D}: the WindowPolynomial over d <= 2M with a_p = A(p,1), read from
    the table's row A(m, 1), m <= 2M.  X is not read; it stays in the
    signature because perfbench's mvt workload calls build_MKD(table, 10 * M, M).

    D assumes self-dual data, A(1,p) = A(p,1): only then is g_p the square of
    1 - L_p(s)^-1 = A(p,1) p^-s - A(1,p) p^-2s + p^-3s.  For other data D is
    still the sum of products that WindowPolynomial defines.
    """
    primes = prime_array(2 * M)
    return {"D": WindowPolynomial(primes, table.row(2 * M)[primes - 1], 2 * M)}


def d_estimate_ratio(dpoly: WindowPolynomial, M: int, s: complex) -> float:
    """|D(s)| divided by max(1, M^(1-2 sigma) log M).

    The floor at 1 is forced: the d = 1 term of D is exactly 1, so the bare
    target M^(1-2 sigma) log M is unattainable once sigma > 1/2.  On the
    critical line sigma = 1/2 the divisor reduces to log M.
    """
    sigma = s.real
    unit = M ** (1.0 - 2.0 * sigma) * math.log(M)
    return abs(dpoly.eval(s)) / max(1.0, unit)


def euler_factor_check(p: int, e1: complex, e2: complex, s: complex, J: int = 60) -> dict:
    """Check the local generating series at p against its closed form, from
    the e1, e2 of the Satake triple at p.

    series: sum_{j<=J} A(p^j, 1) p^{-js}.  closed: the inverse cubic
    (1 - A(p,1) p^-s + A(1,p) p^-2s - p^-3s)^-1; the quadratic coefficient is
    A(1, p) = e2 itself, which is conj A(p, 1) for tempered data and gives
    the self-dual display for real data.  ratio_identity_residual checks that
    the shifted series over the plain series equals A(p,1) - A(1,p) p^-s + p^-2s.
    """
    if s.real < 1.1:
        raise ValueError("need Re s >= 1.1 for comfortable convergence")
    if J < 20:
        raise ValueError("need J >= 20 truncation terms")
    x = cmath.exp(-s * math.log(p))
    # A(p^j, 1) is the complete homogeneous polynomial h_j of the triple
    coeffs = _complete_homogeneous(e1, e2, J)
    series = 0.0 + 0.0j
    for j in range(J, -1, -1):
        series = series * x + coeffs[j]
    shifted = 0.0 + 0.0j
    for j in range(J - 1, -1, -1):
        shifted = shifted * x + coeffs[j + 1]

    a1, a1_dual = coeffs[1], e2
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
# T x below which a pair's kernel is 2 sin(Tx)/x from x itself, not by angle
# addition
_DIRECT_BAND = 1.0
# the pairs of a block's own columns strictly above its diagonal
_ABOVE = ~np.tri(_KERNEL_ROWS, dtype=bool)


def _phases(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of each phase T log n."""
    return np.sin(theta), np.cos(theta)


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

    Past a band of columns, sin(Tx) = s_j c_i - c_j s_i by angle addition,
    with s = sin(T log n) and c = cos(T log n) taken once per frequency, so
    those pairs cost no sine.  The numerator then errs by a few ulp of T log n,
    and K_T by T ulp(log n)/x.  2 sin(Tx)/x from the rounded x = log n_j -
    log n_i errs by as much where Tx >= 1, but where Tx << 1 its errors in
    sin(Tx) and in x cancel, and K_T stays within a few ulp of 2T.  So the
    direct sine is kept on the block's own columns and on the band after them
    where its last row has Tx < _DIRECT_BAND: every pair past the band has
    Tx >= 1.
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
    # Where every Im a is 0 (NaN is not), the Im half of quad would be
    # 2T * 0.0 and then +0.0 from each block: it is folded in as that constant.
    real = not coef.imag.any()
    parts = np.ascontiguousarray(coef.real) if real else np.concatenate([coef.real, coef.imag], 1)
    im = 0.0 if len(support) else 2.0 * T * 0.0
    columns = np.ascontiguousarray(parts.T)
    quad = 2.0 * T * np.einsum("ik,ik->k", parts, parts)
    theta = T * log_n
    sin, cos = _phases(theta)
    x = np.empty((_KERNEL_ROWS, len(support)))
    kernel = np.empty_like(x)
    for lo in range(0, len(support), _KERNEL_ROWS):
        block = parts[lo : lo + _KERNEL_ROWS]
        m, hi = len(block), lo + len(block)
        w = max(hi, int(np.searchsorted(theta, theta[hi - 1] + _DIRECT_BAND))) - lo
        xb, kb = x[:m, : len(support) - lo], kernel[:m, : len(support) - lo]
        # s_j c_i - c_j s_i past the band, with xb as scratch for c_j s_i
        np.multiply.outer(cos[lo:hi], sin[lo + w :], out=kb[:, w:])
        np.multiply.outer(sin[lo:hi], cos[lo + w :], out=xb[:, w:])
        kb[:, w:] -= xb[:, w:]
        np.subtract(log_n[None, lo:], log_n[lo:hi, None], out=xb)
        np.multiply(xb[:, :w], T, out=kb[:, :w])
        np.sin(kb[:, :m], out=kb[:, :m], where=_ABOVE[:m, :m])
        np.sin(kb[:, m:w], out=kb[:, m:w])
        # the pairs on and below the diagonal are divided by inf, to 0
        xb[:, :m][~_ABOVE[:m, :m]] = np.inf
        kb /= xb
        # kb holds sin(Tx)/x, half of K_T, and the triangle counts twice
        rows = np.einsum("ij,kj->ik", kb, columns[:, lo:])
        quad += 4.0 * np.einsum("ik,ik->k", block, rows)
    return [float(v) for v in (quad + im if real else quad[: len(polys)] + quad[len(polys) :])]


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

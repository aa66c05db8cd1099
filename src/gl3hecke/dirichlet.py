"""Dirichlet polynomial toolkit: evaluation, the M/K/D window decomposition,
local Euler-factor identities, and second-moment (mean value) calibration.

Dyadic ranges follow the convention m ~ M <=> M <= m <= 2M.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .arith import factorize, mobius
from .csvio import read_csv, write_csv
from .hecke import PrimeLocalData, schur_from_elementary


@dataclass
class DirichletPolynomial:
    """Finite sum F(s) = sum_n a_n n^{-s}; terms maps n -> a_n."""

    terms: dict
    range_desc: str = ""

    def __post_init__(self):
        self.terms = {int(n): complex(c) for n, c in self.terms.items() if c != 0}
        if any(n < 1 for n in self.terms):
            raise ValueError("frequencies must be positive integers")

    def eval(self, s: complex) -> complex:
        acc = 0.0 + 0.0j
        for n, c in self.terms.items():
            acc += c if n == 1 else c * cmath.exp(-s * math.log(n))
        return acc

    def __mul__(self, other: "DirichletPolynomial") -> "DirichletPolynomial":
        out: dict = {}
        for n1, c1 in self.terms.items():
            for n2, c2 in other.terms.items():
                k = n1 * n2
                out[k] = out.get(k, 0.0 + 0.0j) + c1 * c2
        return DirichletPolynomial(out)

    def __add__(self, other: "DirichletPolynomial") -> "DirichletPolynomial":
        out = dict(self.terms)
        for n, c in other.terms.items():
            out[n] = out.get(n, 0.0 + 0.0j) + c
        return DirichletPolynomial(out)


def _term_row(row) -> tuple[int, complex]:
    n = int(row[0])
    if n < 1:
        raise ValueError(f"frequency n = {n} < 1")
    return n, complex(float(row[1]), float(row[2]))


def poly_to_csv(poly: DirichletPolynomial, path: str) -> None:
    """Write the terms as rows n,re,im."""
    write_csv(path, ("n", "re", "im"),
              ((n, c.real, c.imag) for n, c in sorted(poly.terms.items())))


def poly_from_csv(path: str) -> DirichletPolynomial:
    """Read a polynomial written by poly_to_csv."""
    return DirichletPolynomial(read_csv(path, ("n", "re", "im"), "frequency", _term_row),
                               range_desc=path)


def build_MKD(table, X: int, M: int) -> dict:
    """The three window polynomials from the bilinear-sum decomposition:

    M(s) over m in [M, 2M] with coefficients A(m, 1); K(s) over
    X/3M <= k <= 3X/M with coefficients A(k, 1); D(s) over squarefree
    d <= 2M with mu(d) prod_{p|d} (A(p,1) p^-s - A(p,1) p^-2s + p^-3s)^2,
    expanded exactly into a Dirichlet polynomial.
    """
    mpoly = DirichletPolynomial(
        {m: table.value(m, 1) for m in range(M, 2 * M + 1)},
        range_desc=f"m in [{M}, {2 * M}]",
    )
    k_lo = max(1, -(-X // (3 * M)))
    k_hi = (3 * X) // M
    kpoly = DirichletPolynomial(
        {k: table.value(k, 1) for k in range(k_lo, k_hi + 1)},
        range_desc=f"k in [{k_lo}, {k_hi}]",
    )
    dterms: dict = {1: 1.0 + 0.0j}
    for d in range(2, 2 * M + 1):
        mu = mobius(d)
        if mu == 0:
            continue
        factor_terms: dict = {1: complex(mu)}
        for p, _ in factorize(d):
            a = table.value(p, 1)
            local = {
                p ** 2: a * a,
                p ** 3: -2.0 * a * a,
                p ** 4: a * a + 2.0 * a,
                p ** 5: -2.0 * a,
                p ** 6: 1.0 + 0.0j,
            }
            factor_terms = {
                n1 * n2: c1 * c2
                for n1, c1 in factor_terms.items()
                for n2, c2 in local.items()
            }
        for n, c in factor_terms.items():
            dterms[n] = dterms.get(n, 0.0 + 0.0j) + c
    dpoly = DirichletPolynomial(dterms, range_desc=f"squarefree d <= {2 * M}")
    return {"M": mpoly, "K": kpoly, "D": dpoly}


def d_estimate_ratio(dpoly: DirichletPolynomial, M: int, s: complex) -> float:
    """|D(s)| divided by max(1, M^(1-2 sigma) log M).

    The floor at 1 is forced: the d = 1 term of D is exactly 1, so the bare
    target M^(1-2 sigma) log M is unattainable once sigma > 1/2.  On the
    critical line sigma = 1/2 the divisor reduces to log M.
    """
    sigma = s.real
    unit = M ** (1.0 - 2.0 * sigma) * math.log(M)
    return abs(dpoly.eval(s)) / max(1.0, unit)


def euler_factor_check(
    local: PrimeLocalData, s: complex, J: int = 60, tail_tol: float = 1e-12
) -> dict:
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
    coeffs = [
        complex(schur_from_elementary(j, 0, local.satake.e1, local.satake.e2))
        for j in range(J + 1)
    ]
    series = 0.0 + 0.0j
    for j in range(J, -1, -1):
        series = series * x + coeffs[j]
    shifted = 0.0 + 0.0j
    for j in range(J - 1, -1, -1):
        shifted = shifted * x + coeffs[j + 1]

    a1 = coeffs[1]
    a1_dual = complex(schur_from_elementary(0, 1, local.satake.e1, local.satake.e2))
    closed = 1.0 / (1.0 - a1 * x + a1_dual * x * x - x ** 3)
    ratio_residual = abs(shifted / series - (a1 - a1_dual * x + x * x))

    # tempered tail bound: |A(p^j, 1)| <= (j+1)(j+2)/2
    r = abs(x)
    tail = 0.0
    j = J + 1
    term = (j + 1) * (j + 2) / 2.0 * r ** j
    while term > 1e-30:
        tail += term
        j += 1
        term = (j + 1) * (j + 2) / 2.0 * r ** j
    if tail > tail_tol:
        warnings.warn(
            f"Euler-factor truncation tail estimate {tail:.3e} exceeds {tail_tol:.1e}",
            RuntimeWarning,
            stacklevel=2,
        )
    return {
        "series": series,
        "closed": closed,
        "ratio_identity_residual": ratio_residual,
    }


_KERNEL_ROWS = 64


def second_moment_many(polys: list[DirichletPolynomial], T: float) -> list[float]:
    """Exact integrals of |F(1/2 + it)|^2 over [-T, T] by the mean-value
    identity sum_{m,n} a_m conj(a_n) (mn)^{-1/2} K_T(log m/n), where
    K_T(x) = 2 sin(Tx)/x = 2T sinc(Tx/pi) and K_T(0) = 2T.

    The kernel is built _KERNEL_ROWS rows at a time over the union of the
    supports, so memory stays O(support x rows).  K_T is real and symmetric,
    so Re(conj(a) K a) = Re(a) K Re(a) + Im(a) K Im(a).  The reduction is
    einsum rather than a matrix product: its summation order does not depend
    on the number of BLAS threads, so reports stay byte-identical.
    """
    support = np.array(sorted(set().union(*(p.terms for p in polys))), dtype=float)
    log_n = np.log(support)
    coef = np.zeros((len(support), len(polys)), dtype=complex)
    for j, poly in enumerate(polys):
        rows = np.searchsorted(support, list(poly.terms))
        coef[rows, j] = list(poly.terms.values())
    coef /= np.sqrt(support)[:, None]
    parts = np.concatenate([coef.real, coef.imag], axis=1)
    quad = np.zeros(2 * len(polys))
    for lo in range(0, len(support), _KERNEL_ROWS):
        diff = log_n[lo : lo + _KERNEL_ROWS, None] - log_n[None, :]
        kernel = 2.0 * T * np.sinc(diff * (T / math.pi))
        quad += np.einsum("ik,ij,jk->k", parts[lo : lo + _KERNEL_ROWS], kernel, parts)
    return [float(v) for v in quad[: len(polys)] + quad[len(polys) :]]


def mvt_ratio_many(polys: list[DirichletPolynomial], T: float) -> list[dict]:
    """Observed second moment of each polynomial against the mean-value bound
    (N + T) sum |a_n|^2 / n, with N the smallest frequency of the support."""
    out = []
    for poly, lhs in zip(polys, second_moment_many(polys, T)):
        if not poly.terms:
            out.append({"lhs": 0.0, "rhs": 0.0, "ratio": 0.0})
            continue
        N = min(poly.terms)
        rhs = (N + T) * sum(abs(c) ** 2 / n for n, c in poly.terms.items())
        out.append({"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs else 0.0})
    return out

"""Ramanujan tau(n) from the 24th power of the Dedekind eta q-series.

tau(n) is the coefficient of q^{n-1} in prod_{k>=1} (1 - q^k)^24: Jacobi's
sparse series for the cube, squared three times.  Each truncated squaring is
one exact product of big decimals with the coefficients in fixed-width digit
slots; libmpdec, the C core of `decimal`, multiplies numbers this large by a
number-theoretic transform, where CPython's int product is Karatsuba.  The
pure-Python `_pydecimal` has no such transform, so the import fails without
the C module rather than run orders of magnitude slower.
"""

from __future__ import annotations

try:
    from _decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
except ImportError as exc:
    raise ImportError("gl3hecke.tau needs the C decimal module (libmpdec), "
                      "which this interpreter lacks") from exc

# Every product of big decimals below is exact in this context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)


def eta_cubed_coeffs(N: int) -> list[int]:
    """Coefficients of prod (1 - q^k)^3 up to q^{N-1}: Jacobi's sparse series
    sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2}."""
    out = [0] * N
    j = 0
    while j * (j + 1) // 2 < N:
        out[j * (j + 1) // 2] = (2 * j + 1) * (-1 if j % 2 else 1)
        j += 1
    return out


def square_trunc(coeffs: list[int], N: int) -> list[int]:
    """Exact coefficients of the square of the polynomial, truncated to N."""
    bound = sum(c * c for c in coeffs)
    if bound == 0:
        return [0] * N
    # By Cauchy-Schwarz the square's coefficients are at most bound in size, so
    # slots of `width` digits, 10^width > 2 bound, hold each as c + half, half =
    # 10^width / 2.  So does each input coefficient (c^2 <= bound), in exactly
    # `width` digits.  Digits go through Decimal: str(int) and int(str) stop at
    # 4300 digits.
    width = Decimal(2 * bound).adjusted() + 1
    half = 5 * 10 ** (width - 1)
    halves = "5" + "0" * (width - 1)
    slots = "".join(str(Decimal(c + half)) for c in reversed(coeffs))
    packed = _EXACT.subtract(Decimal(slots), Decimal(halves * len(coeffs)))
    full_len = 2 * len(coeffs) - 1
    keep = min(N, full_len)
    digits = format(_EXACT.fma(packed, packed, Decimal(halves * full_len)), "f")
    out = [int(Decimal(digits[j - width : j])) - half
           for j in range(len(digits), len(digits) - keep * width, -width)]
    out.extend([0] * (N - keep))
    return out


def ramanujan_tau(N: int) -> list[int]:
    """Exact tau(1), ..., tau(N).  Requires 1 <= N <= 10**6."""
    if not 1 <= N <= 10**6:
        raise ValueError(f"N = {N} outside supported range [1, 10^6]")
    f = eta_cubed_coeffs(N)
    for _ in range(3):
        f = square_trunc(f, N)
    return f


def tau_prime_eigenvalues(N: int) -> list[tuple[int, float]]:
    """(p, tau(p) / p^{11/2}) for primes p <= N; the normalized values lie in
    (-2, 2) by the proven Ramanujan bound."""
    from .arith import primes_upto

    tau = ramanujan_tau(N)
    return [(p, tau[p - 1] / p ** 5.5) for p in primes_upto(N)]


def sym2_tau_locals(N: int) -> list:
    """Local Satake data of the symmetric-square lift of the tau form,
    for all primes p <= N."""
    from .hecke import GL2FormData, sym2_lift

    return sym2_lift(GL2FormData(tau_prime_eigenvalues(N)))

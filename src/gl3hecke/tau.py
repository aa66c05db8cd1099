"""Ramanujan tau(n) from the 24th power of the Dedekind eta q-series.

tau(n) is the coefficient of q^{n-1} in prod_{k>=1} (1 - q^k)^24 = eta^24 / q.
The pipeline is eta^6, read off from pairs of terms of Jacobi's sparse series
for eta^3, then two exact truncated squarings (eta^12, eta^24).

Each squaring is one exact product of big decimals (Kronecker substitution):
the coefficients sit in fixed-width digit slots of one number, and libmpdec,
the C core of `decimal`, multiplies numbers this large by a number-theoretic
transform, where CPython's int product is Karatsuba.  The decimals are
read from and written to ASCII digit strings.  Packing and unpacking those
are numpy passes over a uint8 digit matrix, in int64 limbs of 18 digits, so
no Python object is made per digit or per slot beyond the coefficients
themselves.  The pure-Python `_pydecimal` has no such transform, so the
import fails without the C module rather than run orders of magnitude
slower.
"""

from __future__ import annotations

import numpy as np

try:
    from _decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
except ImportError as exc:
    raise ImportError("gl3hecke.tau needs the C decimal module (libmpdec), "
                      "which this interpreter lacks") from exc

# Every product and sum of big decimals below is exact in this context.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
_LIMB = 18                          # decimal digits per int64 limb
_LIMB_BASE = 10 ** _LIMB
_ZERO = ord("0")
_CHUNK = 1 << 14                    # slots packed or unpacked at a time


def eta_sixth_coeffs(N: int) -> list[int]:
    """Coefficients of prod (1 - q^k)^6 up to q^{N-1}: the square of Jacobi's
    series sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2}, summed over its pairs of
    terms."""
    J = 0
    while J * (J + 1) // 2 < N:
        J += 1
    j = np.arange(J)
    tri = j * (j + 1) // 2
    jacobi = np.where(j % 2 == 1, -(2 * j + 1), 2 * j + 1).astype(np.float64)
    exps = tri[:, None] + tri[None, :]
    inside = exps < N
    # Float64 weights are exact: every partial sum of the bincount is an
    # integer of size at most (sum_{j<J} (2j+1))^2 = J^4, which is below 2^53
    # for N < 4.7 * 10^7, far beyond the 10^6 that ramanujan_tau allows.
    six = np.bincount(exps[inside], np.outer(jacobi, jacobi)[inside], minlength=N)
    return six.astype(np.int64).tolist()


def _repeat(slot: Decimal, width: int, count: int) -> Decimal:
    """sum_{k<count} slot * 10^{width k}, by binary doubling."""
    out, length = Decimal(0), 0
    for bit in bin(count)[2:]:
        out = _EXACT.add(_EXACT.scaleb(out, width * length), out)
        length *= 2
        if bit == "1":
            out = _EXACT.add(_EXACT.scaleb(out, width), slot)
            length += 1
    return out


def _slot_digits(chunk: list[int], width: int, top_offset: int) -> np.ndarray:
    """ASCII digits of c + half for each c, one width-digit row per c."""
    try:
        rest = np.array(chunk, dtype=np.int64)
    except OverflowError:
        rest = np.array(chunk, dtype=object)
    # Digit-major, so each digit is one contiguous write.
    columns = np.empty((width, len(chunk)), dtype=np.uint8)
    col = width
    while col > 0:
        if col > _LIMB:
            limb = (rest % _LIMB_BASE).astype(np.int64)
            rest //= _LIMB_BASE
        else:
            # c + half >= 0, so floor division leaves a non-negative top limb.
            limb = rest.astype(np.int64) + top_offset
        # uint32 division vectorises where int64 division does not, so each
        # limb is split into two 9-digit halves first.
        for part in (limb % 10**9, limb // 10**9):
            part = part.astype(np.uint32)
            for _ in range(min(9, col)):
                col -= 1
                quotient = part // np.uint32(10)
                columns[col] = part - quotient * np.uint32(10)
                part = quotient
    columns += _ZERO
    return columns.T


def _slot_values(rows: np.ndarray, width: int, top_offset: int) -> list[int]:
    """c for each row of ASCII digits of c + half."""
    limbs = []
    for hi in range(width, 0, -_LIMB):
        lo = max(hi - _LIMB, 0)
        # Horner on the raw ASCII bytes stays below 10^18 * 57/9 < 2^63; the
        # '0' of every digit is taken off at the end in one subtraction.
        value = np.zeros(len(rows), dtype=np.int64)
        for col in range(lo, hi):
            value *= 10
            value += rows[:, col]
        value -= _ZERO * ((10 ** (hi - lo) - 1) // 9)
        limbs.append(value)
    limbs[-1] -= top_offset
    out = limbs[-1].tolist()
    for limb in reversed(limbs[:-1]):
        out = [hi * _LIMB_BASE + lo for hi, lo in zip(out, limb.tolist())]
    return out


# Packing and unpacking go _CHUNK slots at a time, so that the only large
# buffers are the digit string and the decimals: the short-lived arrays and
# ints of one chunk reuse the memory of the last one instead of leaving freed
# holes among the kept coefficients, which the allocator cannot return.

def _pack(coeffs: list[int], width: int, top_offset: int) -> Decimal:
    """The number whose width-digit slots, lowest first, hold c + half for the
    coefficients c, half = top_offset * 10^{18 (limbs - 1)}."""
    n = len(coeffs)
    # Row r holds slot n - 1 - r, so the matrix's bytes are the decimal string.
    digits = np.empty((n, width), dtype=np.uint8)
    for start in range(0, n, _CHUNK):
        chunk = coeffs[start : start + _CHUNK]
        digits[n - start - len(chunk) : n - start] = _slot_digits(chunk, width, top_offset)[::-1]
    text = str(digits, "ascii")
    del digits
    return Decimal(text)


def _unpack(low: Decimal, width: int, keep: int, top_offset: int) -> list[int]:
    """The `keep` lowest width-digit slots of the non-negative integer `low`
    (which has at most keep * width digits), lowest first, each minus half."""
    text = format(low, "f").encode("ascii").rjust(keep * width, b"0")
    slots = np.frombuffer(text, dtype=np.uint8).reshape(keep, width)[::-1]
    out = []
    for start in range(0, keep, _CHUNK):
        out += _slot_values(slots[start : start + _CHUNK], width, top_offset)
    return out


def square_trunc(coeffs: list[int], N: int) -> list[int]:
    """Exact coefficients of the square of the polynomial, truncated to N."""
    if len(coeffs) > N:
        coeffs = coeffs[:N]
    bound = sum(c * c for c in coeffs)
    if bound == 0:
        return [0] * N
    # By Cauchy-Schwarz every kept coefficient of the square is at most bound
    # in size, so slots of `width` digits, 10^width > 2 bound, hold each as
    # c + half, half = 10^width / 2.  So does each input coefficient
    # (c^2 <= bound).  half = top_offset * 10^{18 (limbs - 1)} lives in the
    # top 18-digit limb alone.  Digits go through numpy and Decimal, never
    # through str(int) and int(str), which stop at 4300 digits.
    width = Decimal(2 * bound).adjusted() + 1
    top_offset = 5 * 10 ** ((width - 1) % _LIMB)
    # keep >= len(coeffs): the input is at most N long.
    keep = min(N, 2 * len(coeffs) - 1)
    half = _EXACT.scaleb(Decimal(5), width - 1)
    offsets = _repeat(half, width, keep)
    below = offsets if keep == len(coeffs) else _repeat(half, width, len(coeffs))
    packed = _EXACT.subtract(_pack(coeffs, width, top_offset), below)
    del below
    product = _EXACT.fma(packed, packed, offsets)
    del packed, offsets
    # The square plus offsets is >= 0, and its `keep` lowest slots hold the
    # wanted coefficients plus half each; shift(0) in a context of keep *
    # width digits keeps exactly those digits.
    low = Context(prec=keep * width, Emax=MAX_EMAX, Emin=MIN_EMIN).shift(product, 0)
    del product
    out = _unpack(low, width, keep, top_offset)
    out.extend([0] * (N - keep))
    return out


def ramanujan_tau(N: int) -> list[int]:
    """Exact tau(1), ..., tau(N).  Requires 1 <= N <= 10**6."""
    if not 1 <= N <= 10**6:
        raise ValueError(f"N = {N} outside supported range [1, 10^6]")
    f = eta_sixth_coeffs(N)
    for _ in range(2):
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

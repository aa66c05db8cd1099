"""Ramanujan tau(n), the coefficient of q^{n-1} in prod_{k>=1} (1 - q^k)^24:
eta^6 from pairs of terms of Jacobi's series for eta^3, then two exact
truncated squarings by float64 FFTs over balanced limbs (`_square_words`),
kept in int64 words until integers are asked for."""

from __future__ import annotations

import math

import numpy as np

from . import hecke
from .arith import prime_array

_CHUNK = 1 << 14                    # outputs rebuilt into Python ints at a time
_EPS = 2.0 ** -53                   # unit roundoff of float64
_TWIDDLE = 2.0 ** -52               # assumed error of the FFT's roots of unity


def eta_sixth_coeffs(N: int) -> np.ndarray:
    """Coefficients of prod (1 - q^k)^6 up to q^{N-1}, as int64: the square
    of Jacobi's series sum_{j>=0} (-1)^j (2j+1) q^{j(j+1)/2}, summed over its
    pairs of terms."""
    j = np.arange((math.isqrt(max(8 * N - 7, 0)) + 1) // 2)     # the j with j(j+1)/2 < N
    tri = j * (j + 1) // 2
    jacobi = np.where(j % 2 == 1, -(2 * j + 1), 2 * j + 1).astype(np.float64)
    exps = tri[:, None] + tri[None, :]
    inside = exps < N
    # Float64 weights are exact: every partial sum of the bincount is an
    # integer of size at most (sum_{j<J} (2j+1))^2 = J^4, which is below 2^53
    # for N < 4.7 * 10^7, far beyond the 10^6 that ramanujan_tau allows.
    six = np.bincount(exps[inside], np.outer(jacobi, jacobi)[inside], minlength=N)
    return six.astype(np.int64)


def _fft_length(m: int) -> int:
    """Smallest 2^a 3^b 5^c >= m."""
    best = 1 << max(m - 1, 0).bit_length()
    for p5 in (5 ** i for i in range(best.bit_length())):
        for p35 in (p5 * 3 ** i for i in range(best.bit_length())):
            if p35 < best:
                best = min(best, p35 << max(0, (m - 1) // p35).bit_length())
    return best


def _growth(L: int, K: int) -> float:
    """The relative error factor of `_error_bound` for K limbs and length-L
    FFTs; it grows with K."""
    n = 1
    for r, passes in ((2, 1), (3, 2), (5, 3)):
        while L % r == 0:
            L, n = L // r, n + passes
    return math.expm1((3 * n + K + 1) * math.log1p(_EPS) + 3 * n * math.log1p(_TWIDDLE)
                      + (3 * n + 1) * math.log1p(_EPS * math.sqrt(5.0)))


def _error_bound(norms: list[float], L: int) -> float:
    """Bound on the distance from the exact integers of every diagonal
    sum_{k+l=t} x_k * x_l of real vectors with these Euclidean norms, computed
    by length-L FFTs as `_square_words` does.

    Percival (Math. Comp. 72 (2003), Theorem 5.1) bounds a cyclic convolution
    x * y by a radix-2 FFT of length 2^n, with unit roundoff eps and roots of
    unity good to beta, by ||x|| ||y|| ((1+eps)^(3n) (1+eps sqrt 5)^(3n+1)
    (1+beta)^(3n) - 1) in the max norm.  Assumptions beyond the theorem: n
    charges numpy's mixed-radix passes as radix-2 ones (one per factor 2, two
    per 3, three per 5, one more for the real-input packing); beta = 2^-52; a
    diagonal is bounded by the sum of its terms' bounds, with its at most
    len(norms) spectrum additions and the 1/L scaling as extra roundings.
    """
    K = len(norms)
    return _growth(L, K) * max(sum(norms[k] * norms[t - k]
                                   for k in range(max(0, t - K + 1), min(t, K - 1) + 1))
                               for t in range(2 * K - 1))


def _limbs(c: np.ndarray, b: int) -> list[np.ndarray]:
    """Balanced base-2^b digits, b >= 2, of the int64 array c, in
    [-2^(b-1), 2^(b-1)), lowest first: c = sum_k limbs[k] 2^(k b).  int16 when
    they fit, as at every width the tau squarings use."""
    limbs, half, mask = [], 1 << (b - 1), (1 << b) - 1
    while c.any():
        limbs.append((((c & mask) ^ half) - half).astype(np.int16 if b <= 16 else np.int64))
        c = (c >> b) + ((c >> (b - 1)) & 1)  # (c - digit) / 2^b, which cannot overflow
    return limbs


def _low_norm(c: np.ndarray, b: int) -> float:
    """The Euclidean norm of `_limbs(c, b)[0]`, without the other limbs."""
    low = ((c & ((1 << b) - 1)) ^ (1 << (b - 1))) - (1 << (b - 1))
    return math.sqrt(np.square(low, dtype=np.float64).sum())


def _fits(lo: int, hi: int, b: int, K: int) -> bool:
    """Whether K balanced b-bit digits, which reach [-2^(b-1) r, (2^(b-1) - 1) r]
    with r = sum_{k<K} 2^(k b), hold every integer in [lo, hi]."""
    r = ((1 << K * b) - 1) // ((1 << b) - 1)
    return -(r << b - 1) <= lo and hi <= ((1 << b - 1) - 1) * r


def _limb_bits(c: np.ndarray, L: int) -> tuple[int, list[np.ndarray]]:
    """Limb width b and the balanced limbs of c: the fewest limbs K whose
    `_error_bound` at length L, on the norms of the actual limbs, is below
    1/4, at the narrowest b that splits c into K limbs (every such b costs
    the same transforms, and the narrowest has the smallest norms).  A K is
    first tried on limb 0 alone: its t = 0 diagonal ||limb_0||^2 times
    `_growth` at one limb bounds `_error_bound` from below, so the other
    limbs are built only for a K that passes."""
    lo, hi, b = int(c.min()), int(c.max()), 62
    least = _growth(L, 1)
    for K in range(1, 64):
        while b > 2 and _fits(lo, hi, b - 1, K):
            b -= 1
        norm = _low_norm(c, b)
        if least * (norm * norm) >= 0.25:
            continue
        limbs = _limbs(c, b)
        if _error_bound([math.sqrt(np.square(x, dtype=np.float64).sum()) for x in limbs], L) < 0.25:
            return b, limbs
    raise ArithmeticError(f"no limb width squares {len(c)} coefficients exactly")


def _fold(high: np.ndarray, words: list[np.ndarray], widths: list[int],
          part: slice = slice(None)) -> tuple[np.ndarray, int]:
    """high 2^w + word for the highest words[j][part] while int64 holds the
    partial values, |high| < 2^(62 - w); returns them and the j words left."""
    j = len(words)
    while j and int(np.max(np.abs(high))) < 1 << (62 - widths[j - 1]):
        j -= 1
        high = (high << widths[j]) + words[j][part]
    return high, j


def _rebuild(top: np.ndarray, words: list[np.ndarray], widths: list[int]) -> list[int]:
    """top 2^(sum widths) + sum_j words[j] 2^(sum widths[:j]) as Python ints,
    _CHUNK at a time: in int64 while that holds the partial values."""
    out = []
    for start in range(0, len(top), _CHUNK):
        part = slice(start, start + _CHUNK)
        high, j = _fold(top[part], words, widths, part)
        vals = high.tolist()
        for word, width in zip(reversed(words[:j]), reversed(widths[:j])):
            vals = [(v << width) + w for v, w in zip(vals, word[part].tolist())]
        out += vals
    return out


def _rounded(spectrum: np.ndarray, L: int, keep: int) -> np.ndarray:
    """irfft(spectrum, L)[:keep] rounded; ArithmeticError if one is 1/4 off."""
    x = np.fft.irfft(spectrum, L)[:keep]
    exact = np.rint(x)
    x -= exact
    off = float(np.max(np.abs(x, out=x)))
    if not off <= 0.25:  # so that NaN fails
        raise ArithmeticError(f"FFT product {off:.3g} from an integer, past its bound < 1/4")
    return exact


def _square_words(c: np.ndarray, N: int) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """The square of the int64 polynomial c truncated to N, exactly, as the
    (top, words, widths) that `_rebuild` turns into Python ints.

    The coefficients are split into K balanced limbs of b bits (`_limb_bits`),
    each transformed by one real FFT of 5-smooth length L >= 2 len - 1 at its
    first diagonal and dropped after its last.  For each diagonal t the
    products F_k F_l, k + l = t, are summed (2 F_k F_l for k < l), and one
    inverse FFT gives sum_{k+l=t} limb_k * limb_l to within `_error_bound`
    < 1/4, or ArithmeticError.  An int64 carry pass turns the diagonals into
    b-bit digits, packed into words; the carry left over is the top.
    """
    keep = max(0, min(N, 2 * len(c) - 1))
    if not c.any():
        return np.zeros(keep, dtype=np.int64), [], []
    L = _fft_length(2 * len(c) - 1)
    b, limbs = _limb_bits(c, L)
    K, per_word, spectra, words = len(limbs), 62 // b, {}, []
    carry = np.zeros(keep, dtype=np.int64)
    for t in range(2 * K - 1):
        if t < K:
            spectra[t], limbs[t] = np.fft.rfft(limbs[t], L), None
        lo = max(0, t - K + 1)
        acc = spectra[lo] * spectra[t - lo]
        if t >= K - 1:
            del spectra[lo]         # past its last diagonal
        for k in range(lo + 1, (t + 1) // 2):
            acc += spectra[k] * spectra[t - k]
        if lo < t - lo:
            acc *= 2
            if t % 2 == 0:
                acc += spectra[t // 2] ** 2
        np.add(carry, _rounded(acc, L, keep), out=carry, casting="unsafe")
        del acc
        if t % per_word == 0:
            words.append(np.zeros(keep, dtype=np.int64))
        words[-1] |= (carry & ((1 << b) - 1)) << b * (t % per_word)
        carry >>= b
    return carry, words, [b * per_word] * (len(words) - 1) + [b * ((2 * K - 2) % per_word + 1)]


def square_trunc(coeffs: list[int], N: int) -> list[int]:
    """Exact coefficients of the square of the polynomial, truncated to N, by
    `_square_words`.  Every coefficient must fit in int64 and N must be
    non-negative; otherwise ValueError."""
    if N < 0:
        raise ValueError(f"square_trunc needs N >= 0, got N = {N}")
    try:
        c = np.array(coeffs, dtype=np.int64)[:N]
    except OverflowError as exc:
        raise ValueError("square_trunc takes coefficients that fit in int64") from exc
    out = _rebuild(*_square_words(c, N))
    return out + [0] * (N - len(out))


def _tau_words(N: int) -> tuple[np.ndarray, list[np.ndarray], list[int]]:
    """tau(1), ..., tau(N) as `_square_words` leaves them: eta^6 squared
    twice, with eta^12 back in int64 in between (its coefficients have at
    most 46 bits at N = 10^5 and 55 at 10^6).  Requires 1 <= N <= 10**6."""
    if not 1 <= N <= 10**6:
        raise ValueError(f"N = {N} outside supported range [1, 10^6]")
    eta12, j = _fold(*_square_words(np.asarray(eta_sixth_coeffs(N), dtype=np.int64), N))
    if j:
        raise ArithmeticError("a coefficient of eta^12 does not fit in int64")
    return _square_words(eta12, N)


def _gather(packed: tuple, at: np.ndarray) -> tuple:
    """The entries at the indices `at` of `_square_words`' packed output."""
    top, words, widths = packed
    return top[at], [word[at] for word in words], widths


def ramanujan_tau(N: int) -> list[int]:
    """Exact tau(1), ..., tau(N).  Requires 1 <= N <= 10**6."""
    return _rebuild(*_tau_words(N))


def _normalised(primes: np.ndarray, taus: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """(primes, tau(p) / p^{11/2}) from the tau(p), one Python division each."""
    return primes, np.array([t / p ** 5.5 for p, t in zip(primes.tolist(), taus)])


def tau_prime_eigenvalues(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes p <= N and tau(p) / p^{11/2}, as `prime_eigenvalues` gives
    them from ramanujan_tau(N), with only the tau(p) rebuilt as Python ints;
    the normalized values lie in (-2, 2) by the proven Ramanujan bound."""
    packed = _tau_words(N)
    primes = prime_array(N)
    return _normalised(primes, _rebuild(*_gather(packed, primes - 1)))


def prime_eigenvalues(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The primes p <= N and tau(p) / p^{11/2}, from [tau(1), ..., tau(N)]."""
    primes = prime_array(len(values))
    return _normalised(primes, [values[p - 1] for p in primes.tolist()])


def sym2_tau_locals(N: int) -> hecke.LocalArrays:
    """Local data of the symmetric-square lift of the tau form, for all
    primes p <= N."""
    return hecke.sym2_lift(*tau_prime_eigenvalues(N))

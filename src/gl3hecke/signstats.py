"""Sign and non-vanishing statistics of real coefficient sequences: zero-
skipping sign-change counts, the short-interval bilinear comparator, sieve
density products, and partial-sum diagnostics.

A "table" argument is anything exposing value(m, n) plus bound_m / bound_n,
normally a hecke.CoefficientTable.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

from .arith import primes_upto

A_M1 = "A_m1"
A_MM = "A_mm"

IMAG_TOL = 1e-9


@dataclass
class RealSequence:
    """Real values a(1), ..., a(X); values[i] holds a(i+1)."""

    values: list[float]
    label: str = ""

    def __len__(self) -> int:
        return len(self.values)

    def value(self, m: int) -> float:
        return self.values[m - 1]


@dataclass
class SignChangeReport:
    changes: int
    positions: list[tuple[int, int]]
    positives: int
    negatives: int
    zeros: int

    def summary(self) -> dict:
        return {
            "changes": self.changes,
            "positives": self.positives,
            "negatives": self.negatives,
            "zeros": self.zeros,
        }


@dataclass(frozen=True)
class ShortIntervalConfig:
    """Window parameters: intervals [x, x+H] for x in [X, 2X], bilinear part
    m in [M, 2M].  theta/delta are report metadata only."""

    X: int
    H: int
    M: int
    theta: float | None = None
    delta: float | None = None

    def __post_init__(self):
        if not (0 < self.M < self.H <= self.X):
            raise ValueError(f"need M < H <= X, got M={self.M} H={self.H} X={self.X}")


def real_part(z, what: str = "coefficient") -> float:
    z = complex(z)
    if abs(z.imag) > IMAG_TOL * (1.0 + abs(z.real)):
        raise ValueError(f"{what} has non-negligible imaginary part: {z}")
    return z.real


def sequence_from_table(table, X: int, which: str = A_M1, label: str = "") -> RealSequence:
    """Extract {A(m,1)} or {A(m,m)} for m <= X as a real sequence."""
    if which == A_M1:
        vals = [real_part(table.value(m, 1), f"A({m},1)") for m in range(1, X + 1)]
    elif which == A_MM:
        vals = [real_part(table.value(m, m), f"A({m},{m})") for m in range(1, X + 1)]
    else:
        raise ValueError(f"unknown selector {which!r}")
    return RealSequence(vals, label or which)


def count_sign_changes(seq: RealSequence, zero_tol: float = 1e-12) -> SignChangeReport:
    """Sign changes along the subsequence of entries with |a| > zero_tol;
    zeros are skipped, never counted as changes."""
    if zero_tol < 0:
        raise ValueError("zero_tol must be non-negative")
    changes = 0
    positions: list[tuple[int, int]] = []
    positives = negatives = zeros = 0
    last_sign = 0
    last_index = 0
    for idx, v in enumerate(seq.values, start=1):
        if abs(v) <= zero_tol:
            zeros += 1
            continue
        sign = 1 if v > 0 else -1
        if sign > 0:
            positives += 1
        else:
            negatives += 1
        if last_sign and sign != last_sign:
            changes += 1
            positions.append((last_index, idx))
        last_sign = sign
        last_index = idx
    return SignChangeReport(changes, positions, positives, negatives, zeros)


def _bilinear_terms(table, cfg: ShortIntervalConfig, x: int):
    """A(mk, 1) over x <= mk <= x+H, m in [M, 2M], gcd(m, k) = 1."""
    for m in range(cfg.M, 2 * cfg.M + 1):
        k_lo = -(-x // m)          # ceil
        k_hi = (x + cfg.H) // m    # floor
        for k in range(max(1, k_lo), k_hi + 1):
            if math.gcd(m, k) == 1:
                yield table.value(m * k, 1)


def short_interval_sums(table, cfg: ShortIntervalConfig, x: int) -> dict:
    """S1 = |sum A(mk,1)| and S2 = sum |A(mk,1)| over the bilinear window;
    S1 <= S2, with equality exactly when the nonzero terms share one sign."""
    if not cfg.X <= x <= 2 * cfg.X:
        raise ValueError(f"x = {x} is not in [X, 2X] = [{cfg.X}, {2 * cfg.X}]")
    acc = 0.0 + 0.0j
    acc_abs = 0.0
    for v in _bilinear_terms(table, cfg, x):
        acc += v
        acc_abs += abs(v)
    return {"S1": abs(acc), "S2": acc_abs}


def interval_change_scan(table, cfg: ShortIntervalConfig, zero_tol: float = 1e-12) -> dict:
    """Scan x over [X, 2X] on a stride of max(1, H//4) and report how many
    windows [x, x+H] contain a sign change of A(., 1), plus the number of
    disjoint changed windows (a lower bound for the total change count).

    Reads A(m, 1) once for every m in [X, x_last + H], x_last the last x of
    the stride, so the table must reach 2X + H.  The nonzero entries inside a
    window are consecutive nonzero entries of that range, so a window holds a
    change exactly when it contains both ends of some change pair of
    count_sign_changes over the range.
    """
    stride = max(1, cfg.H // 4)
    xs = range(cfg.X, 2 * cfg.X + 1, stride)
    seq = RealSequence([real_part(table.value(m, 1), f"A({m},1)")
                        for m in range(cfg.X, xs[-1] + cfg.H + 1)])
    offset = cfg.X - 1  # sequence index i holds A(offset + i, 1)
    pairs = [(offset + a, offset + b)
             for a, b in count_sign_changes(seq, zero_tol).positions]
    starts = [a for a, _ in pairs]
    with_change = disjoint = 0
    next_free = 0
    for x in xs:
        # the first pair starting in the window has the smallest end among them
        i = bisect.bisect_left(starts, x)
        if i < len(pairs) and pairs[i][1] <= x + cfg.H:
            with_change += 1
            if x >= next_free:
                disjoint += 1
                next_free = x + cfg.H + 1
    return {
        "total_x": len(xs),
        "with_change": with_change,
        "lower_bound_estimate": float(disjoint),
    }


def nonvanishing_density(table, X: int, which: str = A_M1, zero_tol: float = 1e-12) -> dict:
    """lhs: observed density of non-vanishing up to X.  rhs: the sieve product
    prod (1 - 1/p) over primes p <= X whose coefficient vanishes."""
    seq = sequence_from_table(table, X, which)
    nonzero = sum(1 for v in seq.values if abs(v) > zero_tol)
    lhs = nonzero / X
    rhs = 1.0
    for p in primes_upto(X):
        if abs(seq.value(p)) <= zero_tol:
            rhs *= 1.0 - 1.0 / p
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs else math.inf}


def partial_sum_abs(table, X: int) -> float:
    """sum_{m <= X} |A(m, 1)|."""
    return sum(abs(table.value(m, 1)) for m in range(1, X + 1))


def prime_power_abs_sum(table, X: int) -> float:
    """Restriction of the absolute-value sum to prime powers p^l in [X, 2X]
    (dyadic convention x ~ X)."""
    acc = 0.0
    for p in primes_upto(2 * X):
        q = p
        while q <= 2 * X:
            if q >= X:
                acc += abs(table.value(q, 1))
            q *= p
    return acc


def sign_balance(table, X: int, which: str = A_M1, zero_tol: float = 1e-12) -> dict:
    """Fractions of positive and negative entries among the nonzero ones."""
    seq = sequence_from_table(table, X, which)
    rep = count_sign_changes(seq, zero_tol)
    nonzero = rep.positives + rep.negatives
    if nonzero == 0:
        return {"pos_frac": 0.0, "neg_frac": 0.0}
    return {"pos_frac": rep.positives / nonzero, "neg_frac": rep.negatives / nonzero}


def rankin_selberg_ratio(table, X: int) -> float:
    """sum_{m <= X} A(m,1)^2 / X, the second-moment calibration."""
    return sum(abs(table.value(m, 1)) ** 2 for m in range(1, X + 1)) / X

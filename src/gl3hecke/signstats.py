"""Sign and non-vanishing statistics of real coefficient sequences: zero-
skipping sign-change counts, the short-interval bilinear comparator, sieve
density products, and partial-sum diagnostics.

A "table" argument is anything exposing row(X, which), the dense complex
row A(m, 1) (which = A_M1) or A(m, m) (which = A_MM) for m <= X, normally a
hecke.CoefficientTable.  Sums over a row add left to right, as a Python loop
does, and take Python's abs of each complex entry, so they round as the
entry-by-entry walk they replace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import primes_upto
from .hecke import A_M1, A_MM

IMAG_TOL = 1e-9


@dataclass
class RealSequence:
    """Real values a(1), ..., a(X); values[i] holds a(i+1)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)

    def __len__(self) -> int:
        return len(self.values)


@dataclass
class SignChangeReport:
    changes: int
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
    m in [M, 2M]."""

    X: int
    H: int
    M: int

    def __post_init__(self):
        if not (0 < self.M < self.H <= self.X):
            raise ValueError(f"need M < H <= X, got M={self.M} H={self.H} X={self.X}")


def _real(row: np.ndarray, first: int, which: str) -> np.ndarray:
    """Real parts of a row whose entry i is the coefficient at m = first + i;
    a ValueError names the first m with a non-negligible imaginary part."""
    bad = np.abs(row.imag) > IMAG_TOL * (1.0 + np.abs(row.real))
    if bad.any():
        m = first + int(np.argmax(bad))
        what = f"A({m},1)" if which == A_M1 else f"A({m},{m})"
        raise ValueError(f"{what} has non-negligible imaginary part: {complex(row[m - first])}")
    return row.real.copy()


def _abs(row: np.ndarray) -> np.ndarray:
    """|z| entrywise, rounded as Python's abs(complex) (np.abs is not)."""
    return np.hypot(row.real, row.imag)


def _left_sum(a: np.ndarray) -> float:
    """a[0] + a[1] + ... added left to right (np.sum adds pairwise)."""
    return float(np.cumsum(a)[-1]) if len(a) else 0.0


def sequence_from_table(table, X: int, which: str = A_M1) -> RealSequence:
    """Extract {A(m,1)} or {A(m,m)} for m <= X as a real sequence."""
    return RealSequence(_real(table.row(X, which), 1, which))


def _signs(values: np.ndarray, zero_tol: float):
    """0-based indices of the entries with |a| > zero_tol (NaN included),
    whether each is positive, and where along them the sign flips."""
    if zero_tol < 0:
        raise ValueError("zero_tol must be non-negative")
    kept = np.flatnonzero(~(np.abs(values) <= zero_tol))
    positive = values[kept] > 0
    return kept, positive, np.flatnonzero(positive[1:] != positive[:-1])


def count_sign_changes(seq: RealSequence, zero_tol: float = 1e-12) -> SignChangeReport:
    """Sign changes along the subsequence of entries with |a| > zero_tol;
    zeros are skipped, never counted as changes."""
    kept, positive, flips = _signs(seq.values, zero_tol)
    positives = int(np.count_nonzero(positive))
    return SignChangeReport(len(flips), positives, len(kept) - positives,
                            len(seq.values) - len(kept))


def short_interval_sums(table, cfg: ShortIntervalConfig, x: int) -> dict:
    """S1 = |sum A(mk,1)| and S2 = sum |A(mk,1)| over the bilinear window
    x <= mk <= x+H, m in [M, 2M], gcd(m, k) = 1; S1 <= S2, with equality
    exactly when the nonzero terms share one sign."""
    if not cfg.X <= x <= 2 * cfg.X:
        raise ValueError(f"x = {x} is not in [X, 2X] = [{cfg.X}, {2 * cfg.X}]")
    mk = [m * k for m in range(cfg.M, 2 * cfg.M + 1)
          for k in range(max(1, -(-x // m)), (x + cfg.H) // m + 1)
          if math.gcd(m, k) == 1]
    acc = 0.0 + 0.0j
    acc_abs = 0.0
    if mk:
        # a window holds about ten terms: numpy's per-call cost would exceed the sums
        window = table.row(max(mk))[x - 1:].tolist()
        for n in mk:
            v = window[n - x]
            acc += v
            acc_abs += abs(v)
    return {"S1": abs(acc), "S2": acc_abs}


def interval_change_scan(table, cfg: ShortIntervalConfig, zero_tol: float = 1e-12) -> dict:
    """Scan x over [X, 2X] on a stride of max(1, H//4) and report how many
    windows [x, x+H] there are (total_x) and how many of them contain a sign
    change of A(., 1) (with_change).

    Reads A(m, 1) for m in [X, x_last + H], x_last the last x of the stride,
    so the table must reach 2X + H.  The nonzero entries inside a window are
    consecutive nonzero entries of that range, so a window holds a change
    exactly when it contains both ends of some pair of consecutive nonzero
    entries of opposite sign.
    """
    xs = np.arange(cfg.X, 2 * cfg.X + 1, max(1, cfg.H // 4))
    last = int(xs[-1]) + cfg.H
    values = _real(table.row(last)[cfg.X - 1:], cfg.X, A_M1)
    kept, _, flips = _signs(values, zero_tol)
    starts, ends = kept[flips] + cfg.X, kept[flips + 1] + cfg.X
    # the first pair starting in the window has the smallest end among them
    i = np.searchsorted(starts, xs)
    hit = i < len(starts)
    hit[hit] = ends[i[hit]] <= xs[hit] + cfg.H
    return {"total_x": len(xs), "with_change": int(np.count_nonzero(hit))}


def nonvanishing_density(table, X: int, which: str = A_M1, zero_tol: float = 1e-12) -> dict:
    """lhs: observed density of non-vanishing up to X.  rhs: the sieve product
    prod (1 - 1/p) over primes p <= X whose coefficient vanishes."""
    values = sequence_from_table(table, X, which).values
    lhs = np.count_nonzero(np.abs(values) > zero_tol) / X
    primes = np.array(primes_upto(X), dtype=np.int64)
    rhs = 1.0
    for p in primes[np.abs(values[primes - 1]) <= zero_tol].tolist():
        rhs *= 1.0 - 1.0 / p
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs else math.inf}


def partial_sum_abs(table, X: int) -> float:
    """sum_{m <= X} |A(m, 1)|."""
    return _left_sum(_abs(table.row(X)))


def sign_balance(table, X: int, which: str = A_M1, zero_tol: float = 1e-12) -> dict:
    """Fractions of positive and negative entries among the nonzero ones."""
    _, positive, _ = _signs(sequence_from_table(table, X, which).values, zero_tol)
    nonzero = len(positive)
    if nonzero == 0:
        return {"pos_frac": 0.0, "neg_frac": 0.0}
    positives = int(np.count_nonzero(positive))
    return {"pos_frac": positives / nonzero, "neg_frac": (nonzero - positives) / nonzero}


def rankin_selberg_ratio(table, X: int) -> float:
    """sum_{m <= X} A(m,1)^2 / X, the second-moment calibration; the squares
    are Python's x ** 2 (np.float_power), which x * x does not always match."""
    return _left_sum(np.float_power(_abs(table.row(X)), 2.0)) / X

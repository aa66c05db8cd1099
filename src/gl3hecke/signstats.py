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
import operator
import weakref
from dataclasses import asdict, dataclass

import numpy as np

from .arith import prime_array
from .hecke import A_M1, A_MM

IMAG_TOL = 1e-9
_BLOCK = 1 << 14  # entries per step of the sign statistics


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
        return asdict(self)


@dataclass(frozen=True)
class ShortIntervalConfig:
    """Window parameters: intervals [x, x+H] for x in [X, 2X], bilinear part
    m in [M, 2M]."""

    X: int
    H: int
    M: int

    def __post_init__(self):
        for name in ("X", "H", "M"):  # slices need integers; numpy's are kept as Python ints
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise TypeError(f"field {name!r} must be an integer, got {value!r}") from None
        if not (0 < self.M < self.H <= self.X):
            raise ValueError(f"need M < H <= X, got M={self.M} H={self.H} X={self.X}")


def _real(row: np.ndarray, first: int, which: str) -> np.ndarray:
    """Real parts of a row whose entry i is the coefficient at m = first + i,
    as a read-only view of the row, tested _BLOCK entries at a time; a ValueError
    names the first m whose real part is infinite or imaginary part not negligible."""
    for start in range(0, len(row), _BLOCK):
        block = row[start:start + _BLOCK]
        bound = np.abs(block.real)  # IMAG_TOL (1 + |re|)
        np.multiply(np.add(bound, 1.0, out=bound), IMAG_TOL, out=bound)
        bad = block.imag > bound    # |im| > bound as im > bound or im < -bound,
        bad |= block.imag < np.negative(bound, out=bound)
        bad |= np.isnan(block.imag)  # and a NaN im, which neither comparison holds;
        bad |= np.isinf(block.real)  # an infinite re makes the bound infinite
        if bad.any():
            m = first + start + int(np.argmax(bad))
            what = f"A({m},1)" if which == A_M1 else f"A({m},{m})"
            value = complex(row[m - first])
            why = "is infinite" if math.isinf(value.real) else "has non-negligible imaginary part"
            raise ValueError(f"{what} {why}: {value}")
    values = row.real.view()
    values.flags.writeable = False
    return values


def _abs(row: np.ndarray) -> np.ndarray:
    """|z| entrywise, rounded as Python's abs(complex) (np.abs is not)."""
    return np.hypot(row.real, row.imag)


def _left_sum(a: np.ndarray) -> float:
    """a[0] + a[1] + ... added left to right (np.sum adds pairwise)."""
    return float(np.cumsum(a)[-1]) if len(a) else 0.0


def sequence_from_table(table, X: int, which: str = A_M1) -> RealSequence:
    """Extract {A(m,1)} or {A(m,m)} for m <= X as a real sequence."""
    return RealSequence(_real(table.row(X, which), 1, which))


def _nonzero(values: np.ndarray, zero_tol: float) -> np.ndarray:
    """The mask of the entries that count as nonzero: |a| > zero_tol, and NaN."""
    if not zero_tol >= 0:  # so NaN is refused
        raise ValueError("zero_tol must be non-negative")
    zero = values <= zero_tol
    zero &= values >= -zero_tol
    return np.logical_not(zero, out=zero)


def _signs(values: np.ndarray, zero_tol: float):
    """The `_nonzero` mask and, as a mask along the entries it keeps, which
    of them are positive."""
    nonzero = _nonzero(values, zero_tol)
    return nonzero, (values > 0)[nonzero]


def count_sign_changes(seq: RealSequence, zero_tol: float = 1e-12) -> SignChangeReport:
    """Sign changes along the subsequence of entries with |a| > zero_tol;
    zeros are skipped, never counted as changes."""
    _, positive = _signs(seq.values, zero_tol)
    positives = int(np.count_nonzero(positive))
    flips = int(np.count_nonzero(positive[1:] != positive[:-1]))
    return SignChangeReport(flips, positives, len(positive) - positives,
                            len(seq.values) - len(positive))


def window_sums(table, cfg: ShortIntervalConfig) -> tuple[np.ndarray, np.ndarray]:
    """S1 = |sum A(mk,1)| and S2 = sum |A(mk,1)| over the bilinear window
    x <= mk <= x+H, m in [M, 2M], gcd(m, k) = 1, for every x in [X, 2X], as
    float64 arrays indexed by x - X; S1 <= S2, with equality exactly when the
    nonzero terms share one sign.

    The terms are walked in the per-window order, m ascending and then k, one
    column (m, j) at a time with k = ceil(x/m) + j, j <= H//m; a term enters
    where k <= (x+H)//m and gcd(m, k) = 1, and elsewhere the column adds
    +0.0, which leaves every partial sum as it is (the sums start at +0.0,
    so none is ever -0.0, the one value that adding +0.0 changes).  So each
    window gets the left-to-right sums of a loop over its own terms, bit for
    bit.  Reads A(m, 1) for m <= 2X + H, so the table must reach 2X + H, as
    for `interval_change_scan`.  Cost: (X + 1) * sum_m (H//m + 1) gathered
    terms: 3 ms at X = 10^4, H = 5, M = 3 and 55 ms at H = 252 on one core of
    a 2-vCPU Xeon.
    """
    row = table.row(2 * cfg.X + cfg.H)
    # entry n holds A(n, 1); entry 0 is the +0.0 that masked terms read
    re, im = np.concatenate(([0.0], row.real)), np.concatenate(([0.0], row.imag))
    size = np.concatenate(([0.0], _abs(row)))
    xs = np.arange(cfg.X, 2 * cfg.X + 1)
    acc_re, acc_im, acc_abs = np.zeros(len(xs)), np.zeros(len(xs)), np.zeros(len(xs))
    for m in range(cfg.M, 2 * cfg.M + 1):
        first, last = -(-xs // m), (xs + cfg.H) // m
        for j in range(cfg.H // m + 1):
            k = first + j
            n = np.where((k <= last) & (np.gcd(k, m) == 1), m * k, 0)
            acc_re += re[n]
            acc_im += im[n]
            acc_abs += size[n]
    return np.hypot(acc_re, acc_im), acc_abs


# {0: (weakref to table, cfg, S1 list, S2 list)} of the latest lookup,
# emptied when the table dies (its weakref dies with the entry, so no later
# entry is cleared)
_latest: dict = {}


def short_interval_sums(table, cfg: ShortIntervalConfig, x: int) -> dict:
    """{"S1": S1, "S2": S2} of the one window at x, as Python floats: the
    per-x view of `window_sums`.  The arrays of the latest (table, cfg) are
    kept, since a caller walking the windows makes about 10^4 of these calls
    with one table and one cfg; a call for another pair computes its own."""
    i = x - cfg.X
    if not 0 <= i <= cfg.X:
        raise ValueError(f"x = {x} is not in [X, 2X] = [{cfg.X}, {2 * cfg.X}]")
    latest = _latest.get(0)
    if latest is None or latest[1] is not cfg or latest[0]() is not table:
        latest = _latest[0] = (weakref.ref(table, lambda _: _latest.clear()), cfg,
                               *(a.tolist() for a in window_sums(table, cfg)))
    return {"S1": latest[2][i], "S2": latest[3][i]}


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
    nonzero, positive = _signs(values, zero_tol)
    kept, flips = np.flatnonzero(nonzero), np.flatnonzero(positive[1:] != positive[:-1])
    starts, ends = kept[flips] + cfg.X, kept[flips + 1] + cfg.X
    # the first pair starting in the window has the smallest end among them
    i = np.searchsorted(starts, xs)
    hit = i < len(starts)
    hit[hit] = ends[i[hit]] <= xs[hit] + cfg.H
    return {"total_x": len(xs), "with_change": int(np.count_nonzero(hit))}


def nonvanishing_density(table, X: int, which: str = A_M1, zero_tol: float = 1e-12) -> dict:
    """lhs: observed density of non-vanishing up to X.  rhs: the sieve product
    prod (1 - 1/p) over primes p <= X whose coefficient vanishes; X >= 1."""
    if X < 1:
        raise ValueError(f"nonvanishing_density needs X >= 1, got X = {X}")
    nonzero = _nonzero(sequence_from_table(table, X, which).values, zero_tol)
    lhs = np.count_nonzero(nonzero) / X
    primes = prime_array(X)
    rhs = 1.0
    for p in primes[~nonzero[primes - 1]].tolist():
        rhs *= 1.0 - 1.0 / p
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs if rhs else math.inf}


def partial_sum_abs(table, X: int) -> float:
    """sum_{m <= X} |A(m, 1)|."""
    return _left_sum(_abs(table.row(X)))


def sign_balance(table, X: int, which: str = A_M1, zero_tol: float = 1e-12) -> dict:
    """Fractions of positive and negative entries among the nonzero ones."""
    _, positive = _signs(sequence_from_table(table, X, which).values, zero_tol)
    nonzero = len(positive)
    if nonzero == 0:
        return {"pos_frac": 0.0, "neg_frac": 0.0}
    positives = int(np.count_nonzero(positive))
    return {"pos_frac": positives / nonzero, "neg_frac": (nonzero - positives) / nonzero}


def rankin_selberg_ratio(table, X: int) -> float:
    """sum_{m <= X} A(m,1)^2 / X, the second-moment calibration; the squares
    are Python's x ** 2 (np.float_power), which x * x does not always match."""
    if X < 1:
        raise ValueError(f"rankin_selberg_ratio needs X >= 1, got X = {X}")
    return _left_sum(np.float_power(_abs(table.row(X)), 2.0)) / X

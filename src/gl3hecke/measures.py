"""Sato-Tate and p-adic Plancherel measures on the SL(3) torus quotient:
exact densities, trapezoid quadrature on a grid chosen a priori from a
proven error bound, and seeded rejection sampling.

Angular coordinates are (theta1, theta2) mod 2pi with theta3 implied as
-(theta1 + theta2).  Densities are reported against plain d(theta1) d(theta2),
so every measure here integrates to one over [0, 2pi)^2.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import is_prime
from .hecke import schur_from_elementary

TWO_PI = 2.0 * math.pi

# `sample_angles` decides a proposal from its float32 density alone when
# u cap lies more than this times cap away from it.
_SQUEEZE = 2.0 ** -10
# Proposals per batch of `sample_angles`.
SAMPLE_BATCH = 8192
# SplitMix64's increment gamma and its two mixing multipliers, as in the
# reference splitmix64.c.
_GAMMA = 0x9E3779B97F4A7C15
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
_MASK64 = 2 ** 64 - 1


def _inversions(sigma: tuple[int, ...]) -> int:
    return sum(1 for i in range(3) for j in range(i + 1, 3) if sigma[i] > sigma[j])


# The Weyl group of A2, the six permutations of the three coordinates, with
# sign (-1)^length; lengths are 0,1,1,2,2,3.
WEYL = tuple(
    (sigma, -1 if _inversions(sigma) % 2 else 1)
    for sigma in itertools.permutations(range(3))
)


class EnvelopeError(RuntimeError):
    """A computed density exceeded the rejection envelope (implementation bug)."""


@dataclass(frozen=True)
class TorusPoint:
    """Point of the torus; holds scalars or equally-shaped numpy arrays.  The
    angles are kept as given, unreduced: every function of them here is
    2pi-periodic in each."""

    theta1: float
    theta2: float


@dataclass(frozen=True)
class MeasureSpec:
    """The p-adic Plancherel measure at the prime p, or Sato-Tate for p = None."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            if not is_prime(self.p):  # a non-integer p raises TypeError
                raise ValueError(f"plancherel measure needs a prime p, got {self.p}")
            object.__setattr__(self, "p", operator.index(self.p))  # numpy's p as a Python int

    @classmethod
    def sato_tate(cls) -> "MeasureSpec":
        return cls()

    @classmethod
    def plancherel(cls, p: int) -> "MeasureSpec":
        return cls(operator.index(p))  # None, Sato-Tate's p, raises TypeError here


@dataclass(frozen=True)
class QuadratureGrid:
    """Periodic trapezoid rule on [0, 2pi)^2 with K nodes per axis, K an integer."""

    resolution: int

    def __post_init__(self):
        if operator.index(self.resolution) < 8:
            raise ValueError("resolution must be at least 8")

    @property
    def nodes(self) -> np.ndarray:
        return TWO_PI * np.arange(self.resolution) / self.resolution

    @property
    def cell_weight(self) -> float:
        return (TWO_PI / self.resolution) ** 2

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.nodes, self.nodes, indexing="ij")


def plancherel_constant(p: int) -> float:
    """(1 - p^-2)(1 - p^-3) / (6 (1 - p^-1)^2); equals W(1/p) / |W|."""
    return (1.0 - p ** -2) * (1.0 - p ** -3) / (6.0 * (1.0 - 1.0 / p) ** 2)


def _chord_angles(theta1, theta2) -> tuple:
    """delta / 2 for the root differences delta = t1 - t2, 2 t1 + t2 and
    t1 + 2 t2 of the point (t1, t2, -(t1 + t2)).  Above the subnormals halving
    commutes with rounding, so each is formed from the halved angles."""
    h1, h2 = theta1 / 2.0, theta2 / 2.0
    return h1 - h2, theta1 + h2, h1 + theta2


def half_chords(theta1, theta2) -> tuple:
    """s_ij = sin^2(delta / 2) at the `_chord_angles`, so that
    |e^{i t_i} - e^{i t_j}|^2 = 4 s_ij; elementwise on arrays."""
    return tuple(np.sin(a) ** 2 for a in _chord_angles(theta1, theta2))


def _half_chords32(theta1, theta2) -> tuple:
    """`half_chords` from the float64 `_chord_angles` cast to float32, with
    numpy's float32 sine: a cheap approximation whose error
    `sample_angles` bounds."""
    return tuple(np.sin(a.astype(np.float32)) ** 2 for a in _chord_angles(theta1, theta2))


def density(spec: MeasureSpec, pt: TorusPoint):
    """Measure density at pt relative to d(theta1) d(theta2).

    Sato-Tate: prod_{l<j} |e^{i t_l} - e^{i t_j}|^2 / (24 pi^2).  Plancherel:
    the constant (1-p^-2)(1-p^-3)/(6(1-p^-1)^2) times prod |(e^{i t_l} -
    p^-1 e^{i t_j})/(e^{i t_l} - e^{i t_j})|^-2, divided by (2 pi)^2 so the
    total mass is one.  Both are written in the `half_chords` s_ij:
    |e^{i t_l} - e^{i t_j}|^2 = 4 s and |e^{i t_l} - q e^{i t_j}|^2 =
    (1 - q)^2 + 4 q s, so the Vandermonde factor is 64 prod s, with no
    cancellation near the diagonal.  Elementwise on arrays.
    """
    return _density_s(spec, half_chords(pt.theta1, pt.theta2))


def _density_s(spec: MeasureSpec, s: tuple):
    """`density` from the three half-chords s; computed in their dtype."""
    vandermonde = 64.0 * s[0] * s[1] * s[2]
    if spec.p is None:
        return vandermonde / (24.0 * math.pi ** 2)
    q = 1.0 / spec.p
    denom = 1.0
    for s_ij in s:
        denom = denom * ((1.0 - q) ** 2 + 4.0 * q * s_ij)
    return plancherel_constant(spec.p) * vandermonde / denom / TWO_PI ** 2


def integrate(spec: MeasureSpec, f, grid: QuadratureGrid) -> complex:
    """Integral of f against the measure by the periodic trapezoid rule;
    spectrally accurate for smooth integrands.

    f is called once, on the whole mesh (a TorusPoint of read-only arrays); a
    scalar return broadcasts.  Wrap a scalar-only integrand in np.vectorize."""
    pt, dens = _mesh_density(spec, grid)
    vals = np.asarray(f(pt))
    return complex(np.sum(vals * dens) * grid.cell_weight)


# One entry: a run of integrals against one measure on one grid, as the Gram
# matrices of the measures suite, builds its mesh and density once.
@lru_cache(maxsize=1)
def _mesh_density(spec: MeasureSpec, grid: QuadratureGrid) -> tuple[TorusPoint, np.ndarray]:
    """The mesh of grid and spec's density on it, read-only."""
    pt = TorusPoint(*grid.mesh())
    dens = density(spec, pt)
    for a in (pt.theta1, pt.theta2, dens):
        a.flags.writeable = False
    return pt, dens


def envelope_ratio(spec: MeasureSpec) -> float:
    """Upper bound for density / uniform-density used by rejection sampling.

    Sato-Tate: the sharp value 27/6.  Plancherel: the per-pair bound
    |e^{i a} - e^{i b}|^2 / |e^{i a} - p^-1 e^{i b}|^2 <= 4 / (1 + 1/p)^2
    cubed, times the normalizing constant.
    """
    if spec.p is None:
        return 27.0 / 6.0
    return plancherel_constant(spec.p) * 64.0 / (1.0 + 1.0 / spec.p) ** 6


def _alias_table(l1: int, l2: int, K: np.ndarray) -> tuple[np.ndarray, int, int, np.ndarray]:
    """The part of `_alias_bound` that no measure changes, at each K of an
    integer array: (K, max|m|, the box of the lattice j, and 1 + ||K j - m||
    for every K, every j != 0 with |j|_inf <= box and every Weyl frequency m
    of the (l1, l2) element, read-only in the smallest unsigned dtype; 0
    where 3 does not divide d1 + d2, as `_alias_bound` reads it)."""
    top, rho = (l1 + l2 + 2, l2 + 1, 0), (2, 1, 0)
    m = np.array([[top[s[i]] - top[s[2]] - rho[t[i]] + rho[t[2]] for i in (0, 1)]
                  for s, _ in WEYL for t, _ in WEYL]).T
    reach = int(np.max(np.abs(m)))
    box = -(-reach // 8)
    j = np.array([(u, v) for u in range(-box, box + 1) for v in range(-box, box + 1) if u or v])
    d1, d2 = K[:, None, None] * j.T[:, None, :, None] - m[:, None, None, :]
    norm = np.maximum(np.maximum(np.abs(2 * d1 - d2), np.abs(d1 + d2)), np.abs(d1 - 2 * d2)) // 3
    norms = np.where((d1 + d2) % 3 == 0, norm + 1, 0)
    norms = norms.astype(np.min_scalar_type(int(norms.max())))
    norms.flags.writeable = False
    return K, reach, box, norms


def _rounding_floor(spec: MeasureSpec, l1: int, l2: int) -> float:
    """The rounding term of `_alias_bound`, the same at every K."""
    h, dh = (lambda k: math.comb(k + 2, 2)), (lambda k: 160 * math.comb(k + 4, 5))
    schur = sum(dh(u) * h(v) + h(u) * dh(v) + 4 * h(u) * h(v)
                for u, v in ((l1 + l2, l2), (l1 + l2 + 1, l2 - 1)))
    dim = (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2
    return 2.0 ** -53 * envelope_ratio(spec) * (schur + 4096 * dim)


def _alias_bound(spec: MeasureSpec, l1: int, l2: int, aliases: tuple) -> np.ndarray:
    """Proven error bound of the K x K rule for the (l1, l2) Schur element
    against spec at each K of an `_alias_table`, as `trapezoid_resolution`
    derives: aliasing (q^||K j - m|| by table lookup, and the far tail) plus
    the rounding floor."""
    K, reach, box, norms = aliases
    q = 0.0 if spec.p is None else 1.0 / spec.p
    powers = np.concatenate(([0.0], q ** np.arange(int(norms.max()))))
    near = np.sum(powers[norms], axis=(1, 2))
    s, x = box + 1, q ** (K / 2.0)
    far = 36 * 8 * q ** ((s * K - reach) / 2.0) * (s / (1.0 - x) + x / (1.0 - x) ** 2)
    return ((1.0 - q ** 3) / (6.0 * (1.0 - q) ** 5 * (1.0 + q)) * (near + far)
            + _rounding_floor(spec, l1, l2))


# The alias tables of trapezoid_resolution's 16-wide K chunks, shared by every
# measure: the kato suite's grid searches at four primes build 44, 0.34 MB.
@lru_cache(maxsize=64)
def _resolution_aliases(l1: int, l2: int, lo: int) -> tuple:
    K = np.arange(lo, min(lo + 16, 1025))
    K.flags.writeable = False
    return _alias_table(l1, l2, K)


def trapezoid_resolution(spec: MeasureSpec, l1: int, l2: int, tol: float) -> int | None:
    """Smallest K >= 8 whose K x K trapezoid rule provably integrates the
    (l1, l2) Schur element against spec to within tol; None if no K up to
    1024 does, as for every tol below the rounding floor.

    Aliasing, q = 1/p (0 for Sato-Tate): the integrand c_p a_{lambda+rho}
    conj(a_rho) prod_{i<j} |1 - q z_i/z_j|^-2 / (2 pi)^2 has 36 alternant
    monomials of frequency m, and each pair factor is (1 - q^2)^-1 sum_n
    q^|n| w^n with w of frequency (1, -1), (2, 1) or (1, 2).  The rule's error
    (2 pi)^2 sum_{j != 0} ghat(K j) is at most c_p (1 - q^2)^-3 sum_{m, j}
    N(K j - m), N(d) = sum of q^{|n|_1} over n1 (1, -1) + n2 (2, 1) + n3 (1, 2)
    = d.  N = 0 unless 3 | d1 + d2; then the n lie on a line along (1, -1, 1)
    on which |n|_1 rises by at least one per step from its minimum
    ||d|| = max(|2 d1 - d2|, |d1 + d2|, |d1 - 2 d2|) / 3, so
    N(d) <= q^||d|| (1 + q) / (1 - q).  The j with |j|_inf <= ceil(max|m| / 8)
    are summed; past them ||d|| >= (s K - max|m|) / 2 on the 8 s points of
    |j|_inf = s, a geometric tail.  As n = 0 weighs 1, an m = K j aliases in
    full (p = 101, K = 8, (5, 0): error 1.0); for 3 | K, j = (1, 0) lands on
    the lattice next to m, so neither bound nor error is monotone in K
    (p = 2, (6, 6): 4.9e-4 at K = 20, 7.7e-3 at K = 24).
    Rounding, unit roundoff u: h_k, at most C(k + 2, 2) on the torus, is the
    impulse response of its recurrence, so with angles and e1 good to 60 u,
    roundings r_i <= 160 u C(i + 1, 2) add up to |dh_k| <= 160 u C(k + 4, 5).
    Density: the nodes are good to 3 u 2 pi, so each delta of `half_chords`
    (t1 - t2, 2 t1 + t2, t1 + 2 t2) is good to 24 pi u < 76 u (51 u seen
    for K <= 1024).  Each pair factor F = 4 s / ((1 - q)^2 + 4 q s) has
    F <= F_max = 4 / (1 + q)^2 and |dF/d delta| <= 2 / (1 - q)^2, so with
    q <= 1/2 it is within 342 u F_max from delta and 16 u F_max from its own
    roundings, and the density is within 2^11 u of the envelope cap.  As
    |s_lambda| <= dim(lambda) and the cap's grid sum is `envelope_ratio`,
    density, products and sum add at most 2^12 u dim(lambda) times it.
    The alias tables of the K chunks hold no q, so each (l1, l2) keeps them
    in a bounded memo that every measure reads (`_resolution_aliases`).  A
    tol below the rounding floor gets None at once: aliasing only adds.
    """
    if _rounding_floor(spec, l1, l2) > tol:
        return None
    for lo in range(8, 1025, 16):
        aliases = _resolution_aliases(l1, l2, lo)
        ok = np.flatnonzero(_alias_bound(spec, l1, l2, aliases) <= tol)
        if ok.size:
            return int(aliases[0][ok[0]])
    return None


def _in_uint64(value: int, name: str) -> int:
    """value as a Python int, refused with ValueError outside [0, 2^64)."""
    value = operator.index(value)
    if not 0 <= value <= _MASK64:
        raise ValueError(f"{name} must lie in [0, 2^64), got {value}")
    return value


# k gamma mod 2^64 for k = 1, ..., SAMPLE_BATCH: the counter steps of one
# batch of `_splitmix64`, read-only.
_STEPS = np.arange(1, SAMPLE_BATCH + 1, dtype=np.uint64) * _GAMMA
_STEPS.flags.writeable = False


def _splitmix64(seed: int, first: int, z: np.ndarray) -> None:
    """Outputs first + 1, ..., first + z.size <= SAMPLE_BATCH of the SplitMix64
    stream seeded at seed (Steele, Lea and Flood, OOPSLA 2014) into the uint64
    array z.  Output k is mix64(seed + k gamma mod 2^64), with gamma and the
    two multipliers of the reference splitmix64.c: a pure function of
    (seed, k mod 2^64).  The counter is a Python int, masked, as numpy uint64
    scalars warn on overflow; the mixing runs in z, where uint64 wraps."""
    np.add(_STEPS[:z.size], (seed + first * _GAMMA) & _MASK64, out=z)
    for shift, mul in zip((30, 27), _MIX):
        z ^= z >> shift
        z *= mul
    z ^= z >> 31


def sample_angles(spec: MeasureSpec, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample `count` points; returns (theta1, theta2) arrays.

    Deterministic for a fixed seed in [0, 2^64): proposals are drawn in
    batches of SAMPLE_BATCH from the SplitMix64 stream seeded at seed
    (`_splitmix64`), t1, t2 and then u cap, into three buffers reused by
    every batch; each output z becomes, in its own memory, the double
    (z >> 11) 2^-53 scale, which is (z >> 11) 2^-53 times scale bit for bit,
    as scaling by 2^-53 is exact.  Proposals are accepted in order straight
    into the two arrays returned, so a draw holds those and O(SAMPLE_BATCH)
    more.  A proposal is kept iff u cap <= `density`, and a batch whose
    density exceeds cap (1 + 1e-9) raises EnvelopeError.

    Squeeze (Marsaglia 1977): the density d32 from `_half_chords32` decides
    every proposal with |u cap - d32| > slack = 2^-10 cap alone, and
    `density` is evaluated only on the rest (about 0.2%) and on every
    proposal with d32 >= cap (1 + 1e-9) - slack, so the kept points and the
    EnvelopeError are those of the exact test.  Proof that
    |d32 - density| <= 2^-14 cap <= slack / 4, with u32 = 2^-24 and q = 1/p
    (0 for Sato-Tate): each half-angle a of `_chord_angles` has |a| <= 3 pi,
    so the cast moves it by at most 3 pi u32 < 9.5 u32, and numpy's float32
    sine adds at most 1.49 ulp <= 3 u32; as |sin'| <= 1, sin a is good to
    12.5 u32, and its float32 square s to 2 (12.5 u32) + (12.5 u32)^2 + u32
    < 26 u32.  The density is c F(s_12) F(s_13) F(s_23) with
    F(s) = 4 s / ((1 - q)^2 + 4 q s) <= F_max = 4 / (1 + q)^2, and c F_max^3
    is cap (64/27 cap for Sato-Tate, whose cap is sharp).  As
    |F'(s)| <= 4 / (1 - q)^2 <= 9 F_max for q <= 1/2 (F_max for q = 0), each
    factor is within 234 u32 F_max and their product within 703 u32 cap
    (3 x 26 x 64/27 < 185 u32 cap for Sato-Tate).  `_density_s` in float32
    adds at most 20 roundings of u32 relative, and float64 `density` is good
    to 2^-42 cap.  The sum, 724 u32 cap, is below 2^-14 cap; 2^-20 cap is
    the largest error seen.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    seed, first = _in_uint64(seed, "seed"), 0
    cap = envelope_ratio(spec) / TWO_PI ** 2
    top, slack = cap * (1.0 + 1e-9), _SQUEEZE * cap
    out1, out2 = np.empty(count), np.empty(count)
    t1, t2, bar = (np.empty(SAMPLE_BATCH) for _ in range(3))
    total = 0
    while total < count:
        for a, scale in ((t1, TWO_PI), (t2, TWO_PI), (bar, cap)):
            z = a.view(np.uint64)
            _splitmix64(seed, first, z)
            first += SAMPLE_BATCH
            z >>= 11
            np.multiply(z, scale * 2.0 ** -53, out=a)
        d32 = _density_s(spec, _half_chords32(t1, t2)).astype(float)
        keep = bar <= d32 - slack
        near = np.flatnonzero((np.abs(bar - d32) <= slack) | (d32 >= top - slack))
        if near.size:
            d = density(spec, TorusPoint(t1[near], t2[near]))
            worst = float(np.max(d))
            if worst > top:
                raise EnvelopeError(
                    f"density {worst} exceeds envelope bound {cap} for {spec}"
                )
            keep[near] = bar[near] <= d
        kept = np.flatnonzero(keep)[: count - total]
        out1[total : total + kept.size] = t1[kept]
        out2[total : total + kept.size] = t2[kept]
        total += kept.size
    return out1, out2


def child_seed(seed: int, index: int) -> int:
    """Fixed splitting rule for child seeds: output index + 1 of the
    `_splitmix64` stream seeded at seed, a pure function of (seed, index) in
    [0, 2^64).  Both must lie in [0, 2^64)."""
    seed, z = _in_uint64(seed, "seed"), np.empty(1, np.uint64)
    _splitmix64(seed, _in_uint64(index, "index"), z)
    return int(z[0])


def schur_on_torus(l1: int, l2: int, theta1, theta2):
    """The (l1, l2) Schur basis element at the tempered point with the given
    angles; elementwise on arrays.  e2 = conj(e1) on the unit torus."""
    e1 = (
        np.exp(1j * np.asarray(theta1))
        + np.exp(1j * np.asarray(theta2))
        + np.exp(-1j * (np.asarray(theta1) + np.asarray(theta2)))
    )
    return schur_from_elementary(l1, l2, e1, np.conj(e1))

"""Sato-Tate and p-adic Plancherel measures on the SL(3) torus quotient:
exact densities, trapezoid quadrature on a grid chosen a priori from a
proven error bound, and seeded rejection sampling.

Angular coordinates are (theta1, theta2) in [0, 2pi) with theta3 implied as
-(theta1 + theta2).  Densities are reported against plain d(theta1) d(theta2),
so every measure here integrates to one over [0, 2pi)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import is_prime
from .hecke import schur_from_elementary
from .klpoly import WEYL

TWO_PI = 2.0 * math.pi

SATO_TATE = "sato-tate"
PLANCHEREL = "plancherel"


class EnvelopeError(RuntimeError):
    """A computed density exceeded the rejection envelope (implementation bug)."""


@dataclass(frozen=True)
class TorusPoint:
    """Point of the torus; holds scalars or equally-shaped numpy arrays."""

    theta1: float
    theta2: float

    def __post_init__(self):
        object.__setattr__(self, "theta1", self.theta1 % TWO_PI)
        object.__setattr__(self, "theta2", self.theta2 % TWO_PI)

    @property
    def theta3(self):
        return (-(self.theta1 + self.theta2)) % TWO_PI


@dataclass(frozen=True)
class MeasureSpec:
    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in (SATO_TATE, PLANCHEREL):
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.kind == PLANCHEREL:
            if self.p is None or self.p < 2 or not is_prime(self.p):
                raise ValueError(f"plancherel measure needs a prime p, got {self.p}")
        elif self.p is not None:
            raise ValueError("sato-tate takes no prime")

    @classmethod
    def sato_tate(cls) -> "MeasureSpec":
        return cls(SATO_TATE)

    @classmethod
    def plancherel(cls, p: int) -> "MeasureSpec":
        return cls(PLANCHEREL, p)


@dataclass(frozen=True)
class QuadratureGrid:
    """Periodic trapezoid rule on [0, 2pi)^2 with K nodes per axis."""

    resolution: int

    def __post_init__(self):
        if self.resolution < 8:
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


def density(spec: MeasureSpec, pt: TorusPoint):
    """Measure density at pt relative to d(theta1) d(theta2).

    Sato-Tate: prod_{l<j} |e^{i t_l} - e^{i t_j}|^2 / (24 pi^2).  Plancherel:
    the constant (1-p^-2)(1-p^-3)/(6(1-p^-1)^2) times prod |(e^{i t_l} -
    p^-1 e^{i t_j})/(e^{i t_l} - e^{i t_j})|^-2, divided by (2 pi)^2 so the
    total mass is one.  Elementwise on arrays.
    """
    z = (np.exp(1j * pt.theta1), np.exp(1j * pt.theta2), np.exp(1j * pt.theta3))
    vandermonde = denom = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            vandermonde = vandermonde * np.abs(z[i] - z[j]) ** 2
            if spec.kind == PLANCHEREL:
                denom = denom * np.abs(z[i] - z[j] / spec.p) ** 2
    if spec.kind == SATO_TATE:
        return vandermonde / (24.0 * math.pi ** 2)
    return plancherel_constant(spec.p) * vandermonde / denom / TWO_PI ** 2


def integrate(spec: MeasureSpec, f, grid: QuadratureGrid) -> complex:
    """Integral of f against the measure by the periodic trapezoid rule;
    spectrally accurate for smooth integrands.

    f is called once, on the whole mesh (a TorusPoint of arrays); a scalar
    return broadcasts.  Wrap a scalar-only integrand in np.vectorize."""
    pt = TorusPoint(*grid.mesh())
    vals = np.asarray(f(pt))
    return complex(np.sum(vals * density(spec, pt)) * grid.cell_weight)


def envelope_ratio(spec: MeasureSpec) -> float:
    """Upper bound for density / uniform-density used by rejection sampling.

    Sato-Tate: the sharp value 27/6.  Plancherel: the per-pair bound
    |e^{i a} - e^{i b}|^2 / |e^{i a} - p^-1 e^{i b}|^2 <= 4 / (1 + 1/p)^2
    cubed, times the normalizing constant.
    """
    if spec.kind == SATO_TATE:
        return 27.0 / 6.0
    return plancherel_constant(spec.p) * 64.0 / (1.0 + 1.0 / spec.p) ** 6


def _trapezoid_bound(spec: MeasureSpec, l1: int, l2: int, K: np.ndarray) -> np.ndarray:
    """Proven error bound of the K x K rule for the (l1, l2) Schur element
    against spec at each K of an integer array: aliasing plus rounding, as
    `trapezoid_resolution` derives."""
    q = 0.0 if spec.kind == SATO_TATE else 1.0 / spec.p
    top, rho = (l1 + l2 + 2, l2 + 1, 0), (2, 1, 0)
    m = np.array([[top[s[i]] - top[s[2]] - rho[t[i]] + rho[t[2]] for i in (0, 1)]
                  for s, _ in WEYL for t, _ in WEYL]).T
    reach = int(np.max(np.abs(m)))
    box = -(-reach // 8)
    j = np.array([(u, v) for u in range(-box, box + 1) for v in range(-box, box + 1) if u or v])
    d1, d2 = K[:, None, None] * j.T[:, None, :, None] - m[:, None, None, :]
    norm = np.maximum(np.maximum(np.abs(2 * d1 - d2), np.abs(d1 + d2)), np.abs(d1 - 2 * d2)) // 3
    near = np.sum(np.where((d1 + d2) % 3 == 0, q ** norm, 0.0), axis=(1, 2))
    s, x = box + 1, q ** (K / 2.0)
    far = 36 * 8 * q ** ((s * K - reach) / 2.0) * (s / (1.0 - x) + x / (1.0 - x) ** 2)
    h, dh = (lambda k: math.comb(k + 2, 2)), (lambda k: 160 * math.comb(k + 4, 5))
    schur = sum(dh(u) * h(v) + h(u) * dh(v) + 4 * h(u) * h(v)
                for u, v in ((l1 + l2, l2), (l1 + l2 + 1, l2 - 1)))
    dim = (l1 + 1) * (l2 + 1) * (l1 + l2 + 2) // 2
    return ((1.0 - q ** 3) / (6.0 * (1.0 - q) ** 5 * (1.0 + q)) * (near + far)
            + 2.0 ** -53 * envelope_ratio(spec) * (schur + 4096 * dim))


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
    Density (F <= 4, |F'| <= 2 / (1 - q)^2 per pair), product and sum add
    2^12 u dim(lambda); the density's grid sum is at most `envelope_ratio`.
    """
    for K in np.split(np.arange(8, 1025), range(16, 1017, 16)):
        ok = np.flatnonzero(_trapezoid_bound(spec, l1, l2, K) <= tol)
        if ok.size:
            return int(K[ok[0]])
    return None


def sample_angles(spec: MeasureSpec, count: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Rejection-sample `count` points; returns (theta1, theta2) arrays.

    Deterministic for a fixed seed: proposals are drawn in fixed-size batches
    from a PCG64 stream and accepted in order.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    cap = envelope_ratio(spec) / TWO_PI ** 2
    got1: list[np.ndarray] = []
    got2: list[np.ndarray] = []
    total = 0
    batch = 8192
    while total < count:
        t1 = rng.uniform(0.0, TWO_PI, batch)
        t2 = rng.uniform(0.0, TWO_PI, batch)
        u = rng.uniform(0.0, 1.0, batch)
        d = density(spec, TorusPoint(t1, t2))
        worst = float(np.max(d))
        if worst > cap * (1.0 + 1e-9):
            raise EnvelopeError(
                f"density {worst} exceeds envelope bound {cap} for {spec}"
            )
        keep = u * cap <= d
        got1.append(t1[keep])
        got2.append(t2[keep])
        total += int(np.count_nonzero(keep))
    out1 = np.concatenate(got1)[:count]
    out2 = np.concatenate(got2)[:count]
    return out1, out2


def child_seed(seed: int, index: int) -> int:
    """Fixed splitting rule for child seeds: entropy is the pair
    (seed, index), so child streams are reproducible and independent."""
    ss = np.random.SeedSequence((seed, index))
    return int(ss.generate_state(1, np.uint64)[0])


def schur_on_torus(l1: int, l2: int, theta1, theta2):
    """The (l1, l2) Schur basis element at the tempered point with the given
    angles; elementwise on arrays.  e2 = conj(e1) on the unit torus."""
    e1 = (
        np.exp(1j * np.asarray(theta1))
        + np.exp(1j * np.asarray(theta2))
        + np.exp(-1j * (np.asarray(theta1) + np.asarray(theta2)))
    )
    return schur_from_elementary(l1, l2, e1, np.conj(e1))

"""Sato-Tate and p-adic Plancherel measures on the SL(3) torus quotient:
exact densities, spectrally accurate quadrature and seeded rejection
sampling.

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
from .klpoly import QPolynomial, weyl_lengths

TWO_PI = 2.0 * math.pi

SATO_TATE = "sato-tate"
PLANCHEREL = "plancherel"


class EnvelopeError(RuntimeError):
    """A computed density exceeded the rejection envelope (implementation bug)."""


class QuadratureError(RuntimeError):
    """Grid doubling failed to stabilize within the resolution cap."""


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
    vandermonde = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            vandermonde = vandermonde * np.abs(z[i] - z[j]) ** 2
    if spec.kind == SATO_TATE:
        return vandermonde / (24.0 * math.pi ** 2)
    p = spec.p
    denom = 1.0
    for i in range(3):
        for j in range(i + 1, 3):
            denom = denom * np.abs(z[i] - z[j] / p) ** 2
    return plancherel_constant(p) * vandermonde / denom / TWO_PI ** 2


def integrate(spec: MeasureSpec, f, grid: QuadratureGrid) -> complex:
    """Integral of f against the measure by the periodic trapezoid rule;
    spectrally accurate for smooth integrands.

    f is called once, on the whole mesh (a TorusPoint of arrays); a scalar
    return broadcasts.  Wrap a scalar-only integrand in np.vectorize."""
    pt = TorusPoint(*grid.mesh())
    vals = np.asarray(f(pt))
    return complex(np.sum(vals * density(spec, pt)) * grid.cell_weight)


def integrate_adaptive(
    spec: MeasureSpec,
    f,
    tol: float = 1e-8,
    start_resolution: int = 64,
    max_resolution: int = 1024,
) -> tuple[complex, int]:
    """Double the grid until two successive values agree within tol.

    Returns (value, resolution); raises QuadratureError past max_resolution.
    """
    k = max(8, start_resolution)
    prev = integrate(spec, f, QuadratureGrid(k))
    while k < max_resolution:
        k *= 2
        cur = integrate(spec, f, QuadratureGrid(k))
        if abs(cur - prev) <= tol:
            return cur, k
        prev = cur
    raise QuadratureError(
        f"quadrature did not stabilize within tol={tol} by resolution {max_resolution}"
    )


def envelope_ratio(spec: MeasureSpec) -> float:
    """Upper bound for density / uniform-density used by rejection sampling.

    Sato-Tate: the sharp value 27/6.  Plancherel: the per-pair bound
    |e^{i a} - e^{i b}|^2 / |e^{i a} - p^-1 e^{i b}|^2 <= 4 / (1 + 1/p)^2
    cubed, times the normalizing constant.
    """
    if spec.kind == SATO_TATE:
        return 27.0 / 6.0
    return plancherel_constant(spec.p) * 64.0 / (1.0 + 1.0 / spec.p) ** 6


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


def weyl_poincare(q=None):
    """Length generating polynomial W(q) of the order-six Weyl group,
    1 + 2q + 2q^2 + q^3, formal (q=None) or evaluated at q."""
    lengths = weyl_lengths()
    coeffs = [0] * (max(lengths) + 1)
    for ell in lengths:
        coeffs[ell] += 1
    poly = QPolynomial(coeffs)
    return poly if q is None else poly(q)

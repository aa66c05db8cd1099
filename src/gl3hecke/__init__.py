"""Coefficient calculus, equidistribution measures, and sign statistics for
degree-three Hecke eigenvalue data."""

from .hecke import (
    CoefficientTable,
    GL2FormData,
    IndexBoundsError,
    MissingPrimeError,
    NonTemperedError,
    PrimeLocalData,
    SatakeTriple,
    hecke_residual,
    mobius_expand,
    sym2_lift,
)
from .klpoly import (
    QPolynomial,
    Weight,
    hw_weight,
    kato_check,
    kostant_partition,
    lusztig_q_analog,
)
from .measures import (
    EnvelopeError,
    MeasureSpec,
    QuadratureGrid,
    TorusPoint,
    density,
    integrate,
)
from .schuralg import (
    EPoly,
    WInvariantLaurent,
    bernstein_coeffs,
    effective_st_compare,
    expand_in_schur,
    schur_to_epoly,
)
from .signstats import (
    RealSequence,
    ShortIntervalConfig,
    SignChangeReport,
    count_sign_changes,
    interval_change_scan,
    nonvanishing_density,
    partial_sum_abs,
    short_interval_sums,
    sign_balance,
    window_sums,
)
from .dirichlet import (
    DirichletPolynomial,
    build_MKD,
    euler_factor_check,
)
from .tau import ramanujan_tau

__version__ = "0.1.0"

"""Coefficient calculus, equidistribution measures, and sign statistics for
degree-three Hecke eigenvalue data."""

__version__ = "0.1.0"

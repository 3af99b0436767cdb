"""Exception types shared across the package."""

from __future__ import annotations


class SocpcqError(Exception):
    """Base class for all package errors."""


class DimensionError(SocpcqError):
    """Malformed input: wrong shapes, non-finite entries, or m < 2."""


class InfeasiblePointError(SocpcqError):
    """A point that was required to be feasible is not.

    Carries the distance to the feasible region (or to the cone) so callers
    can report how badly the precondition failed.
    """

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = float(distance)


class SingularReductionError(SocpcqError):
    """Boundary reduction requested where g_r(x) vanishes."""


class NumericalFailureError(SocpcqError):
    """A routine ended without a certificate, or certified that no answer
    exists (an empty feasible set); ``residual`` is the deciding number."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = float(residual)


class GenerationError(SocpcqError):
    """A random-instance construction failed its self-check repeatedly."""


class ParseError(SocpcqError):
    """An instance document could not be parsed or validated."""

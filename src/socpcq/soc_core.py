"""Geometry kernels for the second-order (Lorentz) cone.

The cone in R^m (m >= 2) is the set of points y = (y0, yr) with
y0 >= ||yr||.  Everything else in the package reduces to the four-way
classification implemented here (interior / positive boundary / zero /
outside) together with the exact distance and projection formulas.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InfeasiblePointError

#: Default relative tolerance for all point classifications.
DEFAULT_TOL = 1e-9

_SQRT_HALF = np.sqrt(0.5)


class ConeLocation(enum.Enum):
    INTERIOR = "interior"
    POSITIVE_BOUNDARY = "positive_boundary"
    ZERO = "zero"
    OUTSIDE = "outside"


class NormalConeKind(enum.Enum):
    ZERO_SET = "zero_set"
    MINUS_CONE = "minus_cone"
    RAY = "ray"


@dataclass(frozen=True)
class NormalConeDescriptor:
    """Finite description of the normal cone at a feasible cone point.

    ``ZERO_SET`` means {0}, ``MINUS_CONE`` means -Q_m, and ``RAY`` means the
    half-line of nonnegative multiples of ``generator``.
    """

    kind: NormalConeKind
    generator: Optional[np.ndarray] = None


def as_cone_vector(y) -> np.ndarray:
    """Validate and return ``y`` as a 1-d float vector of length >= 2."""
    arr = np.asarray(y, dtype=float)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise DimensionError(
            f"cone points need dimension >= 2, got {arr.shape[0]} "
            "(the m = 1 half-line is out of scope)"
        )
    if not np.all(np.isfinite(arr)):
        raise DimensionError("cone point has non-finite entries")
    return arr


def reflected(y: np.ndarray) -> np.ndarray:
    """The vector (-y0, yr); generates the normal ray on the boundary."""
    out = np.array(y, dtype=float)
    out[0] = -out[0]
    return out


def cone_margin(y) -> float:
    """y0 - ||yr||; nonnegative exactly on the cone."""
    return float(_margin_rows(as_cone_vector(y)[None, :])[0])


def classify_cone_point(y, tol: float = DEFAULT_TOL) -> ConeLocation:
    """Classify ``y`` relative to Q_m with a relative tolerance.

    The zero test fires first (||y|| <= tol), then the boundary band
    |y0 - ||yr||| <= tol * max(1, ||y||) with y0 > tol; ties on the band
    resolve to the boundary.  What remains is decided by the sign of the
    margin.
    """
    y = as_cone_vector(y)
    if tol <= 0:
        raise DimensionError("tolerance must be positive")
    norm_y = float(np.linalg.norm(y))
    scale = max(1.0, norm_y)
    if norm_y <= tol * scale:
        return ConeLocation.ZERO
    margin = float(_margin_rows(y[None, :])[0])
    if abs(margin) <= tol * scale and y[0] > tol:
        return ConeLocation.POSITIVE_BOUNDARY
    if margin > 0.0:
        return ConeLocation.INTERIOR
    return ConeLocation.OUTSIDE


def distance_to_cone(y) -> float:
    """Exact Euclidean distance from ``y`` to Q_m.

    Zero on the cone, ||y|| on the polar cone -Q_m, and
    sqrt(1/2) * (||yr|| - y0) in the ambient region between them.
    """
    return float(_distance_rows(as_cone_vector(y)[None, :])[0])


def project_to_cone(y) -> np.ndarray:
    """Euclidean projection of ``y`` onto Q_m (exact, closed form)."""
    return _projection_rows(as_cone_vector(y)[None, :])[0]


def tangent_membership(y, d, tol: float = DEFAULT_TOL) -> bool:
    """Does direction ``d`` belong to the tangent cone of Q_m at ``y``?

    Requires y in Q_m.  At interior points the tangent cone is everything;
    at the vertex it is Q_m itself; on the positive boundary it is the
    half-space <(-y0, yr), d> <= 0.
    """
    y = as_cone_vector(y)
    d = np.asarray(d, dtype=float)
    if d.shape != y.shape:
        raise DimensionError(f"direction shape {d.shape} != point shape {y.shape}")
    if not np.all(np.isfinite(d)):
        raise DimensionError("direction has non-finite entries")
    loc = classify_cone_point(y, tol)
    if loc is ConeLocation.OUTSIDE:
        raise InfeasiblePointError(
            "tangent cone requested at a point outside the cone",
            distance_to_cone(y),
        )
    if loc is ConeLocation.INTERIOR:
        return True
    if loc is ConeLocation.ZERO:
        return classify_cone_point(d, tol) is not ConeLocation.OUTSIDE
    ytil = reflected(y)
    scale = max(1.0, float(np.linalg.norm(ytil)) * float(np.linalg.norm(d)))
    return float(ytil @ d) <= tol * scale


def normal_cone_descriptor(y, tol: float = DEFAULT_TOL) -> NormalConeDescriptor:
    """Finite description of the normal cone to Q_m at a feasible ``y``."""
    y = as_cone_vector(y)
    loc = classify_cone_point(y, tol)
    if loc is ConeLocation.OUTSIDE:
        raise InfeasiblePointError(
            "normal cone requested at a point outside the cone",
            distance_to_cone(y),
        )
    if loc is ConeLocation.INTERIOR:
        return NormalConeDescriptor(NormalConeKind.ZERO_SET)
    if loc is ConeLocation.ZERO:
        return NormalConeDescriptor(NormalConeKind.MINUS_CONE)
    return NormalConeDescriptor(NormalConeKind.RAY, generator=reflected(y))


# ----------------------------------------------------------------------
# Row kernels.  Each formula is written once, for an (N, m) array; the
# scalar functions above run it on one row.  The sampling oracles push
# thousands of points through the batched names per call.

def _margin_rows(Y: np.ndarray) -> np.ndarray:
    return Y[:, 0] - np.linalg.norm(Y[:, 1:], axis=1)


def _distance_rows(Y: np.ndarray) -> np.ndarray:
    norm_r = np.linalg.norm(Y[:, 1:], axis=1)
    out = _SQRT_HALF * (norm_r - Y[:, 0])
    out[Y[:, 0] >= norm_r] = 0.0
    polar = -Y[:, 0] >= norm_r
    if np.any(polar):
        out[polar] = np.linalg.norm(Y[polar], axis=1)
    return out


def _projection_rows(Y: np.ndarray) -> np.ndarray:
    out = Y.copy()
    norm_r = np.linalg.norm(Y[:, 1:], axis=1)
    polar = -Y[:, 0] >= norm_r
    out[polar] = 0.0
    mid = ~polar & (Y[:, 0] < norm_r)
    if np.any(mid):
        coef = 0.5 * (Y[mid, 0] + norm_r[mid])
        out[mid, 0] = coef
        out[mid, 1:] = (coef / norm_r[mid])[:, None] * Y[mid, 1:]
    return out


def _as_cone_rows(Y) -> np.ndarray:
    Y = np.asarray(Y, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 2:
        raise DimensionError(
            f"expected an (N, m) array with m >= 2, got shape {Y.shape}"
        )
    return Y


def margins(Y: np.ndarray) -> np.ndarray:
    """Row-wise cone margins y0 - ||yr|| for an (N, m) array."""
    return _margin_rows(_as_cone_rows(Y))


def distances_to_cone(Y: np.ndarray) -> np.ndarray:
    """Row-wise distances to Q_m for an (N, m) array."""
    return _distance_rows(_as_cone_rows(Y))


def projections_to_cone(Y: np.ndarray) -> np.ndarray:
    """Row-wise projections onto Q_m for an (N, m) array."""
    return _projection_rows(_as_cone_rows(Y))

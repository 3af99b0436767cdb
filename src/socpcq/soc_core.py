"""Geometry kernels for the second-order (Lorentz) cone.

The cone in R^m (m >= 2) is the set of points y = (y0, yr) with
y0 >= ||yr||.  Everything else in the package reduces to the four-way
classification implemented here (interior / positive boundary / zero /
outside) together with the exact distance and projection formulas.

``_norm`` and ``_row_norms`` are the package's one Euclidean norm kernel:
every vector, Frobenius and row norm goes through them.  They run the
operations ``np.linalg.norm`` runs on float64 input, so their values are
bitwise those of ``np.linalg.norm``, without its Python dispatch, which
costs more than the arithmetic on the package's small matrices.

Public names check, private kernels trust checked arrays.  Every public
function checks its input once (shape, the magnitude rule of
``_check_magnitude``, the tolerance rule of ``_checked_tol``, the integer
rule of ``_count`` for counts, sizes and seeds) and hands it to a private
body: ``_location`` behind ``classify_cone_point``, ``_margin`` behind
``cone_margin``, and the row kernels ``_margin_rows``, ``_distance_rows``
and ``_projection_rows`` behind the batch names.  The other modules follow
the same rule, so a caller inside the package that holds arrays it built
from checked data calls the bodies directly and pays for no second check.
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

from .errors import DimensionError, InfeasiblePointError

#: Default relative tolerance for all point classifications.
DEFAULT_TOL = 1e-9
#: Default certified gap of the projection onto the feasible set.
PROJECTION_TOL = 1e-10

_SQRT_HALF = np.sqrt(0.5)

#: Half the root of the largest float: an array whose largest entry, times
#: the root of its entry count, stays below this has a squared norm far
#: from overflow.
_SQUARE_LIMIT = 0.5 * math.sqrt(float(np.finfo(float).max))


class ConeLocation(enum.Enum):
    INTERIOR = "interior"
    POSITIVE_BOUNDARY = "positive_boundary"
    ZERO = "zero"
    OUTSIDE = "outside"


def _checked_tol(tol, name: str = "tol") -> float:
    """``tol`` as a float: every tolerance is a real number (not a bool or a
    str) in (0, 1), else ``DimensionError`` (a too-large int too).  A
    relative tolerance of 1 or more would read every rank as 0 and every
    cone point as the vertex."""
    real = isinstance(tol, (float, numbers.Real)) and not isinstance(tol, bool)
    try:
        value = float(tol) if real else math.nan
    except OverflowError:
        value = math.inf
    if not 0.0 < value < 1.0:
        raise DimensionError(
            f"{name} must be a positive finite number below 1, got {tol!r:.40}"
        )
    return value


def _count(value, name: str, least=1) -> int:
    """``value`` as an int: an integer, not a bool, of at least ``least``
    (of any value when ``least`` is None), else ``ValueError``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r:.40}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _check_magnitude(X: np.ndarray, subject: str, axis=None) -> np.ndarray:
    """``X`` if it is finite and its squared norm (``axis`` None), or that
    of each slice along ``axis``, does not overflow; else ``DimensionError``.
    The largest entry decides in one pass unless it nears ``_SQUARE_LIMIT``;
    only then are the squares summed, with numpy's overflow warning off."""
    big = float(np.abs(X).max(initial=0.0))
    if big * math.sqrt(X.size if axis is None else X.shape[axis]) < _SQUARE_LIMIT:
        return X
    if not math.isfinite(big):
        raise DimensionError(f"{subject} non-finite entries")
    with np.errstate(over="ignore"):
        squares = np.add.reduce(X * X, axis=axis)
    if not np.isfinite(squares).all():
        raise DimensionError(f"{subject} a squared norm that overflows")
    return X


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
    return _check_magnitude(arr, "cone point has")


def reflected(y: np.ndarray) -> np.ndarray:
    """The vector (-y0, yr); generates the normal ray on the boundary."""
    out = np.array(y, dtype=float)
    out[0] = -out[0]
    return out


def cone_margin(y) -> float:
    """y0 - ||yr||; nonnegative exactly on the cone."""
    return _margin(as_cone_vector(y))


def _margin(y: np.ndarray) -> float:
    """``cone_margin`` of a checked vector."""
    return float(_margin_rows(y[None, :])[0])


def classify_cone_point(y, tol: float = DEFAULT_TOL) -> ConeLocation:
    """Classify ``y`` relative to Q_m with a relative tolerance.

    The zero test fires first (||y|| <= tol), then the boundary band
    |y0 - ||yr||| <= tol * max(1, ||y||) with y0 > tol; ties on the band
    resolve to the boundary.  What remains is decided by the sign of the
    margin.
    """
    return _location(as_cone_vector(y), _checked_tol(tol))


def _location(y: np.ndarray, tol: float) -> ConeLocation:
    """``classify_cone_point`` on a checked vector and tolerance."""
    norm_y = _norm(y)
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
    _check_magnitude(d, "direction has")
    tol = _checked_tol(tol)
    loc = _location(y, tol)
    if loc is ConeLocation.OUTSIDE:
        raise InfeasiblePointError(
            "tangent cone requested at a point outside the cone",
            distance_to_cone(y),
        )
    if loc is ConeLocation.INTERIOR:
        return True
    if loc is ConeLocation.ZERO:
        return _location(d, tol) is not ConeLocation.OUTSIDE
    ytil = reflected(y)
    scale = max(1.0, _norm(ytil) * _norm(d))
    return float(ytil @ d) <= tol * scale


# ----------------------------------------------------------------------
# The norm kernel.  For float64 input, np.linalg.norm takes the 2-norm of
# a vector, or the Frobenius norm of a matrix, as sqrt(x.dot(x)) on
# x.ravel(order="K"), and the 2-norm along an axis as
# sqrt(add.reduce(x * x, axis)).  Keeping the ravel keeps the sum in its
# order: a dot product on a strided view may sum in another.  (math.sqrt
# and np.sqrt are both the correctly rounded IEEE square root.)

def _norm(x: np.ndarray) -> float:
    """||x||_2 of a float vector, or ||x||_F of a float matrix."""
    x = x.ravel(order="K")
    return math.sqrt(x.dot(x))


def _row_norms(Y: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """The 2-norms of a float array along its last axis."""
    return np.sqrt(np.add.reduce(Y * Y, axis=-1, keepdims=keepdims))


# ----------------------------------------------------------------------
# Row kernels.  Each formula is written once, for an (N, m) array; the
# scalar functions above run it on one row.  The sampling oracles push
# thousands of points through the batched names per call.

def _margin_rows(Y: np.ndarray) -> np.ndarray:
    return Y[:, 0] - _row_norms(Y[:, 1:])


def _distance_rows(Y: np.ndarray) -> np.ndarray:
    norm_r = _row_norms(Y[:, 1:])
    out = _SQRT_HALF * (norm_r - Y[:, 0])
    out[Y[:, 0] >= norm_r] = 0.0
    polar = -Y[:, 0] >= norm_r
    if polar.any():
        out[polar] = _row_norms(Y[polar])
    return out


def _projection_rows(Y: np.ndarray) -> np.ndarray:
    out = Y.copy()
    norm_r = _row_norms(Y[:, 1:])
    polar = -Y[:, 0] >= norm_r
    out[polar] = 0.0
    mid = ~polar & (Y[:, 0] < norm_r)
    if mid.any():
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
    return _check_magnitude(Y, "cone points have", axis=-1)


def margins(Y: np.ndarray) -> np.ndarray:
    """Row-wise cone margins y0 - ||yr|| for an (N, m) array."""
    return _margin_rows(_as_cone_rows(Y))


def distances_to_cone(Y: np.ndarray) -> np.ndarray:
    """Row-wise distances to Q_m for an (N, m) array."""
    return _distance_rows(_as_cone_rows(Y))


def projections_to_cone(Y: np.ndarray) -> np.ndarray:
    """Row-wise projections onto Q_m for an (N, m) array."""
    return _projection_rows(_as_cone_rows(Y))

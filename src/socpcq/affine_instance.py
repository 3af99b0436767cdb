"""Affine second-order cone constraints g(x) = Ax + b in Q_m.

Holds the instance data plus the pointwise reduction machinery: on the
positive boundary the constraint reduces to the smooth scalar inequality
phi(x) = g0(x) - ||gr(x)|| >= 0, at the vertex it stays conic, and at
interior points it is locally inactive.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError, InfeasiblePointError, SingularReductionError
from .soc_core import (
    DEFAULT_TOL,
    PROJECTION_TOL,
    ConeLocation,
    _checked_tol,
    _location,
    _norm,
    _row_norms,
    cone_margin,
    distance_to_cone,
    reflected,
    tangent_membership,
)
from .subspace_cone import SubspaceConeClass, _classify

#: The instance's tolerance fields, each checked by ``soc_core._checked_tol``.
_TOLERANCES = ("tol", "projection_tol")


@dataclass(frozen=True)
class AffineSOCInstance:
    """The constraint data: A is m-by-n, b in R^m, feasibility is Ax+b in Q_m.

    ``tol`` is the one tolerance of every decision on the instance and its
    points: the cone location of g(x), ranks and the spectral class of
    Im(A), and the gradient floor.  ``projection_tol`` is the certified gap
    of every projection onto the feasible set, and so of every distance a
    kappa ratio divides.  Both obey the rule of ``soc_core._checked_tol``.
    The data is treated as immutable: ``geometry`` memoizes the spectral
    geometry of Im(A) on the instance, and ``norm_A`` its Frobenius norm.
    """

    A: np.ndarray
    b: np.ndarray
    tol: float = DEFAULT_TOL
    projection_tol: float = PROJECTION_TOL
    _geometry: Optional[SubspaceConeClass] = field(
        default=None, init=False, repr=False, compare=False
    )
    _norm_A: Optional[float] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if A.ndim != 2:
            raise DimensionError(f"A must be a matrix, got shape {A.shape}")
        m, n = A.shape
        if m < 2:
            raise DimensionError(
                f"m = {m} is out of scope; the cone needs m >= 2"
            )
        if n < 1:
            raise DimensionError("A needs at least one column")
        if b.shape != (m,):
            raise DimensionError(f"b has shape {b.shape}, expected ({m},)")
        if not (np.isfinite(A).all() and np.isfinite(b).all()):
            raise DimensionError("instance data has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        for name in _TOLERANCES:
            object.__setattr__(self, name, _checked_tol(getattr(self, name), name))

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def geometry(self) -> SubspaceConeClass:
        """Im(A) against the cone at ``tol``, with its SVD; computed once."""
        if self._geometry is None:
            object.__setattr__(self, "_geometry", _classify(self.A, self.tol))
        return self._geometry

    def norm_A(self) -> float:
        """||A||_F; computed once."""
        if self._norm_A is None:
            object.__setattr__(self, "_norm_A", _norm(self.A))
        return self._norm_A

    def point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(f"point has shape {x.shape}, expected ({self.n},)")
        if not np.isfinite(x).all():
            raise DimensionError("point has non-finite entries")
        return x

    def evaluate(self, x) -> np.ndarray:
        """g(x) = Ax + b; a finite x whose g(x) overflows raises
        ``DimensionError``."""
        return self._image(self.point(x))

    def _image(self, x: np.ndarray) -> np.ndarray:
        """``evaluate`` at a point that ``point`` has checked.

        A finite x can still overflow g(x): that raises ``DimensionError``,
        and numpy's overflow warning is silenced."""
        with np.errstate(over="ignore", invalid="ignore"):
            y = self._evaluate(x)
        if not np.isfinite(y).all():
            raise DimensionError("g(x) overflows to non-finite entries")
        return y

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """g(x), unguarded: for a point whose image is known to be finite,
        such as one that ``_image`` has checked."""
        return self.A @ x + self.b

    def _point_rows(self, X) -> np.ndarray:
        """``X`` as an (N, n) float array; other shapes or non-finite
        entries raise ``DimensionError``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionError(
                f"points have shape {X.shape}, expected (N, {self.n})"
            )
        if not np.isfinite(X).all():
            raise DimensionError("points have non-finite entries")
        return X

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """g at the rows of an (N, n) array, returned as (N, m)."""
        return self._point_rows(X) @ self.A.T + self.b


@dataclass(frozen=True)
class PointAnalysis:
    """Everything a feasible point is judged by, computed once.

    Holds g(x) = y, its location in the cone and the gradient of the scalar
    reduction phi on the positive boundary (None elsewhere), all decided at
    the instance's ``tol``.  The six qualification checks, the projector's
    shape decision and the face-dimension scan all read this one record:
    ``geometry`` is the image geometry of A that ``instance.geometry()``
    memoizes, and ``grad_floor`` = tol * max(1, ||A||_F) is the norm below
    which a gradient of phi, or a residual of A, counts as zero.
    """

    instance: AffineSOCInstance
    x: np.ndarray
    y: np.ndarray
    location: ConeLocation
    grad_phi: Optional[np.ndarray]

    @property
    def geometry(self) -> SubspaceConeClass:
        return self.instance.geometry()

    @property
    def grad_floor(self) -> float:
        return self.instance.tol * max(1.0, self.instance.norm_A())


def phi(instance: AffineSOCInstance, x) -> float:
    """The concave margin g0(x) - ||gr(x)||; feasibility is phi(x) >= 0."""
    return cone_margin(instance.evaluate(x))


def grad_phi(instance: AffineSOCInstance, x) -> np.ndarray:
    """Gradient of phi at x: A0 - (gr(x)/||gr(x)||)^T Ar.

    Defined only where gr(x) is safely nonzero.
    """
    return _grad_at(instance, instance.evaluate(x))


def _grad_rows(
    instance: AffineSOCInstance, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """grad phi from the rows of Y = g(X); ok flags the rows where gr is
    safely nonzero, ||gr|| > tol * max(1, ||g||), the others are zero."""
    norms = _row_norms(Y[:, 1:])
    ok = norms > instance.tol * np.maximum(1.0, _row_norms(Y))
    G = np.zeros((Y.shape[0], instance.n))
    if ok.any():
        unit = Y[ok, 1:] / norms[ok, None]
        G[ok] = instance.A[0] - unit @ instance.A[1:]
    return G, ok


def _grad_at(instance: AffineSOCInstance, y: np.ndarray) -> np.ndarray:
    """``grad_phi`` from y = g(x), which the caller already holds."""
    G, ok = _grad_rows(instance, y[None, :])
    if not ok[0]:
        raise SingularReductionError(
            f"gr(x) has norm {_norm(y[1:]):.3e}; "
            "the scalar reduction is singular here"
        )
    return G[0]


def grad_phi_many(
    instance: AffineSOCInstance, X: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise grad phi for an (N, n) array.

    Returns (G, ok) where rows of G are gradients and ok flags rows where
    gr(x) is safely nonzero, by the test of ``grad_phi``; rows with
    ok == False are zero-filled.
    """
    return _grad_rows(instance, instance.evaluate_many(X))


def analyze_point(instance: AffineSOCInstance, x) -> PointAnalysis:
    """Classify g(x) and cache the reduction data; rejects infeasible points.

    ``x`` may already be a ``PointAnalysis``: one of this instance is
    returned as it is, one of another instance is redone at its point.
    """
    if isinstance(x, PointAnalysis):
        if x.instance is instance:
            return x
        x = x.x
    x = instance.point(x)
    y = instance._image(x)
    loc = _location(y, instance.tol)
    if loc is ConeLocation.OUTSIDE:
        distance = distance_to_cone(y)
        raise InfeasiblePointError(
            f"g(x) lies outside the cone (distance {distance:.3e})", distance
        )
    grad = None
    if loc is ConeLocation.POSITIVE_BOUNDARY:
        grad = _grad_at(instance, y)
    return PointAnalysis(instance, x, y, loc, grad)


class HSetKind(enum.Enum):
    ZERO_ONLY = "zero_only"
    RAY_IMAGE = "ray_image"
    CONE_IMAGE = "cone_image"


@dataclass(frozen=True)
class HSetDescription:
    """The set A^T N(g(x)) of multiplier images at a feasible point.

    ``ZERO_ONLY`` is {0} (interior points); ``RAY_IMAGE`` is the half-line
    of nonnegative multiples of ``generator`` = A^T(-y0, yr) (boundary
    points); ``CONE_IMAGE`` is A^T(-Q_m) (vertex), whose closedness is the
    point of the analysis and is filled in by the checker.
    """

    kind: HSetKind
    generator: Optional[np.ndarray] = None
    closed: Optional[bool] = None


def _h_set(analysis: PointAnalysis) -> HSetDescription:
    if analysis.location is ConeLocation.INTERIOR:
        return HSetDescription(HSetKind.ZERO_ONLY)
    if analysis.location is ConeLocation.ZERO:
        return HSetDescription(HSetKind.CONE_IMAGE)
    gen = analysis.instance.A.T @ reflected(analysis.y)
    return HSetDescription(HSetKind.RAY_IMAGE, generator=gen)


def linearization_cone_membership(instance: AffineSOCInstance, x, d) -> bool:
    """Is ``d`` in the linearized feasible cone at the feasible point ``x``?

    That cone is the preimage under A of the tangent cone of Q_m at g(x).
    """
    analysis = analyze_point(instance, x)
    d = np.asarray(d, dtype=float)
    if d.shape != (instance.n,):
        raise DimensionError(f"direction has shape {d.shape}, expected ({instance.n},)")
    if not np.isfinite(d).all():
        raise DimensionError("direction has non-finite entries")
    return tangent_membership(analysis.y, instance.A @ d, instance.tol)


def _vanishing(
    analysis: PointAnalysis,
) -> tuple[Optional[tuple[np.ndarray, np.ndarray, float]], float]:
    """At a boundary point: (u, w, c) with g = (w^T x + c)(1, u), ||u|| = 1,
    which makes phi vanish near the point (None if A has a column not
    parallel to g(x)), and the residual norm of A against such columns."""
    instance, y = analysis.instance, analysis.y
    residual = instance.A - np.outer(y, (y @ instance.A) / float(y @ y))
    residual_norm = _norm(residual)
    if residual_norm > analysis.grad_floor:
        return None, residual_norm
    u = y[1:] / _norm(y[1:])
    return (u, instance.A[0].copy(), float(instance.b[0])), residual_norm

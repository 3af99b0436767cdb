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
    ConeLocation,
    as_cone_vector,
    classify_cone_point,
    cone_margin,
    distance_to_cone,
    reflected,
)
from .subspace_cone import SubspaceConeClass, classify_image_vs_cone


@dataclass(frozen=True)
class AffineSOCInstance:
    """The constraint data: A is m-by-n, b in R^m, feasibility is Ax+b in Q_m.

    The data is treated as immutable: ``geometry`` memoizes the spectral
    geometry of Im(A) on the instance.
    """

    A: np.ndarray
    b: np.ndarray
    _geometry: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
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
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise DimensionError("instance data has non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def geometry(self, tol: float = DEFAULT_TOL) -> SubspaceConeClass:
        """Im(A) against the cone, with its SVD; computed once per ``tol``."""
        tol = float(tol)
        if tol not in self._geometry:
            self._geometry[tol] = classify_image_vs_cone(self.A, tol)
        return self._geometry[tol]

    def point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(f"point has shape {x.shape}, expected ({self.n},)")
        if not np.all(np.isfinite(x)):
            raise DimensionError("point has non-finite entries")
        return x

    def evaluate(self, x) -> np.ndarray:
        """g(x) = Ax + b."""
        return self.A @ self.point(x) + self.b

    def _point_rows(self, X) -> np.ndarray:
        """``X`` as an (N, n) float array; other shapes or non-finite
        entries raise ``DimensionError``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionError(
                f"points have shape {X.shape}, expected (N, {self.n})"
            )
        if not np.all(np.isfinite(X)):
            raise DimensionError("points have non-finite entries")
        return X

    def evaluate_many(self, X: np.ndarray) -> np.ndarray:
        """g at the rows of an (N, n) array, returned as (N, m)."""
        return self._point_rows(X) @ self.A.T + self.b


@dataclass(frozen=True)
class PointAnalysis:
    """Everything a feasible point is judged by, computed once.

    Holds g(x) = y, its location in the cone, the gradient of the scalar
    reduction phi on the positive boundary (None elsewhere) and the
    tolerance of the analysis.  The six qualification checks, the
    projector's shape decision and the face-dimension scan all read this one
    record: ``geometry`` is the image geometry of A that the instance
    memoizes at ``tol``, and ``grad_floor`` = tol * max(1, ||A||_F) is the
    norm below which a gradient of phi, or a residual of A, counts as zero.
    """

    instance: AffineSOCInstance
    x: np.ndarray
    y: np.ndarray
    location: ConeLocation
    grad_phi: Optional[np.ndarray]
    tol: float = DEFAULT_TOL

    @property
    def geometry(self) -> SubspaceConeClass:
        return self.instance.geometry(self.tol)

    @property
    def grad_floor(self) -> float:
        return self.tol * max(1.0, float(np.linalg.norm(self.instance.A)))


def phi(instance: AffineSOCInstance, x) -> float:
    """The concave margin g0(x) - ||gr(x)||; feasibility is phi(x) >= 0."""
    return cone_margin(instance.evaluate(x))


def grad_phi(instance: AffineSOCInstance, x, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Gradient of phi at x: A0 - (gr(x)/||gr(x)||)^T Ar.

    Defined only where gr(x) is safely nonzero.
    """
    return _grad_at(instance, instance.evaluate(x), tol)


def _grad_rows(
    instance: AffineSOCInstance, Y: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """grad phi from the rows of Y = g(X); ok flags the rows where gr is
    safely nonzero, ||gr|| > tol * max(1, ||g||), the others are zero."""
    norms = np.linalg.norm(Y[:, 1:], axis=1)
    ok = norms > tol * np.maximum(1.0, np.linalg.norm(Y, axis=1))
    G = np.zeros((Y.shape[0], instance.n))
    if np.any(ok):
        unit = Y[ok, 1:] / norms[ok, None]
        G[ok] = instance.A[0] - unit @ instance.A[1:]
    return G, ok


def _grad_at(instance: AffineSOCInstance, y: np.ndarray, tol: float) -> np.ndarray:
    """``grad_phi`` from y = g(x), which the caller already holds."""
    G, ok = _grad_rows(instance, y[None, :], tol)
    if not ok[0]:
        raise SingularReductionError(
            f"gr(x) has norm {float(np.linalg.norm(y[1:])):.3e}; "
            "the scalar reduction is singular here"
        )
    return G[0]


def grad_phi_many(
    instance: AffineSOCInstance, X: np.ndarray, tol: float = DEFAULT_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise grad phi for an (N, n) array.

    Returns (G, ok) where rows of G are gradients and ok flags rows where
    gr(x) is safely nonzero, by the test of ``grad_phi``; rows with
    ok == False are zero-filled.
    """
    return _grad_rows(instance, instance.evaluate_many(X), tol)


def analyze_point(
    instance: AffineSOCInstance, x, tol: float = DEFAULT_TOL
) -> PointAnalysis:
    """Classify g(x) and cache the reduction data; rejects infeasible points."""
    tol = float(tol)
    x = instance.point(x)
    y = instance.evaluate(x)
    loc = classify_cone_point(y, tol)
    if loc is ConeLocation.OUTSIDE:
        raise InfeasiblePointError(
            f"g(x) lies outside the cone (distance {distance_to_cone(y):.3e})",
            distance_to_cone(y),
        )
    grad = None
    if loc is ConeLocation.POSITIVE_BOUNDARY:
        grad = _grad_at(instance, y, tol)
    return PointAnalysis(instance, x, y, loc, grad, tol)


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


def h_set_description(
    instance: AffineSOCInstance, x, tol: float = DEFAULT_TOL
) -> HSetDescription:
    return _h_set(analyze_point(instance, x, tol))


def _h_set(analysis: PointAnalysis) -> HSetDescription:
    if analysis.location is ConeLocation.INTERIOR:
        return HSetDescription(HSetKind.ZERO_ONLY)
    if analysis.location is ConeLocation.ZERO:
        return HSetDescription(HSetKind.CONE_IMAGE)
    gen = analysis.instance.A.T @ reflected(analysis.y)
    return HSetDescription(HSetKind.RAY_IMAGE, generator=gen)


def linearization_cone_membership(
    instance: AffineSOCInstance, x, d, tol: float = DEFAULT_TOL
) -> bool:
    """Is ``d`` in the linearized feasible cone at the feasible point ``x``?"""
    analysis = analyze_point(instance, x, tol)
    d = np.asarray(d, dtype=float)
    if d.shape != (instance.n,):
        raise DimensionError(f"direction has shape {d.shape}, expected ({instance.n},)")
    if not np.all(np.isfinite(d)):
        raise DimensionError("direction has non-finite entries")
    if analysis.location is ConeLocation.INTERIOR:
        return True
    if analysis.location is ConeLocation.ZERO:
        image = as_cone_vector(instance.A @ d)
        return classify_cone_point(image, tol) is not ConeLocation.OUTSIDE
    g = analysis.grad_phi
    scale = max(1.0, float(np.linalg.norm(g)) * float(np.linalg.norm(d)))
    return float(g @ d) >= -tol * scale


@dataclass(frozen=True)
class VanishingCertificate:
    """Witness that g(x) = (w^T x + c)(1, u) with ||u|| = 1.

    When this factorization exists and w^T xbar + c > 0 the scalar
    reduction phi vanishes identically near xbar.
    """

    u: np.ndarray
    w: np.ndarray
    c: float


def vanishing_reduction_test(
    instance: AffineSOCInstance, x, tol: float = DEFAULT_TOL
) -> Optional[VanishingCertificate]:
    """Certificate that phi vanishes on a neighborhood of the boundary point x.

    For affine g this happens exactly when every column of A is parallel to
    g(x); the factorization is then read off the first row of (A, b).
    """
    analysis = analyze_point(instance, x, tol)
    if analysis.location is not ConeLocation.POSITIVE_BOUNDARY:
        raise InfeasiblePointError(
            "vanishing reduction is only defined on the positive boundary",
            0.0,
        )
    return _vanishing(analysis)[0]


def _vanishing(
    analysis: PointAnalysis,
) -> tuple[Optional[VanishingCertificate], float]:
    """The certificate (None if it does not exist) and the residual norm of
    A against the columns parallel to g(x), at a boundary point."""
    instance, y = analysis.instance, analysis.y
    residual = instance.A - np.outer(y, (y @ instance.A) / float(y @ y))
    residual_norm = float(np.linalg.norm(residual))
    if residual_norm > analysis.grad_floor:
        return None, residual_norm
    u = y[1:] / np.linalg.norm(y[1:])
    cert = VanishingCertificate(u=u, w=instance.A[0].copy(), c=float(instance.b[0]))
    return cert, residual_norm

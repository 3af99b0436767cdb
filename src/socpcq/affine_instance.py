"""Affine second-order cone constraints g(x) = Ax + b in Q_m.

Holds the instance data plus the pointwise reduction machinery: on the
positive boundary the constraint reduces to the smooth scalar inequality
phi(x) = g0(x) - ||gr(x)|| >= 0, at the vertex it stays conic, and at
interior points it is locally inactive.  ``analyze_point`` records the
gradient of phi at every positive-boundary point: the cone location and
the gradient decide by the one floor of ``soc_core._reducible_rows``.
The verdicts that read this record, and the set H(x) of multiplier
images, live in ``cq_checker``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionError, InfeasiblePointError
from .soc_core import (
    DEFAULT_TOL,
    PROJECTION_TOL,
    _SQUARE_LIMIT,
    ConeLocation,
    _check_magnitude,
    _checked_tol,
    _distance_rows,
    _location,
    _norm,
    _reducible_rows,
    reflected,
)
from .subspace_cone import SubspaceConeClass, _classify

#: The instance's tolerance fields, each checked by ``soc_core._checked_tol``.
_TOLERANCES = ("tol", "projection_tol")


@dataclass(frozen=True, eq=False)
class AffineSOCInstance:
    """The constraint data: A is m-by-n, b in R^m, feasibility is Ax+b in Q_m.

    ``tol`` is the one tolerance of every decision on the instance and its
    points: the cone location of g(x), ranks and the spectral class of
    Im(A), and the gradient floor.  ``projection_tol`` is the certified gap
    of every projection onto the feasible set, and so of every distance a
    kappa ratio divides.  Both obey the rule of ``soc_core._checked_tol``.
    A, b, every point and every image g(x) obey the magnitude rule of
    ``soc_core._check_magnitude``: finite, with a squared norm that does not
    overflow, else ``DimensionError``.  The data is treated as immutable:
    ``geometry`` memoizes the spectral geometry of Im(A) on the instance,
    and ``_lorentz_eigh`` the one eigendecomposition of A^T J A, which the
    Slater projector and both oracle closed forms read.
    An instance compares by identity (``==`` is ``is``) and is hashable.
    """

    A: np.ndarray
    b: np.ndarray
    tol: float = DEFAULT_TOL
    projection_tol: float = PROJECTION_TOL
    _geometry: Optional[SubspaceConeClass] = field(default=None, init=False, repr=False)
    _norm_A: float = field(default=0.0, init=False, repr=False)
    _reach: tuple[float, float] = field(default=(0.0, 0.0), init=False, repr=False)

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
        _check_magnitude(A, "instance data has")
        _check_magnitude(b, "instance data has")
        norm_A = _norm(A)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_norm_A", norm_A)
        object.__setattr__(self, "_reach", (norm_A * math.sqrt(n), _norm(b)))
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
        """||A||_F, computed with the instance."""
        return self._norm_A

    @cached_property
    def _lorentz_eigh(self) -> tuple[int, np.ndarray, np.ndarray]:
        """(k, lam, Q), computed once, with M = A^T J A = 4^k Q diag(lam) Q^T,
        J = diag(1, -1, ..., -1): one ``eigh`` of (s A)^T J (s A), s = 2^-k,
        2^k the power of two just above ||A||_F, so no entry of the product
        overflows at any scale of A, and an entry underflows only below
        2^-1022 ||A||_F^2.  ``eigh`` commutes exactly with a power-of-two
        scaling, so lam 4^(k - e) and Q are bit for bit the ``eigh`` of the
        product at any other such scale 2^-e (the Slater projector's), and
        lam 4^k is the spectrum of M wherever it is in range.  As ||A||_F^2
        does not overflow, k <= 512, so 2.0**k never raises; a product with
        it reads inf where it leaves the range."""
        k = math.frexp(self._norm_A)[1]
        A = np.ldexp(self.A, -k)
        # -reflected(A) is J A.
        return (k, *np.linalg.eigh(A.T @ -reflected(A)))

    def point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise DimensionError(f"point has shape {x.shape}, expected ({self.n},)")
        return _check_magnitude(x, "point has")

    def evaluate(self, x) -> np.ndarray:
        """g(x) = Ax + b; a point whose g(x) breaks the magnitude rule raises
        ``DimensionError``."""
        return self._image(self.point(x))

    def _image(self, x: np.ndarray) -> np.ndarray:
        """``evaluate`` at a point that ``point``, or rows that
        ``_point_rows``, checked.  The bound ``_image_bound`` clears the
        common case; past it, g(x) is computed with numpy's overflow warning
        off and held to the magnitude rule."""
        if self._image_bound(float(np.abs(x).max(initial=0.0))) < _SQUARE_LIMIT:
            return self._evaluate(x)
        with np.errstate(over="ignore", invalid="ignore"):
            y = self._evaluate(x)
        return _check_magnitude(y, "g(x) has", axis=-1)

    def _image_bound(self, top: float) -> float:
        """||A||_F sqrt(n) top + ||b||, a bound on ||g(x)|| if max|x_j| <= top."""
        reach, norm_b = self._reach
        return reach * top + norm_b

    def _evaluate(self, x: np.ndarray) -> np.ndarray:
        """g(x), unguarded, at a point (A x + b) or at (N, n) rows
        (X A^T + b) whose images are known to obey the magnitude rule, such
        as those that ``_image`` has checked."""
        if x.ndim == 1:
            return self.A @ x + self.b
        return x @ self.A.T + self.b

    def _point_rows(self, X) -> np.ndarray:
        """``X`` as an (N, n) float array; other shapes, or rows that break
        the magnitude rule, raise ``DimensionError``."""
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise DimensionError(
                f"points have shape {X.shape}, expected (N, {self.n})"
            )
        return _check_magnitude(X, "points have", axis=-1)


@dataclass(frozen=True, eq=False)
class PointAnalysis:
    """Everything a feasible point is judged by, computed once.

    Holds g(x) = y, its location in the cone and the gradient of the scalar
    reduction phi on the positive boundary (None elsewhere), all decided at
    the instance's ``tol``.  The six qualification checks, the projector's
    shape decision and the face-dimension scan all read this one record:
    ``geometry`` is the image geometry of A that ``instance.geometry()``
    memoizes, and ``grad_floor`` = tol * max(1, ||A||_F) is the norm below
    which a gradient of phi, or a residual of A, counts as zero.  Two
    records are cached on first use: the rank-one split ``_split`` and the
    point's Lorentz invariants ``_lorentz``, beta = q(y) and the one
    w = A^T reflected(y) with its norm, which the H set's generator and
    the closed forms of both oracles, ``oracles._ball_inside`` and
    ``oracles._proved_dim``, read; those read the spectrum of A^T J A
    from the instance's ``_lorentz_eigh``.  Neither record computes an
    eigendecomposition.
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

    @cached_property
    def _split(self) -> tuple[np.ndarray, float]:
        """(a, ||R||_F) of the rank-one split A = y a^T + R, a = A^T y / ||y||^2,
        computed once: the vanishing certificate of Thm 3.2 (iv) and the FCR
        scan's closed form both read it."""
        A, y = self.instance.A, self.y
        a = (y @ A) / float(y @ y)
        return a, _norm(A - np.outer(y, a))

    @cached_property
    def _lorentz(self) -> tuple[float, np.ndarray, float]:
        """(beta, w, ||w||), computed once: beta = q(y) = y^T J y and
        w = A^T ``reflected``(y) = -A^T J y, J = diag(1, -1, ..., -1), the
        generator of the H set on the positive boundary.  beta and ||w|| do
        not change under boosts or rotations of y_r, which keep J, and scale
        by s^2 under (A, b) -> s (A, b).  ||w|| is taken on 2^-k w, k the
        exponent of the instance's ``_lorentz_eigh`` (computed here without
        its eigh), so its squares do not overflow, and the exact rescaling
        reads inf only where ||w|| itself is out of range.  The
        spectrum of A^T J A that the closed forms read with these lives on
        the instance, in ``_lorentz_eigh``."""
        A, flip = self.instance.A, reflected(self.y)
        w, scale = A.T @ flip, 2.0 ** math.frexp(self.instance.norm_A())[1]
        return -float(self.y @ flip), w, _norm(w / scale) * scale


def _grad_rows(
    instance: AffineSOCInstance, Y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """grad phi = A0 - (gr/||gr||)^T Ar from the rows of Y = g(X); ok flags
    the rows where gr is safely nonzero by ``_reducible_rows``, the others
    are zero."""
    norms, ok = _reducible_rows(Y, instance.tol)
    G = np.zeros((Y.shape[0], instance.n))
    if ok.any():
        unit = Y[ok, 1:] / norms[ok, None]
        G[ok] = instance.A[0] - unit @ instance.A[1:]
    return G, ok


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
        distance = _distance_rows(y[None, :])[0]
        raise InfeasiblePointError(
            f"g(x) lies outside the cone (distance {distance:.3e})", distance
        )
    grad = None
    if loc is ConeLocation.POSITIVE_BOUNDARY:
        grad = _grad_rows(instance, y[None, :])[0][0]
    return PointAnalysis(instance, x, y, loc, grad)


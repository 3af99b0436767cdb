"""How a linear image subspace sits relative to the cone.

For the image subspace V = Im(A), with an orthonormal basis B of V and the
hyperbolic form J = diag(1, -1, ..., -1), B^T B = I gives
B^T J B = 2 b b^T - I with b = B^T e0 = B[0].  Its spectrum is -1, ..., -1
and 2 t^2 - 1, t = ||b||, the largest first coordinate of a unit vector of
V, reached at w = B b / t.  So the class is closed form: V meets the cone
interior (at w) when 2 t^2 - 1 > tol, touches it along the boundary ray
through w when |2 t^2 - 1| <= tol, and meets it only at the origin otherwise.

``classify_image_vs_cone`` runs one thin SVD of A and returns, next to the
class, the rank, singular values, image basis and row basis it read off
that SVD.  ``AffineSOCInstance.geometry()`` memoizes this record on the
instance at the instance's ``tol``, from the private body ``_classify`` on
the data the instance checked when it was built, so the verdicts, the
projector and the oracles share one SVD per instance.  The projector and
its reference search read pinv(A^T) and the projector onto null(A^T) off
that record, computed on first use (``_pinv_t``, ``_null_proj``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionError
from .soc_core import DEFAULT_TOL, _check_magnitude, _checked_tol

#: A boundary ray of the image has t = sqrt(1/2); an image with t at most
#: this touches the cone only at 0 at any tol, and t = 0 never divides.
_ADMISSIBLE_FLOOR = 0.1


class SubspaceKind(enum.Enum):
    MEETS_INTERIOR = "meets_interior"
    ZERO_ONLY = "zero_only"
    RAY = "ray"


@dataclass(frozen=True, eq=False)
class SubspaceConeClass:
    """Outcome of the subspace-versus-cone classification.

    ``ray`` (kind RAY) and ``witness`` (kind MEETS_INTERIOR) are both
    U_k b / t with b = U_k[0] and t = ||b||: the unit vector of the subspace
    with the largest first coordinate, t.  ``eigenvalues`` is the spectrum
    of B^T J B, ascending: -1, ..., -1, 2 t^2 - 1.

    ``rank``, ``singular_values``, ``basis`` (the m-by-rank image basis U_k)
    and ``row_basis`` (the rank-by-n row basis V_k^T) come from the thin SVD
    of A that the classification is based on.
    """

    kind: SubspaceKind
    ray: Optional[np.ndarray] = None
    witness: Optional[np.ndarray] = None
    eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rank: int = 0
    singular_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    row_basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))

    @cached_property
    def _pinv_t(self) -> np.ndarray:
        """pinv(A^T) = U_k diag(1/sigma) V_k^T, m x n."""
        return (self.basis / self.singular_values[: self.rank]) @ self.row_basis

    @cached_property
    def _null_proj(self) -> np.ndarray:
        """I - U_k U_k^T, the projector onto null(A^T)."""
        return np.eye(len(self.basis)) - self.basis @ self.basis.T


def _validated_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {A.shape}")
    if A.shape[0] < 2:
        raise DimensionError("matrix must map into R^m with m >= 2")
    return _check_magnitude(A, "matrix has")


def _rank_of(sigma: np.ndarray, tol: float) -> int:
    """Singular values above tol * sigma_max (zero matrix -> 0)."""
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int((sigma > tol * sigma[0]).sum())


def classify_image_vs_cone(A, tol: float = DEFAULT_TOL) -> SubspaceConeClass:
    """Classify Im(A) against Q_m: meets the interior, a single ray, or {0}."""
    return _classify(_validated_matrix(A), _checked_tol(tol))


def _classify(A: np.ndarray, tol: float) -> SubspaceConeClass:
    """``classify_image_vs_cone`` on a checked matrix and tolerance."""
    u, sigma, vt = np.linalg.svd(A, full_matrices=False)
    k = _rank_of(sigma, tol)
    B = u[:, :k]
    svd_parts = {"rank": k, "singular_values": sigma, "basis": B, "row_basis": vt[:k]}
    if k == 0:
        return SubspaceConeClass(SubspaceKind.ZERO_ONLY, **svd_parts)
    # B^T J B = 2 b b^T - I, b = B[0] (module docstring).
    b = B[0]
    bb = float(b @ b)
    t = math.sqrt(bb)
    lam = 2.0 * bb - 1.0
    eigvals = np.full(k, -1.0)
    eigvals[-1] = lam
    parts = {"eigenvalues": eigvals, **svd_parts}
    if lam < -tol or t <= _ADMISSIBLE_FLOOR:
        return SubspaceConeClass(SubspaceKind.ZERO_ONLY, **parts)
    w = B @ b / t
    if lam > tol:
        return SubspaceConeClass(SubspaceKind.MEETS_INTERIOR, witness=w, **parts)
    return SubspaceConeClass(SubspaceKind.RAY, ray=w, **parts)

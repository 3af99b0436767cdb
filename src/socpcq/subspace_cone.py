"""How a linear image subspace sits relative to the cone.

For the image subspace V = Im(A) the classification is spectral: with an
orthonormal basis B of V and the hyperbolic form J = diag(1, -1, ..., -1),
the restricted symmetric matrix M = B^T J B decides everything.  A positive
top eigenvalue gives an interior point of Q_m inside V; if M is negative
semidefinite its kernel maps to the (at most one) boundary ray of Q_m inside
V; a negative definite M means V meets the cone only at the origin.

``classify_image_vs_cone`` runs one thin SVD of A and returns, next to the
class, the rank, singular values, image basis and row basis it read off
that SVD.  ``AffineSOCInstance.geometry()`` memoizes this record on the
instance at the instance's ``tol``, from the private body ``_classify`` on
the data the instance checked when it was built, so the verdicts, the
projector and the oracles share one SVD per instance; ``image_basis``
remains for arbitrary matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DimensionError
from .soc_core import DEFAULT_TOL, _checked_tol, _norm

#: Unit boundary rays have |v0| = sqrt(1/2); anything well below that in the
#: first coordinate cannot be an admissible kernel direction.
_ADMISSIBLE_FLOOR = 0.1


class SubspaceKind(enum.Enum):
    MEETS_INTERIOR = "meets_interior"
    ZERO_ONLY = "zero_only"
    RAY = "ray"


@dataclass(frozen=True)
class SubspaceConeClass:
    """Outcome of the subspace-versus-cone classification.

    ``ray`` is the unit generator with positive first coordinate when
    ``kind`` is RAY; ``witness`` is a unit interior point of the cone inside
    the subspace when ``kind`` is MEETS_INTERIOR.  ``marginal`` flags
    tolerance-ambiguous spectra (top eigenvalue inside the tolerance band
    with no admissible kernel direction, or a multiple near-kernel).

    ``rank``, ``singular_values``, ``basis`` (the m-by-rank image basis U_k)
    and ``row_basis`` (the rank-by-n row basis V_k^T) come from the thin SVD
    of A that the classification is based on.
    """

    kind: SubspaceKind
    ray: Optional[np.ndarray] = None
    witness: Optional[np.ndarray] = None
    marginal: bool = False
    eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))
    rank: int = 0
    singular_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))
    row_basis: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


def _validated_matrix(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {A.shape}")
    if A.shape[0] < 2:
        raise DimensionError("matrix must map into R^m with m >= 2")
    if not np.isfinite(A).all():
        raise DimensionError("matrix has non-finite entries")
    return A


def _rank_of(sigma: np.ndarray, tol: float) -> int:
    """Singular values above tol * sigma_max (zero matrix -> 0)."""
    if sigma.size == 0 or sigma[0] <= 0.0:
        return 0
    return int((sigma > tol * sigma[0]).sum())


def image_basis(A, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the column space of ``A`` as an (m, k) array."""
    A = _validated_matrix(A)
    tol = _checked_tol(tol)
    u, sigma, _ = np.linalg.svd(A, full_matrices=False)
    return u[:, : _rank_of(sigma, tol)]


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
    # Restricted hyperbolic form; eigenvalues lie in [-1, 1] because B is
    # orthonormal and J is an isometry.
    JB = B.copy()
    JB[1:, :] *= -1.0
    M = B.T @ JB
    eigvals, eigvecs = np.linalg.eigh(M)
    lam_max = float(eigvals[-1])

    if lam_max > tol:
        w = B @ eigvecs[:, -1]
        if w[0] < 0.0:
            w = -w
        return SubspaceConeClass(
            SubspaceKind.MEETS_INTERIOR, witness=w, eigenvalues=eigvals, **svd_parts
        )

    # M is negative semidefinite within tolerance.  Kernel directions with a
    # nonzero first coordinate generate boundary rays; a pointedness argument
    # shows at most one such direction can exist exactly.
    null_idx = [i for i in range(k) if abs(float(eigvals[i])) <= tol]
    admissible = []
    for i in null_idx:
        w = B @ eigvecs[:, i]
        if abs(float(w[0])) > _ADMISSIBLE_FLOOR:
            admissible.append((abs(float(eigvals[i])), w))
    if not admissible:
        marginal = bool(null_idx)  # near-null spectrum but no usable direction
        return SubspaceConeClass(
            SubspaceKind.ZERO_ONLY, marginal=marginal, eigenvalues=eigvals, **svd_parts
        )
    admissible.sort(key=lambda item: item[0])
    _, w = admissible[0]
    if w[0] < 0.0:
        w = -w
    v = w / _norm(w)
    return SubspaceConeClass(
        SubspaceKind.RAY,
        ray=v,
        marginal=len(admissible) > 1,
        eigenvalues=eigvals,
        **svd_parts,
    )

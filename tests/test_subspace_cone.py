"""Image-subspace versus cone classification.

Ground truth comes from two independent sources: constructions with a
known answer (the subspace is assembled from an explicit interior point,
boundary ray, or tangent-plane complement) and the sampling oracle
``brute_force_subspace_class``, which only maximizes the cone margin over
the unit sphere of the subspace.
"""

import warnings

import numpy as np
import pytest

from socpcq import SubspaceKind, classify_image_vs_cone
from socpcq.errors import DimensionError
from socpcq.oracles import brute_force_subspace_class

TOL = 1e-9


def boundary_unit(rng, m):
    """A unit vector on the positive boundary ray set of Q_m."""
    u = rng.standard_normal(m - 1)
    u /= np.linalg.norm(u)
    return np.concatenate([[np.sqrt(0.5)], np.sqrt(0.5) * u])


def ray_image_matrix(rng, m, extra_cols):
    """Matrix whose image meets Q_m exactly in the ray of a known v.

    The image is span(v) plus directions from the tangent-plane
    complement of v, where the restricted Lorentz form is negative
    semidefinite with kernel exactly R v.
    """
    v = boundary_unit(rng, m)
    vt = v.copy()
    vt[0] = -vt[0]
    P = np.eye(m) - np.outer(v, v) - np.outer(vt, vt)
    W = np.linalg.svd(P)[0][:, : m - 2]
    cols = [v] + [W @ rng.standard_normal(m - 2) for _ in range(extra_cols)]
    return np.stack(cols, axis=1), v


# ---------------------------------------------------------------------------


def test_rank_and_basis():
    assert classify_image_vs_cone(np.zeros((3, 2))).rank == 0
    assert classify_image_vs_cone(np.eye(4)).rank == 4
    A = np.array([[1.0, 2.0], [2.0, 4.0], [0.5, 1.0]])
    assert classify_image_vs_cone(A).rank == 1
    B = classify_image_vs_cone(A).basis
    assert B.shape == (3, 1)
    np.testing.assert_allclose(np.linalg.norm(B[:, 0]), 1.0)
    np.testing.assert_array_equal(classify_image_vs_cone(A).basis, B)
    # scaling cannot change the rank decision
    assert classify_image_vs_cone(1e-14 * np.eye(3)).rank == 3


def test_classify_full_space_meets_interior():
    cls = classify_image_vs_cone(np.eye(3))
    assert cls.kind is SubspaceKind.MEETS_INTERIOR
    w = cls.witness
    assert w[0] > np.linalg.norm(w[1:]) + 1e-12


def test_classify_known_ray():
    # span{(1,1,0), (0,0,1)}: the tangent-plane slice through (1,1,0)/sqrt(2)
    A = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cls = classify_image_vs_cone(A)
    assert cls.kind is SubspaceKind.RAY
    np.testing.assert_allclose(
        cls.ray, np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0), atol=1e-12
    )


def test_classify_zero_only():
    # span{e2, e3} in R^4 misses the cone except at the origin
    A = np.zeros((4, 2))
    A[1, 0] = 1.0
    A[2, 1] = 1.0
    cls = classify_image_vs_cone(A)
    assert cls.kind is SubspaceKind.ZERO_ONLY


def test_constructed_rays_recovered():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(3, 7))
        A, v = ray_image_matrix(rng, m, int(rng.integers(1, m - 1)))
        cls = classify_image_vs_cone(A, TOL)
        assert cls.kind is SubspaceKind.RAY
        worst = max(worst, float(np.linalg.norm(cls.ray - v)))
    assert worst <= 1e-8


def test_brute_force_agreement():
    rng = np.random.default_rng(77)
    for i in range(120):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        A = rng.standard_normal((m, n))
        cls = classify_image_vs_cone(A, TOL)
        bf = brute_force_subspace_class(A, seed=i)
        assert bf.kind is cls.kind, (i, cls.kind, bf.kind)
        if cls.kind is SubspaceKind.RAY:
            assert float(np.linalg.norm(bf.ray - cls.ray)) <= 1e-6


def test_brute_force_on_constructions():
    rng = np.random.default_rng(3)
    A, v = ray_image_matrix(rng, 5, 2)
    bf = brute_force_subspace_class(A)
    assert bf.kind is SubspaceKind.RAY
    assert float(np.linalg.norm(bf.ray - v)) <= 1e-6

    bf = brute_force_subspace_class(np.eye(4))
    assert bf.kind is SubspaceKind.MEETS_INTERIOR

    Z = np.zeros((4, 2))
    Z[1, 0] = 1.0
    Z[3, 1] = 1.0
    assert brute_force_subspace_class(Z).kind is SubspaceKind.ZERO_ONLY


def test_eigenvalues_reported_in_range():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 3))
    cls = classify_image_vs_cone(A)
    assert cls.eigenvalues.size == cls.rank == np.linalg.matrix_rank(A)
    assert np.all(cls.eigenvalues >= -1.0 - 1e-12)
    assert np.all(cls.eigenvalues <= 1.0 + 1e-12)


def eigen_class(B, tol):
    """The image class read off eigh(B^T J B): the reference rule."""
    if B.shape[1] == 0:
        return SubspaceKind.ZERO_ONLY, np.zeros(0)
    JB = B.copy()
    JB[1:, :] *= -1.0
    lam, Q = np.linalg.eigh(B.T @ JB)
    if lam[-1] > tol:
        return SubspaceKind.MEETS_INTERIOR, lam
    if abs(lam[-1]) <= tol and abs(float(B[0] @ Q[:, -1])) > 0.1:
        return SubspaceKind.RAY, lam
    return SubspaceKind.ZERO_ONLY, lam


def test_closed_form_matches_the_eigensolver():
    rng = np.random.default_rng(28)
    draws = []
    for _ in range(150):
        m, n = int(rng.integers(2, 8)), int(rng.integers(1, 8))
        r = int(rng.integers(1, min(m, n) + 1))
        draws.append(rng.standard_normal((m, n)))
        draws.append(rng.standard_normal((m, r)) @ rng.standard_normal((r, n)))
        if m >= 3:
            draws.append(ray_image_matrix(rng, m, int(rng.integers(0, m - 1)))[0])
    seen = set()
    for A in draws:
        for tol in (1e-12, 1e-9, 1e-6, 0.5):
            cls = classify_image_vs_cone(A, tol)
            B = cls.basis
            kind, lam = eigen_class(B, tol)
            np.testing.assert_allclose(cls.eigenvalues, lam, rtol=0, atol=1e-13)
            # The witness and the ray are B b / t; the reference is the
            # eigensolver's top eigenvector, its sign fixed by its first entry.
            w = cls.witness if cls.ray is None else cls.ray
            if w is not None:
                JB = B.copy()
                JB[1:, :] *= -1.0
                top = B @ np.linalg.eigh(B.T @ JB)[1][:, -1]
                sign = 1.0 if top[0] > 0.0 else -1.0
                np.testing.assert_allclose(w, sign * top, atol=1e-13)
                assert abs(w[0] - np.linalg.norm(B[0])) <= 1e-13
            if lam.size and min(abs(lam[-1] - tol), abs(lam[-1] + tol)) <= 1e-13:
                continue
            assert cls.kind is kind, (A, tol, cls.kind, kind)
            seen.add(kind)
    assert seen == set(SubspaceKind)


def test_closed_form_edge_inputs():
    cls = classify_image_vs_cone(np.zeros((3, 2)))
    assert (cls.kind, cls.rank, cls.eigenvalues.size) == (SubspaceKind.ZERO_ONLY, 0, 0)
    # t = 0: Im(A) is orthogonal to e0.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = classify_image_vs_cone(np.array([[0.0], [1.0], [0.0]]))
    assert cls.kind is SubspaceKind.ZERO_ONLY
    assert cls.witness is None and cls.ray is None
    np.testing.assert_array_equal(cls.eigenvalues, [-1.0])
    # t = 0.08: at tol 0.99 the eigenvalue 2 t^2 - 1 lies in the band, and
    # the floor on t keeps the class ZERO_ONLY.
    A = np.array([[0.08], [np.sqrt(1.0 - 0.08**2)], [0.0]])
    assert classify_image_vs_cone(A, 0.99).kind is SubspaceKind.ZERO_ONLY
    # A rank-one boundary ray: t = sqrt(1/2), eigenvalue 0.
    cls = classify_image_vs_cone(np.array([[2.0], [-2.0], [0.0]]))
    assert cls.kind is SubspaceKind.RAY
    np.testing.assert_allclose(cls.ray, [np.sqrt(0.5), -np.sqrt(0.5), 0.0], atol=1e-15)
    assert abs(cls.eigenvalues[0]) <= 1e-15


def test_rejects_bad_matrices():
    with pytest.raises(DimensionError):
        classify_image_vs_cone(np.ones((1, 3)))
    with pytest.raises(DimensionError, match="expected a matrix"):
        classify_image_vs_cone(np.ones(3))
    with pytest.raises(DimensionError):
        classify_image_vs_cone(np.array([[1.0, np.nan], [0.0, 1.0]]))

"""Cone kernel: membership, distance, projection, tangent/normal cones.

The projection and distance formulas are validated two ways: against
hand-computed closed-form values, and against the variational inequality
<y - proj(y), w - proj(y)> <= 0 over sampled cone points w, which
characterizes the Euclidean projection onto a convex set without reusing
any of the library's own formulas.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socpcq import (
    ConeLocation,
    NormalConeKind,
    classify_cone_point,
    cone_margin,
    distance_to_cone,
    distances_to_cone,
    margins,
    normal_cone_descriptor,
    project_to_cone,
    projections_to_cone,
    tangent_membership,
)
from socpcq.errors import DimensionError

RNG = np.random.default_rng(1234)


def sample_cone_points(m, count, rng):
    """Random points of Q_m, including boundary and deep interior."""
    w = rng.standard_normal((count, m))
    w[:, 0] = np.linalg.norm(w[:, 1:], axis=1) + np.abs(w[:, 0]) * rng.random(count)
    return w


# ---------------------------------------------------------------------------
# frozen closed-form cases
# ---------------------------------------------------------------------------


def test_projection_hand_cases():
    # y = (0, 3, 4): ||y_r|| = 5, projection scales the boundary direction
    y = np.array([0.0, 3.0, 4.0])
    p = project_to_cone(y)
    np.testing.assert_allclose(p, [2.5, 1.5, 2.0], atol=1e-14)
    assert distance_to_cone(y) == pytest.approx(2.5 * np.sqrt(2.0), abs=1e-14)

    # -y in Q: projection collapses to the vertex
    y = np.array([-5.0, 3.0, 4.0])
    np.testing.assert_allclose(project_to_cone(y), np.zeros(3), atol=1e-14)
    assert distance_to_cone(y) == pytest.approx(np.sqrt(50.0), abs=1e-12)

    # interior point is a fixed point
    y = np.array([2.0, 1.0, 0.5])
    np.testing.assert_allclose(project_to_cone(y), y)
    assert distance_to_cone(y) == 0.0


def test_margin_and_classification():
    assert cone_margin(np.array([2.0, 1.0, 0.0])) == pytest.approx(1.0)
    assert classify_cone_point(np.array([3.0, 0.0, 0.0])) is ConeLocation.INTERIOR
    assert (
        classify_cone_point(np.array([1.0, 1.0, 0.0]))
        is ConeLocation.POSITIVE_BOUNDARY
    )
    assert classify_cone_point(np.zeros(4)) is ConeLocation.ZERO
    assert classify_cone_point(np.array([0.0, 1.0])) is ConeLocation.OUTSIDE
    # tolerance band: barely-outside boundary points still classify boundary
    assert (
        classify_cone_point(np.array([1.0, 1.0 + 1e-12, 0.0]))
        is ConeLocation.POSITIVE_BOUNDARY
    )


def test_m2_cone_is_a_wedge():
    # Q_2 = {(y0, y1): y0 >= |y1|}
    assert classify_cone_point(np.array([1.0, -1.0])) is ConeLocation.POSITIVE_BOUNDARY
    assert distance_to_cone(np.array([0.0, 2.0])) == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(
        project_to_cone(np.array([0.0, 2.0])), [1.0, 1.0], atol=1e-14
    )


def test_rejects_bad_input():
    with pytest.raises(DimensionError):
        cone_margin(np.array([1.0]))
    with pytest.raises(DimensionError):
        project_to_cone(np.array([np.inf, 0.0]))
    with pytest.raises(DimensionError):
        margins(np.ones((3, 1)))


# ---------------------------------------------------------------------------
# oracle-style sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_projection_variational_inequality(m):
    y = RNG.standard_normal((2000, m)) * RNG.lognormal(0.0, 1.5, (2000, 1))
    p = projections_to_cone(y)
    scale = np.maximum(1.0, np.linalg.norm(y, axis=1))
    # feasibility
    assert np.all(margins(p) >= -1e-12 * scale)
    # optimality against sampled cone points
    w = sample_cone_points(m, 128, RNG)
    gaps = (y - p) @ w.T - np.einsum("ij,ij->i", y - p, p)[:, None]
    assert gaps.max() <= 1e-10 * scale.max()
    # distance formula agrees with the projection it certifies
    d = distances_to_cone(y)
    np.testing.assert_allclose(
        d, np.linalg.norm(y - p, axis=1), atol=1e-10 * float(scale.max())
    )


def test_batched_matches_scalar():
    # The scalar functions run the batched formula on one row, so they agree
    # to the last bit, on polar rows and the vertex too.
    for m in (2, 5):
        Y = RNG.standard_normal((64, m))
        Y[:8, 0] = -np.linalg.norm(Y[:8, 1:], axis=1) - np.abs(Y[:8, 0])
        Y[8:12] = 0.0
        P = projections_to_cone(Y)
        D = distances_to_cone(Y)
        M = margins(Y)
        for i in range(Y.shape[0]):
            assert np.array_equal(P[i], project_to_cone(Y[i]))
            assert D[i] == distance_to_cone(Y[i])
            assert M[i] == cone_margin(Y[i])


# ---------------------------------------------------------------------------
# tangent and normal cones
# ---------------------------------------------------------------------------


def test_tangent_membership_cases():
    y_bd = np.array([1.0, 1.0, 0.0])
    # tangent halfspace at a smooth boundary point: d0 >= ghat . d_r
    assert tangent_membership(y_bd, np.array([1.0, 0.5, 3.0]))
    assert tangent_membership(y_bd, np.array([1.0, 1.0, 0.0]))
    assert not tangent_membership(y_bd, np.array([0.0, 1.0, 0.0]))
    # at the vertex the tangent cone is the cone itself
    assert tangent_membership(np.zeros(3), np.array([1.0, 0.0, 0.5]))
    assert not tangent_membership(np.zeros(3), np.array([0.0, 0.0, 1.0]))
    # interior: everything is tangent
    assert tangent_membership(np.array([2.0, 0.0, 0.0]), np.array([-9.0, 4.0, 1.0]))


def test_normal_cone_descriptor():
    nd = normal_cone_descriptor(np.array([3.0, 0.0, 0.0]))
    assert nd.kind is NormalConeKind.ZERO_SET

    nd = normal_cone_descriptor(np.array([1.0, 1.0, 0.0]))
    assert nd.kind is NormalConeKind.RAY
    ray = nd.generator
    # the generator must be outward-normal: nonpositive inner product with
    # every cone point and zero against the base point
    w = sample_cone_points(3, 256, RNG)
    assert float((w @ ray).max()) <= 1e-12
    assert abs(float(ray @ np.array([1.0, 1.0, 0.0]))) <= 1e-12

    nd = normal_cone_descriptor(np.zeros(3))
    assert nd.kind is NormalConeKind.MINUS_CONE


# ---------------------------------------------------------------------------
# property-based checks
# ---------------------------------------------------------------------------

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@settings(deadline=None, max_examples=200)
@given(st.lists(finite, min_size=2, max_size=7))
def test_projection_idempotent_and_feasible(values):
    y = np.asarray(values)
    p = project_to_cone(y)
    scale = max(1.0, float(np.linalg.norm(y)))
    assert cone_margin(p) >= -1e-12 * scale
    np.testing.assert_allclose(project_to_cone(p), p, atol=1e-9 * scale)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(finite, min_size=2, max_size=7),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_projection_positively_homogeneous(values, t):
    y = np.asarray(values)
    np.testing.assert_allclose(
        project_to_cone(t * y),
        t * project_to_cone(y),
        atol=1e-9 * t * max(1.0, float(np.linalg.norm(y))),
    )


@settings(deadline=None, max_examples=200)
@given(st.lists(finite, min_size=2, max_size=7))
def test_distance_is_1_lipschitz_to_members(values):
    y = np.asarray(values)
    w = sample_cone_points(y.size, 16, np.random.default_rng(abs(hash(tuple(values))) % 2**32))
    d = distance_to_cone(y)
    assert d <= float(np.linalg.norm(y - w, axis=1).min()) + 1e-9

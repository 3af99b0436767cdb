"""Cone kernel: membership, distance, projection.

The projection and distance formulas are validated two ways: against
hand-computed closed-form values, and against the variational inequality
<y - proj(y), w - proj(y)> <= 0 over sampled cone points w, which
characterizes the Euclidean projection onto a convex set without reusing
any of the library's own formulas.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from socpcq import (
    DEFAULT_TOL,
    AffineSOCInstance,
    ConeLocation,
    classify_cone_point,
    classify_image_vs_cone,
    cone_margin,
    distance_to_cone,
)
import socpcq
from socpcq.errors import DimensionError
from socpcq.soc_core import (
    PROJECTION_TOL,
    _distance_rows,
    _margin_rows,
    _norm,
    _projection_rows,
    _row_norms,
)

RNG = np.random.default_rng(1234)


def sample_cone_points(m, count, rng):
    """Random points of Q_m, including boundary and deep interior."""
    w = rng.standard_normal((count, m))
    w[:, 0] = np.linalg.norm(w[:, 1:], axis=1) + np.abs(w[:, 0]) * rng.random(count)
    return w


def project(y) -> np.ndarray:
    """The projection row kernel on one point."""
    return _projection_rows(np.asarray(y, dtype=float)[None, :])[0]


# ---------------------------------------------------------------------------
# frozen closed-form cases
# ---------------------------------------------------------------------------


def test_projection_hand_cases():
    # y = (0, 3, 4): ||y_r|| = 5, projection scales the boundary direction
    y = np.array([0.0, 3.0, 4.0])
    p = project(y)
    np.testing.assert_allclose(p, [2.5, 1.5, 2.0], atol=1e-14)
    assert distance_to_cone(y) == pytest.approx(2.5 * np.sqrt(2.0), abs=1e-14)

    # -y in Q: projection collapses to the vertex
    y = np.array([-5.0, 3.0, 4.0])
    np.testing.assert_allclose(project(y), np.zeros(3), atol=1e-14)
    assert distance_to_cone(y) == pytest.approx(np.sqrt(50.0), abs=1e-12)

    # interior point is a fixed point
    y = np.array([2.0, 1.0, 0.5])
    np.testing.assert_allclose(project(y), y)
    assert distance_to_cone(y) == 0.0


def test_cone_kernel_exact_ties():
    # Margin exactly 0 reads as a cone point: distance 0, its own
    # projection.  y0 exactly -||y_r|| reads as polar: the vertex, at
    # distance ||y||, as one row and in a batch.  At (-13, 5, 12) the side
    # shows in the last bit: sqrt(1/2) (||y_r|| - y0) rounds to one ulp
    # above sqrt(338).
    ties = np.array([[5.0, 3.0, 4.0], [1.0, 1.0, 0.0]])
    assert np.array_equal(_projection_rows(ties), ties)
    assert not _distance_rows(ties).any()
    for polar, norm2 in (([-5.0, 3.0, 4.0], 50.0), ([-13.0, 5.0, 12.0], 338.0)):
        for rows in (np.array([polar]), np.vstack([ties, polar])):
            assert not _projection_rows(rows)[-1].any()
            assert _distance_rows(rows)[-1] == np.sqrt(norm2)


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


@pytest.mark.parametrize(
    "y,tol,location",
    [
        # Band points that fail the boundary test: a positive margin reads
        # interior, any other margin zero, and only a point past the band
        # outside.
        ([1.5e-9, 6e-10, 0.0], 1e-9, ConeLocation.INTERIOR),
        ([0.9e-9, 0.9e-9, 0.0], 1e-9, ConeLocation.ZERO),
        ([0.9e-9, 1.5e-9, 0.0], 1e-9, ConeLocation.ZERO),
        ([0.0, 2.1e-9, 0.0], 1e-9, ConeLocation.OUTSIDE),
        ([0.95, 0.95, 0.0], 0.9, ConeLocation.ZERO),
    ],
)
def test_band_points_off_the_boundary_are_feasible(y, tol, location):
    assert classify_cone_point(y, tol) is location


def test_m2_cone_is_a_wedge():
    # Q_2 = {(y0, y1): y0 >= |y1|}
    assert classify_cone_point(np.array([1.0, -1.0])) is ConeLocation.POSITIVE_BOUNDARY
    assert distance_to_cone(np.array([0.0, 2.0])) == pytest.approx(np.sqrt(2.0))
    np.testing.assert_allclose(
        project(np.array([0.0, 2.0])), [1.0, 1.0], atol=1e-14
    )


def test_rejects_bad_input():
    with pytest.raises(DimensionError):
        cone_margin(np.array([1.0]))
    with pytest.raises(DimensionError, match="expected a 1-d vector"):
        cone_margin(np.ones((2, 3)))
    with pytest.raises(DimensionError):
        distance_to_cone(np.array([np.inf, 0.0]))


_IDENTITY_INSTANCE = AffineSOCInstance(np.eye(3), np.zeros(3))
_NAN_ROWS = np.array([[1.0, 0.0, 0.0], [np.nan, 0.0, 0.0]])


def _overflowing_analysis():
    # ||g(x)||^2 = 1e320 overflows, though A, x and g(x) are finite.
    instance = AffineSOCInstance(1e150 * np.eye(3), np.zeros(3))
    socpcq.analyze_point(instance, [1e10, 0.0, 0.0])


@pytest.mark.parametrize(
    "call",
    [
        lambda: socpcq.FeasibleSetProjector(
            _IDENTITY_INSTANCE, [1.0, 0.0, 0.0]
        ).project_batch(_NAN_ROWS),
        lambda: classify_cone_point([np.nan, 0.0, 0.0]),
        lambda: classify_cone_point([1.0, 1.0, 0.0], tol=True),
        lambda: classify_image_vs_cone(np.array([[1.0, np.nan], [0.0, 1.0]])),
        lambda: socpcq.analyze_point(_IDENTITY_INSTANCE, [np.nan, 0.0, 0.0]),
        # A finite point whose image overflows, without numpy's overflow
        # warning, which the test run turns into an error.
        _overflowing_analysis,
        # Finite values whose squared norm overflows: A^T J A of 1e300 I,
        # and ||y||^2 of a point inside the cone.
        lambda: AffineSOCInstance(1e300 * np.eye(3), np.zeros(3)),
        lambda: socpcq.analyze_point(_IDENTITY_INSTANCE, [2e200, 1e200, 0.0]),
        lambda: classify_cone_point([2e200, 1e200, 0.0]),
    ],
    ids=[
        "project_batch",
        "classify_cone_point",
        "classify_cone_point-tol",
        "classify_image_vs_cone",
        "analyze_point",
        "analyze_point-overflow",
        "instance-square-overflow",
        "analyze_point-square-overflow",
        "classify_cone_point-square-overflow",
    ],
)
def test_public_names_check_their_input(call):
    # The private bodies behind these names trust their arrays, so each
    # public name is the one place that rejects malformed input.
    with pytest.raises(DimensionError):
        call()


#: Values the tolerance rule rejects: not finite, not in (0, 1), or no real
#: number (a bool, a str), and an int beyond the float range.
BAD_TOLERANCES = [
    np.nan, np.inf, -np.inf, 0.0, -1.0, 1, 1.0, 1.5, np.int64(2), True, "1e-9", 10**400
]
IDENTITY = np.eye(3)


@pytest.mark.parametrize(
    "check",
    [
        lambda tol: AffineSOCInstance(IDENTITY, np.zeros(3), tol=tol),
        lambda tol: AffineSOCInstance(IDENTITY, np.zeros(3), projection_tol=tol),
        lambda tol: classify_cone_point([1.0, 1.0, 0.0], tol),
        lambda tol: classify_image_vs_cone(IDENTITY[:, :2], tol),
    ],
    ids=[
        "instance.tol",
        "instance.projection_tol",
        "classify_cone_point",
        "classify_image_vs_cone",
    ],
)
def test_one_tolerance_rule(check):
    for tol in BAD_TOLERANCES:
        with pytest.raises(DimensionError, match="must be a positive finite number"):
            check(tol)
    # Real numbers of any type in (0, 1) pass, numpy scalars and fractions
    # included.
    for tol in (1e-9, np.float32(1e-6), Fraction(1, 10**9)):
        check(tol)


def test_instance_stores_its_tolerances_as_floats():
    inst = AffineSOCInstance(
        IDENTITY, np.zeros(3), Fraction(1, 4), projection_tol=np.float32(0.5)
    )
    assert (inst.tol, inst.projection_tol) == (0.25, 0.5)
    assert type(inst.tol) is float and type(inst.projection_tol) is float
    default = AffineSOCInstance(IDENTITY, np.zeros(3))
    assert (default.tol, default.projection_tol) == (DEFAULT_TOL, PROJECTION_TOL)


# ---------------------------------------------------------------------------
# oracle-style sweeps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_projection_variational_inequality(m):
    y = RNG.standard_normal((2000, m)) * RNG.lognormal(0.0, 1.5, (2000, 1))
    p = _projection_rows(y)
    scale = np.maximum(1.0, np.linalg.norm(y, axis=1))
    # feasibility
    assert np.all(_margin_rows(p) >= -1e-12 * scale)
    # optimality against sampled cone points
    w = sample_cone_points(m, 128, RNG)
    gaps = (y - p) @ w.T - np.einsum("ij,ij->i", y - p, p)[:, None]
    assert gaps.max() <= 1e-10 * scale.max()
    # distance formula agrees with the projection it certifies
    d = _distance_rows(y)
    np.testing.assert_allclose(
        d, np.linalg.norm(y - p, axis=1), atol=1e-10 * float(scale.max())
    )


def test_batched_matches_scalar():
    # The scalar functions run the row kernels on one row, and a row's value
    # does not depend on the rows beside it, so they agree to the last bit,
    # on polar rows and the vertex too.
    for m in (2, 5):
        Y = RNG.standard_normal((64, m))
        Y[:8, 0] = -np.linalg.norm(Y[:8, 1:], axis=1) - np.abs(Y[:8, 0])
        Y[8:12] = 0.0
        P = _projection_rows(Y)
        D = _distance_rows(Y)
        M = _margin_rows(Y)
        for i in range(Y.shape[0]):
            assert np.array_equal(P[i], project(Y[i]))
            assert D[i] == distance_to_cone(Y[i])
            assert M[i] == cone_margin(Y[i])


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
    p = project(y)
    scale = max(1.0, float(np.linalg.norm(y)))
    assert cone_margin(p) >= -1e-12 * scale
    np.testing.assert_allclose(project(p), p, atol=1e-9 * scale)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(finite, min_size=2, max_size=7),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_projection_positively_homogeneous(values, t):
    y = np.asarray(values)
    np.testing.assert_allclose(
        project(t * y),
        t * project(y),
        atol=1e-9 * t * max(1.0, float(np.linalg.norm(y))),
    )


@settings(deadline=None, max_examples=200)
@given(st.lists(finite, min_size=2, max_size=7))
def test_distance_is_1_lipschitz_to_members(values):
    y = np.asarray(values)
    w = sample_cone_points(y.size, 16, np.random.default_rng(abs(hash(tuple(values))) % 2**32))
    d = distance_to_cone(y)
    assert d <= float(np.linalg.norm(y - w, axis=1).min()) + 1e-9


# ---------------------------------------------------------------------------
# the norm kernel
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_norm_kernel_is_bitwise_np_linalg_norm(scale):
    # The kernel runs the operations np.linalg.norm runs on float64 input;
    # at 1e-200 and 1e200 the squares underflow and overflow alike.
    rng = np.random.default_rng(7)
    Y = scale * rng.standard_normal((40, 6))
    Y[3] = 0.0
    Y[5, 1:] = 0.0
    cube = scale * rng.standard_normal((5, 24, 4))
    with np.errstate(over="ignore"):
        vectors = [Y[0], Y[3], Y[7, 1:], Y[:, 1], Y[::3, 2], cube[1, :, 3]]
        for v in vectors:
            assert _same_bits(_norm(v), np.linalg.norm(v))
        for M in (Y, Y[:, 1:], Y[::2], Y.T, Y[:, 1:].T, np.zeros((3, 2))):
            assert _same_bits(_norm(M), np.linalg.norm(M))
        for R in (Y, Y[:, 1:], Y[Y[:, 0] > 0], Y[5:6], Y[:0]):
            assert _same_bits(_row_norms(R), np.linalg.norm(R, axis=1))
            assert _same_bits(
                _row_norms(R, keepdims=True), np.linalg.norm(R, axis=1, keepdims=True)
            )
        assert _same_bits(
            _row_norms(cube, keepdims=True), np.linalg.norm(cube, axis=2, keepdims=True)
        )
        assert type(_norm(Y[0])) is float


def test_np_linalg_norm_only_in_soc_core():
    # Every other module takes its norms from the soc_core kernel.
    package = Path(socpcq.__file__).parent
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "soc_core.py" and "linalg.norm" in path.read_text()
    ]
    assert offenders == []

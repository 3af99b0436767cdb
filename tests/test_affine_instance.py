"""Affine instances, the scalar boundary reduction, and its certificates."""

import numpy as np
import pytest

from socpcq import (
    AffineSOCInstance,
    ConeLocation,
    FeasibleSetProjector,
    HSetKind,
    analyze_point,
    cone_margin,
    grad_phi,
    h_set_description,
    linearization_cone_membership,
    phi,
    vanishing_reduction_test,
)
from socpcq.affine_instance import grad_phi_many
from socpcq.errors import (
    DimensionError,
    InfeasiblePointError,
    SingularReductionError,
)

# The shared 3x3 instance used throughout: g(x) = (x1, x1, x3), whose
# feasible set is the halfplane {x1 >= 0, x3 = 0}.
A_HALFPLANE = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
HALFPLANE = AffineSOCInstance(A_HALFPLANE, np.zeros(3))


def fd_gradient(instance, x, h=1e-6):
    """Central finite differences of phi, the independent gradient oracle."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (phi(instance, x + e) - phi(instance, x - e)) / (2.0 * h)
    return g


def test_instance_validation():
    with pytest.raises(DimensionError):
        AffineSOCInstance(np.ones((1, 2)), np.ones(1))
    with pytest.raises(DimensionError):
        AffineSOCInstance(np.ones((3, 2)), np.ones(2))
    with pytest.raises(DimensionError):
        AffineSOCInstance(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))
    inst = AffineSOCInstance(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert inst.m == 3 and inst.n == 3
    np.testing.assert_allclose(inst.evaluate([1.0, 2.0, 3.0]), [2.0, 2.0, 3.0])


def test_evaluate_many_matches_evaluate():
    rng = np.random.default_rng(0)
    inst = AffineSOCInstance(rng.standard_normal((4, 3)), rng.standard_normal(4))
    X = rng.standard_normal((32, 3))
    Y = inst.evaluate_many(X)
    for i in range(32):
        np.testing.assert_allclose(Y[i], inst.evaluate(X[i]))


def test_grad_phi_matches_finite_differences():
    rng = np.random.default_rng(21)
    for _ in range(20):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 7))
        inst = AffineSOCInstance(
            rng.standard_normal((m, n)), rng.standard_normal(m)
        )
        x = rng.standard_normal(n)
        if float(np.linalg.norm(inst.evaluate(x)[1:])) < 1e-3:
            continue
        np.testing.assert_allclose(
            grad_phi(inst, x), fd_gradient(inst, x), atol=1e-6, rtol=1e-6
        )


def test_grad_phi_singular_at_axis():
    inst = AffineSOCInstance(np.eye(3), np.zeros(3))
    with pytest.raises(SingularReductionError):
        grad_phi(inst, np.array([2.0, 0.0, 0.0]))


def test_grad_phi_many_flags_singular_rows():
    inst = AffineSOCInstance(np.eye(3), np.zeros(3))
    X = np.array([[2.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
    G, ok = grad_phi_many(inst, X)
    assert not ok[0] and ok[1]
    np.testing.assert_allclose(G[0], 0.0)
    np.testing.assert_allclose(G[1], grad_phi(inst, X[1]))


def test_analyze_point_locations():
    a = analyze_point(HALFPLANE, [2.0, 7.0, 0.0])
    assert a.location is ConeLocation.POSITIVE_BOUNDARY
    assert a.grad_phi is not None
    assert cone_margin(a.y) == pytest.approx(0.0, abs=1e-12)

    a = analyze_point(HALFPLANE, [0.0, -3.0, 0.0])
    assert a.location is ConeLocation.ZERO
    assert a.grad_phi is None

    interior = AffineSOCInstance(np.eye(2), np.array([2.0, 0.0]))
    a = analyze_point(interior, [0.0, 0.5])
    assert a.location is ConeLocation.INTERIOR
    assert a.grad_phi is None


_IDENTITY = AffineSOCInstance(np.eye(3), np.zeros(3))


@pytest.mark.parametrize(
    "batch_call",
    [
        _IDENTITY.evaluate_many,
        lambda X: grad_phi_many(_IDENTITY, X),
        FeasibleSetProjector(_IDENTITY, np.array([1.0, 0.0, 0.0])).project_batch,
    ],
    ids=["evaluate_many", "grad_phi_many", "project_batch"],
)
@pytest.mark.parametrize(
    "X",
    [
        [[np.nan, 0.0, 0.0], [1.0, 1.0, 0.0]],
        [[np.inf, 0.0, 0.0], [1.0, 1.0, 0.0]],
        [[-np.inf, 0.0, 0.0], [1.0, 1.0, 0.0]],
        np.ones((2, 2)),
        np.ones((2, 2, 3)),
    ],
    ids=["nan-row", "inf-row", "-inf-row", "wrong-width", "3-d-stack"],
)
def test_batched_calls_reject_malformed_rows(batch_call, X):
    with pytest.raises(DimensionError):
        batch_call(X)


def test_analyze_point_rejects_infeasible():
    with pytest.raises(InfeasiblePointError) as exc:
        analyze_point(HALFPLANE, [1.0, 0.0, 1.0])
    # distance carried on the error: g = (1,1,1), dist = (sqrt2 - 1)/sqrt2
    expected = (np.sqrt(2.0) - 1.0) / np.sqrt(2.0)
    assert exc.value.distance == pytest.approx(expected, abs=1e-12)


def test_h_set_kinds():
    assert (
        h_set_description(HALFPLANE, [1.0, 0.0, 0.0]).kind is HSetKind.RAY_IMAGE
    )
    assert h_set_description(HALFPLANE, [0.0, 0.0, 0.0]).kind is HSetKind.CONE_IMAGE
    interior = AffineSOCInstance(np.eye(2), np.array([2.0, 0.0]))
    assert h_set_description(interior, [0.0, 0.0]).kind is HSetKind.ZERO_ONLY
    # boundary generator is A^T (-y0, yr)
    gen = h_set_description(HALFPLANE, [1.0, 0.0, 0.0]).generator
    np.testing.assert_allclose(gen, A_HALFPLANE.T @ np.array([-1.0, 1.0, 0.0]))


def test_linearization_cone_membership():
    # at the vertex the linearized cone is {d : Ad in Q}
    assert linearization_cone_membership(HALFPLANE, np.zeros(3), [1.0, 0.0, 0.0])
    assert not linearization_cone_membership(HALFPLANE, np.zeros(3), [0.0, 0.0, 1.0])
    assert linearization_cone_membership(HALFPLANE, np.zeros(3), [0.0, 5.0, 0.0])
    # at a degenerate boundary point grad phi = 0 accepts every direction
    assert linearization_cone_membership(
        HALFPLANE, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]
    )


@pytest.mark.parametrize(
    "x, location",
    [
        ([2.0, 0.0, 0.0], ConeLocation.INTERIOR),
        ([1.0, 1.0, 0.0], ConeLocation.POSITIVE_BOUNDARY),
        ([0.0, 0.0, 0.0], ConeLocation.ZERO),
    ],
)
@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_linearization_cone_membership_rejects_non_finite_direction(x, location, bad):
    identity = AffineSOCInstance(np.eye(3), np.zeros(3))
    assert analyze_point(identity, x).location is location
    with pytest.raises(DimensionError):
        linearization_cone_membership(identity, x, [bad, 0.0, 0.0])


def test_boundary_analysis_evaluates_g_once(monkeypatch):
    calls = []
    evaluate = AffineSOCInstance.evaluate

    def counting_evaluate(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(AffineSOCInstance, "evaluate", counting_evaluate)
    analysis = analyze_point(HALFPLANE, [1.0, 0.0, 0.0])
    assert analysis.location is ConeLocation.POSITIVE_BOUNDARY
    assert analysis.grad_phi is not None
    assert len(calls) == 1


def test_vanishing_certificate_positive_case():
    # g(x) = (w.x + c)(1, u): every column of A parallel to (1, u)
    u = np.array([0.6, 0.8])
    w = np.array([1.0, -2.0])
    c = 3.0
    A = np.outer(np.concatenate([[1.0], u]), w)
    b = c * np.concatenate([[1.0], u])
    inst = AffineSOCInstance(A, b)
    x = np.array([1.0, 0.5])  # w.x + c = 3 > 0
    cert = vanishing_reduction_test(inst, x)
    assert cert is not None
    np.testing.assert_allclose(cert.u, u, atol=1e-12)
    np.testing.assert_allclose(cert.w, w, atol=1e-12)
    assert cert.c == pytest.approx(c)
    # the factorization reproduces g on random points
    rng = np.random.default_rng(5)
    for _ in range(10):
        z = rng.standard_normal(2)
        lhs = inst.evaluate(z)
        rhs = (w @ z + c) * np.concatenate([[1.0], u])
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    # and phi really is identically zero nearby
    for _ in range(10):
        z = x + 0.05 * rng.standard_normal(2)
        assert abs(phi(inst, z)) <= 1e-12


def test_vanishing_certificate_negative_case():
    assert vanishing_reduction_test(HALFPLANE, [1.0, 0.0, 0.0]) is None
    with pytest.raises(InfeasiblePointError):
        vanishing_reduction_test(HALFPLANE, [0.0, 0.0, 0.0])

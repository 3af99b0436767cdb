"""Affine instances, the scalar boundary reduction, and its certificates."""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import socpcq
from socpcq import (
    AffineSOCInstance,
    ConeLocation,
    FeasibleSetProjector,
    HSetKind,
    affine_instance,
    analyze_point,
    cone_margin,
    full_report,
)
from socpcq.affine_instance import _grad_rows
from socpcq.cli import InstanceDocument
from socpcq.errors import DimensionError, InfeasiblePointError
from socpcq.projection import PROJECTION_TOL

# The shared 3x3 instance used throughout: g(x) = (x1, x1, x3), whose
# feasible set is the halfplane {x1 >= 0, x3 = 0}.
A_HALFPLANE = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
HALFPLANE = AffineSOCInstance(A_HALFPLANE, np.zeros(3))


def fd_gradient(instance, x, h=1e-6):
    """Central finite differences of phi(x) = cone_margin(g(x)), the
    independent gradient oracle."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        forward = cone_margin(instance.evaluate(x + e))
        g[i] = (forward - cone_margin(instance.evaluate(x - e))) / (2.0 * h)
    return g


def test_instance_validation():
    with pytest.raises(DimensionError):
        AffineSOCInstance(np.ones((1, 2)), np.ones(1))
    with pytest.raises(DimensionError):
        AffineSOCInstance(np.ones((3, 2)), np.ones(2))
    with pytest.raises(DimensionError):
        AffineSOCInstance(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(DimensionError, match="A must be a matrix"):
        AffineSOCInstance(np.ones(3), np.ones(3))
    with pytest.raises(DimensionError, match="at least one column"):
        AffineSOCInstance(np.ones((3, 0)), np.ones(3))
    inst = AffineSOCInstance(np.eye(3), np.array([1.0, 0.0, 0.0]))
    assert inst.m == 3 and inst.n == 3
    np.testing.assert_allclose(inst.evaluate([1.0, 2.0, 3.0]), [2.0, 2.0, 3.0])


@pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan, np.inf, 1.0, 1.5])
def test_instance_rejects_bad_tol(tol):
    with pytest.raises(DimensionError):
        AffineSOCInstance(np.eye(3), np.zeros(3), tol=tol)


def test_geometry_computed_once_per_instance(monkeypatch):
    calls = []
    classify = affine_instance._classify

    def counting_classify(A, tol):
        calls.append(tol)
        return classify(A, tol)

    monkeypatch.setattr(affine_instance, "_classify", counting_classify)
    # The 1e-8 column is a direction at the default tol 1e-9, rank noise at 1e-6.
    A = np.array([[1.0, 0.0], [0.0, 1e-8], [0.0, 0.0]])
    inst = AffineSOCInstance(A, np.zeros(3))
    first = inst.geometry()
    assert inst.geometry() is first
    full_report(inst, np.zeros(2))
    FeasibleSetProjector(inst, np.zeros(2))
    assert calls == [1e-9]
    loose = dataclasses.replace(inst, tol=1e-6)
    assert loose.tol == 1e-6 and loose.geometry() is not first
    assert (first.rank, loose.geometry().rank) == (2, 1)
    assert inst.geometry() is first
    assert calls == [1e-9, 1e-6]


def test_records_holding_arrays_compare_by_identity():
    # Equal data is neither an error nor equality: each record equals only
    # itself, and an instance is a dict key.
    a, b = (AffineSOCInstance(np.eye(3), np.zeros(3)) for _ in range(2))
    x = [1.0, 1.0, 0.0]
    points = {"x": np.array(x)}
    pairs = [
        (a, b),
        (analyze_point(a, x), analyze_point(a, x)),
        (full_report(a, x), full_report(a, x)),
        (InstanceDocument(a, points), InstanceDocument(a, dict(points))),
    ]
    # At a boundary point the RCQ verdict holds the array grad_phi and the
    # H-set the array generator.
    halfplane = AffineSOCInstance(
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(3)
    )
    first, second = (full_report(halfplane, [1.0, 0.0]) for _ in range(2))
    assert isinstance(first.rcq.evidence["grad_phi"], np.ndarray)
    assert isinstance(first.h_set.generator, np.ndarray)
    pairs += [(first.rcq, second.rcq), (first.h_set, second.h_set)]
    for first, second in pairs:
        assert first != second
        assert first == first
    assert {a: "a", b: "b"}[a] == "a"


def _signature(obj):
    try:
        return inspect.signature(obj).parameters
    except (TypeError, ValueError):
        return {}


def test_no_instance_call_takes_a_geometry_tolerance():
    # The instance carries the one geometry tolerance.  A tol next to an
    # instance may only be the certified projection gap.
    modules = [
        importlib.import_module(f"socpcq.{info.name}")
        for info in pkgutil.iter_modules(socpcq.__path__)
    ]
    candidates = [getattr(socpcq, name) for name in socpcq.__all__]
    candidates += [
        obj
        for module in modules
        for obj in vars(module).values()
        if callable(obj) and getattr(obj, "__module__", None) == module.__name__
    ]
    candidates.append(FeasibleSetProjector.__init__)
    takers = [obj for obj in candidates if "instance" in _signature(obj)]
    assert FeasibleSetProjector in takers and full_report in takers
    for obj in takers:
        params = _signature(obj)
        assert "geometry_tol" not in params, obj
        assert "tol" not in params or params["tol"].default == PROJECTION_TOL, obj
    # The generator draws default-tol instances and takes no tol either.
    assert "tol" not in _signature(socpcq.random_instance)


def evaluate_many(instance, X):
    """g at the rows of X by the row check and image check of
    ``project_batch``."""
    return instance._image(instance._point_rows(X))


def grad_phi_many(instance, X):
    """grad phi at the rows of X by the row kernel of ``fcr_dim_scan``."""
    return _grad_rows(instance, evaluate_many(instance, X))


def test_evaluate_many_matches_evaluate():
    rng = np.random.default_rng(0)
    inst = AffineSOCInstance(rng.standard_normal((4, 3)), rng.standard_normal(4))
    X = rng.standard_normal((32, 3))
    Y = evaluate_many(inst, X)
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
        G, ok = grad_phi_many(inst, x[None, :])
        assert ok[0]
        np.testing.assert_allclose(G[0], fd_gradient(inst, x), atol=1e-6, rtol=1e-6)


def test_grad_phi_many_flags_singular_rows():
    inst = AffineSOCInstance(np.eye(3), np.zeros(3))
    X = np.array([[2.0, 0.0, 0.0], [1.0, 0.5, 0.0]])
    G, ok = grad_phi_many(inst, X)
    assert not ok[0] and ok[1]
    np.testing.assert_allclose(G[0], 0.0)
    # A0 - (gr / ||gr||)^T Ar at g = (1, 0.5, 0): e0 - e1.
    np.testing.assert_allclose(G[1], [1.0, -1.0, 0.0])


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


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3, 0.1])
def test_every_boundary_point_near_the_vertex_has_its_gradient(tol, scale):
    # Images within a few tol of the vertex, where ||gr|| may lie at or
    # below the gradient floor tol * max(1, ||g||).  analyze_point either
    # rejects the point or returns, and each boundary point carries the
    # gradient _grad_rows computes, on a row _grad_rows flags ok.  The band
    # points below the floor have a positive margin and read interior.
    rng = np.random.default_rng(7)
    below_floor = boundary = 0
    for m in range(2, 6):
        Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        inst = AffineSOCInstance(scale * Q, np.zeros(m), tol=tol)
        for _ in range(60):
            y = np.empty(m)
            y[0] = tol * rng.uniform(-0.5, 3.0)
            r = rng.standard_normal(m - 1)
            y[1:] = tol * rng.uniform(0.0, 3.0) * r / np.linalg.norm(r)
            x = Q.T @ y / scale
            try:
                analysis = analyze_point(inst, x)
            except InfeasiblePointError:
                continue
            g = analysis.y
            floor = tol * max(1.0, np.linalg.norm(g))
            if (
                g[0] > tol
                and abs(cone_margin(g)) <= floor
                and np.linalg.norm(g[1:]) <= floor
            ):
                below_floor += 1
                assert analysis.location is ConeLocation.INTERIOR
                assert cone_margin(g) > 0.0
            if analysis.location is ConeLocation.POSITIVE_BOUNDARY:
                boundary += 1
                G, ok = _grad_rows(inst, g[None, :])
                assert ok[0]
                assert np.array_equal(analysis.grad_phi, G[0])
            else:
                assert analysis.grad_phi is None
    assert below_floor > 0 and boundary > 0


def test_analyze_point_returns_a_given_analysis_of_its_instance():
    a = analyze_point(HALFPLANE, [2.0, 7.0, 0.0])
    assert analyze_point(HALFPLANE, a) is a
    # An analysis of another instance is redone at its point.
    other = AffineSOCInstance(HALFPLANE.A, HALFPLANE.b, tol=1e-6)
    b = analyze_point(other, a)
    assert b.instance is other
    assert np.array_equal(b.x, a.x)
    assert b.location is a.location


_IDENTITY = AffineSOCInstance(np.eye(3), np.zeros(3))


@pytest.mark.parametrize(
    "batch_call",
    [
        lambda X: evaluate_many(_IDENTITY, X),
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


#: g = 1e150 x: the row (1e10, 0, 0) and its image are finite, but the
#: image's squared norm, 1e320, overflows.
_HUGE = AffineSOCInstance(1e150 * np.eye(3), np.zeros(3))


@pytest.mark.parametrize(
    "batch_call",
    [
        lambda X: evaluate_many(_HUGE, X),
        lambda X: grad_phi_many(_HUGE, X),
        FeasibleSetProjector(_HUGE, np.zeros(3)).project_batch,
    ],
    ids=["evaluate_many", "grad_phi_many", "project_batch"],
)
def test_batched_calls_reject_rows_whose_images_overflow(batch_call):
    # A DimensionError, and no numpy warning: the test run turns every
    # RuntimeWarning into an error.
    with pytest.raises(DimensionError, match="g\\(x\\) has a squared norm"):
        batch_call(np.array([[1e-3, 0.0, 0.0], [1e10, 0.0, 0.0]]))
    batch_call(np.array([[1e-3, 0.0, 0.0], [-1e-3, 0.0, 0.0]]))


def test_analyze_point_rejects_infeasible():
    with pytest.raises(InfeasiblePointError) as exc:
        analyze_point(HALFPLANE, [1.0, 0.0, 1.0])
    # distance carried on the error: g = (1,1,1), dist = (sqrt2 - 1)/sqrt2
    expected = (np.sqrt(2.0) - 1.0) / np.sqrt(2.0)
    assert exc.value.distance == pytest.approx(expected, abs=1e-12)


def test_h_set_kinds():
    boundary = full_report(HALFPLANE, [1.0, 0.0, 0.0]).h_set
    assert boundary.kind is HSetKind.RAY_IMAGE
    assert full_report(HALFPLANE, [0.0, 0.0, 0.0]).h_set.kind is HSetKind.CONE_IMAGE
    interior = AffineSOCInstance(np.eye(2), np.array([2.0, 0.0]))
    assert full_report(interior, [0.0, 0.0]).h_set.kind is HSetKind.ZERO_ONLY
    # boundary generator is A^T (-y0, yr)
    np.testing.assert_allclose(
        boundary.generator, A_HALFPLANE.T @ np.array([-1.0, 1.0, 0.0])
    )


def test_boundary_analysis_evaluates_g_once(monkeypatch):
    calls = []
    evaluate = AffineSOCInstance._evaluate

    def counting_evaluate(self, x):
        calls.append(x)
        return evaluate(self, x)

    monkeypatch.setattr(AffineSOCInstance, "_evaluate", counting_evaluate)
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
    fcr = full_report(inst, x).fcr
    assert fcr.condition == "Thm3.2(iv)"
    np.testing.assert_allclose(fcr.evidence["certificate_u"], u, atol=1e-12)
    np.testing.assert_allclose(fcr.evidence["certificate_w"], w, atol=1e-12)
    assert fcr.evidence["certificate_c"] == pytest.approx(c)
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
        assert abs(cone_margin(inst.evaluate(z))) <= 1e-12


def test_vanishing_certificate_negative_case():
    # A degenerate boundary point whose A has a column off g(x): FCR fails
    # with the residual of A and no certificate.
    fcr = full_report(HALFPLANE, [1.0, 0.0, 0.0]).fcr
    assert not fcr.holds
    assert fcr.evidence["vanishing_residual"] == pytest.approx(1.0)
    assert not any(key.startswith("certificate_") for key in fcr.evidence)
    # The certificate is a boundary object: the vertex carries none.
    vertex = full_report(HALFPLANE, [0.0, 0.0, 0.0]).fcr
    assert vertex.condition == "Thm3.2(i)"
    assert not any(key.startswith("certificate_") for key in vertex.evidence)

"""Verdicts and projector distances under the symmetries of the problem.

Positive scaling of (A, b), rotations of the y_r block, Lorentz boosts and
orthogonal reparametrizations x = Qz + q all leave the feasible set (up to
the reparametrization) and every constraint qualification unchanged.  Each
case draws a stratified instance, applies one transform, and checks that
all six verdicts keep their condition and that the certified distances
from the transformed xbar do not move.  An invertible, non-orthogonal
reparametrization x = Pz + q, boosted or not, keeps the verdicts too, but
not the distances.  The boost itself is checked against the Lorentz form
and against the explicit axis block, and refuses malformed input.
"""

import numpy as np
import pytest

from socpcq import (
    AffineSOCInstance,
    DimensionError,
    FeasibleSetProjector,
    full_report,
    random_instance,
)
from socpcq.families import TARGET_CASES, lorentz_boost, transformed

VERDICTS = ("nondegeneracy", "rcq", "fcr", "h_closed", "crcq", "mscq")
TRANSFORMS = ("scale:1e-3", "scale:1e3", "rotate", "boost:1", "reparametrize")


def _orthogonal(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _invertible(rng, k, cond):
    """A non-orthogonal (k, k) matrix of condition number ``cond``, k >= 2."""
    spread = np.geomspace(np.sqrt(cond), 1.0 / np.sqrt(cond), k)
    return (_orthogonal(rng, k) * spread) @ _orthogonal(rng, k).T


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("stratum", TARGET_CASES)
def test_verdicts_and_distances_are_invariant(stratum, transform, seed):
    m, n = 3 + seed % 4, 2 + (seed // 4) % 5
    inst, xbar = random_instance(m, n, stratum, seed)
    rng = np.random.default_rng(seed)
    X = xbar + rng.standard_normal((10, n))
    L, P, q = np.eye(m), None, None
    if transform.startswith("scale:"):
        L *= float(transform.split(":")[1])
    elif transform == "rotate":
        L[1:, 1:] = _orthogonal(rng, m - 1)
    elif transform == "boost:1":
        L = lorentz_boost(rng.standard_normal(m - 1), 1.0)
    else:
        P, q = _orthogonal(rng, n), rng.standard_normal(n)
    t_inst, t_xbar, t_X = transformed(inst, xbar, X, L=L, P=P, q=q)

    before, after = full_report(inst, xbar), full_report(t_inst, t_xbar)
    for name in VERDICTS:
        v, w = getattr(before, name), getattr(after, name)
        assert (w.holds, w.condition) == (v.holds, v.condition), name

    _, D, _ = FeasibleSetProjector(inst, xbar).project_batch(X)
    _, Dt, _ = FeasibleSetProjector(t_inst, t_xbar).project_batch(t_X)
    assert np.all(np.abs(Dt - D) <= 1e-9 * np.maximum(1.0, D))


def test_transformed_maps_only_the_points_given():
    inst, xbar = random_instance(4, 3, "Thm4.4(i)", 0)
    rng = np.random.default_rng(0)
    P, q = _orthogonal(rng, 3), rng.standard_normal(3)
    t_inst, t_xbar, t_rows = transformed(inst, P=P, q=q)
    assert t_xbar is None and t_rows is None
    np.testing.assert_allclose(t_inst.A, inst.A @ P)
    _, t_xbar, t_rows = transformed(inst, xbar, P=P, q=q)
    np.testing.assert_allclose(t_xbar, (xbar - q) @ P)
    assert t_rows is None
    # P and q come as a pair.
    for pair in ({"P": P}, {"q": q}):
        with pytest.raises(ValueError, match="give P and q together"):
            transformed(inst, xbar, **pair)


@pytest.mark.parametrize("cond", [1e1, 1e3, 1e5])
@pytest.mark.parametrize("stratum", TARGET_CASES)
def test_verdicts_are_invariant_under_invertible_reparametrizations(stratum, cond):
    # x = P z + q, then a boost at rapidity 0, 2 or 4.  ``transformed`` maps
    # points by P^T, which is right only for an orthogonal P, so the cases
    # are built here, with the point z = P^-1 (x - q).  Only the labels are
    # compared: a non-orthogonal P changes the metric, so the distances.
    for seed in range(5):
        m, n = 3 + seed % 4, 2 + seed % 5
        inst, xbar = random_instance(m, n, stratum, seed)
        rng = np.random.default_rng(seed)
        P, q = _invertible(rng, n, cond), rng.standard_normal(n)
        z = np.linalg.solve(P, xbar - q)
        before = full_report(inst, xbar)
        for rapidity in (0.0, 2.0, 4.0):
            L = lorentz_boost(rng.standard_normal(m - 1), rapidity)
            t_inst = AffineSOCInstance(
                L @ inst.A @ P, L @ (inst.A @ q + inst.b), inst.tol, inst.projection_tol
            )
            after = full_report(t_inst, z)
            for name in VERDICTS:
                v, w = getattr(before, name), getattr(after, name)
                assert (w.holds, w.condition) == (v.holds, v.condition), (
                    name, seed, rapidity
                )


@pytest.mark.parametrize("m", [2, 3, 5, 7])
def test_lorentz_boost_keeps_the_lorentz_form(m):
    # L^T J L = J to rounding, and the boost at -r inverts the boost at r,
    # along the axes and along random directions.
    J = np.diag([1.0] + [-1.0] * (m - 1))
    rng = np.random.default_rng(m)
    directions = [*np.eye(m - 1)[:2], *rng.standard_normal((3, m - 1))]
    for rapidity in (0.0, 0.5, 1.0, 3.0, 6.0):
        slack = 8 * m * np.finfo(float).eps * np.cosh(rapidity) ** 2
        for u in directions:
            L = lorentz_boost(u, rapidity)
            assert np.all(np.abs(L.T @ J @ L - J) <= slack)
            assert np.all(np.abs(lorentz_boost(u, -rapidity) @ L - np.eye(m)) <= slack)


@pytest.mark.parametrize("m", range(2, 8))
def test_axis_boosts_are_the_cosh_sinh_block(m):
    # Bit for bit: the boosted pins in tests/data were recorded with this
    # block along e1.
    for axis in range(1, min(2, m - 1) + 1):
        for rapidity in range(7):
            block = np.eye(m)
            block[0, 0] = block[axis, axis] = np.cosh(rapidity)
            block[0, axis] = block[axis, 0] = np.sinh(rapidity)
            L = lorentz_boost(np.eye(m - 1)[axis - 1], rapidity)
            assert L.tobytes() == block.tobytes()


@pytest.mark.parametrize(
    "direction, rapidity, message",
    [
        ([0.0, 0.0], 1.0, "norm 0"),
        ([np.nan, 1.0], 1.0, "non-finite entries"),
        ([np.inf, 1.0], 1.0, "non-finite entries"),
        ([[1.0, 2.0]], 1.0, "must be 1-d"),
        ([1.0, 0.0], np.nan, "non-finite boost"),
        ([1.0, 0.0], 800.0, "non-finite boost"),
        ([1.0, 0.0], -800, "non-finite boost"),
        ([1.0, 0.0], 600.0, "squared norm that overflows"),
        ([1.0, 0.0], True, "real number"),
        ([1.0, 0.0], "1", "real number"),
    ],
    ids=[
        "zero-direction",
        "nan-direction",
        "inf-direction",
        "2-d-direction",
        "nan-rapidity",
        "overflowing-rapidity",
        "overflowing-negative-rapidity",
        "overflowing-square",
        "bool-rapidity",
        "str-rapidity",
    ],
)
def test_lorentz_boost_rejects_malformed_input(direction, rapidity, message):
    # A DimensionError, and no numpy warning, which the test run turns into
    # an error: a zero direction once gave a NaN matrix, a rapidity past
    # cosh's range an inf and NaN one, and a (1, 2) direction a 3x3 boost.
    with pytest.raises(DimensionError, match=message):
        lorentz_boost(direction, rapidity)

"""Verdicts and projector distances under the symmetries of the problem.

Positive scaling of (A, b), rotations of the y_r block, Lorentz boosts and
orthogonal reparametrizations x = Qz + q all leave the feasible set (up to
the reparametrization) and every constraint qualification unchanged.  Each
case draws a stratified instance, applies one transform, and checks that
all six verdicts keep their condition and that the certified distances
from the transformed xbar do not move.  The boost itself is checked
against the Lorentz form and against the explicit axis block.
"""

import numpy as np
import pytest

from socpcq import FeasibleSetProjector, full_report, random_instance
from socpcq.families import TARGET_CASES, lorentz_boost, transformed

VERDICTS = ("nondegeneracy", "rcq", "fcr", "h_closed", "crcq", "mscq")
TRANSFORMS = ("scale:1e-3", "scale:1e3", "rotate", "boost:1", "reparametrize")


def _orthogonal(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


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

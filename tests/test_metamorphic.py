"""Verdicts and projector distances under the symmetries of the problem.

Positive scaling of (A, b), rotations of the y_r block, Lorentz boosts and
orthogonal reparametrizations x = Qz + q all leave the feasible set (up to
the reparametrization) and every constraint qualification unchanged.  Each
case draws a stratified instance, applies one transform, and checks that
all six verdicts keep their condition and that the certified distances
from the transformed xbar do not move.
"""

import numpy as np
import pytest

from socpcq import (
    AffineSOCInstance,
    FeasibleSetProjector,
    full_report,
    random_instance,
)
from socpcq.oracles import TARGET_CASES

VERDICTS = ("nondegeneracy", "rcq", "fcr", "h_closed", "crcq", "mscq")
TRANSFORMS = ("scale:1e-3", "scale:1e3", "rotate", "boost:1", "reparametrize")


def _orthogonal(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    return Q * np.sign(np.diag(R))


def _boost(rng, m, rapidity):
    """The Lorentz boost of Q_m along a random unit spatial direction."""
    u = rng.standard_normal(m - 1)
    u /= np.linalg.norm(u)
    L = np.eye(m)
    L[0, 0] = np.cosh(rapidity)
    L[0, 1:] = L[1:, 0] = np.sinh(rapidity) * u
    L[1:, 1:] += (np.cosh(rapidity) - 1.0) * np.outer(u, u)
    return L


def _transform(name, inst, xbar, X, rng):
    """(instance, xbar, rows) after the transform; distances are invariant."""
    A, b = inst.A, inst.b
    m, n = A.shape
    if name.startswith("scale:"):
        s = float(name.split(":")[1])
        return AffineSOCInstance(s * A, s * b), xbar, X
    if name in ("rotate", "boost:1"):
        if name == "rotate":
            L = np.eye(m)
            L[1:, 1:] = _orthogonal(rng, m - 1)
        else:
            L = _boost(rng, m, 1.0)
        return AffineSOCInstance(L @ A, L @ b), xbar, X
    # x = Q z + q: z = Q^T (x - q), and Q orthogonal keeps distances.
    Q, q = _orthogonal(rng, n), rng.standard_normal(n)
    return AffineSOCInstance(A @ Q, A @ q + b), (xbar - q) @ Q, (X - q) @ Q


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("transform", TRANSFORMS)
@pytest.mark.parametrize("stratum", TARGET_CASES)
def test_verdicts_and_distances_are_invariant(stratum, transform, seed):
    m, n = 3 + seed % 4, 2 + (seed // 4) % 5
    inst, xbar = random_instance(m, n, stratum, seed)
    rng = np.random.default_rng(seed)
    X = xbar + rng.standard_normal((10, n))
    t_inst, t_xbar, t_X = _transform(transform, inst, xbar, X, rng)

    before, after = full_report(inst, xbar), full_report(t_inst, t_xbar)
    for name in VERDICTS:
        v, w = getattr(before, name), getattr(after, name)
        assert (w.holds, w.condition) == (v.holds, v.condition), name

    _, D, _ = FeasibleSetProjector(inst, xbar).project_batch(X)
    _, Dt, _ = FeasibleSetProjector(t_inst, t_xbar).project_batch(t_X)
    assert np.all(np.abs(Dt - D) <= 1e-9 * np.maximum(1.0, D))

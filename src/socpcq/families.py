"""Instance families and the symmetries of the problem.

* ``random_instance`` builds one representative per characterization
  stratum and self-checks the realized geometry, from the draw's report,
  before returning it; the harness decides each random trial from that
  same report, so a trial analyzes its point once.  Both take the report
  and its invariant violations from ``cq_checker._report``:
  ``random_instance`` raises on a violation, like ``full_report``, and the
  harness counts it as a disagreement.
* ``transformed`` maps an instance, a point and rows under the constraint
  L g(P z + q) in Q_m.  Every verdict is unchanged when L is a positive
  multiple of an automorphism of Q_m (a scale, a rotation of the y_r
  block, a ``lorentz_boost``) and P is invertible.  Distances to the
  feasible set are invariant only under an orthogonal P.
"""

from __future__ import annotations

import math

import numpy as np

from .affine_instance import AffineSOCInstance
from .cq_checker import _report, _require_consistent
from .errors import GenerationError
from .soc_core import ConeLocation, _count, _norm, reflected

__all__ = ["TARGET_CASES", "random_instance", "lorentz_boost", "transformed"]


# ---------------------------------------------------------------------------
# stratified instance generator
# ---------------------------------------------------------------------------

TARGET_CASES = (
    "Thm4.4(i)",
    "Thm4.4(ii)",
    "Thm4.4(iii)",
    "Thm4.4(iv)",
    "Thm4.4(v)",
    "Thm4.4(vi)",
    "Cor4.2",
    "degenerate-boundary",
)

_MIN_M = {"Cor4.2": 3, "degenerate-boundary": 3}
_MIN_N = {"Cor4.2": 2}


def _least_sizes(target_case: str) -> tuple[int, int]:
    """The least (m, n) of a stratum."""
    return _MIN_M.get(target_case, 2), _MIN_N.get(target_case, 1)


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / _norm(v)


def _boundary_unit(rng: np.random.Generator, m: int) -> np.ndarray:
    v = np.empty(m)
    v[0] = math.sqrt(0.5)
    v[1:] = math.sqrt(0.5) * _unit(rng, m - 1)
    return v


def _shrunk(A: np.ndarray) -> np.ndarray:
    """A scaled, in place, to a norm of at most 1."""
    A /= max(1.0, _norm(A))
    return A


def _tangent_basis(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Orthonormal directions inside the supporting hyperplane of the unit
    boundary direction v, orthogonal to v itself; w spans the ray of v."""
    wtil = reflected(w)
    P = np.eye(v.size) - np.outer(v, v) - np.outer(wtil, wtil) / float(wtil @ wtil)
    return np.linalg.svd(P)[0][:, : v.size - 2]


def _build_candidate(rng, m, n, target):
    """A candidate (instance, xbar) of the stratum ``target``, which the
    caller has validated: g(xbar) = y, or the vertex where y is None."""
    xbar = rng.standard_normal(n)
    y = None
    if target == "Thm4.4(i)":
        A = _shrunk(rng.standard_normal((m, n)))
        y = np.zeros(m)
        y[0] = 1.0 + rng.random()
        y[1:] = 0.4 * rng.random() * _unit(rng, m - 1)
    elif target == "Thm4.4(ii)":
        A = _shrunk(rng.standard_normal((m, n)))
        y = (0.5 + rng.random()) * _boundary_unit(rng, m) * math.sqrt(2.0)
    elif target == "Thm4.4(iii)":
        u = _unit(rng, m - 1)
        w = rng.standard_normal(n)
        w /= max(0.25, _norm(w)) / (0.5 + rng.random())
        head = np.concatenate([[1.0], u])
        c = (0.5 + rng.random()) - float(w @ xbar)
        return AffineSOCInstance(np.outer(head, w), c * head), xbar
    elif target == "Thm4.4(iv)":
        A = rng.standard_normal((m, n))
        # The first column is the interior point (1, 0.3 u).
        A[0, 0] = 1.0
        A[1:, 0] = 0.3 * _unit(rng, m - 1)
        A = _shrunk(A)
    elif target == "Thm4.4(v)":
        k = min(n, m - 1)
        block = rng.standard_normal((m - 1, k))
        svals = np.linalg.svd(block, compute_uv=False)
        tilt = rng.standard_normal(k)
        tilt *= 0.2 * svals[-1] / max(_norm(tilt), 1e-12)
        C = rng.standard_normal((k, n))
        A = _shrunk(np.vstack([tilt[None, :], block]) @ C)
    elif target == "Thm4.4(vi)":
        v = _boundary_unit(rng, m)
        a = (0.5 + 1.5 * rng.random()) * _unit(rng, n)
        A = np.outer(v, a)
    elif target == "Cor4.2":
        v = _boundary_unit(rng, m)
        basis = _tangent_basis(v, v)
        j = int(rng.integers(1, min(n - 1, m - 2) + 1))
        C = rng.standard_normal((j + 1, n))
        A = _shrunk(np.column_stack([v, basis[:, :j]]) @ C)
    else:  # degenerate-boundary
        y = (0.5 + rng.random()) * _boundary_unit(rng, m) * math.sqrt(2.0)
        yhat = y / _norm(y)
        basis = _tangent_basis(yhat, y)
        c = rng.standard_normal(n)
        D = rng.standard_normal((m - 2, n))
        D /= max(0.5, _norm(D)) / (0.5 + rng.random())
        A = _shrunk(np.outer(yhat, c) + basis @ D)
    # (-A) @ xbar, not 0 - A @ xbar: the vertex keeps the signs of zeros.
    b = -A @ xbar if y is None else y - A @ xbar
    return AffineSOCInstance(A, b), xbar


#: The two failure strata, and where their CRCQ failure sits.
_FAILING_AT = {
    "Cor4.2": ConeLocation.ZERO,
    "degenerate-boundary": ConeLocation.POSITIVE_BOUNDARY,
}


def _self_check(report, target) -> bool:
    """Does the draw whose report is ``report`` realize ``target``?

    The CRCQ label decides the stratum; only what the label leaves open is
    checked here: the location of a failing stratum, rank >= 1 for (v) and
    the gradient margin of (ii).
    """
    crcq = report.crcq
    if crcq.condition != (None if target in _FAILING_AT else target):
        return False
    instance = report.point_analysis.instance
    if target == "Thm4.4(ii)":
        # keep a healthy gradient margin so neighborhood scans stay clean
        return crcq.evidence["grad_norm"] > 0.05 * max(1.0, instance.norm_A())
    if target in _FAILING_AT:
        if report.point_analysis.location is not _FAILING_AT[target]:
            return False
    if target == "Thm4.4(v)":
        return instance.geometry().rank >= 1
    return True


#: Candidate draws before ``random_instance`` gives up on a stratum.
_MAX_RETRIES = 32


def random_instance(
    m: int,
    n: int,
    target_case: str,
    seed: int = 0,
) -> tuple[AffineSOCInstance, np.ndarray]:
    """A random (instance, feasible point) pair realizing the given stratum.

    ``target_case`` is one of ``TARGET_CASES``: the six qualification
    strata plus the two failure configurations (vertex with a wide
    one-ray image; boundary point with vanishing gradient but no rank-one
    factorization).  ``m`` and ``n`` are integers and ``seed`` a
    non-negative integer, none of them a bool, else ``ValueError``; a size
    below the stratum's least raises ``GenerationError``.
    """
    m, n = _count(m, "m", None), _count(n, "n", None)
    instance, xbar, _, violations = _draw(m, n, target_case, _count(seed, "seed", 0))
    _require_consistent(violations)
    return instance, xbar


def _draw(m: int, n: int, target_case: str, seed: int):
    """``random_instance`` with the report its self-check decided from and
    the report's invariant violations: (instance, xbar, report, violations).
    """
    if target_case not in TARGET_CASES:
        raise GenerationError(
            f"unknown target case {target_case!r}; expected one of {TARGET_CASES}"
        )
    m_lo, n_lo = _least_sizes(target_case)
    if m < m_lo:
        raise GenerationError(f"{target_case} requires m >= {m_lo}")
    if n < n_lo:
        raise GenerationError(f"{target_case} requires n >= {n_lo}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        instance, xbar = _build_candidate(rng, m, n, target_case)
        report, violations = _report(instance, xbar)
        if _self_check(report, target_case):
            return instance, xbar, report, violations
    raise GenerationError(
        f"failed to realize target case {target_case} with m={m}, n={n} "
        f"after {_MAX_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def lorentz_boost(direction, rapidity: float) -> np.ndarray:
    """The boost of Q_m at ``rapidity`` r along the spatial ``direction`` u
    (m - 1 entries, normalized here): L[0, 0] = cosh r,
    L[0, 1:] = L[1:, 0] = sinh(r) u and L[1:, 1:] = I + (cosh r - 1) u u^T."""
    u = np.asarray(direction, dtype=float)
    u = u / _norm(u)
    c, s = np.cosh(rapidity), np.sinh(rapidity)
    L = np.empty((u.size + 1, u.size + 1))
    L[0, 0] = c
    L[0, 1:] = L[1:, 0] = s * u
    L[1:, 1:] = np.eye(u.size) + (c - 1.0) * np.outer(u, u)
    return L


def transformed(instance, xbar=None, rows=None, *, L=None, P=None, q=None):
    """``(instance, xbar, rows)`` for the constraint L g(P z + q) in Q_m.

    L multiplies g from the left; P, an orthogonal (n, n) matrix, and q
    come together and map the points to z = P^T (x - q).  That point map
    needs P orthogonal; the verdicts at the mapped point need only P
    invertible, with z = P^-1 (x - q).  The new instance keeps the
    tolerances of ``instance``.
    """
    A, b = instance.A, instance.b
    if L is not None:
        A, b = L @ A, L @ b
    if P is not None:
        A, b, xbar, rows = A @ P, A @ q + b, (xbar - q) @ P, (rows - q) @ P
    tols = instance.tol, instance.projection_tol
    return AffineSOCInstance(A, b, *tols), xbar, rows

"""Certificate-producing decision procedures for constraint qualifications.

``full_report`` decides all six qualifications at a feasible point of an
affine cone constraint and returns a :class:`Verdict` for each, whose
``condition`` names the clause of the governing characterization that
fired, together with enough numeric evidence (gradients, ranks, rays,
eigenvalues, moduli) to re-run the decisive comparison independently;
read one verdict as a field of the report, next to the set H(x) of
multiplier images (:class:`HSetDescription`).  ``check_crcq`` returns the
report's CRCQ verdict.

Condition labels:

* ``Thm3.2(i)``–``Thm3.2(iv)`` — facial constant-rank property (FCR);
* ``Thm4.1(i)``–``Thm4.1(iv)`` — closedness of H(x) = A^T N(g(x));
* ``Thm4.4(i)``–``Thm4.4(vi)`` — constant-rank CQ (CRCQ);
* ``Thm5.1`` — metric subregularity CQ (MSCQ), equivalent to CRCQ here;
* descriptive labels for nondegeneracy and Robinson's CQ.

The failure configurations are pinpointed as well: an FCR failure is
always a degenerate boundary point without the rank-one factorization, and
an H-closedness failure is always the ``Cor 4.2`` geometry (the image
touches the cone in a single boundary ray without equaling its span).

A report splits once on the location of g(x), as the characterizations
do.  At the vertex (``_vertex``) FCR always holds, and the class of Im(A)
decides H-closedness and the MSCQ modulus.  Off the vertex
(``_off_vertex``) H is closed, and FCR is the RCQ verdict relabeled to
Thm 3.2 (ii)/(iii) wherever that verdict holds, else the vanishing
certificate of (iv) or a failure.  CRCQ is not decided separately: since
CRCQ <=> FCR and H-closed, its verdict is the decisive one of those two
relabeled to its Thm 4.4 clause, evidence included, and MSCQ is that
verdict under Thm 5.1 with the branch's modulus added.

Every clause reads one :class:`PointAnalysis`: the location of g(x), the
gradient of phi on the boundary, the gradient floor, and, for the vertex
decisions, the image geometry (rank, singular values, bases, spectral
class) that ``AffineSOCInstance.geometry()`` caches on the instance, all
decided at the instance's ``tol``.  A report thus costs one point analysis
and at most one SVD of A, and the projector decides its shape with
``_rcq`` on its own reference's analysis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .affine_instance import AffineSOCInstance, PointAnalysis, analyze_point
from .soc_core import ConeLocation, _margin, _norm
from .subspace_cone import SubspaceKind

__all__ = [
    "Verdict",
    "HSetKind",
    "HSetDescription",
    "CQReport",
    "check_crcq",
    "full_report",
    "verify_report_invariants",
]


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of one qualification check.

    ``holds`` is true exactly when ``condition`` is set; ``evidence`` holds
    the numbers the decision was based on.
    """

    holds: bool
    condition: Optional[str]
    evidence: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.holds != (self.condition is not None):
            raise ValueError("verdict must have a condition iff it holds")


class HSetKind(enum.Enum):
    ZERO_ONLY = "zero_only"
    RAY_IMAGE = "ray_image"
    CONE_IMAGE = "cone_image"


@dataclass(frozen=True, eq=False)
class HSetDescription:
    """The set A^T N(g(x)) of multiplier images at a feasible point.

    ``ZERO_ONLY`` is {0} (interior points); ``RAY_IMAGE`` is the half-line
    of nonnegative multiples of ``generator`` = A^T(-y0, yr) (boundary
    points); ``CONE_IMAGE`` is A^T(-Q_m) (vertex), whose closedness is the
    point of the analysis: the report's ``h_closed`` verdict decides it.
    """

    kind: HSetKind
    generator: Optional[np.ndarray] = None


@dataclass(frozen=True, eq=False)
class CQReport:
    point_analysis: PointAnalysis
    nondegeneracy: Verdict
    rcq: Verdict
    fcr: Verdict
    h_closed: Verdict
    crcq: Verdict
    mscq: Verdict
    h_set: HSetDescription
    derived_claims: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# the case split on the location of g(x)
# ---------------------------------------------------------------------------


def _relabeled(verdict: Verdict, condition: Optional[str]) -> Verdict:
    """``verdict`` under another condition label, with its own evidence."""
    return Verdict(verdict.holds, condition, dict(verdict.evidence))


def _rcq(pa: PointAnalysis) -> Verdict:
    """Robinson's CQ: g(x) interior, a boundary gradient of phi above the
    floor, or an image of A that meets the interior at the vertex."""
    if pa.location is ConeLocation.INTERIOR:
        return Verdict(True, "interior", {"margin": _margin(pa.y)})
    if pa.location is ConeLocation.POSITIVE_BOUNDARY:
        g = pa.grad_phi
        norm = _norm(g)
        ev = {"grad_phi": g, "grad_norm": norm}
        if norm > pa.grad_floor:
            return Verdict(True, "boundary gradient nonzero", ev)
        return Verdict(False, None, ev)
    cls = pa.geometry
    ev = {"image_class": cls.kind.value, "eigenvalues": cls.eigenvalues}
    if cls.kind is SubspaceKind.MEETS_INTERIOR:
        ev["witness"] = cls.witness
        return Verdict(True, "image meets interior", ev)
    if cls.ray is not None:
        ev["ray"] = cls.ray
    return Verdict(False, None, ev)


def _vanishing(pa: PointAnalysis, grad_norm: float) -> Verdict:
    """FCR at a boundary point where the gradient of phi vanishes.

    Thm 3.2 (iv) holds when every column of A is parallel to g(x), with the
    certificate (u, w, c): g = (w^T x + c)(1, u) with ||u|| = 1, which makes
    phi vanish near the point.  Otherwise FCR fails, with the residual norm
    ||R||_F of A against such columns, read off ``PointAnalysis._split``.
    """
    instance, y = pa.instance, pa.y
    residual = pa._split[1]
    if residual > pa.grad_floor:
        return Verdict(
            False, None, {"grad_norm": grad_norm, "vanishing_residual": residual}
        )
    ev = {
        "grad_norm": grad_norm,
        "certificate_u": y[1:] / _norm(y[1:]),
        "certificate_w": instance.A[0].copy(),
        "certificate_c": float(instance.b[0]),
    }
    return Verdict(True, "Thm3.2(iv)", ev)


def _eta(B: np.ndarray) -> float:
    """min over unit w in Im(A) of dist(w, Q_m), in closed form, from an
    orthonormal basis B of Im(A).

    A unit w = (w0, wr) has ||wr|| = sqrt(1 - w0^2), so its cone distance
    is max(0, sqrt(1/2) (sqrt(1 - w0^2) - w0)), which decreases in w0; over
    the unit sphere of Im(A) the largest w0 is t = ||B^T e0||, the t by
    which ``subspace_cone`` classifies Im(A).  Hence the minimum is
    max(0, sqrt(1/2) (sqrt(1 - t^2) - t)), and inf for a zero image.

    Positive exactly when Im(A) touches the cone only at the origin; used
    as the eta in the flat-case error-bound modulus M/eta.
    """
    if B.shape[1] == 0:
        return float("inf")
    t = min(1.0, _norm(B[0]))
    return max(0.0, math.sqrt(0.5) * (math.sqrt(1.0 - t * t) - t))


#: The verdicts a branch decides, in this order: nondegeneracy, FCR,
#: H-closedness, the H set, and the MSCQ modulus evidence of its class.
_Branch = tuple[Verdict, Verdict, Verdict, HSetDescription, dict[str, Any]]


def _vertex(pa: PointAnalysis) -> _Branch:
    """g(x) = 0: nondegeneracy is the rank test, FCR holds (Thm 3.2 (i)),
    H = A^T(-Q_m), and the class of Im(A) decides H-closedness (Thm 4.1
    (ii)-(iv), else Cor 4.2) and the MSCQ modulus."""
    geo = pa.geometry
    ev = {"rank": geo.rank, "m": pa.instance.m}
    if geo.rank == pa.instance.m:
        nondegeneracy = Verdict(True, "surjective at vertex", ev)
    else:
        nondegeneracy = Verdict(False, None, ev)
    fcr = Verdict(True, "Thm3.2(i)", {"y_norm": _norm(pa.y)})
    modulus: dict[str, Any] = {}
    if geo.kind is SubspaceKind.MEETS_INTERIOR:
        ev = {"witness": geo.witness, "eigenvalues": geo.eigenvalues}
        h_closed = Verdict(True, "Thm4.1(ii)", ev)
    elif geo.kind is SubspaceKind.ZERO_ONLY:
        h_closed = Verdict(
            True, "Thm4.1(iii)", {"rank": geo.rank, "eigenvalues": geo.eigenvalues}
        )
        eta = _eta(geo.basis)
        if geo.rank == 0:
            # A = 0: Omega is the whole space, so dist(x, Omega) = 0 and the
            # modulus is 0 (M/eta would be inf/inf).
            bound_m, kappa = float("inf"), 0.0
        else:
            # The smallest singular value the rank keeps, so the bound
            # scales exactly with (A, b).
            bound_m = 1.0 / float(geo.singular_values[geo.rank - 1])
            kappa = bound_m / eta if eta > 0 else float("inf")
        modulus = {"bound_M": bound_m, "eta": eta, "kappa_bound": kappa}
    # The ray lies in Im(A), so Im(A) is its span exactly when the rank is 1.
    elif geo.rank == 1:
        h_closed = Verdict(True, "Thm4.1(iv)", {"ray": geo.ray, "rank": geo.rank})
        # Rank-one image along a boundary ray: the error-bound modulus is
        # 1/(norm(a) * norm(v)) for any factorization A = v a^T, and that
        # product is the top singular value of A.
        modulus = {"kappa": 1.0 / float(geo.singular_values[0])}
    else:
        ev = {"ray": geo.ray, "rank": geo.rank, "reason": "Cor 4.2"}
        h_closed = Verdict(False, None, ev)
    return nondegeneracy, fcr, h_closed, HSetDescription(HSetKind.CONE_IMAGE), modulus


def _off_vertex(pa: PointAnalysis, rcq: Verdict) -> _Branch:
    """g(x) interior or on the positive boundary: nondegeneracy is RCQ, H is
    closed (Thm 4.1 (i)), and FCR is RCQ relabeled to Thm 3.2 (ii) or (iii),
    else the vanishing certificate (iv) or a failure."""
    if pa.location is ConeLocation.INTERIOR:
        label, h_set = "Thm3.2(ii)", HSetDescription(HSetKind.ZERO_ONLY)
    else:
        label = "Thm3.2(iii)"
        h_set = HSetDescription(HSetKind.RAY_IMAGE, pa._lorentz[1])
    if rcq.holds:
        fcr = _relabeled(rcq, label)
    else:
        fcr = _vanishing(pa, rcq.evidence["grad_norm"])
    h_closed = Verdict(True, "Thm4.1(i)", {"y": pa.y})
    return _relabeled(rcq, rcq.condition), fcr, h_closed, h_set, {}


#: CRCQ <=> FCR and H-closed (Thm 4.4).  At the vertex FCR always holds and
#: H-closedness decides; elsewhere H is closed and FCR decides.  Each CRCQ
#: clause is the decisive clause under its Thm 4.4 name.
_CRCQ_LABELS = {
    "Thm3.2(ii)": "Thm4.4(i)",
    "Thm3.2(iii)": "Thm4.4(ii)",
    "Thm3.2(iv)": "Thm4.4(iii)",
    "Thm4.1(ii)": "Thm4.4(iv)",
    "Thm4.1(iii)": "Thm4.4(v)",
    "Thm4.1(iv)": "Thm4.4(vi)",
}


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def check_crcq(instance: AffineSOCInstance, x) -> Verdict:
    """The CRCQ verdict of ``full_report`` at ``x``."""
    return full_report(instance, x).crcq


#: What MSCQ yields about the tangent and normal cones at the point.
_DERIVED_CLAIMS = ("T_Omega(xbar) = L_Omega(xbar)", "N_Omega(xbar) = H(xbar)")


def full_report(instance: AffineSOCInstance, x) -> CQReport:
    """All six verdicts at a feasible point, with consistency enforced:
    an invariant violation raises ``AssertionError``."""
    report, violations = _report(instance, x)
    _require_consistent(violations)
    return report


def _require_consistent(violations: list[str]) -> None:
    """Raise ``AssertionError`` on any invariant violation."""
    if violations:
        raise AssertionError(
            "internal verdict inconsistency: " + "; ".join(violations)
        )


def _report(instance: AffineSOCInstance, x) -> tuple[CQReport, list[str]]:
    """``full_report`` with its invariant violations returned, not raised:
    the oracles count them as disagreements.  MSCQ is CRCQ's verdict under
    Thm 5.1, its evidence followed by the route and the branch's modulus."""
    pa = analyze_point(instance, x)
    rcq = _rcq(pa)
    if pa.location is ConeLocation.ZERO:
        nondegeneracy, fcr, h_closed, h_set, modulus = _vertex(pa)
        decisive = h_closed
    else:
        nondegeneracy, fcr, h_closed, h_set, modulus = _off_vertex(pa, rcq)
        decisive = fcr
    crcq = _relabeled(decisive, _CRCQ_LABELS.get(decisive.condition))
    evidence = {**crcq.evidence, "equivalent_route": crcq.condition, **modulus}
    mscq = Verdict(crcq.holds, "Thm5.1" if crcq.holds else None, evidence)
    report = CQReport(
        point_analysis=pa,
        nondegeneracy=nondegeneracy,
        rcq=rcq,
        fcr=fcr,
        h_closed=h_closed,
        crcq=crcq,
        mscq=mscq,
        h_set=h_set,
        derived_claims=_DERIVED_CLAIMS if crcq.holds else (),
    )
    return report, verify_report_invariants(report)


_ZERO_ONLY_LABELS = {"Thm4.4(iv)", "Thm4.4(v)", "Thm4.4(vi)"}
_NONZERO_LABELS = {"Thm4.4(i)", "Thm4.4(ii)", "Thm4.4(iii)"}


def verify_report_invariants(report: CQReport) -> list[str]:
    """Implication-lattice and label-locality violations (empty = consistent)."""
    out = []
    if report.crcq.holds != (report.fcr.holds and report.h_closed.holds):
        out.append("CRCQ must equal FCR AND H-closed")
    if report.mscq.holds != report.crcq.holds:
        out.append("MSCQ must equal CRCQ")
    if report.nondegeneracy.holds and not report.rcq.holds:
        out.append("nondegeneracy must imply RCQ")
    if report.rcq.holds and not report.mscq.holds:
        out.append("RCQ must imply MSCQ")
    loc = report.point_analysis.location
    label = report.crcq.condition
    if label in _ZERO_ONLY_LABELS and loc is not ConeLocation.ZERO:
        out.append(f"{label} is only valid at the vertex")
    if label in _NONZERO_LABELS and loc is ConeLocation.ZERO:
        out.append(f"{label} is not valid at the vertex")
    if not report.fcr.holds:
        if loc is not ConeLocation.POSITIVE_BOUNDARY:
            out.append("FCR can only fail on the positive boundary")
    return out

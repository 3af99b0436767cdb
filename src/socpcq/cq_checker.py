"""Certificate-producing decision procedures for constraint qualifications.

``full_report`` decides all six qualifications at a feasible point of an
affine cone constraint and returns a :class:`Verdict` for each, whose
``condition`` names the clause of the governing characterization that
fired, together with enough numeric evidence (gradients, ranks, rays,
eigenvalues, moduli) to re-run the decisive comparison independently;
read one verdict as a field of the report.  ``check_crcq`` returns the
CRCQ verdict alone.

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

CRCQ is not decided separately: since CRCQ <=> FCR and H-closed, its
verdict is the decisive one of those two (H-closedness at the vertex, FCR
elsewhere) relabeled to its Thm 4.4 clause, evidence included.  Off the
vertex, FCR is in turn the RCQ verdict relabeled to Thm 3.2 (ii)/(iii)
wherever that verdict holds.

Every clause reads one :class:`PointAnalysis`: the location of g(x), the
gradient of phi on the boundary, the gradient floor, and, for the vertex
decisions, the image geometry (rank, singular values, bases, spectral
class) that ``AffineSOCInstance.geometry()`` caches on the instance, all
decided at the instance's ``tol``.  A report thus costs one point analysis
and at most one SVD of A, and the projector decides its shape with
``_rcq`` on its own reference's analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .affine_instance import (
    AffineSOCInstance,
    HSetDescription,
    PointAnalysis,
    _h_set,
    _vanishing,
    analyze_point,
)
from .soc_core import ConeLocation, _margin, _norm
from .subspace_cone import SubspaceKind

__all__ = [
    "Verdict",
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
# individual qualifications
# ---------------------------------------------------------------------------


def _off_vertex(pa: PointAnalysis) -> Verdict:
    """Nondegeneracy and RCQ away from the vertex, where the two coincide."""
    if pa.location is ConeLocation.INTERIOR:
        return Verdict(True, "interior", {"margin": _margin(pa.y)})
    g = pa.grad_phi
    norm = _norm(g)
    ev = {"grad_phi": g, "grad_norm": norm}
    if norm > pa.grad_floor:
        return Verdict(True, "boundary gradient nonzero", ev)
    return Verdict(False, None, ev)


def _nondegeneracy(pa: PointAnalysis) -> Verdict:
    if pa.location is not ConeLocation.ZERO:
        return _off_vertex(pa)
    rank = pa.geometry.rank
    ev = {"rank": rank, "m": pa.instance.m}
    if rank == pa.instance.m:
        return Verdict(True, "surjective at vertex", ev)
    return Verdict(False, None, ev)


def _rcq(pa: PointAnalysis) -> Verdict:
    if pa.location is not ConeLocation.ZERO:
        return _off_vertex(pa)
    cls = pa.geometry
    ev: dict[str, Any] = {
        "image_class": cls.kind.value,
        "eigenvalues": cls.eigenvalues,
    }
    if cls.kind is SubspaceKind.MEETS_INTERIOR:
        ev["witness"] = cls.witness
        return Verdict(True, "image meets interior", ev)
    if cls.ray is not None:
        ev["ray"] = cls.ray
    return Verdict(False, None, ev)


def _fcr(pa: PointAnalysis) -> Verdict:
    if pa.location is ConeLocation.ZERO:
        return Verdict(True, "Thm3.2(i)", {"y_norm": _norm(pa.y)})
    rcq = _off_vertex(pa)
    if rcq.holds:
        label = "Thm3.2(ii)" if pa.location is ConeLocation.INTERIOR else "Thm3.2(iii)"
        return Verdict(True, label, rcq.evidence)
    norm = rcq.evidence["grad_norm"]
    cert, residual = _vanishing(pa)
    if cert is not None:
        u, w, c = cert
        ev = {
            "grad_norm": norm,
            "certificate_u": u,
            "certificate_w": w,
            "certificate_c": c,
        }
        return Verdict(True, "Thm3.2(iv)", ev)
    return Verdict(False, None, {"grad_norm": norm, "vanishing_residual": residual})


def _h_closed(pa: PointAnalysis) -> Verdict:
    if pa.location in (ConeLocation.INTERIOR, ConeLocation.POSITIVE_BOUNDARY):
        return Verdict(True, "Thm4.1(i)", {"y": pa.y})
    cls = pa.geometry
    if cls.kind is SubspaceKind.MEETS_INTERIOR:
        return Verdict(
            True, "Thm4.1(ii)", {"witness": cls.witness, "eigenvalues": cls.eigenvalues}
        )
    if cls.kind is SubspaceKind.ZERO_ONLY:
        return Verdict(
            True, "Thm4.1(iii)", {"rank": cls.rank, "eigenvalues": cls.eigenvalues}
        )
    ev: dict[str, Any] = {"ray": cls.ray, "rank": cls.rank}
    # The ray lies in Im(A), so Im(A) is its span exactly when the rank is 1.
    if cls.rank == 1:
        return Verdict(True, "Thm4.1(iv)", ev)
    ev["reason"] = "Cor 4.2"
    return Verdict(False, None, ev)


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


def _crcq(pa: PointAnalysis, fcr: Verdict, h_closed: Verdict) -> Verdict:
    decisive = h_closed if pa.location is ConeLocation.ZERO else fcr
    label = _CRCQ_LABELS.get(decisive.condition)
    return Verdict(decisive.holds, label, dict(decisive.evidence))


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


def _mscq(pa: PointAnalysis, crcq: Verdict) -> Verdict:
    ev = dict(crcq.evidence)
    ev["equivalent_route"] = crcq.condition
    if not crcq.holds:
        return Verdict(False, None, ev)
    if crcq.condition == "Thm4.4(vi)":
        # Rank-one image along a boundary ray: the error-bound modulus is
        # 1/(norm(a) * norm(v)) for any factorization A = v a^T, and that
        # product is the top singular value of A.
        ev["kappa"] = 1.0 / float(pa.geometry.singular_values[0])
    elif crcq.condition == "Thm4.4(v)":
        # The smallest singular value the rank keeps, so the bound scales
        # exactly with (A, b).
        geo = pa.geometry
        bound_m = float("inf")
        if geo.rank:
            bound_m = 1.0 / float(geo.singular_values[geo.rank - 1])
        eta = _eta(geo.basis)
        ev["bound_M"] = bound_m
        ev["eta"] = eta
        if geo.rank == 0:
            # A = 0: Omega is the whole space, so dist(x, Omega) = 0 and the
            # modulus is 0 (M/eta would be inf/inf).
            ev["kappa_bound"] = 0.0
        else:
            ev["kappa_bound"] = bound_m / eta if eta > 0 else float("inf")
    return Verdict(True, "Thm5.1", ev)


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def check_crcq(instance: AffineSOCInstance, x) -> Verdict:
    pa = analyze_point(instance, x)
    return _crcq(pa, _fcr(pa), _h_closed(pa))


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
    the oracles count them as disagreements."""
    pa = analyze_point(instance, x)
    fcr = _fcr(pa)
    h_closed = _h_closed(pa)
    crcq = _crcq(pa, fcr, h_closed)
    mscq = _mscq(pa, crcq)
    report = CQReport(
        point_analysis=pa,
        nondegeneracy=_nondegeneracy(pa),
        rcq=_rcq(pa),
        fcr=fcr,
        h_closed=h_closed,
        crcq=crcq,
        mscq=mscq,
        h_set=_h_set(pa),
        derived_claims=_DERIVED_CLAIMS if mscq.holds else (),
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

"""Qualification verdicts: frozen instance table, labels, evidence, lattice.

The expected verdicts for the four bundled geometries were worked out by
hand from the feasible-set shapes (halfplane, tangent-plane slice,
boundary half-line) and are frozen here; the randomized lattice checks
lean on verify_report_invariants as the single source of implication
rules.
"""

import functools
import re
from dataclasses import replace

import numpy as np
import pytest

from socpcq import (
    AffineSOCInstance,
    ConeLocation,
    FeasibleSetProjector,
    HSetKind,
    PointAnalysis,
    Verdict,
    check_crcq,
    classify_image_vs_cone,
    fcr_dim_scan,
    full_report,
    random_instance,
    verify_report_invariants,
)
from socpcq import cq_checker
from socpcq.cq_checker import _eta
from socpcq.families import TARGET_CASES
from socpcq.soc_core import _norm, cone_margin

A_HALFPLANE = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
HALFPLANE = AffineSOCInstance(A_HALFPLANE, np.zeros(3))

# g(x) = (x1, x1, x2): same image, one fewer variable
TANGENT_SLICE = AffineSOCInstance(
    np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(3)
)

# g(x) = x (1, -1, 0): feasible set is the half-line x >= 0
BOUNDARY_LINE = AffineSOCInstance(
    np.array([[1.0], [-1.0], [0.0]]), np.zeros(3)
)

# g(0) = (5, 0, 0) lies inside the cone
INTERIOR = AffineSOCInstance(np.eye(3), np.array([5.0, 0.0, 0.0]))


def test_verdict_consistency_enforced():
    with pytest.raises(ValueError):
        Verdict(True, None, {})
    with pytest.raises(ValueError):
        Verdict(False, "Thm4.4(i)", {})
    v = Verdict(True, "Thm4.4(i)", {})
    assert v.holds and v.condition == "Thm4.4(i)"


def test_degenerate_boundary_point_verdicts():
    xbar = np.array([1.0, 0.0, 0.0])
    rep = full_report(HALFPLANE, xbar)
    assert rep.point_analysis.location is ConeLocation.POSITIVE_BOUNDARY
    assert not rep.fcr.holds
    assert not rep.crcq.holds
    assert not rep.mscq.holds
    assert not rep.nondegeneracy.holds
    assert not rep.rcq.holds
    assert rep.h_closed.holds and rep.h_closed.condition == "Thm4.1(i)"
    # failure evidence names both dead ends of the boundary case
    assert rep.fcr.evidence["grad_norm"] == pytest.approx(0.0, abs=1e-12)
    assert rep.fcr.evidence["vanishing_residual"] > 0.1
    assert rep.derived_claims == ()


def test_vertex_of_halfplane_verdicts():
    origin = np.zeros(3)
    rep = full_report(HALFPLANE, origin)
    assert rep.fcr.holds and rep.fcr.condition == "Thm3.2(i)"
    assert not rep.h_closed.holds
    assert rep.h_closed.evidence["reason"] == "Cor 4.2"
    assert rep.h_closed.evidence["rank"] == 2
    np.testing.assert_allclose(
        rep.h_closed.evidence["ray"],
        np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
        atol=1e-12,
    )
    assert not rep.crcq.holds and not rep.mscq.holds


def test_fcr_fails_along_degenerate_path():
    for k in range(1, 6):
        v = full_report(HALFPLANE, np.array([1.0 / k, 0.0, 0.0])).fcr
        assert not v.holds, k


def test_tangent_slice_vertex():
    rep = full_report(TANGENT_SLICE, np.zeros(2))
    assert rep.fcr.holds and rep.fcr.condition == "Thm3.2(i)"
    assert not rep.h_closed.holds
    assert rep.h_closed.evidence["reason"] == "Cor 4.2"
    assert not rep.crcq.holds and not rep.mscq.holds


def test_boundary_line_vertex():
    rep = full_report(BOUNDARY_LINE, np.zeros(1))
    assert rep.crcq.holds and rep.crcq.condition == "Thm4.4(vi)"
    assert rep.mscq.holds and rep.mscq.condition == "Thm5.1"
    assert rep.h_closed.holds and rep.h_closed.condition == "Thm4.1(iv)"
    # exact modulus 1/sigma_1(A) = 1/sqrt(2)
    assert rep.mscq.evidence["kappa"] == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert rep.mscq.evidence["equivalent_route"] == "Thm4.4(vi)"
    assert set(rep.derived_claims) == {
        "T_Omega(xbar) = L_Omega(xbar)",
        "N_Omega(xbar) = H(xbar)",
    }


def test_interior_point_everything_holds():
    inst = INTERIOR
    x = np.zeros(3)
    report = full_report(inst, x)
    assert report.nondegeneracy.holds
    assert report.rcq.holds
    assert report.fcr.condition == "Thm3.2(ii)"
    assert check_crcq(inst, x).condition == "Thm4.4(i)"
    assert report.mscq.holds
    assert report.h_closed.condition == "Thm4.1(i)"


def test_boundary_nondegenerate_point():
    # g(x) = (1 + x1, x2, x3) at the origin: smooth boundary, full rank
    inst = AffineSOCInstance(np.eye(3), np.array([1.0, 1.0, 0.0]))
    x = np.zeros(3)
    assert full_report(inst, x).nondegeneracy.holds
    v = check_crcq(inst, x)
    assert v.holds and v.condition == "Thm4.4(ii)"
    assert v.evidence["grad_norm"] > 0.5


def test_vanishing_boundary_point():
    u = np.array([0.0, 1.0])
    w = np.array([2.0, 0.0, -1.0])
    A = np.outer(np.concatenate([[1.0], u]), w)
    inst = AffineSOCInstance(A, np.concatenate([[1.0], u]))  # c = 1
    x = np.zeros(3)  # w.x + c = 1 > 0
    fcr = full_report(inst, x).fcr
    assert fcr.holds and fcr.condition == "Thm3.2(iv)"
    crcq = check_crcq(inst, x)
    assert crcq.holds and crcq.condition == "Thm4.4(iii)"
    np.testing.assert_allclose(crcq.evidence["certificate_u"], u, atol=1e-12)
    mscq = full_report(inst, x).mscq
    assert mscq.holds and mscq.condition == "Thm5.1"


def test_zero_only_vertex_bound_evidence():
    # image span{e2, e3} misses the cone: flat feasible set, M/eta bound
    A = np.zeros((3, 2))
    A[1, 0] = 1.0
    A[2, 1] = 1.0
    inst = AffineSOCInstance(A, np.zeros(3))
    v = check_crcq(inst, np.zeros(2))
    assert v.holds and v.condition == "Thm4.4(v)"
    mscq = full_report(inst, np.zeros(2)).mscq
    assert mscq.holds
    assert mscq.evidence["bound_M"] == pytest.approx(1.0, abs=1e-12)
    assert mscq.evidence["eta"] == pytest.approx(np.sqrt(0.5), abs=1e-9)
    assert mscq.evidence["kappa_bound"] == pytest.approx(np.sqrt(2.0), rel=1e-8)


def test_zero_matrix_kappa_bound_is_zero():
    # A = 0, b = 0: Omega is all of R^n, so dist(x, Omega) = 0 and the
    # modulus is exactly 0, while M and eta both stay inf (no kept singular
    # value, empty image).
    inst = AffineSOCInstance(np.zeros((3, 2)), np.zeros(3))
    report = full_report(inst, np.array([0.5, -1.0]))
    assert report.crcq.holds and report.crcq.condition == "Thm4.4(v)"
    ev = report.mscq.evidence
    assert report.mscq.holds and report.mscq.condition == "Thm5.1"
    assert ev["bound_M"] == float("inf")
    assert ev["eta"] == float("inf")
    assert ev["kappa_bound"] == 0.0


def test_zero_only_bound_scales_with_the_instance():
    # bound_M = 1 / (smallest singular value the rank keeps): scaling (A, b)
    # by s divides it by s, down to scales far below the tolerance.
    inst, xbar = random_instance(5, 4, "Thm4.4(v)", seed=0)
    base = full_report(inst, xbar).mscq.evidence["bound_M"]
    for s in (1.0, 1e-3, 1e-8, 1e-10):
        scaled = AffineSOCInstance(s * inst.A, s * inst.b)
        ev = full_report(scaled, xbar).mscq.evidence
        assert s * ev["bound_M"] == pytest.approx(base, rel=1e-9)
        assert np.isfinite(ev["kappa_bound"])


def test_minimal_cone_distance_on_image_exact_cases():
    # Im = span{e2, e3} in R^3: every unit w has dist = 1/sqrt(2)
    A = np.zeros((3, 2))
    A[1, 0] = 1.0
    A[2, 1] = 1.0
    basis = classify_image_vs_cone(A).basis
    assert _eta(basis) == pytest.approx(np.sqrt(0.5), abs=1e-9)
    # one-dimensional image along -e1: closest unit point is +e1 at dist 0
    A1 = np.array([[1.0], [0.0], [0.0]])
    assert _eta(classify_image_vs_cone(A1).basis) == pytest.approx(0.0, abs=1e-12)
    assert _eta(classify_image_vs_cone(np.zeros((3, 1))).basis) == float("inf")
    # oblique image: the largest first coordinate of a unit image vector is
    # t = 0.5 / sqrt(1.25), reached at (0.5, 1, 0) / sqrt(1.25)
    A2 = np.array([[0.5, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert _eta(classify_image_vs_cone(A2).basis) == pytest.approx(
        np.sqrt(0.5) * 0.5 / np.sqrt(1.25), abs=1e-12
    )
    # The MSCQ evidence of a Thm4.4(v) point carries this eta.
    ev = full_report(AffineSOCInstance(A, np.zeros(3)), np.zeros(2)).mscq.evidence
    assert ev["eta"] == _eta(basis)


def test_identity_h_set_is_the_normal_cone():
    # With A = I the set H = A^T N_Q(g(x)) is N_Q itself: {0} inside, the
    # ray of (-y0, yr) on the boundary, -Q_m at the vertex.
    identity = AffineSOCInstance(np.eye(3), np.zeros(3))
    assert full_report(identity, [3.0, 0.0, 0.0]).h_set.kind is HSetKind.ZERO_ONLY
    y = np.array([1.0, 1.0, 0.0])
    h_set = full_report(identity, y).h_set
    assert h_set.kind is HSetKind.RAY_IMAGE
    # the generator must be outward-normal: nonpositive inner product with
    # every cone point and zero against the base point
    rng = np.random.default_rng(1234)
    w = rng.standard_normal((256, 3))
    w[:, 0] = np.linalg.norm(w[:, 1:], axis=1) + np.abs(w[:, 0]) * rng.random(256)
    assert float((w @ h_set.generator).max()) <= 1e-12
    assert abs(float(h_set.generator @ y)) <= 1e-12
    assert full_report(identity, np.zeros(3)).h_set.kind is HSetKind.CONE_IMAGE


def test_report_and_projector_share_one_svd(monkeypatch):
    import socpcq.affine_instance as affine_instance
    import socpcq.cq_checker as cq_checker
    import socpcq.projection as projection

    analyze_calls = []
    svd_args = []
    analyze, svd, pinv = affine_instance.analyze_point, np.linalg.svd, np.linalg.pinv

    def counting_analyze(*args, **kwargs):
        analyze_calls.append(args)
        return analyze(*args, **kwargs)

    def counting_svd(a, *args, **kwargs):
        svd_args.append(np.array(a))
        return svd(a, *args, **kwargs)

    def counting_pinv(a, *args, **kwargs):
        svd_args.append(np.array(a))
        return pinv(a, *args, **kwargs)

    monkeypatch.setattr(affine_instance, "analyze_point", counting_analyze)
    monkeypatch.setattr(cq_checker, "analyze_point", counting_analyze)
    monkeypatch.setattr(projection, "analyze_point", counting_analyze)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "pinv", counting_pinv)
    rng = np.random.default_rng(5)
    for target in TARGET_CASES:
        generated, xbar = random_instance(5, 3, target, seed=21)
        # a fresh instance, so nothing is cached from the generator's checks
        inst = AffineSOCInstance(generated.A, generated.b)
        analyze_calls.clear()
        svd_args.clear()
        full_report(inst, xbar)
        assert len(analyze_calls) == 1, target
        assert len(svd_args) <= 1, target
        analyze_calls.clear()
        projector = FeasibleSetProjector(inst, xbar)
        assert len(analyze_calls) == 1, target
        # the projection of one infeasible row must not factor A again
        while True:
            x = xbar + 3.0 * rng.standard_normal(inst.n)
            if cone_margin(inst.evaluate(x)) < 0.0:
                break
        projector.project_batch(x[None, :])
        svds_of_a = [a for a in svd_args if np.array_equal(a, inst.A)]
        assert len(svds_of_a) <= 1, target


@pytest.mark.parametrize("target", TARGET_CASES)
def test_projector_keeps_the_reports_analysis(target):
    inst, xbar = random_instance(4, 3, target, seed=7)
    report = full_report(inst, xbar)
    projector = FeasibleSetProjector(inst, report.point_analysis)
    assert projector.analysis is report.point_analysis
    assert projector.reference is report.point_analysis.x


@pytest.fixture
def split_calls(monkeypatch):
    """The analyses whose rank-one split ``PointAnalysis._split`` computes."""
    calls = []
    split = PointAnalysis.__dict__["_split"]

    def counted(analysis):
        calls.append(analysis)
        return split.func(analysis)

    spy = functools.cached_property(counted)
    spy.__set_name__(PointAnalysis, "_split")
    monkeypatch.setattr(PointAnalysis, "_split", spy)
    return calls


@pytest.mark.parametrize("target", ["Thm4.4(iii)", "degenerate-boundary"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_report_and_fcr_scan_compute_the_split_once(split_calls, target, seed):
    # The vanishing certificate and the FCR scan's closed form read one
    # split of A at the point; the scan never recomputes it.
    inst, xbar = random_instance(3 + seed, 2 + seed, target, seed)
    split_calls.clear()  # the generator's own check of its draw
    report = full_report(inst, xbar)
    assert split_calls == [report.point_analysis]
    fcr_dim_scan(inst, report.point_analysis, samples=64, seed=seed)
    assert split_calls == [report.point_analysis]


@pytest.mark.parametrize("seed", range(6))
def test_vanishing_residual_keeps_its_expression(seed):
    # The residual of Thm 3.2 (iv)'s certificate, bit for bit.
    inst, xbar = random_instance(3 + seed % 4, 2 + seed % 3, "degenerate-boundary", seed)
    report = full_report(inst, xbar)
    A, y = inst.A, report.point_analysis.y
    expected = _norm(A - np.outer(y, (y @ A) / float(y @ y)))
    assert report.fcr.evidence["vanishing_residual"] == expected


def test_implication_lattice_on_stratified_instances():
    cases = [
        "Thm4.4(i)",
        "Thm4.4(ii)",
        "Thm4.4(iii)",
        "Thm4.4(iv)",
        "Thm4.4(v)",
        "Thm4.4(vi)",
        "Cor4.2",
        "degenerate-boundary",
    ]
    rng = np.random.default_rng(99)
    for i in range(64):
        target = cases[i % len(cases)]
        m = int(rng.integers(3, 7))
        n = int(rng.integers(2, 7))
        inst, xbar = random_instance(m, n, target, 5000 + i)
        rep = full_report(inst, xbar)
        assert verify_report_invariants(rep) == []
        if target.startswith("Thm4.4"):
            assert rep.crcq.holds and rep.crcq.condition == target
            assert rep.mscq.holds
        else:
            assert not rep.crcq.holds and not rep.mscq.holds
        if rep.point_analysis.location is not ConeLocation.ZERO:
            # Off the vertex, FCR's (ii)/(iii) is the RCQ verdict relabeled.
            relabeled = rep.fcr.condition in ("Thm3.2(ii)", "Thm3.2(iii)")
            assert relabeled == rep.rcq.holds
            if relabeled:
                fcr_ev, rcq_ev = rep.fcr.evidence, rep.rcq.evidence
                assert fcr_ev is not rcq_ev and fcr_ev.keys() == rcq_ev.keys()
                assert all(np.array_equal(fcr_ev[k], v) for k, v in rcq_ev.items())


FORCED = Verdict(True, "forced", {})


@pytest.mark.parametrize(
    "instance, x, changes, message",
    [
        # An interior point, where every verdict holds, under Thm4.4(i).
        (INTERIOR, np.zeros(3), {"h_closed": Verdict(False, None, {})},
         "CRCQ must equal FCR AND H-closed"),
        (INTERIOR, np.zeros(3), {"crcq": Verdict(True, "Thm4.4(iv)", {})},
         "Thm4.4(iv) is only valid at the vertex"),
        # A degenerate boundary point, where every verdict fails.
        (HALFPLANE, np.array([1.0, 0.0, 0.0]), {"mscq": Verdict(True, "Thm5.1", {})},
         "MSCQ must equal CRCQ"),
        (HALFPLANE, np.array([1.0, 0.0, 0.0]), {"nondegeneracy": FORCED},
         "nondegeneracy must imply RCQ"),
        (HALFPLANE, np.array([1.0, 0.0, 0.0]), {"rcq": FORCED},
         "RCQ must imply MSCQ"),
        # The vertex of the boundary line, where CRCQ holds under Thm4.4(vi).
        (BOUNDARY_LINE, np.zeros(1), {"crcq": Verdict(True, "Thm4.4(i)", {})},
         "Thm4.4(i) is not valid at the vertex"),
        # The vertex of the halfplane: FCR holds, H-closedness fails (Cor 4.2).
        (HALFPLANE, np.zeros(3), {"fcr": Verdict(False, None, {})},
         "FCR can only fail on the positive boundary"),
    ],
    ids=["crcq", "zero-only-label", "mscq", "nondegeneracy", "rcq",
         "nonzero-label", "fcr"],
)
def test_each_invariant_violation_is_reported_and_raised(
    monkeypatch, instance, x, changes, message
):
    # A real report with one verdict replaced breaks exactly one invariant,
    # and full_report raises with that one message.
    real = full_report(instance, x)
    assert verify_report_invariants(replace(real, **changes)) == [message]
    report = cq_checker.CQReport
    monkeypatch.setattr(
        cq_checker, "CQReport", lambda **fields: replace(report(**fields), **changes)
    )
    expected = f"internal verdict inconsistency: {message}"
    with pytest.raises(AssertionError, match=f"^{re.escape(expected)}$"):
        full_report(instance, x)


def test_check_crcq_raises_on_an_invariant_violation(monkeypatch):
    # check_crcq answers through full_report, so no public route returns a
    # verdict of a report that breaks an invariant.
    monkeypatch.setattr(cq_checker, "verify_report_invariants", lambda report: ["forced"])
    for route in (full_report, check_crcq):
        with pytest.raises(AssertionError, match="^internal verdict inconsistency: forced$"):
            route(INTERIOR, np.zeros(3))


def test_mscq_label_is_thm51_everywhere_it_holds():
    rng = np.random.default_rng(13)
    for i in range(16):
        inst, xbar = random_instance(
            int(rng.integers(2, 7)),
            int(rng.integers(1, 7)),
            ["Thm4.4(i)", "Thm4.4(ii)", "Thm4.4(v)", "Thm4.4(vi)"][i % 4],
            9000 + i,
        )
        v = full_report(inst, xbar).mscq
        assert v.holds and v.condition == "Thm5.1"
        assert v.evidence["equivalent_route"].startswith("Thm4.4")


def _q2_case(rng, image, point):
    """An m = 2 instance and a feasible x.  ``image`` is the rank of Im(A),
    or "ray" for a rank-one image along a boundary ray of Q_2; ``point``
    puts g(x) at the vertex, on the boundary or in the interior."""
    n = int(rng.integers(2 if image == 2 else 1, 5))
    if image == 0:
        A = np.zeros((2, n))
    elif image == 2:
        A = rng.standard_normal((2, n))
    elif image == "ray":
        A = np.outer([1.0, rng.choice([-1.0, 1.0])], rng.standard_normal(n))
    else:
        A = np.outer(rng.standard_normal(2), rng.standard_normal(n))
    s = rng.exponential()
    y = {
        "vertex": [0.0, 0.0],
        "boundary": [s, s * rng.choice([-1.0, 1.0])],
        "interior": [s, s * rng.uniform(-0.9, 0.9)],
    }[point]
    x = rng.standard_normal(n)
    return AffineSOCInstance(A, y - A @ x), x


def test_crcq_holds_at_every_feasible_point_of_q2():
    # Q_2 = {y : y0 >= |y1|} is polyhedral, so, as for linear programs,
    # CRCQ holds at every feasible point (the paper's opening paragraph).
    # The cases reach all three locations and all six CRCQ conditions, RCQ
    # failing at some of them.
    rng = np.random.default_rng(2)
    locations, labels, rcq_fails = set(), set(), 0
    for image in (0, 1, 2, "ray"):
        for point in ("vertex", "boundary", "interior"):
            for _ in range(25):
                inst, x = _q2_case(rng, image, point)
                rep = full_report(inst, x)
                assert rep.crcq.holds, (image, point)
                assert verify_report_invariants(rep) == []
                locations.add(rep.point_analysis.location)
                labels.add(rep.crcq.condition)
                rcq_fails += not rep.rcq.holds
    assert locations == {
        ConeLocation.ZERO, ConeLocation.POSITIVE_BOUNDARY, ConeLocation.INTERIOR
    }
    assert labels == {f"Thm4.4({k})" for k in ("i", "ii", "iii", "iv", "v", "vi")}
    assert rcq_fails > 50


VERDICT_FIELDS = ("nondegeneracy", "rcq", "fcr", "h_closed", "crcq", "mscq")

# Each stratum's report at random_instance(4, 3, stratum, seed=0): holds,
# condition and evidence keys, in order, of nondegeneracy, RCQ, FCR,
# H-closedness, CRCQ and MSCQ, then the kind of the H set.
_MARGIN, _GRAD = ["margin"], ["grad_phi", "grad_norm"]
_CERT = ["grad_norm", "certificate_u", "certificate_w", "certificate_c"]
_RANK, _VANISH = ["rank", "m"], ["grad_norm", "vanishing_residual"]
_COR42 = ["ray", "rank", "reason"]
STRATUM_REPORTS = {
    "Thm4.4(i)": (
        (True, "interior", _MARGIN),
        (True, "interior", _MARGIN),
        (True, "Thm3.2(ii)", _MARGIN),
        (True, "Thm4.1(i)", ["y"]),
        (True, "Thm4.4(i)", _MARGIN),
        (True, "Thm5.1", [*_MARGIN, "equivalent_route"]),
        HSetKind.ZERO_ONLY,
    ),
    "Thm4.4(ii)": (
        (True, "boundary gradient nonzero", _GRAD),
        (True, "boundary gradient nonzero", _GRAD),
        (True, "Thm3.2(iii)", _GRAD),
        (True, "Thm4.1(i)", ["y"]),
        (True, "Thm4.4(ii)", _GRAD),
        (True, "Thm5.1", [*_GRAD, "equivalent_route"]),
        HSetKind.RAY_IMAGE,
    ),
    "Thm4.4(iii)": (
        (False, None, _GRAD),
        (False, None, _GRAD),
        (True, "Thm3.2(iv)", _CERT),
        (True, "Thm4.1(i)", ["y"]),
        (True, "Thm4.4(iii)", _CERT),
        (True, "Thm5.1", [*_CERT, "equivalent_route"]),
        HSetKind.RAY_IMAGE,
    ),
    "Thm4.4(iv)": (
        (False, None, _RANK),
        (True, "image meets interior", ["image_class", "eigenvalues", "witness"]),
        (True, "Thm3.2(i)", ["y_norm"]),
        (True, "Thm4.1(ii)", ["witness", "eigenvalues"]),
        (True, "Thm4.4(iv)", ["witness", "eigenvalues"]),
        (True, "Thm5.1", ["witness", "eigenvalues", "equivalent_route"]),
        HSetKind.CONE_IMAGE,
    ),
    "Thm4.4(v)": (
        (False, None, _RANK),
        (False, None, ["image_class", "eigenvalues"]),
        (True, "Thm3.2(i)", ["y_norm"]),
        (True, "Thm4.1(iii)", ["rank", "eigenvalues"]),
        (True, "Thm4.4(v)", ["rank", "eigenvalues"]),
        (
            True,
            "Thm5.1",
            ["rank", "eigenvalues", "equivalent_route", "bound_M", "eta", "kappa_bound"],
        ),
        HSetKind.CONE_IMAGE,
    ),
    "Thm4.4(vi)": (
        (False, None, _RANK),
        (False, None, ["image_class", "eigenvalues", "ray"]),
        (True, "Thm3.2(i)", ["y_norm"]),
        (True, "Thm4.1(iv)", ["ray", "rank"]),
        (True, "Thm4.4(vi)", ["ray", "rank"]),
        (True, "Thm5.1", ["ray", "rank", "equivalent_route", "kappa"]),
        HSetKind.CONE_IMAGE,
    ),
    "Cor4.2": (
        (False, None, _RANK),
        (False, None, ["image_class", "eigenvalues", "ray"]),
        (True, "Thm3.2(i)", ["y_norm"]),
        (False, None, _COR42),
        (False, None, _COR42),
        (False, None, [*_COR42, "equivalent_route"]),
        HSetKind.CONE_IMAGE,
    ),
    "degenerate-boundary": (
        (False, None, _GRAD),
        (False, None, _GRAD),
        (False, None, _VANISH),
        (True, "Thm4.1(i)", ["y"]),
        (False, None, _VANISH),
        (False, None, [*_VANISH, "equivalent_route"]),
        HSetKind.RAY_IMAGE,
    ),
}


@pytest.mark.parametrize("stratum", TARGET_CASES)
def test_report_of_each_stratum(stratum):
    inst, xbar = random_instance(4, 3, stratum, seed=0)
    report = full_report(inst, xbar)
    verdicts = [getattr(report, name) for name in VERDICT_FIELDS]
    pinned = [(v.holds, v.condition, list(v.evidence)) for v in verdicts]
    assert (*pinned, report.h_set.kind) == STRATUM_REPORTS[stratum]
    # check_crcq reads the same verdict, value for value.
    crcq = check_crcq(inst, xbar)
    assert (crcq.holds, crcq.condition) == (report.crcq.holds, report.crcq.condition)
    assert list(crcq.evidence) == list(report.crcq.evidence)
    for key, value in crcq.evidence.items():
        assert np.array_equal(value, report.crcq.evidence[key]), key
    # Each verdict owns its evidence.
    assert len({id(v.evidence) for v in verdicts}) == len(verdicts)

"""Acceptance gate: nine shipped criteria, one pass/fail line each.

Each criterion asserts its stated tolerances and wall-clock budget and
prints a single summary line; run ``pytest tests/test_acceptance.py -s``
to watch them stream.  Criterion 9 reuses the harness run of criterion 7.
"""

import time
from contextlib import contextmanager
from importlib.resources import files

import numpy as np
import pytest

from socpcq import (
    DEFAULT_TOL,
    AffineSOCInstance,
    FeasibleSetProjector,
    SubspaceKind,
    brute_force_subspace_class,
    classify_image_vs_cone,
    classify_kappa_growth,
    equivalence_harness,
    fcr_dim_scan,
    full_report,
    mscq_kappa_scan,
)
from socpcq.cli import parse_instance
from socpcq.soc_core import _distance_rows, _margin_rows, _projection_rows

_SHARED = {}


def fixture(name: str) -> str:
    return str(files("socpcq").joinpath("fixtures", f"{name}.json"))


@contextmanager
def criterion(num: int, name: str, budget: float = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"over budget: {elapsed:.2f}s >= {budget:.0f}s"
            )
    except BaseException:
        print(f"ACCEPTANCE {num} {name}: FAIL")
        raise
    if budget is not None:
        print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s < {budget:.0f}s)")
    else:
        print(f"ACCEPTANCE {num} {name}: PASS ({elapsed:.2f}s)")


def test_criterion_1_degenerate_boundary_fixture():
    with criterion(1, "degenerate-boundary verdicts and dim scan", 1.0):
        doc = parse_instance(fixture("boundary_degenerate"))
        report = full_report(doc.instance, doc.points["xbar"])
        assert not report.fcr.holds
        assert not report.crcq.holds
        assert not report.mscq.holds
        assert report.h_closed.holds
        assert report.h_closed.condition == "Thm4.1(i)"
        zero_face = fcr_dim_scan(doc.instance, doc.points["xbar"], samples=1000, seed=0)
        assert zero_face.observed_dims == frozenset({0, 1})


def test_criterion_2_vertex_halfplane_fcr_sequence():
    with criterion(2, "half-plane FCR/CRCQ/MSCQ sequence", 1.0):
        half = parse_instance(fixture("vertex_halfplane"))
        boundary = parse_instance(fixture("boundary_degenerate"))
        at_origin = full_report(half.instance, half.points["origin"])
        assert at_origin.fcr.holds
        assert at_origin.fcr.condition == "Thm3.2(i)"
        for k in range(1, 6):
            v = full_report(boundary.instance, boundary.points[f"k{k}"]).fcr
            assert not v.holds, f"FCR unexpectedly holds at (1/{k}, 0, 0)"
        assert not at_origin.crcq.holds
        assert not at_origin.mscq.holds
        ev = at_origin.crcq.evidence
        assert ev["rank"] == 2
        assert np.allclose(
            np.asarray(ev["ray"]), [np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-12
        )


def test_criterion_3_tangent_plane_growth():
    with criterion(3, "tangent-plane H not closed, kappa grows >= 10x", 10.0):
        doc = parse_instance(fixture("vertex_tangent_plane"))
        report = full_report(doc.instance, doc.points["origin"])
        assert not report.h_closed.holds
        assert report.h_closed.evidence["reason"] == "Cor 4.2"
        scan = mscq_kappa_scan(
            doc.instance,
            doc.points["origin"],
            radii=(1e-1, 1e-2, 1e-3),
            samples_per_radius=10_000,
            seed=0,
        )
        for k in range(len(scan.radii) - 1):
            ratio = scan.kappa_hat[k + 1] / scan.kappa_hat[k]
            assert ratio >= 10.0, f"kappa ratio {ratio:.2f} < 10 at radius index {k}"
        assert classify_kappa_growth(scan) == "growing"


def test_criterion_4_half_line_exact_modulus():
    with criterion(4, "half-line CRCQ via Thm4.4(vi), kappa == sqrt(2)/2", 10.0):
        doc = parse_instance(fixture("vertex_boundary_line"))
        report = full_report(doc.instance, doc.points["origin"])
        assert report.crcq.holds
        assert report.crcq.condition == "Thm4.4(vi)"
        assert report.mscq.holds
        assert report.mscq.condition == "Thm5.1"
        scan = mscq_kappa_scan(
            doc.instance,
            doc.points["origin"],
            radii=(1e-1, 1e-2, 1e-3),
            samples_per_radius=10_000,
            seed=0,
        )
        for v in scan.kappa_hat:
            assert abs(v - np.sqrt(0.5)) <= 1e-6
        assert classify_kappa_growth(scan) == "bounded"


def test_criterion_5_cone_kernel_suite():
    with criterion(5, "cone kernel: distance vs projection, VI", 10.0):
        rng = np.random.default_rng(2026)
        for m in range(2, 7):
            Y = rng.standard_normal((10_000, m))
            Y *= rng.choice([0.05, 1.0, 20.0], size=(10_000, 1))
            Z = _projection_rows(Y)
            D = _distance_rows(Y)
            scale = np.maximum(1.0, np.linalg.norm(Y, axis=1))
            assert np.all(np.abs(D - np.linalg.norm(Y - Z, axis=1)) <= 1e-10 * scale)
            zscale = np.maximum(1.0, np.linalg.norm(Z, axis=1))
            assert np.all(_margin_rows(Z) >= -1e-12 * zscale)
            # variational inequality against sampled cone members
            Wr = rng.standard_normal((64, m - 1))
            W = np.column_stack(
                [np.linalg.norm(Wr, axis=1) + rng.random(64), Wr]
            ) * rng.choice([0.1, 1.0, 10.0], size=(64, 1))
            W = np.vstack([W, np.zeros(m)])
            G = Y - Z
            gaps = G @ W.T - np.einsum("ij,ij->i", G, Z)[:, None]
            bound = 1e-10 * np.outer(scale, 1.0 + np.linalg.norm(W, axis=1))
            assert np.all(gaps <= bound)


def test_criterion_6_subspace_classifier_vs_oracle():
    with criterion(6, "spectral classifier vs brute force / ray recovery", 30.0):
        rng = np.random.default_rng(0)
        accepted = 0
        while accepted < 500:
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 7))
            A = rng.standard_normal((m, n))
            cls = classify_image_vs_cone(A)
            if (
                cls.eigenvalues.size == 0
                or float(np.min(np.abs(cls.eigenvalues))) < 10.0 * DEFAULT_TOL
            ):
                continue
            accepted += 1
            oracle = brute_force_subspace_class(A, seed=accepted)
            assert oracle.kind is cls.kind, (
                f"disagreement on draw {accepted}: "
                f"spectral={cls.kind} oracle={oracle.kind}"
            )

        worst = 0.0
        for t in range(50):
            m = int(rng.integers(3, 7))
            u = rng.standard_normal(m - 1)
            u /= np.linalg.norm(u)
            v = np.concatenate([[1.0], u]) / np.sqrt(2.0)
            vt = v.copy()
            vt[0] = -vt[0]
            P = np.eye(m) - np.outer(v, v) - np.outer(vt, vt)
            tangent = np.linalg.svd(P)[0][:, : m - 2]
            j = int(rng.integers(0, m - 1))  # 0..m-2 extra tangent directions
            S = np.column_stack([v, tangent[:, :j]])
            A = S @ rng.standard_normal((j + 1, j + 1))
            cls = classify_image_vs_cone(A)
            assert cls.kind is SubspaceKind.RAY
            worst = max(worst, float(np.linalg.norm(cls.ray - v)))
        assert worst <= 1e-8, f"worst ray generator error {worst:.3e}"


def test_criterion_7_equivalence_harness_1000():
    with criterion(7, "harness: 1000 stratified trials, seed 42", 60.0):
        report = equivalence_harness(1000, seed=42)
        _SHARED["harness"] = report
        assert len(report.rows) == 1000
        assert report.failures == (), f"failures: {report.failures[:3]}"
        assert report.disagreements == (), (
            f"disagreeing trials: {report.disagreements[:10]}"
        )
        assert report.inconclusive == (), (
            f"inconclusive after retry: {report.inconclusive[:10]}"
        )
        for row in report.rows:
            assert row.scan_class in ("bounded", "growing")
            assert row.agree and row.fcr_agree


def test_criterion_8_projection_matches_half_space_form():
    with criterion(8, "projection vs closed form on 50 line-image instances", 10.0):
        rng = np.random.default_rng(2)
        worst = 0.0
        for t in range(50):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 7))
            u = rng.standard_normal(m - 1)
            u /= np.linalg.norm(u)
            v = np.concatenate([[1.0], u]) / np.sqrt(2.0)
            a = rng.standard_normal(n)
            a *= (0.5 + 1.5 * rng.random()) / np.linalg.norm(a)
            beta = float(2.0 * rng.standard_normal())
            inst = AffineSOCInstance(np.outer(v, a), beta * v)
            ref = (1.0 - beta) * a / float(a @ a)
            proj = FeasibleSetProjector(inst, ref)
            X = rng.standard_normal((40, n)) * 3.0
            Z, _, _ = proj.project_batch(X)
            t_of_x = X @ a + beta
            expected = X - (np.minimum(t_of_x, 0.0) / float(a @ a))[:, None] * a
            worst = max(worst, float(np.max(np.linalg.norm(Z - expected, axis=1))))
        assert worst <= 1e-7, f"worst closed-form deviation {worst:.3e}"


def test_criterion_9_implication_lattice():
    with criterion(9, "implication lattice: zero violations on harness"):
        report = _SHARED.get("harness")
        assert report is not None, "criterion 7 must run first in this module"
        violating = [r.index for r in report.rows if r.invariant_violations]
        assert violating == [], f"lattice violations in trials {violating[:10]}"

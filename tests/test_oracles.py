"""Sampling oracles: kappa scans, dimension scans, generator, harness.

The scans are themselves test infrastructure, so the tests here pin down
their observable contract: determinism under a seed, the frozen constant
ratio on the half-line geometry, growth classification on hand-built
scan records, stratum fidelity of the generator, and clean end-to-end
harness runs.
"""

import json
import math
import re
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from socpcq import (
    AffineSOCInstance,
    DimensionError,
    DimScan,
    GenerationError,
    InfeasiblePointError,
    KappaScan,
    NumericalFailureError,
    SubspaceKind,
    brute_force_subspace_class,
    classify_kappa_growth,
    equivalence_harness,
    fcr_dim_scan,
    full_report,
    mscq_kappa_scan,
    random_instance,
)
from socpcq import (
    PointAnalysis,
    affine_instance,
    analyze_point,
    cli,
    cq_checker,
    families,
    oracles,
    projection,
    soc_core,
    subspace_cone,
)
from socpcq.cli import parse_instance
from socpcq.families import TARGET_CASES, lorentz_boost, transformed
from socpcq.projection import PROJECTION_TOL, FeasibleSetProjector
from socpcq.soc_core import ConeLocation, _margin_rows, classify_cone_point, cone_margin

A_HALFPLANE = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
HALFPLANE = AffineSOCInstance(A_HALFPLANE, np.zeros(3))
TANGENT = AffineSOCInstance(
    np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), np.zeros(3)
)
HALFLINE = AffineSOCInstance(np.array([[1.0], [-1.0], [0.0]]), np.zeros(3))
IDENTITY = AffineSOCInstance(np.eye(3), np.zeros(3))

#: Seeds that every seeded entry point rejects with ValueError before any
#: work: a seed is a non-negative integer, not a bool.
BAD_SEEDS = (None, -1, 1.5, True, "3")


# -- kappa scan ---------------------------------------------------------------


def test_kappa_scan_is_deterministic():
    a = mscq_kappa_scan(TANGENT, np.zeros(2), samples_per_radius=300, seed=5)
    b = mscq_kappa_scan(TANGENT, np.zeros(2), samples_per_radius=300, seed=5)
    assert a == b  # frozen dataclass of tuples: full state compares
    c = mscq_kappa_scan(TANGENT, np.zeros(2), samples_per_radius=300, seed=6)
    assert c.kappa_hat != a.kappa_hat


def test_kappa_scan_validation():
    with pytest.raises(ValueError):
        mscq_kappa_scan(TANGENT, np.zeros(2), radii=(1e-2, 1e-1))
    with pytest.raises(ValueError):
        mscq_kappa_scan(TANGENT, np.zeros(2), radii=(1e-1, -1e-2))
    # Radii are real numbers, as tolerances and counts are: a bool or a
    # str is refused, not read as 1.0 or parsed.
    for radii in ((True,), (0.1, False), ("0.1", "1e-2"), (0.1, "1e-2")):
        with pytest.raises(ValueError, match="radii"):
            mscq_kappa_scan(TANGENT, np.zeros(2), radii=radii)
    scan = mscq_kappa_scan(
        TANGENT, np.zeros(2), radii=(1, np.float64(0.5)), samples_per_radius=4
    )
    assert scan.radii == (1.0, 0.5)
    for samples in (0, True, 2.9, "5"):
        with pytest.raises(ValueError, match="samples"):
            mscq_kappa_scan(TANGENT, np.zeros(2), samples_per_radius=samples)
    scan = mscq_kappa_scan(TANGENT, np.zeros(2), samples_per_radius=np.int64(3))
    assert scan.sample_count == 3
    for seed in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed"):
            mscq_kappa_scan(TANGENT, np.zeros(2), seed=seed)
    with pytest.raises(InfeasiblePointError):
        mscq_kappa_scan(TANGENT, np.array([1.0, 1.0]))  # infeasible center


def test_kappa_scan_needs_a_radius():
    with pytest.raises(ValueError, match="radii"):
        mscq_kappa_scan(TANGENT, np.zeros(2), radii=())


@pytest.mark.parametrize("radius", [1e160, 1e200])
def test_kappa_scan_radius_obeys_the_magnitude_rule(monkeypatch, radius):
    # Points within 2 * radius of xbar, or their images, would have squared
    # norms past the float range: the scan refuses before it draws, and
    # without numpy's overflow warning, which the test run turns into an
    # error.
    monkeypatch.setattr(oracles, "_kappa_scan", None)
    with pytest.raises(DimensionError, match=re.escape(f"radius {radius:g} ")):
        mscq_kappa_scan(IDENTITY, [1.0, 1.0, 0.0], radii=(radius, 1e-1))
    monkeypatch.undo()
    scan = mscq_kappa_scan(
        IDENTITY, [1.0, 1.0, 0.0], radii=(1e100,), samples_per_radius=8
    )
    assert scan.radii == (1e100,)


@pytest.mark.parametrize(
    "point, message",
    [
        ([4e153, 4e153, 0.0], "radius 0.1 takes"),
        ([1e100, 1e100, 0.0], "radius 0.001 puts"),
    ],
)
def test_harness_fixed_point_obeys_the_scan_reach_rule(monkeypatch, point, message):
    # The kappa scan around the first point would pass the magnitude rule,
    # and around the second its probe offsets lie below one ulp of the
    # point, so its draws would round onto it: the harness refuses either
    # point before its first trial, by the rule and with the error of
    # mscq_kappa_scan.
    monkeypatch.setattr(oracles, "_kappa_scan", None)
    point = np.array(point)
    for run in (
        lambda: mscq_kappa_scan(IDENTITY, point),
        lambda: equivalence_harness(1, fixed_instance=IDENTITY, fixed_point=point),
    ):
        with pytest.raises(DimensionError, match=re.escape(message)):
            run()


def test_kappa_scan_probe_offsets_resolve_from_the_center(monkeypatch):
    # The finest probe offset must reach one ulp of the center's largest
    # entry: with radii (0.1, 0.01) it is 0.01 / 240, and ulp(2^k) = 2^(k-52).
    finest = 0.01 / 240.0
    k = math.frexp(finest)[1] + 52
    monkeypatch.setattr(oracles, "_kappa_scan", None)
    with pytest.raises(DimensionError, match="below one ulp of its center"):
        mscq_kappa_scan(IDENTITY, [2.0**k, 2.0**k, 0.0], radii=(0.1, 0.01))
    monkeypatch.undo()
    point = [2.0 ** (k - 1), 2.0 ** (k - 1), 0.0]
    scan = mscq_kappa_scan(IDENTITY, point, radii=(0.1, 0.01), samples_per_radius=8)
    assert scan.radii == (0.1, 0.01)


def test_probe_offsets_follow_the_running_divisor():
    # h_k = r_k / (8 * 30^k) with the divisor a running product, bit for bit,
    # also past k = 13, where 8 * 30^k is no longer exact.
    radii = tuple(np.geomspace(1.0, 1e-20, 25).tolist())
    h, divisor = [], 8.0
    for r in radii:
        h.append(r / divisor)
        divisor *= 30.0
    assert np.array_equal(oracles._probe_offsets(radii), h)


def test_kappa_scan_certifies_at_the_instance_projection_tol():
    # A gap no projection can close: the scan's certified call must fail
    # rather than divide an uncertified distance.
    tight = AffineSOCInstance(np.eye(3), np.zeros(3), projection_tol=1e-300)
    with pytest.raises(NumericalFailureError, match="not certified"):
        mscq_kappa_scan(tight, [1.0, 1.0, 0.0])
    mscq_kappa_scan(IDENTITY, [1.0, 1.0, 0.0])


@pytest.mark.parametrize(
    "instance, xbar",
    [
        (HALFPLANE, [1.0, 0.0, 0.0]),  # positive boundary
        (HALFPLANE, [0.0, 0.0, 0.0]),  # vertex
        (IDENTITY, [2.0, 0.0, 0.0]),  # interior
    ],
)
@pytest.mark.parametrize("samples", [0, -1, True, 2.9, "5"])
def test_dim_scan_rejects_bad_samples(instance, xbar, samples):
    # One samples rule on every branch, the kappa scan's: an integer, not a
    # bool, of at least 1; a numpy integer is one.
    with pytest.raises(ValueError, match="samples"):
        fcr_dim_scan(instance, np.array(xbar), samples=samples)
    scan = fcr_dim_scan(instance, np.array(xbar), samples=np.int64(3))
    assert scan is None or scan.sample_count + scan.discarded == 4


@pytest.mark.parametrize("seed", BAD_SEEDS)
def test_seeded_entry_points_reject_bad_seeds(seed):
    # The dim scan checks its seed on every branch, before its analysis; the
    # generator and the brute-force classifier check theirs the same way.
    runs = (
        lambda: fcr_dim_scan(HALFPLANE, np.array([1.0, 0.0, 0.0]), seed=seed),
        lambda: fcr_dim_scan(IDENTITY, np.array([2.0, 0.0, 0.0]), seed=seed),
        lambda: brute_force_subspace_class(np.eye(3), seed=seed),
        lambda: random_instance(4, 3, "Thm4.4(i)", seed),
    )
    for run in runs:
        with pytest.raises(ValueError, match="seed"):
            run()


@pytest.fixture
def calls(monkeypatch):
    """Counts projector builds and batches, and the ``analyze_point`` calls
    that analyze (those not handed an analysis of their own instance);
    ``rows`` holds the rows of each batch, in call order."""
    counts = {"build": 0, "batch": 0, "analyze": 0, "rows": []}

    def counting(key, fn, counts_call=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[key] += counts_call(*args)
            return fn(*args, **kwargs)

        return wrapper

    def analyzes(instance, x):
        return not (isinstance(x, PointAnalysis) and x.instance is instance)

    monkeypatch.setattr(
        FeasibleSetProjector,
        "__init__",
        counting("build", FeasibleSetProjector.__init__),
    )
    batch = counting("batch", FeasibleSetProjector._project_rows)

    def recording(self, X):
        counts["rows"].append(X.copy())
        return batch(self, X)

    monkeypatch.setattr(FeasibleSetProjector, "_project_rows", recording)
    for module in (cq_checker, oracles, projection):
        monkeypatch.setattr(
            module,
            "analyze_point",
            counting("analyze", module.analyze_point, analyzes),
        )
    return counts


@pytest.mark.parametrize(
    "radii, samples",
    [
        ((1e-2, 1e-1), 48),
        ((1e-1, 0.0), 48),
        ((1e-1, float("nan")), 48),
        ((float("inf"), 1e-1), 48),
        ((1e-1, 1e-2), 0),
    ],
)
def test_kappa_scan_validates_arguments_before_building_a_projector(
    calls, radii, samples
):
    with pytest.raises(ValueError):
        mscq_kappa_scan(
            TANGENT, np.zeros(2), radii=radii, samples_per_radius=samples
        )
    assert calls["build"] == 0


def test_tangent_plane_scan_grows():
    # Image touches the cone along one ray but is wider than the ray: the
    # error-bound modulus blows up and consecutive estimates grow ~30x.
    scan = mscq_kappa_scan(TANGENT, np.zeros(2), samples_per_radius=500, seed=0)
    assert classify_kappa_growth(scan) == "growing"
    for k in range(len(scan.radii) - 1):
        assert scan.kappa_hat[k + 1] / scan.kappa_hat[k] >= 10.0
    assert scan.evaluated(0) > 0


def test_half_line_scan_is_flat_at_the_exact_constant():
    # dist(x, Omega) / dist(g(x), Q) == 1/sqrt(2) identically for x < 0.
    scan = mscq_kappa_scan(HALFLINE, np.zeros(1), samples_per_radius=400, seed=1)
    assert classify_kappa_growth(scan) == "bounded"
    for v in scan.kappa_hat:
        assert v == pytest.approx(np.sqrt(0.5), abs=1e-12)


def test_interior_center_scans_all_feasible():
    scan = mscq_kappa_scan(IDENTITY, np.array([2.0, 0.0, 0.0]), seed=2)
    total = scan.sample_count + scan.probe_count
    assert scan.discarded_feasible == (total, total, total)
    assert scan.kappa_hat == (0.0, 0.0, 0.0)
    assert classify_kappa_growth(scan) == "bounded"


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("stratum", TARGET_CASES)
def test_kappa_scan_prefix_reproduces_per_radius_fields(stratum, seed):
    # The draws are shared across radii and every radius goes through the
    # same two batches, so dropping the finest radius must leave the
    # fields of the others exactly as they were.
    m, n = 3 + seed % 3, 2 + seed % 4
    inst, xbar = random_instance(m, n, stratum, seed)
    radii = (1e-1, 1e-2, 1e-3)
    full = mscq_kappa_scan(inst, xbar, radii=radii, samples_per_radius=48, seed=seed)
    head = mscq_kappa_scan(
        inst, xbar, radii=radii[:2], samples_per_radius=48, seed=seed
    )
    assert head.radii == radii[:2]
    for field in (
        "kappa_hat",
        "probe_ratios",
        "discarded_feasible",
        "discarded_floor",
        "probe_valid",
    ):
        assert getattr(head, field) == getattr(full, field)[:2], field


def test_kappa_scan_makes_one_projector_call_and_one_analysis(calls):
    scan = mscq_kappa_scan(TANGENT, np.zeros(2), samples_per_radius=300, seed=0)
    assert all(scan.evaluated(k) > 0 for k in range(len(scan.radii)))
    assert all(scan.probe_valid)
    assert [calls[key] for key in ("build", "batch", "analyze")] == [1, 1, 1]
    # Every radius keeps a probe, so no uniform point is projected: the one
    # certified call holds the k * P probe bases and probes.
    assert [len(X) for X in calls["rows"]] == [len(scan.radii) * scan.probe_count]


def test_kappa_scan_projects_uniform_points_only_at_radii_without_probes(calls):
    # At the degenerate boundary point no probe survives the floor at the
    # finest radius; its kept uniform points, and only they, take the
    # second call.
    doc = parse_instance(str(FIXTURES / "boundary_degenerate.json"))
    xbar = doc.points["xbar"]
    scan = mscq_kappa_scan(doc.instance, xbar, samples_per_radius=300, seed=0)
    finest = len(scan.radii) - 1
    assert scan.probe_valid[finest] == 0 and all(scan.probe_valid[:finest])
    first, second = calls["rows"]
    assert len(first) == len(scan.radii) * scan.probe_count
    assert len(second) == scan.evaluated(finest) > 0
    assert np.all(np.linalg.norm(second - xbar, axis=1) <= scan.radii[finest])
    assert scan.kappa_hat[finest] > 0.0


@pytest.mark.parametrize("stratum", ["Thm4.4(ii)", "Thm4.4(iv)"])
def test_slater_scan_makes_one_certified_call(calls, stratum):
    # Every probe of an infeasible base inherits its distance, so a Slater
    # scan without fallback rows makes a single projector call, and none
    # of its own analyses when handed the point's analysis.
    inst, xbar = random_instance(4, 3, stratum, 1)
    analysis = analyze_point(inst, xbar)
    assert FeasibleSetProjector(inst, analysis).geometry.value == "slater"
    calls.update(build=0, batch=0, analyze=0, rows=[])
    scan = mscq_kappa_scan(inst, analysis, samples_per_radius=48, seed=1)
    assert all(v > 0 for v in scan.probe_valid)
    assert [calls[key] for key in ("build", "batch", "analyze")] == [1, 1, 0]
    assert [len(X) for X in calls["rows"]] == [len(scan.radii) * scan.probe_count]
    assert scan == mscq_kappa_scan(inst, xbar, samples_per_radius=48, seed=1)


#: The input checks of the public names; a scan handed an analysis runs on
#: arrays it built from checked data and calls none of them.
_INPUT_CHECKS = (
    "_point_rows",
    "as_cone_vector",
    "_validated_matrix",
    "_checked_tol",
)


@pytest.mark.parametrize("stratum", TARGET_CASES)
def test_kappa_scan_on_an_analysis_runs_no_input_check(monkeypatch, stratum):
    inst, xbar = random_instance(4, 3, stratum, 2)
    expected = mscq_kappa_scan(inst, xbar, samples_per_radius=48, seed=3)
    # A fresh instance, so that the scan computes the geometry off the
    # vertex too.
    inst = AffineSOCInstance(inst.A, inst.b)
    analysis = analyze_point(inst, xbar)

    def forbidden(name):
        def check(*args, **kwargs):
            raise AssertionError(f"{name} was called")

        return check

    modules = (soc_core, subspace_cone, affine_instance, cq_checker, projection, oracles)
    for module in modules:
        for name in _INPUT_CHECKS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    monkeypatch.setattr(AffineSOCInstance, "_point_rows", forbidden("_point_rows"))
    assert mscq_kappa_scan(inst, analysis, samples_per_radius=48, seed=3) == expected


@pytest.mark.parametrize(
    "stratum, rapidity",
    [("Thm4.4(i)", 0.0), ("Thm4.4(ii)", 0.0), ("Thm4.4(iv)", 0.0), ("Thm4.4(iv)", 3.0)],
)
def test_inherited_probe_distances_match_fresh_projections(stratum, rapidity):
    # A probe inherits ||p - z|| from its base's record; a fresh certified
    # projection of the same probe must agree within the certificate's
    # tolerance tol * max(1, ||p||).
    inherited_rows = 0
    for seed in range(6):
        m, n = 3 + seed % 4, 2 + seed % 5
        inst, xbar = random_instance(m, n, stratum, seed)
        inst = transformed(inst, L=lorentz_boost(np.eye(m - 1)[0], rapidity))[0]
        projector = FeasibleSetProjector(inst, xbar)
        assert projector.geometry.value == "slater"
        rng = np.random.default_rng(seed)
        radii = np.repeat([3.0, 1e-1, 1e-2, 1e-3], 64)
        h = radii / np.repeat([8.0, 8.0, 240.0, 7200.0], 64)
        dirs = rng.standard_normal((radii.size, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        X = xbar + (0.9 * radii * rng.random(radii.size))[:, None] * dirs
        far = _margin_rows(X @ inst.A.T + inst.b) < 0.0
        X, h = X[far], h[far]
        offsets = rng.standard_normal(X.shape)
        offsets /= np.linalg.norm(offsets, axis=1, keepdims=True)
        record = projector.project_batch(X)
        Z, ub, _ = record
        step = np.divide(X - Z, ub[:, None], out=offsets, where=ub[:, None] > 0.0)
        probes = Z + h[:, None] * step
        dist, inherited = projector._ray_distances(record, probes, h)
        fresh = projector.project_batch(probes)
        slack = PROJECTION_TOL * np.maximum(1.0, np.linalg.norm(probes, axis=1))
        assert np.all(fresh.lb[inherited] - slack[inherited] <= dist[inherited])
        assert np.all(dist[inherited] <= fresh.ub[inherited] + slack[inherited])
        inherited_rows += int(np.count_nonzero(inherited))
    assert inherited_rows >= 32


# -- the ball test: a scan whose whole reach lies inside Omega ------------------


@pytest.fixture
def scan_spy(monkeypatch, calls):
    """``calls``, which records the rows of each projector batch, plus the
    count of random generators built (``rng``) and the rows of each
    ``_evaluate`` call that ``oracles._kappa_scan`` makes itself
    (``evaluated``); the projector's own evaluations are not recorded."""
    calls.update(rng=0, evaluated=[])
    default_rng = np.random.default_rng
    evaluate = AffineSOCInstance._evaluate

    def counting_rng(*args, **kwargs):
        calls["rng"] += 1
        return default_rng(*args, **kwargs)

    def evaluating(self, x):
        if sys._getframe(1).f_code is oracles._kappa_scan.__code__:
            calls["evaluated"].append(x.copy())
        return evaluate(self, x)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(AffineSOCInstance, "_evaluate", evaluating)
    return calls


def _sampled_scan(monkeypatch, instance, xbar, seed):
    """The kappa scan's record at 48 samples with the ball test switched
    off, from a projector of its own."""
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_ball_inside", lambda projector, radii: False)
        projector = FeasibleSetProjector(instance, xbar)
        return oracles._kappa_scan(projector, oracles._RADII, 48, seed)


def _interior_scans():
    """(label, instance, xbar, seed): Thm4.4(i) draws as drawn, boosted along
    e_1 at rapidities 1 to 3 and with (A, b) scaled by 1e-3 and 1e3, and the
    identity at (2, 0, 0)."""
    for m, n, seed in [(2, 1, 0), (3, 2, 1), (4, 3, 2), (6, 5, 3), (5, 6, 4)]:
        inst, xbar = random_instance(m, n, "Thm4.4(i)", seed)
        yield f"({m}, {n}, {seed})", inst, xbar, seed
        for rapidity in (1.0, 2.0, 3.0):
            boost = lorentz_boost(np.eye(m - 1)[0], rapidity)
            label = f"({m}, {n}, {seed}) boosted {rapidity:g}"
            yield label, transformed(inst, L=boost)[0], xbar, seed
        for scale in (1e-3, 1e3):
            scaled = AffineSOCInstance(scale * inst.A, scale * inst.b)
            yield f"({m}, {n}, {seed}) scaled {scale:g}", scaled, xbar, seed
    yield "identity", IDENTITY, np.array([2.0, 0.0, 0.0]), 0


def test_ball_test_changes_no_kappa_scan_record(monkeypatch, scan_spy):
    # Where the ball test proves every draw feasible, the record it returns
    # is the sampled one, field by field and type by type, and it is made
    # without a generator or a projection.  Elsewhere the scan samples.
    fired = []
    for label, inst, xbar, seed in _interior_scans():
        sampled = _sampled_scan(monkeypatch, inst, xbar, seed)
        projector = FeasibleSetProjector(inst, xbar)
        scan_spy.update(rng=0, rows=[])
        scan = oracles._kappa_scan(projector, oracles._RADII, 48, seed)
        for name in (field.name for field in fields(KappaScan)):
            same = repr(getattr(scan, name)) == repr(getattr(sampled, name))
            assert same, (label, name)
        if oracles._ball_inside(projector, oracles._RADII):
            fired.append(label)
            assert scan_spy["rng"] == 0 and scan_spy["rows"] == [], label
        else:
            assert scan_spy["rng"] == 1 and scan_spy["rows"], label
    # The draws as drawn, scaled either way, and the identity all fire; the
    # boosted draws fire only where the boost leaves margin enough.
    plain = [label for label, *_ in _interior_scans() if "boosted" not in label]
    assert set(plain) <= set(fired)
    assert len(fired) < len(list(_interior_scans()))


@pytest.mark.parametrize(
    "stratum", [target for target in TARGET_CASES if target != "Thm4.4(i)"]
)
def test_ball_test_samples_off_the_interior(scan_spy, stratum):
    # Without an interior reference the ball test cannot fire: the scan
    # builds its generator and makes its certified call of k * P rows.
    inst, xbar = random_instance(4, 3, stratum, 5)
    projector = FeasibleSetProjector(inst, xbar)
    assert projector.analysis.location is not ConeLocation.INTERIOR
    assert not oracles._ball_inside(projector, oracles._RADII)
    scan_spy.update(rng=0, rows=[])
    scan = oracles._kappa_scan(projector, oracles._RADII, 48, 5)
    assert scan_spy["rng"] == 1
    assert len(scan_spy["rows"][0]) == len(scan.radii) * scan.probe_count


def test_ball_test_samples_an_interior_ball_that_crosses_the_boundary(scan_spy):
    # g(1.05, 1, 0) has margin 0.05, so the ball of radius 0.2 around the
    # point leaves Omega: the scan samples and sees infeasible draws at r_0.
    projector = FeasibleSetProjector(IDENTITY, np.array([1.05, 1.0, 0.0]))
    assert projector.analysis.location is ConeLocation.INTERIOR
    assert not oracles._ball_inside(projector, oracles._RADII)
    scan = oracles._kappa_scan(projector, oracles._RADII, 48, 0)
    assert scan_spy["rng"] == 1
    assert len(scan_spy["rows"][0]) == len(scan.radii) * scan.probe_count
    assert scan.discarded_feasible[0] < scan.sample_count + scan.probe_count


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("stratum", TARGET_CASES)
def test_kappa_scan_rows_lie_within_its_reach(monkeypatch, scan_spy, stratum, seed):
    # The premise of the scan's reach rule and of its ball test: every row
    # the scan evaluates or projects (draws, relocated probes and fallback
    # rows) lies within 2 * radii[0] of the center.  The ball test is off,
    # so that the interior stratum samples too.
    monkeypatch.setattr(oracles, "_ball_inside", lambda projector, radii: False)
    m, n = 3 + seed, 2 + seed
    inst, xbar = random_instance(m, n, stratum, seed)
    projector = FeasibleSetProjector(inst, xbar)
    scan_spy.update(rows=[], evaluated=[])
    oracles._kappa_scan(projector, oracles._RADII, 48, seed)
    rows = scan_spy["evaluated"] + scan_spy["rows"]
    assert scan_spy["evaluated"] and scan_spy["rows"]
    reach = 2.0 * oracles._RADII[0]
    for X in rows:
        assert np.all(np.linalg.norm(X - projector.reference, axis=1) <= reach)


#: Scan records pinned on a seeded draw of every stratum, and of two Slater
#: strata boosted at rapidity 1.  After a deliberate change to the scan,
#: regenerate them with ``PYTHONPATH=src python tests/test_oracles.py``.
PINNED_SCANS = Path(__file__).parent / "data" / "kappa_scan_pins.json"
PIN_CASES = [(target, 0.0) for target in TARGET_CASES] + [
    ("Thm4.4(ii)", 1.0),
    ("Thm4.4(iv)", 1.0),
]
_PINNED_FIELDS = (
    "kappa_hat", "discarded_feasible", "discarded_floor", "probe_valid", "probe_ratios"
)


def _pin_key(target, rapidity):
    return f"{target}@{rapidity:g}"


def _pinned_scan(target, rapidity):
    index = PIN_CASES.index((target, rapidity))
    inst, xbar = random_instance(4, 3, target, seed=index)
    if rapidity:
        inst = transformed(inst, L=lorentz_boost([1.0, 0.0, 0.0], rapidity))[0]
    return mscq_kappa_scan(inst, xbar, samples_per_radius=48, seed=100 + index)


@pytest.mark.parametrize("target, rapidity", PIN_CASES)
def test_kappa_scan_matches_pinned_record(target, rapidity):
    pinned = json.loads(PINNED_SCANS.read_text())[_pin_key(target, rapidity)]
    scan = _pinned_scan(target, rapidity)
    for name in ("discarded_feasible", "discarded_floor", "probe_valid"):
        assert list(getattr(scan, name)) == pinned[name], name
    for name in ("kappa_hat", "probe_ratios"):
        np.testing.assert_allclose(
            getattr(scan, name), pinned[name], rtol=1e-12, atol=0.0, err_msg=name
        )


def _scan(probe_ratios, kappa=None, radii=None, feas=None):
    k = len(probe_ratios) if probe_ratios else 3
    radii = radii or tuple(10.0 ** (-i - 1) for i in range(k))
    probes = len(probe_ratios[0]) if probe_ratios else 1
    return KappaScan(
        radii=radii,
        kappa_hat=kappa or tuple(1.0 for _ in radii),
        sample_count=10,
        seed=0,
        probe_count=probes,
        discarded_feasible=feas or tuple(0 for _ in radii),
        discarded_floor=tuple(0 for _ in radii),
        probe_valid=tuple(
            sum(1 for v in row if v > 0) for row in probe_ratios
        )
        if probe_ratios
        else tuple(0 for _ in radii),
        probe_ratios=tuple(tuple(row) for row in probe_ratios),
    )


#: Boosted Thm4.4(iv) draws whose scan misreads a flat kappa-hat (for
#: (4, 3, 1) it is 49.7, 52.5 and 52.6): the first three read ``growing``,
#: because one probe grows 10x at the finest radius pair, and (5, 4, 3)
#: reads ``inconclusive``.  CRCQ holds at all four.
_NOISE_READ_AS_GROWTH = pytest.mark.xfail(
    strict=True, reason="per-probe growth reads noise as growth (ROADMAP item 1)"
)


@pytest.mark.parametrize(
    "m, n, seed",
    [(4, 3, 3), (5, 4, 0), (6, 5, 2)]
    + [
        pytest.param(*case, marks=_NOISE_READ_AS_GROWTH)
        for case in [(4, 3, 1), (4, 3, 2), (6, 5, 1), (5, 4, 3)]
    ],
)
def test_boosted_vertex_slater_scan_is_bounded(m, n, seed):
    # A Lorentz boost maps Q onto itself, so the feasible set and the
    # bounded error modulus of Thm4.4(iv) survive it.
    inst, xbar = random_instance(m, n, "Thm4.4(iv)", seed)
    inst = transformed(inst, L=lorentz_boost(np.eye(m - 1)[0], 3.0))[0]
    scan = mscq_kappa_scan(inst, xbar, samples_per_radius=48, seed=0)
    assert classify_kappa_growth(scan) == "bounded"


#: Instance documents of harness trials whose kappa scan misses the growth
#: of a failing CRCQ, with the class each reads after the harness's retry.
#: Trial 6 (Cor4.2) of the sweeps at seeds 49, 86, 2231 and 2296, and
#: trial 7 (degenerate-boundary) of three sweeps of the benchmark's harness
#: workload.  A document's ``scan`` record names its sweep, trial, target,
#: trial seed and samples: ``socpcq scan DOC xbar --samples 48 --seed S``
#: repeats the trial's scan, and the retry takes 192 samples at S + 1.
KNOWN_FAILURES = Path(__file__).parent / "data" / "known_failures"
KNOWN_FAILURE_READS = {
    "harness_49_trial6.json": "bounded",
    "harness_86_trial6.json": "inconclusive",
    "harness_2231_trial6.json": "inconclusive",
    "harness_2296_trial6.json": "bounded",
    "harness_2838351648_trial7.json": "inconclusive",
    "harness_1290012697_trial7.json": "inconclusive",
    "harness_2329862637_trial7.json": "inconclusive",
}


def _known_failure_scan_class(name):
    """CRCQ at the document's xbar, and the class its scan reads with the
    harness's settings and one retry."""
    path = KNOWN_FAILURES / name
    doc = parse_instance(str(path))
    seed = json.loads(path.read_text(encoding="utf-8"))["scan"]["trial_seed"]
    inst, xbar = doc.instance, doc.points["xbar"]
    label = classify_kappa_growth(
        mscq_kappa_scan(inst, xbar, samples_per_radius=48, seed=seed)
    )
    if label == "inconclusive":
        scan = mscq_kappa_scan(inst, xbar, samples_per_radius=192, seed=seed + 1)
        label = classify_kappa_growth(scan)
    return full_report(inst, xbar).crcq.holds, label


def test_known_failure_documents_are_listed():
    assert sorted(p.name for p in KNOWN_FAILURES.glob("*.json")) == sorted(
        KNOWN_FAILURE_READS
    )


@pytest.mark.parametrize("name", sorted(KNOWN_FAILURE_READS))
def test_known_failure_documents_repeat_their_trials(name):
    # CRCQ fails at every document's xbar, and its scan reads what its
    # harness trial read.
    assert _known_failure_scan_class(name) == (False, KNOWN_FAILURE_READS[name])


@pytest.mark.xfail(
    strict=True, reason="the scan misses the growth of a failing CRCQ (ROADMAP item 1)"
)
@pytest.mark.parametrize("name", sorted(KNOWN_FAILURE_READS))
def test_known_failing_harness_trials_read_growing(name):
    assert _known_failure_scan_class(name) == (False, "growing")


def test_growth_classification_matches_probes_pairwise():
    grow = _scan([(1.0, 2.0), (30.0, 60.0), (900.0, 1800.0)])
    assert classify_kappa_growth(grow) == "growing"

    flat = _scan([(5.0, 1.0, 3.0)] * 3)
    assert classify_kappa_growth(flat) == "bounded"

    # A large but radius-constant probe must not hide a growing one.
    masked = _scan([(1000.0, 1.0), (1000.0, 50.0)])
    assert classify_kappa_growth(masked) == "growing"

    middling = _scan([(1.0,), (5.0,)])
    assert classify_kappa_growth(middling) == "inconclusive"

    # Finest pair has no surviving probe: the next coarser pair decides.
    gap = _scan([(1.0,), (30.0,), (0.0,)])
    assert classify_kappa_growth(gap) == "growing"


def test_growth_classification_fallbacks():
    # With no radius pair of matched probes, only a scan that saw no ratio
    # at all reads bounded; the per-radius maxima decide nothing.
    no_probes = [(0.0,), (0.0,), (0.0,)]
    assert classify_kappa_growth(_scan(no_probes, kappa=(0.0, 0.0, 0.0))) == "bounded"
    for kappa in [(2.0, 2.0, 2.0), (1.0, 20.0, 400.0), (1.0, 5.0, 25.0), (0.0, 0.0, 5.0)]:
        assert classify_kappa_growth(_scan(no_probes, kappa=kappa)) == "inconclusive"
    # Probes that never survive two consecutive radii match no pair either.
    unmatched = _scan([(3.0,), (0.0,), (7.0,)], kappa=(3.0, 1.0, 7.0))
    assert classify_kappa_growth(unmatched) == "inconclusive"
    # Fully feasible finest ball wins over everything else.
    feasible_finest = _scan(
        [(1.0,), (50.0,), (2500.0,)], kappa=(1.0, 50.0, 2500.0), feas=(0, 0, 11)
    )
    assert classify_kappa_growth(feasible_finest) == "bounded"


def _array_growth_class(scan):
    """``classify_kappa_growth`` in its earlier array form, kept as the
    reference of the loop that replaced it."""
    if scan.discarded_feasible[-1] == scan.sample_count + scan.probe_count:
        return "bounded"
    P = np.asarray(scan.probe_ratios, dtype=float)
    for i in range(len(scan.radii) - 2, -1, -1):
        both = (P[i] > 0.0) & (P[i + 1] > 0.0)
        if not both.any():
            continue
        growth = float((P[i + 1][both] / P[i][both]).max())
        if growth >= oracles._GROWING_MIN_GROWTH:
            return "growing"
        if growth <= oracles._BOUNDED_MAX_GROWTH:
            return "bounded"
        return "inconclusive"
    return "bounded" if not any(scan.kappa_hat) else "inconclusive"


def test_growth_classification_matches_its_array_reference():
    # Random records: 1-4 radii, 1-5 probes, lognormal ratios of which about
    # 40 % are discarded (0.0), some tables with no ratio at all, uniform
    # maxima where a radius has no probe ratio, and random feasible counts
    # that sometimes fill the finest ball.
    rng = np.random.default_rng(0)
    labels = set()
    for _ in range(2000):
        k, p = int(rng.integers(1, 5)), int(rng.integers(1, 6))
        ratios = rng.lognormal(0.0, 2.0, (k, p)) * (rng.random((k, p)) >= 0.4)
        if rng.random() < 0.1:
            ratios[:] = 0.0
        uniform = rng.lognormal(0.0, 1.0, k) * (rng.random(k) < 0.5)
        kappa = np.where(ratios.any(axis=1), ratios.max(axis=1), uniform)
        feas = rng.integers(0, 10 + p + 1, k)
        kappa, feas = tuple(kappa.tolist()), tuple(feas.tolist())
        scan = _scan(ratios.tolist(), kappa=kappa, feas=feas)
        label = classify_kappa_growth(scan)
        assert label == _array_growth_class(scan), scan
        labels.add(label)
    assert labels == {"bounded", "growing", "inconclusive"}


# -- FCR dimension scan -------------------------------------------------------


def test_dim_scan_flags_degenerate_boundary_center():
    scan = fcr_dim_scan(HALFPLANE, np.array([1.0, 0.0, 0.0]), seed=0)
    assert scan.observed_dims == frozenset({0, 1})
    assert not scan.consistent


def test_dim_scan_interior_point():
    assert fcr_dim_scan(IDENTITY, np.array([2.0, 0.0, 0.0]), seed=0) is None


def test_dim_scan_smooth_boundary_point():
    inst = AffineSOCInstance(np.eye(3), np.array([1.0, 1.0, 0.0]))
    scan = fcr_dim_scan(inst, np.zeros(3), seed=0)
    assert scan.observed_dims == frozenset({1})
    assert scan.consistent


def test_dim_scan_vertex_faces():
    assert fcr_dim_scan(HALFPLANE, np.zeros(3), seed=0) is None


FIXTURES = Path(oracles.__file__).parent / "fixtures"


@pytest.mark.parametrize(
    "stratum", ["Thm4.4(i)", "Thm4.4(iv)", "Thm4.4(v)", "Thm4.4(vi)", "Cor4.2"]
)
def test_dim_scan_off_the_positive_boundary_sees_single_dimensions(stratum):
    # Off the positive boundary FCR holds (Thm 3.2 (i)/(ii)), so the scan
    # has no face to sample.
    for seed in range(20):
        m, n = 3 + seed % 4, 2 + seed % 5
        inst, xbar = random_instance(m, n, stratum, seed)
        analysis = analyze_point(inst, xbar)
        assert analysis.location is not ConeLocation.POSITIVE_BOUNDARY
        assert fcr_dim_scan(inst, analysis, seed=seed) is None
        assert full_report(inst, analysis).fcr.holds


def test_dim_scan_at_the_fixture_vertices_sees_single_dimensions():
    vertices = 0
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_instance(str(path))
        for x in doc.points.values():
            y = doc.instance.evaluate(x)
            if classify_cone_point(y, doc.instance.tol) is not ConeLocation.ZERO:
                continue
            vertices += 1
            assert fcr_dim_scan(doc.instance, x, seed=0) is None
            assert full_report(doc.instance, x).fcr.holds
    assert vertices == 3


def test_dim_scan_consistency_predicate():
    good = DimScan(frozenset({1}), 10, 0, 0.1, 0)
    bad = DimScan(frozenset({0, 1}), 10, 0, 0.1, 0)
    assert good.consistent
    assert not bad.consistent


def _scan_radius_rule(analysis) -> float:
    """min(0.1, 0.1 ||g_r(x)|| / max(1, sigma_max(A))), from the SVD."""
    a_op = np.linalg.svd(analysis.instance.A, compute_uv=False)[0]
    return min(0.1, 0.1 * np.linalg.norm(analysis.y[1:]) / max(1.0, a_op))


def test_dim_scan_radius_follows_the_point():
    # The scan owns its radius, which keeps the ball's image clear of the
    # vertex, so no sample is discarded; the record carries it.
    points = []
    for path in sorted(FIXTURES.glob("*.json")):
        doc = parse_instance(str(path))
        points += [(doc.instance, x) for x in doc.points.values()]
    for stratum in ("Thm4.4(ii)", "Thm4.4(iii)", "degenerate-boundary"):
        for seed in range(40):
            points.append(random_instance(3 + seed % 4, 1 + seed % 5, stratum, seed))
    scanned = 0
    for instance, x in points:
        try:
            analysis = analyze_point(instance, x)
        except InfeasiblePointError:
            continue
        if analysis.location is not ConeLocation.POSITIVE_BOUNDARY:
            continue
        scanned += 1
        scan = fcr_dim_scan(instance, analysis, samples=64, seed=scanned)
        assert scan.radius == pytest.approx(_scan_radius_rule(analysis), rel=1e-12)
        assert (scan.sample_count, scan.discarded) == (65, 0)
    assert scanned >= 120


# The FCR scan's wide-data case: A = [[9e153, 0], [9e153, 0], [0, 1e150]],
# b = (9.3e153, 9.3e153, 0) and xbar = 0 give a positive-boundary point whose
# ball of radius 0.073 reaches images past the magnitude rule.
A_WIDE = [[9e153, 0.0], [9e153, 0.0], [0.0, 1e150]]
B_WIDE = [9.3e153, 9.3e153, 0.0]


def test_dim_scan_radius_obeys_the_magnitude_rule(scan_spy, monkeypatch):
    # The scan refuses before any draw, by the kappa scan's reach rule, and
    # without numpy's overflow warning, which the test run turns into an
    # error; it once returned dims {0} with 20 of 65 rows discarded.
    monkeypatch.setattr(oracles, "_proved_dim", None)
    wide = AffineSOCInstance(np.array(A_WIDE), np.array(B_WIDE))
    analysis = analyze_point(wide, np.zeros(2))
    assert analysis.location is ConeLocation.POSITIVE_BOUNDARY
    scan_spy.update(rng=0)
    with pytest.raises(DimensionError, match=r"radius 0\.073\d* takes the FCR scan's"):
        fcr_dim_scan(wide, analysis, samples=64)
    assert scan_spy["rng"] == 0


# -- the FCR closed form: a record a gradient bound proves --------------------


def _sampled_dim_scan(monkeypatch, instance, xbar, seed):
    """The FCR scan's record at 64 samples with the closed form switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "_proved_dim", lambda *args: None)
        return fcr_dim_scan(instance, xbar, samples=64, seed=seed)


def _proved(instance, xbar):
    """``oracles._proved_dim`` at the scan's own sigma, radius and bound."""
    analysis = analyze_point(instance, xbar)
    sigma = float(analysis.geometry.singular_values[0])
    radius = min(0.1, 0.1 * np.linalg.norm(analysis.y[1:]) / max(1.0, sigma))
    bound = oracles._check_reach(instance, xbar, radius, "")
    return oracles._proved_dim(analysis, sigma, radius, bound)


def _boundary_scans():
    """(label, instance, xbar, seed): Thm4.4(ii) and (iii) draws as drawn,
    boosted along e_1 at rapidities 1 to 3 and with (A, b) scaled by 1e-3
    and 1e3."""
    for stratum in ("Thm4.4(ii)", "Thm4.4(iii)"):
        for m, n, seed in [(2, 1, 0), (3, 2, 1), (4, 3, 2), (6, 5, 3), (5, 6, 4)]:
            inst, xbar = random_instance(m, n, stratum, seed)
            label = f"{stratum} ({m}, {n}, {seed})"
            yield label, inst, xbar, seed
            for rapidity in (1.0, 2.0, 3.0):
                boost = lorentz_boost(np.eye(m - 1)[0], rapidity)
                boosted = transformed(inst, L=boost)[0]
                yield f"{label} boosted {rapidity:g}", boosted, xbar, seed
            for scale in (1e-3, 1e3):
                scaled = AffineSOCInstance(scale * inst.A, scale * inst.b)
                yield f"{label} scaled {scale:g}", scaled, xbar, seed


def test_dim_scan_closed_form_changes_no_record(monkeypatch, scan_spy):
    # Where the gradient bound proves the record, it is the sampled one,
    # field by field and type by type, and it is made without a generator.
    # Elsewhere the scan samples.
    fired = {}
    for label, inst, xbar, seed in _boundary_scans():
        sampled = _sampled_dim_scan(monkeypatch, inst, xbar, seed)
        scan_spy.update(rng=0)
        scan = fcr_dim_scan(inst, xbar, samples=64, seed=seed)
        for name in (field.name for field in fields(DimScan)):
            same = repr(getattr(scan, name)) == repr(getattr(sampled, name))
            assert same, (label, name)
        dim = _proved(inst, xbar)
        assert scan_spy["rng"] == (dim is None), label
        if dim is not None:
            fired[label] = dim
    # Every draw as drawn and scaled fires, (ii) with d = 1 and (iii) with
    # d = 0; some boosted (ii) draws lose the Lipschitz bound and sample.
    for label, *_ in _boundary_scans():
        if "boosted" not in label:
            assert fired.get(label) == (0 if "Thm4.4(iii)" in label else 1), label
    assert len(fired) < len(list(_boundary_scans()))


def test_dim_scan_closed_form_samples_where_the_draws_decide(scan_spy):
    # A degenerate-boundary point reads {0, 1}, which only the draws show,
    # and so does HALFPLANE at (1, 0, 0).  The (ii) point g(x) = (1 + 10 x,
    # 1 + 9 x, 0) at x = 0 has grad phi = 1 below the Lipschitz loss
    # 2 sigma^2 rho / ||g_r|| = 0.2 sigma = 2.69: no bound proves its
    # record, though the draws read {1}.
    steep = AffineSOCInstance(np.array([[10.0], [9.0], [0.0]]), np.array([1.0, 1.0, 0]))
    assert full_report(steep, np.zeros(1)).crcq.condition == "Thm4.4(ii)"
    # g(x) = (1.05e-9, 1.05e-9 - x, 0) at x = 0 has grad phi = 1, but the
    # ball of radius 1.05e-10 reaches images with ||g_r|| below tol, which
    # the scan discards.
    b_near = np.array([1.05e-9, 1.05e-9, 0.0])
    near = AffineSOCInstance(np.array([[0.0], [-1.0], [0.0]]), b_near)
    points = [
        (HALFPLANE, np.array([1.0, 0.0, 0.0]), {0, 1}),
        (steep, np.zeros(1), {1}),
        (near, np.zeros(1), {1}),
    ]
    for m, n, seed in [(3, 1, 0), (3, 2, 1), (4, 3, 2), (6, 5, 3), (5, 6, 4)]:
        inst, xbar = random_instance(m, n, "degenerate-boundary", seed)
        points.append((inst, xbar, {0, 1}))
    for inst, xbar, dims in points:
        assert _proved(inst, xbar) is None
        scan_spy.update(rng=0)
        scan = fcr_dim_scan(inst, xbar, samples=64, seed=0)
        assert scan.observed_dims == dims
        assert scan_spy["rng"] == 1
        assert (scan.discarded > 0) == (inst is near)


@pytest.mark.parametrize("case", ["reducible", "d = 1", "d = 0"])
def test_dim_scan_closed_form_fires_only_with_its_slack_to_spare(case):
    # At x = 0 with m = 3, n = 1 and b = (c, c, 0), each test fires once
    # its quantity clears its bar by twice its slack, 64 (m + 1)(n + 1) eps
    # (the image bound and ||A||_F are at most 1), and not by half of it;
    # the draws read the same record either way.
    # * reducible: the column (0, -1, 0) has sigma = 1, rho = 0.1 c and
    #   grad phi = 1, and every image of the ball has ||g_r|| >= 0.9 c, which
    #   the test holds to tol;
    # * d = 1: the column (s, 0, 0) has grad phi = s everywhere;
    # * d = 0: the column (0.5, 0.5, r) has grad phi(xbar) = 0 and the
    #   vanishing bound sqrt(2) r, up to terms of order 1e-26.
    tol, slack = 1e-9, 64 * 4 * 2 * np.finfo(float).eps
    for spare, fires in ((2.0, True), (0.5, False)):
        c, dim = 1.0, 0 if case == "d = 0" else 1
        if case == "reducible":
            c = (tol + spare * slack) / 0.9
            column = [0.0, -1.0, 0.0]
        elif case == "d = 1":
            column = [tol + spare * slack, 0.0, 0.0]
        else:
            column = [0.5, 0.5, (tol - spare * slack) / np.sqrt(2.0)]
        inst = AffineSOCInstance(np.array(column)[:, None], np.array([c, c, 0.0]))
        assert _proved(inst, np.zeros(1)) == (dim if fires else None)
        scan = fcr_dim_scan(inst, np.zeros(1), samples=64)
        assert (scan.observed_dims, scan.sample_count) == ({dim}, 65)


# -- brute-force subspace classification --------------------------------------


def test_brute_force_classification_frozen_cases():
    full = brute_force_subspace_class(np.eye(3))
    assert full.kind is SubspaceKind.MEETS_INTERIOR
    assert cone_margin(full.witness) > 1e-6

    zero = brute_force_subspace_class(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert zero.kind is SubspaceKind.ZERO_ONLY
    # Im(0) = {0} has no unit vector to sample.
    assert brute_force_subspace_class(np.zeros((3, 2))).kind is SubspaceKind.ZERO_ONLY

    ray = brute_force_subspace_class(A_HALFPLANE)
    assert ray.kind is SubspaceKind.RAY
    assert np.allclose(ray.ray, [np.sqrt(0.5), np.sqrt(0.5), 0.0], atol=1e-6)

    line = brute_force_subspace_class(np.array([[1.0], [-1.0], [0.0]]))
    assert line.kind is SubspaceKind.RAY
    assert np.allclose(line.ray, [np.sqrt(0.5), -np.sqrt(0.5), 0.0], atol=1e-12)


# -- stratified generator ------------------------------------------------------


def test_random_instance_realizes_each_stratum():
    for target in TARGET_CASES:
        inst, xbar = random_instance(5, 4, target, seed=3)
        report = full_report(inst, xbar)
        loc = report.point_analysis.location
        if target == "Thm4.4(i)":
            assert loc is ConeLocation.INTERIOR
        elif target in ("Thm4.4(ii)", "Thm4.4(iii)", "degenerate-boundary"):
            assert loc is ConeLocation.POSITIVE_BOUNDARY
        else:
            assert loc is ConeLocation.ZERO
        if target.startswith("Thm4.4"):
            assert report.crcq.holds
            assert report.crcq.condition == target
        elif target == "Cor4.2":
            assert not report.crcq.holds
            assert not report.h_closed.holds
            assert report.h_closed.evidence.get("reason") == "Cor 4.2"
        else:  # degenerate boundary point
            assert not report.fcr.holds
            assert not report.crcq.holds


def test_random_instance_is_deterministic_per_seed():
    a1, x1 = random_instance(4, 3, "Thm4.4(ii)", seed=9)
    a2, x2 = random_instance(4, 3, "Thm4.4(ii)", seed=9)
    assert np.array_equal(a1.A, a2.A)
    assert np.array_equal(a1.b, a2.b)
    assert np.array_equal(x1, x2)
    b1, _ = random_instance(4, 3, "Thm4.4(ii)", seed=10)
    assert not np.array_equal(a1.A, b1.A)


def test_random_instance_rejects_bad_requests():
    with pytest.raises(GenerationError):
        random_instance(4, 3, "Thm9.9(x)")
    with pytest.raises(GenerationError):
        random_instance(2, 3, "Cor4.2")  # needs m >= 3
    with pytest.raises(GenerationError):
        random_instance(3, 1, "Cor4.2")  # needs n >= 2
    with pytest.raises(GenerationError, match="requires n >= 1"):
        random_instance(3, 0, "Thm4.4(i)")
    with pytest.raises(GenerationError):
        random_instance(2, 2, "degenerate-boundary")


#: A stratum and the stratum whose candidates stand in for its own: a
#: Thm4.4(i) draw fails the label test of Thm4.4(ii), a Cor4.2 draw (CRCQ
#: fails, at the vertex) the location test of degenerate-boundary.
STAND_IN = {"Thm4.4(ii)": "Thm4.4(i)", "degenerate-boundary": "Cor4.2"}


@pytest.mark.parametrize("target", sorted(STAND_IN))
def test_generator_gives_up_after_its_retries(monkeypatch, target):
    # A stratum that no candidate realizes raises GenerationError from the
    # generator, and is a failure row of the harness, not an abort.
    build = families._build_candidate

    def stand_in(rng, m, n, target_case):
        if target_case == target:
            target_case = STAND_IN[target]
        return build(rng, m, n, target_case)

    monkeypatch.setattr(families, "_build_candidate", stand_in)
    message = (
        f"failed to realize target case {target} with m={{}}, n={{}} "
        f"after {families._MAX_RETRIES} attempts"
    )
    with pytest.raises(GenerationError, match=f"^{re.escape(message.format(4, 3))}$"):
        random_instance(4, 3, target, 0)
    # At seed 1 the degenerate-boundary trial draws n = 2, the least n of
    # the Cor4.2 candidates that stand in for it.
    report = equivalence_harness(len(TARGET_CASES), seed=1)
    index = TARGET_CASES.index(target)
    assert [row.index for row in report.rows] == [
        t for t in range(len(TARGET_CASES)) if t != index
    ]
    ((t, error),) = report.failures
    assert t == index
    m, n = re.search(r"with m=(\d+), n=(\d+)", error).groups()
    assert error == "GenerationError: " + message.format(m, n)


def test_random_instance_rejects_non_integer_sizes():
    # m and n take the integer rule of the seeds and counts; a numpy
    # integer is one, and draws what the int draws.
    for m, n in ((4.0, 3), (4, "3"), (True, 3), (4, None)):
        with pytest.raises(ValueError, match="must be an integer"):
            random_instance(m, n, "Thm4.4(i)")
    inst, xbar = random_instance(np.int64(4), np.int64(3), "Thm4.4(i)", np.int64(2))
    ref, ref_xbar = random_instance(4, 3, "Thm4.4(i)", 2)
    assert inst.A.tobytes() == ref.A.tobytes() and xbar.tobytes() == ref_xbar.tobytes()


# -- equivalence harness --------------------------------------------------------


def test_harness_small_run_is_clean():
    report = equivalence_harness(16, seed=7)
    assert report.clean
    assert len(report.rows) == 16
    for row in report.rows:
        assert row.agree
        assert row.fcr_agree
        assert row.invariant_violations == 0
        assert row.target_case == TARGET_CASES[row.index % len(TARGET_CASES)]
        expected = "bounded" if row.crcq_holds else "growing"
        assert row.scan_class == expected


def test_harness_fixed_instance_mode():
    report = equivalence_harness(
        2, seed=11, fixed_instance=TANGENT, fixed_point=np.zeros(2)
    )
    assert report.clean
    for row in report.rows:
        assert row.target_case == "fixed"
        assert (row.m, row.n) == (3, 2)
        assert not row.crcq_holds
        assert row.scan_class == "growing"
        assert row.agree


@pytest.mark.parametrize(
    "fixed",
    [{"fixed_point": np.zeros(2)}, {"fixed_instance": TANGENT}],
    ids=["point-alone", "instance-alone"],
)
def test_harness_fixed_instance_and_point_come_together(calls, fixed):
    # One without the other is rejected before any trial runs.
    with pytest.raises(ValueError, match="fixed_instance and fixed_point together"):
        equivalence_harness(2, seed=11, **fixed)
    assert calls["analyze"] == calls["build"] == 0


def test_harness_counts_invariant_violations(monkeypatch):
    # A report that breaks an invariant is a disagreement of its trial, not
    # an abort of the sweep; the public report and generator still raise.
    monkeypatch.setattr(
        cq_checker, "verify_report_invariants", lambda report: ["forced"]
    )
    report = equivalence_harness(1, seed=0)
    assert [row.invariant_violations for row in report.rows] == [1]
    assert report.disagreements == (0,)
    assert not report.failures and not report.inconclusive
    with pytest.raises(AssertionError, match="internal verdict inconsistency: forced"):
        full_report(TANGENT, np.zeros(2))
    with pytest.raises(AssertionError, match="internal verdict inconsistency: forced"):
        random_instance(3, 2, "Thm4.4(i)", 0)


def test_harness_analyzes_each_trial_point_once(calls):
    # A fixed point is decided once: its report's analysis builds the one
    # projector that every trial's scans sample against.
    report = equivalence_harness(
        3, seed=11, fixed_instance=TANGENT, fixed_point=np.zeros(2)
    )
    assert report.clean
    assert calls["analyze"] == 1
    assert calls["build"] == 1


def test_harness_analyzes_each_random_trial_point_once(calls, monkeypatch):
    # A random trial's report is the one its generator's self-check decided
    # from, so each drawn candidate is analyzed once and nothing else is.
    candidates = []
    build = families._build_candidate

    def counting(*args):
        candidates.append(args[-1])
        return build(*args)

    monkeypatch.setattr(families, "_build_candidate", counting)
    report = equivalence_harness(8, seed=11)
    assert report.clean
    assert candidates == list(TARGET_CASES)
    assert calls["analyze"] == 8
    assert calls["build"] == 8


def test_harness_retries_a_scan_against_its_trials_projector(calls, monkeypatch):
    # A forced inconclusive first scan is retried with four times the
    # samples against the projector the trial already built.
    scans = []
    scan = oracles._kappa_scan

    def recording(projector, radii, samples, seed):
        scans.append((projector, samples))
        return scan(projector, radii, samples, seed)

    labels = iter(["inconclusive"])
    classify = oracles.classify_kappa_growth
    monkeypatch.setattr(oracles, "_kappa_scan", recording)
    monkeypatch.setattr(
        oracles, "classify_kappa_growth", lambda s: next(labels, None) or classify(s)
    )
    report = equivalence_harness(1, seed=0)
    assert report.clean and report.rows[0].retried
    assert calls["build"] == 1
    assert [samples for _, samples in scans] == [48, 192]
    assert scans[0][0] is scans[1][0]


def test_harness_runs_the_dim_scan_on_the_positive_boundary_only(monkeypatch):
    scans = []
    scan = oracles.fcr_dim_scan

    def recording(instance, xbar, *args, **kwargs):
        scans.append((xbar.location, scan(instance, xbar, *args, **kwargs)))
        return scans[-1][1]

    monkeypatch.setattr(oracles, "fcr_dim_scan", recording)
    report = equivalence_harness(8, seed=11)
    assert report.clean
    # One call per trial; only Thm4.4(ii), Thm4.4(iii) and
    # degenerate-boundary lie on the positive boundary and get a scan.
    assert len(scans) == 8
    scanned = [location for location, result in scans if result is not None]
    assert scanned == [ConeLocation.POSITIVE_BOUNDARY] * 3


def test_harness_reads_a_floored_degenerate_boundary_scan_as_inconclusive():
    # Trial 7 (degenerate-boundary, m = 3, n = 1): in its first scan the
    # absolute ratio floor drops every probe at the two finer radii, so no
    # radius pair has matched probes, and the radius-independent per-radius
    # maxima (1.56e5, 1.91e7, 2.44e7) must not read as bounded.
    report = equivalence_harness(8, seed=90075)
    row = report.rows[7]
    assert (row.target_case, row.m, row.n) == ("degenerate-boundary", 3, 1)
    assert not row.crcq_holds
    assert row.retried
    assert row.scan_class == "inconclusive"
    assert 7 in report.inconclusive
    assert 7 not in report.disagreements


def test_harness_rejects_zero_trials():
    for trials in (0, True, 2.9, "2"):
        with pytest.raises(ValueError, match="trials"):
            equivalence_harness(trials)
    for seed in BAD_SEEDS:
        with pytest.raises(ValueError, match="seed"):
            equivalence_harness(1, seed=seed)
    assert equivalence_harness(np.int64(1)).trials == 1


def test_harness_and_cli_share_one_trials_rule(monkeypatch, capsys):
    # The CLI rejects --trials through the harness's own rule, before any
    # instance file is read, and turns only that rule's ValueError into a
    # parse error: one raised by a run in progress propagates.
    seen = []
    rule = oracles._count

    def recording(value, name):
        seen.append(value)
        return rule(value, name)

    monkeypatch.setattr(cli, "_count", recording)
    assert cli.main(["harness", "--trials", "-3", "--instance", "missing.json"]) == 2
    assert seen == [-3]
    assert capsys.readouterr().err == (
        "error: invalid --trials: trials must be at least 1, got -3\n"
    )
    with pytest.raises(ValueError, match="trials must be at least 1, got -3"):
        equivalence_harness(-3)

    def failing(**kwargs):
        raise ValueError("inside the run")

    monkeypatch.setattr(oracles, "equivalence_harness", failing)
    with pytest.raises(ValueError, match="inside the run"):
        cli.main(["harness", "--trials", "1"])


#: Harness rows pinned on a random sweep and on a fixed run at a vertex; they
#: are regenerated together with the scan pins.
PINNED_HARNESS = Path(__file__).parent / "data" / "harness_pins.json"
HARNESS_PIN_CASES = {
    "random@seed0": dict(trials=64, seed=0),
    "vertex_halfplane@origin": dict(
        trials=4, seed=0, fixed_instance=HALFPLANE, fixed_point=np.zeros(3)
    ),
}


def _harness_record(report):
    return {
        "rows": [
            {**row.__dict__, "kappa_hat": list(row.kappa_hat)} for row in report.rows
        ],
        "disagreements": list(report.disagreements),
        "inconclusive": list(report.inconclusive),
        "failures": [list(f) for f in report.failures],
    }


@pytest.mark.parametrize("key", HARNESS_PIN_CASES)
def test_harness_matches_pinned_rows(key):
    pinned = json.loads(PINNED_HARNESS.read_text())[key]
    record = _harness_record(equivalence_harness(**HARNESS_PIN_CASES[key]))
    assert {k: v for k, v in record.items() if k != "rows"} == {
        k: v for k, v in pinned.items() if k != "rows"
    }
    assert len(record["rows"]) == len(pinned["rows"])
    for row, pin in zip(record["rows"], pinned["rows"]):
        kappa, pinned_kappa = row.pop("kappa_hat"), pin.pop("kappa_hat")
        assert row == pin
        np.testing.assert_allclose(kappa, pinned_kappa, rtol=1e-12, atol=0.0)


if __name__ == "__main__":
    PINNED_SCANS.parent.mkdir(exist_ok=True)
    records = {}
    for case in PIN_CASES:
        scan = _pinned_scan(*case)
        records[_pin_key(*case)] = {name: getattr(scan, name) for name in _PINNED_FIELDS}
    PINNED_SCANS.write_text(json.dumps(records, indent=1) + "\n")
    harness = {
        key: _harness_record(equivalence_harness(**kwargs))
        for key, kwargs in HARNESS_PIN_CASES.items()
    }
    PINNED_HARNESS.write_text(json.dumps(harness, indent=1) + "\n")

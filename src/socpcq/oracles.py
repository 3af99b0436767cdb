"""Sampling- and optimization-based verifiers for the analytic verdicts.

Everything here is independent of the closed-form decision procedures: the
scans rederive the qualitative behavior (error-bound ratios, face
dimensions, subspace-cone contact) from brute numerics so the two routes
can be compared on every instance.

Key design points:

* ``mscq_kappa_scan`` samples uniformly in shrinking balls and additionally
  plants "probe" points hugging the feasible set at a per-radius offset
  ``h_k = r_k / (8 * 30^k)``.  Near degenerate points the worst
  distance ratios live in a vanishingly thin sliver around the feasible
  set that uniform sampling alone almost never hits (for conic vertices
  the uniform ratio distribution is even exactly radius-invariant), so the
  probes are what make the bounded/growing separation reproducible.  All
  radii share common random draws, which makes the ratio between
  consecutive kappa estimates deterministic and tight.
* One scan builds one projector, whose construction is also the scan's
  point analysis (none when it is handed the point's ``PointAnalysis``),
  and makes one certified projector call for all radii together: the
  infeasible probe bases, every kept uniform point and the probes of
  feasible bases.  A probe p = z + h (x - z) / ub of an infeasible base x
  with anchor z lies on the ray from z in Omega through x, so convexity
  and 1-Lipschitz continuity of dist(., Omega) give
  dist(p, Omega) in [h - max(1, h / ub) (ub - lb), ||p - z||] from the
  base's record (ub, lb); p inherits ||p - z|| when that interval is
  within the projector's gap tol * max(1, ||p||).  Wider intervals, and
  bases at distance 0, take one fallback call, so every ratio still
  rests on a certified distance; a failure reports the worst gap across
  all radii.
* Ratios are only formed at points with cone distance above an absolute
  floor of 1e-12 to keep the quotients numerically meaningful.
* ``random_instance`` builds one representative per characterization
  stratum and self-checks the realized geometry, from the draw's
  ``full_report``, before returning it; the harness decides each random
  trial from that same report, so a trial analyzes its point once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine_instance import AffineSOCInstance, analyze_point, grad_phi_many
from .cq_checker import full_report, verify_report_invariants
from .errors import GenerationError, NumericalFailureError
from .projection import PROJECTION_TOL, BatchProjection, FeasibleSetProjector
from .soc_core import ConeLocation, distances_to_cone, margins
from .subspace_cone import SubspaceConeClass, SubspaceKind, image_basis

__all__ = [
    "KappaScan",
    "DimScan",
    "TrialRecord",
    "HarnessReport",
    "mscq_kappa_scan",
    "classify_kappa_growth",
    "fcr_dim_scan",
    "dim_scan_consistent",
    "brute_force_subspace_class",
    "random_instance",
    "TARGET_CASES",
    "equivalence_harness",
]

#: Absolute floor under which cone distances are considered numerically
#: zero and the corresponding ratio is discarded.
RATIO_DISTANCE_FLOOR = 1e-12

#: Per-radius probe offset divisors: h_k = r_k / PROBE_DIVISOR_BASE**(k+1)...
_PROBE_DIVISOR0 = 8.0
_PROBE_DIVISOR_GROWTH = 30.0

#: Planted probes per radius: one per 8 uniform samples, at least 16.
_MIN_PROBES = 16
_SAMPLES_PER_PROBE = 8

#: Growth of the probe ratio between consecutive radii at or below which
#: the modulus reads ``bounded``, and at or above which it reads ``growing``.
_BOUNDED_MAX_GROWTH = 2.0
_GROWING_MIN_GROWTH = 10.0


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KappaScan:
    """Per-radius worst observed dist(x, Omega) / dist(g(x), Q_m).

    ``kappa_hat`` is driven by the boundary-hugging probes whenever any
    probe survives the feasibility/floor filters at that radius, because
    only the probes carry a radius-dependent signal: on conic geometries
    the distance ratio is exactly scale-invariant, so the per-radius max
    over uniform draws is a radius-independent heavy-tailed constant that
    would mask genuine unboundedness.  The uniform max is still recorded
    in ``uniform_kappa_hat``.
    """

    radii: tuple[float, ...]
    kappa_hat: tuple[float, ...]
    sample_count: int
    seed: int
    probe_count: int = 0
    discarded_feasible: tuple[int, ...] = ()
    discarded_floor: tuple[int, ...] = ()
    probe_valid: tuple[int, ...] = ()
    uniform_kappa_hat: tuple[float, ...] = ()
    #: per-radius ratio of each planted probe (0.0 where the probe was
    #: discarded); probes share their base draw across radii, so row-wise
    #: comparisons isolate the radius dependence.
    probe_ratios: tuple[tuple[float, ...], ...] = ()

    def evaluated(self, k: int) -> int:
        """Number of ratio-bearing samples at radius index k."""
        total = self.sample_count + self.probe_count
        return total - self.discarded_feasible[k] - self.discarded_floor[k]


@dataclass(frozen=True)
class DimScan:
    """Observed dimensions of A^*(F-perp) over a sampled neighborhood."""

    face_label: str
    observed_dims: frozenset[int]
    sample_count: int
    seed: int
    discarded: int = 0


@dataclass(frozen=True)
class TrialRecord:
    index: int
    target_case: str
    m: int
    n: int
    crcq_holds: bool
    crcq_condition: Optional[str]
    scan_class: str
    kappa_hat: tuple[float, ...]
    agree: bool
    retried: bool
    fcr_consistent: bool
    fcr_agree: bool
    invariant_violations: int


@dataclass(frozen=True)
class HarnessReport:
    trials: int
    seed: int
    rows: tuple[TrialRecord, ...]
    disagreements: tuple[int, ...]
    inconclusive: tuple[int, ...]
    failures: tuple[tuple[int, str], ...]

    @property
    def clean(self) -> bool:
        return not (self.disagreements or self.inconclusive or self.failures)


# ---------------------------------------------------------------------------
# kappa scan
# ---------------------------------------------------------------------------


def _uniform_ball_directions(rng: np.random.Generator, count: int, n: int):
    d = rng.standard_normal((count, n))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    u = rng.random(count) ** (1.0 / n)
    return d, u


def _anchored_probes(record: BatchProjection, X, h, offsets):
    """Probes a distance ``h`` off the projections of the rows ``X``.

    ``record`` is the certified projection of ``X``.  A row with ub > 0
    steps from its anchor z along the exact outward normal,
    p = z + h (x - z) / ub, which carries the worst ratios; the others
    step along their fixed random unit ``offsets``.  The normal probe lies
    on the ray from z in Omega through x, so convexity and 1-Lipschitz
    continuity of dist(., Omega) along that ray put

        dist(p, Omega) in [h - max(1, h / ub) (ub - lb), ||p - z||],

    and the probe inherits the upper end as its distance when the interval
    is no wider than the projector's own gap, ``PROJECTION_TOL`` *
    max(1, ||p||).
    Returns (probes, distances, inherited), the distances being valid on
    the inherited rows only.
    """
    Z, ub, lb = record
    normal = ub > 0.0
    step = np.divide(
        X - Z, ub[:, None], out=np.array(offsets, dtype=float), where=normal[:, None]
    )
    probes = Z + h[:, None] * step
    dist = np.linalg.norm(probes - Z, axis=1)
    # The interval's width times ub, free of a division by a tiny ub.
    width_ub = (dist - h) * ub + (ub - lb) * np.maximum(ub, h)
    limit = PROJECTION_TOL * np.maximum(1.0, np.linalg.norm(probes, axis=1))
    return probes, dist, normal & (width_ub <= limit * ub)


def mscq_kappa_scan(
    instance: AffineSOCInstance,
    xbar,
    radii=(1e-1, 1e-2, 1e-3),
    samples_per_radius: int = 200,
    seed: int = 0,
) -> KappaScan:
    """Empirical error-bound moduli in shrinking balls around ``xbar``.

    ``xbar`` is a feasible point or its ``PointAnalysis``.  For each radius
    the scan draws uniform ball samples plus probe points planted a tiny
    offset off the feasible set, discards feasible draws and draws whose
    cone distance is below ``RATIO_DISTANCE_FLOOR``, and records the
    largest distance ratio.  ``kappa_hat`` prefers the probe ratios (see
    :class:`KappaScan`); identical seeds share the random draws across
    radii so consecutive ratios compare like with like, and a scan over a
    prefix of ``radii`` reproduces that prefix of every per-radius field.

    All radii go through one certified projector call: the infeasible
    probe bases, every kept uniform point and the probes of feasible bases
    (a feasible base is its own anchor).  A probe of an infeasible base
    inherits its distance from its base's record by the interval of
    ``_anchored_probes``; the probes whose interval is wider than the
    projector's gap, and those of bases at distance 0, take one fallback
    call.  A ``NumericalFailureError`` reports the worst gap across all
    radii.  The projector's construction is also the scan's one point
    analysis, and none when ``xbar`` is an analysis of ``instance``.
    """
    radii = tuple(float(r) for r in radii)
    if not all(math.isfinite(r) and r > 0.0 for r in radii) or any(
        a <= b for a, b in zip(radii, radii[1:])
    ):
        raise ValueError("radii must be positive, finite and strictly decreasing")
    samples_per_radius = int(samples_per_radius)
    if samples_per_radius < 1:
        raise ValueError("samples_per_radius must be positive")
    projector = FeasibleSetProjector(instance, xbar)
    center = projector.reference
    n = instance.n
    S, k = samples_per_radius, len(radii)
    P = max(_MIN_PROBES, S // _SAMPLES_PER_PROBE)

    rng = np.random.default_rng(seed)
    dirs, radial = _uniform_ball_directions(rng, S, n)
    base_dirs, base_radial = _uniform_ball_directions(rng, P, n)
    probe_offsets = rng.standard_normal((P, n))
    probe_offsets /= np.linalg.norm(probe_offsets, axis=1, keepdims=True)

    # Probe offsets h_k = r_k / (8 * 30^k), from the running divisor.
    h = np.empty(k)
    divisor = _PROBE_DIVISOR0
    for i, r in enumerate(radii):
        h[i] = r / divisor
        divisor *= _PROBE_DIVISOR_GROWTH
    r_col = np.asarray(radii)[:, None]

    # Radius-major draws: S uniform points and P probe bases per radius.
    uniform = (center + dirs * (r_col * radial)[:, :, None]).reshape(k * S, n)
    bases = (center + base_dirs * (0.9 * r_col * base_radial)[:, :, None]).reshape(
        k * P, n
    )
    h_rows = np.repeat(h, P)
    offsets = np.tile(probe_offsets, (k, 1))
    G = instance.evaluate_many(np.vstack([bases, uniform]))
    own = margins(G[: k * P]) >= 0.0
    dist_g_uniform = distances_to_cone(G[k * P :])
    kept = dist_g_uniform > RATIO_DISTANCE_FLOOR
    probes = np.empty_like(bases)
    probes[own] = bases[own] + h_rows[own, None] * offsets[own]

    # The certified call: infeasible bases, kept uniform points and the
    # probes of feasible bases.
    far = np.flatnonzero(~own)
    record = projector.project_batch(
        np.vstack([bases[far], uniform[kept], probes[own]])
    )
    _, ub_uniform, ub_own = np.split(
        record.ub, [far.size, far.size + np.count_nonzero(kept)]
    )
    dist_uniform = np.zeros(k * S)
    dist_uniform[kept] = ub_uniform
    dist_probe = np.zeros(k * P)
    dist_probe[own] = ub_own
    anchors = BatchProjection(*(part[: far.size] for part in record))
    probes[far], dist, inherited = _anchored_probes(
        anchors, bases[far], h_rows[far], offsets[far]
    )
    dist_probe[far[inherited]] = dist[inherited]
    dist_g_probe = distances_to_cone(instance.evaluate_many(probes))
    pending = far[~inherited]
    fallback = pending[dist_g_probe[pending] > RATIO_DISTANCE_FLOOR]
    if fallback.size:
        dist_probe[fallback] = projector.project_batch(probes[fallback]).ub

    dist_g = np.hstack([dist_g_uniform.reshape(k, S), dist_g_probe.reshape(k, P)])
    dist_omega = np.hstack([dist_uniform.reshape(k, S), dist_probe.reshape(k, P)])
    keep = dist_g > RATIO_DISTANCE_FLOOR
    n_feas = np.count_nonzero(dist_g <= 0.0, axis=1)
    n_floor = np.count_nonzero((dist_g > 0.0) & ~keep, axis=1)
    ratios = np.zeros((k, S + P))
    ratios[keep] = dist_omega[keep] / dist_g[keep]

    # Ratios are nonnegative, so a row max over the zero-filled discards is
    # the max over the kept entries, or 0.0 when none was kept.
    uniform_kappa = ratios[:, :S].max(axis=1, initial=0.0)
    probe_kappa = ratios[:, S:].max(axis=1, initial=0.0)
    probe_valid = np.count_nonzero(keep[:, S:], axis=1)
    # The ratio field is exactly scale-invariant on these conic geometries,
    # so the uniform max is a radius-independent constant; only the planted
    # probes see the radius.  Use them whenever any survived, else fall
    # back to the uniform max.
    kappa = np.where(probe_valid > 0, probe_kappa, uniform_kappa)

    return KappaScan(
        radii=radii,
        kappa_hat=tuple(kappa.tolist()),
        sample_count=S,
        seed=int(seed),
        probe_count=P,
        discarded_feasible=tuple(n_feas.tolist()),
        discarded_floor=tuple(n_floor.tolist()),
        probe_valid=tuple(probe_valid.tolist()),
        uniform_kappa_hat=tuple(uniform_kappa.tolist()),
        probe_ratios=tuple(map(tuple, ratios[:, S:].tolist())),
    )


def classify_kappa_growth(scan: KappaScan) -> str:
    """``bounded`` / ``growing`` / ``inconclusive`` from consecutive ratios.

    The primary signal compares each planted probe against itself one
    radius finer (the probes share base draws across radii): a bounded
    modulus leaves every per-probe ratio essentially constant, whereas an
    unbounded one drives some probe's ratio up by the step-size schedule.
    Matching probe-by-probe keeps one large-but-flat ratio (e.g. a probe
    anchored on a different face) from hiding the growth of another.  The
    decision uses the finest radius pair with at least one matched probe;
    scans without usable probes fall back to the per-radius aggregates.
    """
    k = len(scan.radii)
    total = scan.sample_count + scan.probe_count
    if scan.discarded_feasible and scan.discarded_feasible[-1] == total:
        # The finest ball is entirely feasible: locally exact feasibility.
        return "bounded"
    if scan.probe_ratios:
        P = np.asarray(scan.probe_ratios, dtype=float)
        for i in range(k - 2, -1, -1):
            both = (P[i] > 0.0) & (P[i + 1] > 0.0)
            if not np.any(both):
                continue
            growth = float(np.max(P[i + 1][both] / P[i][both]))
            if growth >= _GROWING_MIN_GROWTH:
                return "growing"
            if growth <= _BOUNDED_MAX_GROWTH:
                return "bounded"
            return "inconclusive"
    pairs = [
        i
        for i in range(k - 1)
        if scan.kappa_hat[i] > 0.0 and scan.kappa_hat[i + 1] > 0.0
    ]
    if not pairs:
        if all(v == 0.0 for v in scan.kappa_hat):
            return "bounded"
        return "inconclusive"
    i = pairs[-1]
    ratio = scan.kappa_hat[i + 1] / scan.kappa_hat[i]
    if ratio >= _GROWING_MIN_GROWTH:
        return "growing"
    if ratio <= _BOUNDED_MAX_GROWTH:
        return "bounded"
    return "inconclusive"


# ---------------------------------------------------------------------------
# FCR dimension scan
# ---------------------------------------------------------------------------


def _random_boundary_rays(rng: np.random.Generator, m: int, count: int):
    w = rng.standard_normal((count, m - 1))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    rays = np.empty((count, m))
    rays[:, 0] = math.sqrt(0.5)
    rays[:, 1:] = math.sqrt(0.5) * w
    return rays


def fcr_dim_scan(
    instance: AffineSOCInstance,
    xbar,
    radius: float = 0.1,
    samples: int = 512,
    seed: int = 0,
    rays: int = 8,
) -> list[DimScan]:
    """Observed dims of the face-orthogonal images over a sampled ball.

    ``xbar`` is a feasible point or its ``PointAnalysis``.  The faces
    scanned depend on where g(xbar) sits: the trivial face only
    (interior), the two faces of a half-line (positive boundary, where the
    dimension is the rank of the reduced gradient and the center point is
    always included), or the vertex cone's zero face, full face, and a few
    sampled boundary-ray faces.
    """
    analysis = analyze_point(instance, xbar)
    rng = np.random.default_rng(seed)
    center = analysis.x
    n = instance.n

    if analysis.location is ConeLocation.INTERIOR:
        return [
            DimScan("ZeroFace", frozenset({0}), 1, int(seed)),
        ]

    if analysis.location is ConeLocation.POSITIVE_BOUNDARY:
        dirs, radial = _uniform_ball_directions(rng, samples, n)
        X = np.vstack([center[None, :], center + dirs * (radius * radial)[:, None]])
        G, ok = grad_phi_many(instance, X)
        discarded = int(np.count_nonzero(~ok))
        norms = np.linalg.norm(G[ok], axis=1)
        dims = frozenset(int(v) for v in (norms > analysis.grad_floor).astype(int))
        count = int(np.count_nonzero(ok))
        return [
            DimScan("ZeroFace", dims, count, int(seed), discarded),
            DimScan("FullCone", frozenset({0}), count, int(seed), discarded),
        ]

    # Vertex: the map is the same at every x, so sampling x is a pure
    # consistency exercise; the face matters instead.
    A = instance.A
    geo = analysis.geometry
    out = [
        DimScan("ZeroFace", frozenset({geo.rank}), samples, int(seed)),
        DimScan("FullCone", frozenset({0}), samples, int(seed)),
    ]
    if rays > 0:
        # The restrictions A - w w^T A to the sampled ray faces, in one
        # broadcast and one batched SVD.  Ranks are taken on the scale of
        # A itself, like rank(A): a face restriction that vanishes (the
        # sampled ray is the image ray) has rank 0, not a noise rank.
        W = _random_boundary_rays(rng, instance.m, rays)
        restricted = A - W[:, :, None] * (W @ A)[:, None, :]
        sigmas = np.linalg.svd(restricted, compute_uv=False)
        ranks = np.count_nonzero(
            sigmas > instance.tol * geo.singular_values[0], axis=1
        )
        out.extend(
            DimScan(f"SampledRay({i})", frozenset({int(r)}), samples, int(seed))
            for i, r in enumerate(ranks)
        )
    return out


def dim_scan_consistent(scans: list[DimScan]) -> bool:
    """FCR-consistency: every scanned face saw a single dimension."""
    return all(len(s.observed_dims) == 1 for s in scans)


# ---------------------------------------------------------------------------
# brute-force subspace classification
# ---------------------------------------------------------------------------


#: Random-step polishing rounds per candidate of the brute-force classifier.
_REFINEMENT_STEPS = 200


def brute_force_subspace_class(
    A: np.ndarray,
    samples: int = 4096,
    seed: int = 0,
) -> SubspaceConeClass:
    """Classify Im(A) against the cone by maximizing the margin numerically.

    Best-effort oracle: samples unit vectors of the image, polishes the
    best candidates with shrinking random steps, and reads the
    classification off the sign of the maximal margin with a 1e-6 decision
    band.  Used to corroborate the spectral classifier, not to replace it.
    """
    B = image_basis(np.asarray(A, dtype=float))
    k = B.shape[1]
    if k == 0:
        return SubspaceConeClass(SubspaceKind.ZERO_ONLY)

    def margin_of(Z: np.ndarray) -> np.ndarray:
        return margins(Z @ B.T)

    rng = np.random.default_rng(seed)
    if k == 1:
        Z = np.array([[1.0], [-1.0]])
    else:
        Z = rng.standard_normal((samples, k))
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
        Z = np.vstack([Z, np.eye(k), -np.eye(k)])
    vals = margin_of(Z)
    order = np.argsort(vals)[::-1][: min(6, len(vals))]
    # The starts are polished in lock-step: one margin call per step for
    # the candidates of every start still shrinking its step.
    z, fz = Z[order], vals[order]
    step = np.full(order.size, 0.5)
    for _ in range(_REFINEMENT_STEPS):
        live = np.flatnonzero(step >= 1e-13)
        if live.size == 0:
            break
        cand = z[live, None, :] + step[live, None, None] * rng.standard_normal(
            (live.size, 24, k)
        )
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        cv = margin_of(cand.reshape(-1, k)).reshape(live.size, 24)
        j = cv.argmax(axis=1)
        at = np.arange(live.size)
        up = cv[at, j] > fz[live]
        z[live[up]], fz[live[up]] = cand[at[up], j[up]], cv[at[up], j[up]]
        step[live[~up]] *= 0.6
    best = int(np.argmax(fz))
    best_z, best_v = z[best], float(fz[best])

    y = B @ best_z
    if best_v > 1e-6:
        return SubspaceConeClass(SubspaceKind.MEETS_INTERIOR, witness=y)
    if best_v < -1e-6:
        return SubspaceConeClass(SubspaceKind.ZERO_ONLY)
    if y[0] < 0:
        y = -y
    return SubspaceConeClass(SubspaceKind.RAY, ray=y / np.linalg.norm(y))


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


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _boundary_unit(rng: np.random.Generator, m: int) -> np.ndarray:
    v = np.empty(m)
    v[0] = math.sqrt(0.5)
    v[1:] = math.sqrt(0.5) * _unit(rng, m - 1)
    return v


def _build_candidate(rng, m, n, target):
    xbar = rng.standard_normal(n)
    if target == "Thm4.4(i)":
        A = rng.standard_normal((m, n))
        A /= max(1.0, np.linalg.norm(A))
        y = np.zeros(m)
        y[0] = 1.0 + rng.random()
        y[1:] = 0.4 * rng.random() * _unit(rng, m - 1)
        return AffineSOCInstance(A, y - A @ xbar), xbar
    if target == "Thm4.4(ii)":
        A = rng.standard_normal((m, n))
        A /= max(1.0, np.linalg.norm(A))
        y = (0.5 + rng.random()) * _boundary_unit(rng, m) * math.sqrt(2.0)
        return AffineSOCInstance(A, y - A @ xbar), xbar
    if target == "Thm4.4(iii)":
        u = _unit(rng, m - 1)
        w = rng.standard_normal(n)
        w /= max(0.25, np.linalg.norm(w)) / (0.5 + rng.random())
        head = np.concatenate([[1.0], u])
        A = np.outer(head, w)
        c = (0.5 + rng.random()) - float(w @ xbar)
        return AffineSOCInstance(A, c * head), xbar
    if target == "Thm4.4(iv)":
        cols = rng.standard_normal((m, n))
        interior = np.zeros(m)
        interior[0] = 1.0
        interior[1:] = 0.3 * _unit(rng, m - 1)
        cols[:, 0] = interior
        cols /= max(1.0, np.linalg.norm(cols))
        return AffineSOCInstance(cols, -cols @ xbar), xbar
    if target == "Thm4.4(v)":
        k = min(n, m - 1)
        block = rng.standard_normal((m - 1, k))
        svals = np.linalg.svd(block, compute_uv=False)
        tilt = rng.standard_normal(k)
        tilt *= 0.2 * svals[-1] / max(np.linalg.norm(tilt), 1e-12)
        S = np.vstack([tilt[None, :], block])
        C = rng.standard_normal((k, n))
        A = S @ C
        A /= max(1.0, np.linalg.norm(A))
        return AffineSOCInstance(A, -A @ xbar), xbar
    if target == "Thm4.4(vi)":
        v = _boundary_unit(rng, m)
        a = (0.5 + 1.5 * rng.random()) * _unit(rng, n)
        A = np.outer(v, a)
        return AffineSOCInstance(A, -A @ xbar), xbar
    if target == "Cor4.2":
        v = _boundary_unit(rng, m)
        vtil = v.copy()
        vtil[0] = -vtil[0]
        # orthonormal directions inside the supporting hyperplane of v,
        # orthogonal to v itself
        basis = np.linalg.svd(
            np.eye(m) - np.outer(v, v) - np.outer(vtil, vtil) / float(vtil @ vtil)
        )[0][:, : m - 2]
        j = int(rng.integers(1, min(n - 1, m - 2) + 1))
        S = np.column_stack([v] + [basis[:, i] for i in range(j)])
        C = rng.standard_normal((j + 1, n))
        A = S @ C
        A /= max(1.0, np.linalg.norm(A))
        return AffineSOCInstance(A, -A @ xbar), xbar
    if target == "degenerate-boundary":
        y = (0.5 + rng.random()) * _boundary_unit(rng, m) * math.sqrt(2.0)
        ytil = y.copy()
        ytil[0] = -ytil[0]
        yhat = y / np.linalg.norm(y)
        P = np.eye(m) - np.outer(yhat, yhat) - np.outer(ytil, ytil) / float(ytil @ ytil)
        basis = np.linalg.svd(P)[0][:, : m - 2]
        c = rng.standard_normal(n)
        A = np.outer(yhat, c)
        D = rng.standard_normal((m - 2, n))
        D /= max(0.5, np.linalg.norm(D)) / (0.5 + rng.random())
        A = A + basis @ D
        A /= max(1.0, np.linalg.norm(A))
        return AffineSOCInstance(A, y - A @ xbar), xbar
    raise GenerationError(f"unknown target case {target!r}")


#: The two failure strata, and where their CRCQ failure sits.
_FAILING_AT = {
    "Cor4.2": ConeLocation.ZERO,
    "degenerate-boundary": ConeLocation.POSITIVE_BOUNDARY,
}


def _self_check(report, target) -> bool:
    """Does the draw whose ``full_report`` is ``report`` realize ``target``?

    The CRCQ label decides the stratum; only what the label leaves open is
    checked here: the location of a failing stratum, a spectrum clear of
    the tolerance band at the vertex, rank >= 1 for (v) and the gradient
    margin of (ii).
    """
    crcq = report.crcq
    if crcq.condition != (None if target in _FAILING_AT else target):
        return False
    instance = report.point_analysis.instance
    if target == "Thm4.4(ii)":
        # keep a healthy gradient margin so neighborhood scans stay clean
        return crcq.evidence["grad_norm"] > 0.05 * max(
            1.0, float(np.linalg.norm(instance.A))
        )
    if target in _FAILING_AT:
        if report.point_analysis.location is not _FAILING_AT[target]:
            return False
    if target in ("Thm4.4(iv)", "Thm4.4(v)", "Thm4.4(vi)", "Cor4.2"):
        cls = instance.geometry()
        return not cls.marginal and (target != "Thm4.4(v)" or cls.rank >= 1)
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
    factorization).
    """
    instance, xbar, _ = _draw(m, n, target_case, seed)
    return instance, xbar


def _draw(m: int, n: int, target_case: str, seed: int):
    """``random_instance`` with the ``full_report`` its self-check decided
    from: (instance, xbar, report)."""
    if target_case not in TARGET_CASES:
        raise GenerationError(
            f"unknown target case {target_case!r}; expected one of {TARGET_CASES}"
        )
    if m < max(2, _MIN_M.get(target_case, 2)):
        raise GenerationError(f"{target_case} requires m >= {_MIN_M.get(target_case, 2)}")
    if n < _MIN_N.get(target_case, 1):
        raise GenerationError(f"{target_case} requires n >= {_MIN_N[target_case]}")
    rng = np.random.default_rng(seed)
    for _ in range(_MAX_RETRIES):
        instance, xbar = _build_candidate(rng, m, n, target_case)
        report = full_report(instance, xbar)
        if _self_check(report, target_case):
            return instance, xbar, report
    raise GenerationError(
        f"failed to realize target case {target_case} with m={m}, n={n} "
        f"after {_MAX_RETRIES} attempts"
    )


# ---------------------------------------------------------------------------
# equivalence harness
# ---------------------------------------------------------------------------


def _safe_scan_radius(analysis) -> float:
    if analysis.location is ConeLocation.POSITIVE_BOUNDARY:
        yr = float(np.linalg.norm(analysis.y[1:]))
        a_op = float(analysis.geometry.singular_values[0])
        return min(0.1, 0.1 * yr / max(1.0, a_op))
    return 0.1


def equivalence_harness(
    trials: int,
    m_max: int = 6,
    n_max: int = 6,
    seed: int = 42,
    samples_per_radius: int = 48,
    radii=(1e-1, 1e-2, 1e-3),
    fixed_instance: Optional[AffineSOCInstance] = None,
    fixed_point=None,
) -> HarnessReport:
    """Cross-validate the analytic CRCQ/MSCQ verdict against the kappa scan.

    Each trial draws a stratified random instance, decides CRCQ in closed
    form, classifies the empirical kappa growth, and records whether the
    two agree (bounded <=> CRCQ holds).  An inconclusive scan is retried
    once with four times the sampling before being reported.  Passing
    ``fixed_instance``/``fixed_point`` pins every trial to one instance,
    decided at that instance's ``tol`` (fresh scan seeds per trial), instead
    of drawing random ones.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    master = np.random.SeedSequence(seed)
    children = master.spawn(trials)
    rows: list[TrialRecord] = []
    disagreements: list[int] = []
    inconclusive: list[int] = []
    failures: list[tuple[int, str]] = []

    for t in range(trials):
        child = children[t]
        trial_seed = int(child.generate_state(1, dtype=np.uint32)[0])
        rng = np.random.default_rng(child)
        if fixed_instance is not None:
            target = "fixed"
            m, n = fixed_instance.m, fixed_instance.n
        else:
            target = TARGET_CASES[t % len(TARGET_CASES)]
            m_lo = max(2, _MIN_M.get(target, 2))
            n_lo = _MIN_N.get(target, 1)
            m = int(rng.integers(m_lo, max(m_lo, m_max) + 1))
            n = int(rng.integers(n_lo, max(n_lo, n_max) + 1))
        try:
            if fixed_instance is not None:
                instance = fixed_instance
                report = full_report(instance, fixed_point)
            else:
                instance, _, report = _draw(m, n, target, trial_seed)
            crcq = report.crcq
            violations = verify_report_invariants(report)
            # The report's analysis, the generator's own on a random draw, is
            # the trial's one analysis of xbar.
            analysis = report.point_analysis

            scan = mscq_kappa_scan(
                instance,
                analysis,
                radii=radii,
                samples_per_radius=samples_per_radius,
                seed=trial_seed,
            )
            label = classify_kappa_growth(scan)
            retried = False
            if label == "inconclusive":
                retried = True
                scan = mscq_kappa_scan(
                    instance,
                    analysis,
                    radii=radii,
                    samples_per_radius=4 * samples_per_radius,
                    seed=trial_seed + 1,
                )
                label = classify_kappa_growth(scan)

            expected = "bounded" if crcq.holds else "growing"
            agree = label == expected

            dim_scans = fcr_dim_scan(
                instance,
                analysis,
                radius=_safe_scan_radius(analysis),
                samples=64,
                seed=trial_seed,
            )
            fcr_ok = dim_scan_consistent(dim_scans)
            fcr_agree = fcr_ok == report.fcr.holds

            rows.append(
                TrialRecord(
                    index=t,
                    target_case=target,
                    m=m,
                    n=n,
                    crcq_holds=crcq.holds,
                    crcq_condition=crcq.condition,
                    scan_class=label,
                    kappa_hat=scan.kappa_hat,
                    agree=agree,
                    retried=retried,
                    fcr_consistent=fcr_ok,
                    fcr_agree=fcr_agree,
                    invariant_violations=len(violations),
                )
            )
            if label == "inconclusive":
                inconclusive.append(t)
            elif not agree or not fcr_agree or violations:
                disagreements.append(t)
        except (GenerationError, NumericalFailureError) as exc:
            failures.append((t, f"{type(exc).__name__}: {exc}"))

    return HarnessReport(
        trials=trials,
        seed=int(seed),
        rows=tuple(rows),
        disagreements=tuple(disagreements),
        inconclusive=tuple(inconclusive),
        failures=tuple(failures),
    )

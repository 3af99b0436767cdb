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
* A scan samples against the projector it is handed, whose construction
  was the scan's one point analysis, and makes one certified projector
  call for all radii together: the infeasible probe bases and the probes
  of feasible bases.  The probe of an infeasible base x with anchor z and
  record (ub, lb) is p = z + h (x - z) / ub, on the ray from z in Omega
  through x, and the projector's ``_ray_distances`` decides, next to the
  record and gap rule it rests on, whether p inherits ||p - z|| as its
  distance.  The uniform points are drawn and counted at every radius,
  but projected only at a radius where no probe survived, since only
  there does their ratio reach the record.  Those points, the probes that
  inherit nothing and the probes of bases at distance 0 take one fallback
  call, so every ratio still rests on a certified distance; a failure
  reports the worst gap across the rows of its call.
* The scan checks its settings once, in ``mscq_kappa_scan``, which builds
  the projector and holds the largest radius to the instance's
  ``_image_bound``; its body ``_kappa_scan``, which the harness calls with
  the settings it fixed and the projector of its trial point, fills its
  draws in place and runs only private kernels on them: the instance's
  ``_evaluate``, ``soc_core._distance_rows`` and the projector's
  ``_project_rows`` and ``_ray_distances``.  It scales its draws by the
  radii and computes the probe offsets on every call, and keeps no state
  between calls.
* Every row a scan evaluates or projects lies within its reach
  ``_scan_reach`` = 2 * radii[0] of its center.  Where that whole ball
  provably lies inside Omega, ``_kappa_scan`` returns its record in closed
  form, by the proof of ``_ball_inside``; every other center samples.
* ``fcr_dim_scan`` samples a ball of radius rho = min(0.1, 0.1 ||g_r(xbar)||
  / max(1, sigma)), sigma = sigma_max(A), around a positive-boundary center,
  held to the magnitude rule of the kappa scan's reach by ``_check_reach``,
  unless ``_proved_dim`` proves what every row reads.
* Both closed forms read the center's ``PointAnalysis`` and A, never a
  verdict, and hold their bounds to one rounding slack, ``_slack``.
* Ratios are only formed at points with cone distance above an absolute
  floor of 1e-12 to keep the quotients numerically meaningful.
* Every seeded entry point (both scans, the brute-force classifier, the
  harness and ``random_instance``) checks its seed with the integer rule
  ``soc_core._count`` before any work: a non-negative integer, not a bool,
  else ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine_instance import AffineSOCInstance, _grad_rows, analyze_point
from .cq_checker import _report
from .errors import DimensionError, GenerationError, NumericalFailureError
# bench/workloads.py reads random_instance and TARGET_CASES from this module.
from .families import TARGET_CASES, _draw, _least_sizes, random_instance
from .projection import _EPS, FeasibleSetProjector
from .soc_core import _SQUARE_LIMIT, ConeLocation, _count, _distance_rows, _margin_rows
from .soc_core import _is_real, _margin, _norm, _row_norms
from .subspace_cone import SubspaceConeClass, SubspaceKind, classify_image_vs_cone

__all__ = [
    "KappaScan",
    "DimScan",
    "TrialRecord",
    "HarnessReport",
    "mscq_kappa_scan",
    "classify_kappa_growth",
    "fcr_dim_scan",
    "brute_force_subspace_class",
    "equivalence_harness",
]

#: Absolute floor under which cone distances are considered numerically
#: zero and the corresponding ratio is discarded.
RATIO_DISTANCE_FLOOR = 1e-12

#: Per-radius probe offset divisors, k from 0: h_k = r_k / (8 * 30^k).
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

    ``kappa_hat`` is the max over the boundary-hugging probes whenever any
    probe survives the feasibility/floor filters at that radius, because
    only the probes carry a radius-dependent signal: on conic geometries
    the distance ratio is exactly scale-invariant, so the per-radius max
    over uniform draws is a radius-independent heavy-tailed constant that
    would mask genuine unboundedness.  The uniform ratios are therefore
    computed only at a radius without a surviving probe, where
    ``kappa_hat`` shows their max (0.0 when no uniform point survived
    either): such a radius shows that the scan saw a ratio there, not how
    the modulus grows.  ``classify_kappa_growth`` decides from
    ``probe_ratios`` and ``discarded_feasible`` alone; ``kappa_hat`` only
    tells it whether a scan without matched probes saw any ratio at all.
    """

    radii: tuple[float, ...]
    kappa_hat: tuple[float, ...]
    sample_count: int
    seed: int
    probe_count: int
    discarded_feasible: tuple[int, ...]
    discarded_floor: tuple[int, ...]
    probe_valid: tuple[int, ...]
    #: per-radius ratio of each planted probe (0.0 where the probe was
    #: discarded); probes share their base draw across radii, so row-wise
    #: comparisons isolate the radius dependence.
    probe_ratios: tuple[tuple[float, ...], ...]

    def evaluated(self, k: int) -> int:
        """Number of ratio-bearing samples at radius index k."""
        total = self.sample_count + self.probe_count
        return total - self.discarded_feasible[k] - self.discarded_floor[k]


@dataclass(frozen=True)
class DimScan:
    """Observed dimensions of the zero face's A^*(F-perp) over the ball of
    radius ``radius`` around a positive-boundary point."""

    observed_dims: frozenset[int]
    sample_count: int
    seed: int
    radius: float
    discarded: int

    @property
    def consistent(self) -> bool:
        """FCR-consistency: the scan saw a single dimension."""
        return len(self.observed_dims) == 1


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


def _scan_settings(radii, samples):
    """``(radii, samples)`` of the kappa scan: radii nonempty real numbers
    (``_is_real``: no bool, no str), positive, finite and strictly
    decreasing, and the samples rule, or ValueError."""
    given = tuple(radii)
    radii = tuple(float(r) for r in given) if all(map(_is_real, given)) else ()
    if not radii or not all(math.isfinite(r) and r > 0.0 for r in radii) or any(
        a <= b for a, b in zip(radii, radii[1:])
    ):
        raise ValueError(f"radii must be > 0, finite and strictly decreasing: {given}")
    return radii, _count(samples, "samples")


#: The kappa scan's default radii and uniform samples per radius.
_RADII = (1e-1, 1e-2, 1e-3)
_SAMPLES_PER_RADIUS = 200


def _probe_offsets(radii: tuple[float, ...]) -> np.ndarray:
    """The probe offset h_k = r_k / (8 * 30^k) of each radius, with the
    divisor a running product."""
    h, divisor = [], _PROBE_DIVISOR0
    for r in radii:
        h.append(r / divisor)
        divisor *= _PROBE_DIVISOR_GROWTH
    return np.array(h)


def mscq_kappa_scan(
    instance: AffineSOCInstance,
    xbar,
    radii=_RADII,
    samples_per_radius: int = _SAMPLES_PER_RADIUS,
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
    probe bases and the probes of feasible bases (a feasible base is its
    own anchor).  A probe of an infeasible base inherits its distance from
    its base's record by the projector's ``_ray_distances``.  One
    fallback call takes the surviving probes that inherit no distance
    (their interval is wider than the projector's gap, or their base is at
    distance 0) and the kept uniform points of the radii where no probe
    survived; the uniform points of the other radii are counted in
    the discards but never projected, as their ratios would not reach the
    record.  A ``NumericalFailureError`` reports the worst gap across the
    rows of the failing call.  The scan builds one projector, whose
    construction is also its one point analysis, and none when ``xbar`` is
    an analysis of ``instance``.  Every point the scan draws, projects or
    probes lies within 2 * radii[0] of ``xbar``; a largest radius that
    could take such a point, or its image by the instance's
    ``_image_bound``, past the magnitude rule raises ``DimensionError``
    before any draw, and so does a finest probe offset below one ulp of
    ``xbar``'s largest entry, where the probes would round onto their bases.
    Where ``_ball_inside`` proves every draw feasible, the scan returns the
    record the draws would give without drawing.
    """
    seed = _count(seed, "seed", 0)
    radii, samples_per_radius = _scan_settings(radii, samples_per_radius)
    projector = FeasibleSetProjector(instance, xbar)
    _check_scan_reach(instance, projector.reference, radii)
    return _kappa_scan(projector, radii, samples_per_radius, seed)


def _scan_reach(radii) -> float:
    """2 * radii[0], the reach of a kappa scan: every row it evaluates or
    projects lies within it of the scan's center."""
    return 2.0 * radii[0]


def _check_reach(instance: AffineSOCInstance, center, reach: float, what: str) -> float:
    """``DimensionError`` unless every x within ``reach`` of ``center`` obeys
    the magnitude rule and so does g(x), by the bound
    ``AffineSOCInstance._image_bound`` that ``_image`` applies; ``what``
    names the radius and the scan in the error.  Returns that bound,
    ``_image_bound``(max|center_j| + reach)."""
    big = max(map(abs, center.tolist())) + reach
    bound = instance._image_bound(big)
    if max(big * math.sqrt(instance.n), bound) >= _SQUARE_LIMIT:
        raise DimensionError(f"{what} points or their images past the magnitude rule")
    return bound


def _check_scan_reach(instance: AffineSOCInstance, center, radii) -> None:
    """``_check_reach`` at the kappa scan's ``_scan_reach``; and
    ``DimensionError`` unless the finest probe offset is at least one ulp
    of max|center_j|, so that the scan's points resolve from its center."""
    what = f"radius {radii[0]:g} takes the kappa scan's"
    _check_reach(instance, center, _scan_reach(radii), what)
    top = float(np.abs(center).max())
    finest = float(_probe_offsets(radii)[-1])
    if finest < math.ulp(top):
        raise DimensionError(
            f"radius {radii[-1]:g} puts the kappa scan's probe offset "
            f"{finest:g} below one ulp of its center"
        )


def _slack(instance: AffineSOCInstance, size: float) -> float:
    """64 (m + 1)(n + 1) eps max(1, size), the rounding slack of both closed
    forms, which ``_ball_inside`` and ``_proved_dim`` derive.  The factor
    before max(1, size) is exact, so only the last product rounds."""
    return 64.0 * (instance.m + 1) * (instance.n + 1) * _EPS * max(1.0, size)


def _ball_inside(projector: FeasibleSetProjector, radii) -> bool:
    """Does every row the kappa scan could evaluate pass its feasibility
    test ``_distance_rows(instance._evaluate(x)) <= 0``, by proof?  Then the
    scan's record is the all-feasible one: ``kappa_hat`` and ``probe_ratios``
    all 0.0, every draw discarded as feasible, none floored, no valid probe.

    Only an interior reference xbar can pass, with the margin
    M = margin(g(xbar)) of the projector's ``analysis``, the bits of the
    RCQ verdict's margin.  The test is

        M - sqrt(2) ||A||_F reach > ``_slack``(B),

    with reach = ``_scan_reach(radii)``, T = max|xbar_j| + reach and
    B = ``_image_bound(T)`` = ||A||_F sqrt(n) T + ||b||.  The proof rests
    on M, never on a verdict label: a point misread as interior has M <= 0
    and fails.

    Exactly, margin(y) = y_0 - ||y_r|| is sqrt(2)-Lipschitz, so the ball of
    radius margin(g(xbar)) / sqrt(2) around g(xbar) lies in Q_m, Robinson's
    (1975) radius, and every x with sqrt(2) ||A|| ||x - xbar|| < margin(g(xbar))
    is feasible.  The slack covers the rounding.  Let u = eps / 2 and
    gamma_k = k u / (1 - k u).  Every x with max|x_j| <= T has
    || |A| |x| + |b| || <= B.  To first order in u:

    1. the computed image Y of such an x (a product and a sum in any order,
       with or without fused multiply-adds) has ||Y - g(x)|| <= gamma_{n+1} B;
    2. the computed ||Y_r|| is at most (1 + gamma_m) ||Y_r||, so the test
       Y_0 >= fl(||Y_r||) holds once margin(Y) >= gamma_m ||Y||, while
       margin(Y) >= margin(g(x)) - sqrt(2) gamma_{n+1} B;
    3. M was computed the same way from g(xbar), so
       margin(g(xbar)) >= M - (1 + m + sqrt(2) (n + 1)) u B;
    4. the draws and the probes of feasible bases lie within
       0.9 r_0 + h_0 < 1.03 r_0 of xbar before rounding, and within
       reach + sqrt(n) u T after it; once they all pass, the scan moves no
       probe and makes no fallback call.  The computed ||A||_F is low by at
       most gamma_{mn} ||A||_F, and ||A||_F reach <= B / sqrt(n), so
       margin(g(x)) >= margin(g(xbar)) - sqrt(2) ||A||_F reach
       - sqrt(2) (1 + m sqrt(n)) u B;
    5. the test's own three operations round by at most 12 u B.

    The losses add up to at most (2 m + 3 n + 3 m sqrt(n) + 20) u B, below
    the slack, which also covers the higher-order terms while
    (m + 1)(n + 1) eps is small, and underflow, through max(1, B).
    """
    analysis = projector.analysis
    if analysis.location is not ConeLocation.INTERIOR:
        return False
    instance, reach = projector.instance, _scan_reach(radii)
    top = float(np.abs(analysis.x).max()) + reach
    slack = _slack(instance, instance._image_bound(top))
    return _margin(analysis.y) - math.sqrt(2.0) * instance.norm_A() * reach > slack


def _kappa_scan(projector: FeasibleSetProjector, radii, S: int, seed) -> KappaScan:
    """``mscq_kappa_scan`` with settings that ``_scan_settings`` checked,
    around ``projector.reference`` and against ``projector.instance``, at
    radii that ``_check_scan_reach`` held to the instance's ``_image_bound``.
    Where ``_ball_inside`` proves every draw feasible, it returns the
    all-feasible record with no generator and no projection.

    Every array past the draws is built here from checked data, so the
    scan runs the private kernels on it: g(X) by the instance's
    ``_evaluate``, the cone distance ``_distance_rows``, and the
    projector's ``_project_rows`` and ``_ray_distances``.
    """
    instance, center = projector.instance, projector.reference
    n = instance.n
    k = len(radii)
    P = max(_MIN_PROBES, S // _SAMPLES_PER_PROBE)
    if _ball_inside(projector, radii):
        return KappaScan(
            radii=radii,
            kappa_hat=(0.0,) * k,
            sample_count=S,
            seed=seed,
            probe_count=P,
            discarded_feasible=(S + P,) * k,
            discarded_floor=(0,) * k,
            probe_valid=(0,) * k,
            probe_ratios=((0.0,) * P,) * k,
        )

    rng = np.random.default_rng(seed)
    # The draws, in this order: S uniform directions and radii, P probe-base
    # directions and radii, P probe offsets.  The three direction blocks
    # are normalized together.  Filled in place: joining separate draws
    # shows in the harness's op_p50_ms (CHANGES.md).
    dirs, radial = np.empty((S + 2 * P, n)), np.empty(S + P)
    rng.standard_normal(out=dirs[:S])
    rng.random(out=radial[:S])
    rng.standard_normal(out=dirs[S : S + P])
    rng.random(out=radial[S:])
    rng.standard_normal(out=dirs[S + P :])
    dirs /= _row_norms(dirs, keepdims=True)
    radial **= 1.0 / n

    # Radius-major draws in one broadcast: per radius, S uniform points in
    # the ball, each at r_k times its radial draw, then P probe bases in
    # 0.9 of it, each at (0.9 r_k) times its radial draw.  One distance
    # pass covers both; a base at distance 0 is feasible and its own
    # anchor.  Every probe steps h_k from its base along its random offset;
    # the probes of infeasible bases are replaced by anchored ones below.
    r = np.array(radii)
    spread = np.multiply.outer(r, radial)
    spread[:, S:] = np.multiply.outer(0.9 * r, radial[S:])
    draws = center + dirs[: S + P] * spread[:, :, None]
    dist_g = _distance_rows(instance._evaluate(draws.reshape(-1, n))).reshape(k, -1)
    bases = draws[:, S:].reshape(k * P, n)
    h = _probe_offsets(radii)
    probes = (draws[:, S:] + h[:, None, None] * dirs[S + P :]).reshape(-1, n)
    own = dist_g[:, S:].ravel() <= 0.0
    near, far = np.flatnonzero(own), np.flatnonzero(~own)

    # The certified call: the infeasible bases and the probes of feasible
    # bases.  An infeasible base x with anchor z at distance ub > 0 plants
    # its probe h along the exact outward normal, p = z + h (x - z) / ub,
    # which carries the worst ratios; one at distance 0 keeps its random
    # offset.
    Z, ub, lb = projector._project_rows(np.concatenate([bases[far], probes[near]]))
    dist_probe = np.zeros(k * P)
    dist_probe[near] = ub[far.size :]
    Z, ub, lb = Z[: far.size], ub[: far.size], lb[: far.size]
    h_far, offsets = h[far // P], dirs[S + P + far % P]
    step = np.divide(bases[far] - Z, ub[:, None], out=offsets, where=ub[:, None] > 0.0)
    probes[far] = Z + h_far[:, None] * step
    dist, inherited = projector._ray_distances((Z, ub, lb), probes[far], h_far)
    dist_probe[far[inherited]] = dist[inherited]
    dist_g[:, S:] = _distance_rows(instance._evaluate(probes)).reshape(k, P)
    keep = dist_g > RATIO_DISTANCE_FLOOR
    probe_valid = keep[:, S:].sum(axis=1)

    # The fallback call: the surviving probes that inherited no distance,
    # and the kept uniform points of the radii where no probe survived.
    # Only the planted probes see the radius (the ratio field is exactly
    # scale-invariant on these conic geometries), so a radius's uniform
    # ratios reach the record only when it has no probe ratio.
    pending = far[~inherited]
    fallback = pending[keep[:, S:].ravel()[pending]]
    bare = keep[:, :S] & (probe_valid == 0)[:, None]
    dist_omega = np.zeros((k, S + P))
    if fallback.size or bare.any():
        _, ub, _ = projector._project_rows(
            np.concatenate([probes[fallback], draws[:, :S][bare]])
        )
        dist_probe[fallback] = ub[: fallback.size]
        dist_omega[:, :S][bare] = ub[fallback.size :]
    dist_omega[:, S:] = dist_probe.reshape(k, P)

    # A kept point has dist_g above the positive floor, so every point is
    # feasible, floored or kept.
    n_feas = (dist_g <= 0.0).sum(axis=1)
    n_floor = S + P - n_feas - keep.sum(axis=1)
    ratios = np.divide(dist_omega, dist_g, out=np.zeros((k, S + P)), where=keep)
    # Ratios are nonnegative and a row holds either probe ratios or uniform
    # ones, so its max over the zero-filled rest is the probe max, else the
    # uniform max, else 0.0.
    kappa = ratios.max(axis=1, initial=0.0)

    return KappaScan(
        radii=radii,
        kappa_hat=tuple(kappa.tolist()),
        sample_count=S,
        seed=seed,
        probe_count=P,
        discarded_feasible=tuple(n_feas.tolist()),
        discarded_floor=tuple(n_floor.tolist()),
        probe_valid=tuple(probe_valid.tolist()),
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
    decision uses the finest radius pair with at least one matched probe.
    A finest ball that is entirely feasible reads ``bounded`` before any
    ratio is looked at.  A scan with no matched pair reads ``bounded`` when
    it saw no ratio at all (every ``kappa_hat`` is 0) and ``inconclusive``
    otherwise: the per-radius maxima are radius-independent on conic
    geometries, so they cannot tell growth from noise.
    """
    if scan.discarded_feasible[-1] == scan.sample_count + scan.probe_count:
        # The finest ball is entirely feasible: locally exact feasibility.
        return "bounded"
    P = scan.probe_ratios
    for i in range(len(scan.radii) - 2, -1, -1):
        growths = [b / a for a, b in zip(P[i], P[i + 1]) if a > 0.0 and b > 0.0]
        if not growths:
            continue
        growth = max(growths)
        if growth >= _GROWING_MIN_GROWTH:
            return "growing"
        if growth <= _BOUNDED_MAX_GROWTH:
            return "bounded"
        return "inconclusive"
    return "bounded" if not any(scan.kappa_hat) else "inconclusive"


# ---------------------------------------------------------------------------
# FCR dimension scan
# ---------------------------------------------------------------------------


def fcr_dim_scan(
    instance: AffineSOCInstance,
    xbar,
    samples: int = 512,
    seed: int = 0,
) -> Optional[DimScan]:
    """The FCR oracle: observed dims of the zero face over a sampled ball.

    ``xbar`` is a feasible point or its ``PointAnalysis``; ``samples`` is an
    integer, not a bool, of at least 1, else ``ValueError``.  FCR can fail
    only where g(xbar) lies on the positive boundary: at the vertex and at
    interior points it holds (Thm 3.2 (i)/(ii)), so there the scan returns
    None.  On the positive boundary the reduced cone is a half-line, and
    only its zero face can change dimension: the scan returns one
    ``DimScan`` of the rank of the reduced gradient at the center and at
    ``samples`` points of the ball.
    (The half-line's other face has orthogonal complement {0}, of dimension
    0 everywhere.)  The ball's radius comes from the point's analysis,
    rho = min(0.1, 0.1 ||g_r(xbar)|| / max(1, sigma)) with sigma =
    sigma_max(A), so that its image stays clear of the cone's vertex; the
    record carries it.  A ball that could take a point, or its image, past
    the magnitude rule raises ``DimensionError`` before any draw, by the
    rule of the kappa scan's reach (``_check_reach``).  Where
    ``_proved_dim`` proves the dimension d every row reads, the scan returns
    dims {d} with ``samples`` + 1 rows and none discarded, without drawing.
    """
    samples, seed = _count(samples, "samples"), _count(seed, "seed", 0)
    analysis = analyze_point(instance, xbar)
    if analysis.location is not ConeLocation.POSITIVE_BOUNDARY:
        return None
    a_op = float(analysis.geometry.singular_values[0])
    radius = min(0.1, 0.1 * _norm(analysis.y[1:]) / max(1.0, a_op))
    what = f"radius {radius:g} takes the FCR scan's"
    bound = _check_reach(instance, analysis.x, radius, what)
    dim = _proved_dim(analysis, a_op, radius, bound)
    if dim is not None:
        return DimScan(frozenset({dim}), samples + 1, seed, radius, 0)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, instance.n))
    dirs /= _row_norms(dirs, keepdims=True)
    dirs *= (radius * rng.random(samples) ** (1.0 / instance.n))[:, None]
    X = np.vstack([analysis.x, analysis.x + dirs])
    G, ok = _grad_rows(instance, instance._evaluate(X))
    discarded = int((~ok).sum())
    norms = _row_norms(G[ok])
    dims = frozenset((norms > analysis.grad_floor).astype(int).tolist())
    return DimScan(dims, int(ok.sum()), seed, radius, discarded)


def _proved_dim(analysis, sigma: float, radius: float, bound: float) -> Optional[int]:
    """The dimension every row of the FCR scan reads, by proof, or None.

    The rows are xbar and fl(xbar + d) for draws d with ||d|| <= rho =
    ``radius``; the scan reads a row's dimension as
    ``_row_norms(G) > grad_floor`` on the gradients G that ``_grad_rows``
    computes from the rows' images, once ``_reducible_rows`` flags every
    row.  Write y for the computed g(xbar) of the analysis, sigma for the
    computed sigma_max(A), T = max|xbar_j| + rho, B = ``_image_bound(T)``
    = ``bound`` (which ``_check_reach`` returns), and the two slacks
    E = ``_slack``(B) (images) and S = ``_slack``(||A||_F) (gradients).
    With iota = sigma rho + E, the tests are

    * reducible: ||y_r|| - iota > tol max(1, ||y|| + iota);
    * d = 1: ||grad phi(xbar)|| - 2 sigma iota / ||y_r|| > floor + S;
    * d = 0: with the analysis's split A = y a^T + R
      (``PointAnalysis._split``), M = margin(y),
      D = (1 - ||a|| rho) ||y_r|| - ||R||_F rho - E > 0 and
      s = (||R||_F rho + E) / D,
      ||a|| (|M| + ||y_r|| s^2) + sqrt(2) ||R||_F < floor - S.

    Let u = eps / 2 and gamma_k = k u / (1 - k u).  Assume the SVD puts
    ||A||_2 within p eps ||A||_F of sigma, with p <= 8 (m + 1)(n + 1)
    (LAPACK's bound is of order max(m, n)).  To first order in u:

    1. Images.  A draw has ||d|| <= (1 + (n + 4) u) rho, the row
       fl(xbar + d) lies within sqrt(n) u T of xbar + d, and y and the
       row's image Y each carry at most gamma_{n+1} B of rounding (as in
       ``_ball_inside``).  As ||A||_F rho <= B / sqrt(n),
       ||Y - y|| <= sigma rho + (3 n + 7 + 2 p) u B <= iota - 3 E / 4.
    2. Reducible.  So the computed ||Y_r|| is at least
       (1 - gamma_m)(||y_r|| - iota + 3 E / 4), and the computed ||Y|| at
       most (1 + gamma_m)(||y|| + iota), where ||y|| + iota <= 3 max(1, B).
       The margin 3 E / 4 covers the rounding of both norms and of the
       test, so ``_reducible_rows`` flags every row; and iota < ||y_r||.
    3. d = 1.  For nonzero p and q, ||p/||p|| - q/||q|||| <= 2 ||p - q|| / ||q||,
       so the exact unit vectors of Y_r and y_r differ by at most
       2 iota / ||y_r|| < 2, and the computed ones lie within (m + 3) u of
       them.  A computed A_0 - v^T A_r carries at most sqrt(2) gamma_m
       ||A||_F of rounding, and ||A_r||_2 <= sigma + 2 p u ||A||_F.  So
       every row's computed gradient lies within 2 sigma iota / ||y_r||
       + (5 m + 6 + 4 p) u ||A||_F of the analysis's grad phi(xbar); its
       computed norm, at most 2 ||A||_F, and the test's own operations
       lose (4 n + 8) u max(1, ||A||_F) more, below S with the rest.
    4. d = 0.  A = y a^T + R holds exactly for the computed
       a = fl(y^T A) / fl(y^T y), whose ||y|| ||a|| <= (1 + 3 gamma_m)
       ||A||_F <= 2 ||A||_F, so the computed ||R||_F is within
       (5 + 3 m n) u ||A||_F of the exact one.  By step 1, every row has
       Y = t y + w with t = 1 + a^T d, where t ||y_r|| >= (1 - ||a|| rho)
       ||y_r|| - 2 (n + 4) u B and ||w|| <= ||R||_F rho + (5 n + 20 + 3 m n)
       u B <= ||R||_F rho + E / 2.  So ||Y_r|| >= D > 0, and the angle
       theta between Y_r and y_r has sin theta <= s and cos theta > 0.  At
       the exact unit vector v of Y_r,
       A_0 - v^T A_r = a^T (M' + ||y_r|| (1 - cos theta)) + (R_0 - v^T R_r),
       with M' the exact margin of y, |M' - M| <= gamma_m ||y||,
       0 <= 1 - cos theta <= sin^2 theta and
       ||R_0 - v^T R_r|| <= ||R_0|| + ||R_r||_2 <= sqrt(2) ||R||_F.  The
       computed unit vector, product, margin and norms add at most
       (5 m n + 5 m + 2 n + 15) u max(1, ||A||_F), below S.

    The slacks also cover the higher-order terms while (m + 1)(n + 1) eps
    is small, and underflow, through max(1, .).  The test reads the
    analysis (y, grad phi(xbar) and its split) and sigma, never an FCR
    verdict.
    """
    instance, y = analysis.instance, analysis.y
    E = _slack(instance, bound)
    iota = sigma * radius + E
    y0, norm_r = float(y[0]), _norm(y[1:])
    if norm_r - iota <= instance.tol * max(1.0, math.hypot(y0, norm_r) + iota):
        return None
    floor, slack = analysis.grad_floor, _slack(instance, instance.norm_A())
    if _norm(analysis.grad_phi) - 2.0 * sigma * iota / norm_r > floor + slack:
        return 1
    a, norm_R = analysis._split
    norm_a = _norm(a)
    room = (1.0 - norm_a * radius) * norm_r - norm_R * radius - E
    if room <= 0.0:
        return None
    sin = (norm_R * radius + E) / room
    vanishing = norm_a * (abs(y0 - norm_r) + norm_r * sin * sin)
    vanishing += math.sqrt(2.0) * norm_R
    return 0 if vanishing < floor - slack else None


# ---------------------------------------------------------------------------
# brute-force subspace classification
# ---------------------------------------------------------------------------


#: Random unit vectors of the image the brute-force classifier starts from,
#: and its random-step polishing rounds per candidate.
_BRUTE_FORCE_SAMPLES = 4096
_REFINEMENT_STEPS = 200


def brute_force_subspace_class(A: np.ndarray, seed: int = 0) -> SubspaceConeClass:
    """Classify Im(A) against the cone by maximizing the margin numerically.

    Best-effort oracle: samples unit vectors of the image, polishes the
    best candidates with shrinking random steps, and reads the
    classification off the sign of the maximal margin with a 1e-6 decision
    band.  Used to corroborate the spectral classifier, not to replace it.
    """
    seed = _count(seed, "seed", 0)
    B = classify_image_vs_cone(A).basis
    k = B.shape[1]
    if k == 0:
        return SubspaceConeClass(SubspaceKind.ZERO_ONLY)

    def margin_of(Z: np.ndarray) -> np.ndarray:
        return _margin_rows(Z @ B.T)

    rng = np.random.default_rng(seed)
    if k == 1:
        Z = np.array([[1.0], [-1.0]])
    else:
        Z = rng.standard_normal((_BRUTE_FORCE_SAMPLES, k))
        Z /= _row_norms(Z, keepdims=True)
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
        cand /= _row_norms(cand, keepdims=True)
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
    return SubspaceConeClass(SubspaceKind.RAY, ray=y / _norm(y))


# ---------------------------------------------------------------------------
# equivalence harness
# ---------------------------------------------------------------------------


#: The largest m and n of the harness's random trials.
_HARNESS_MAX_SIZE = 6

#: Samples per radius of the harness's kappa scans, at the default radii.
_HARNESS_SAMPLES_PER_RADIUS = 48


def equivalence_harness(
    trials: int,
    seed: int = 42,
    fixed_instance: Optional[AffineSOCInstance] = None,
    fixed_point=None,
) -> HarnessReport:
    """Cross-validate the analytic CRCQ/MSCQ verdict against the kappa scan.

    Each trial draws a stratified random instance with m and n at most
    6, decides CRCQ in closed form, classifies the empirical kappa growth,
    and records whether the two agree (bounded <=> CRCQ holds).  An
    inconclusive scan is retried once with four times the sampling before
    being reported.  Passing ``fixed_instance`` and ``fixed_point`` pins
    every trial to one instance, decided at that instance's ``tol`` (fresh
    scan seeds per trial), instead of drawing random ones; one of the two
    without the other raises ``ValueError`` before any trial.

    Each decided point has one report and one projector, built from the
    report's analysis: a random trial builds them for its draw, a fixed
    instance once before the first trial (an infeasible fixed point raises
    there, and so does one whose scans would reach past the magnitude rule
    or probe below one ulp of it, with the ``DimensionError`` of
    ``mscq_kappa_scan``).  The kappa scan
    and its retry sample against that projector.  Every trial runs the FCR
    oracle ``fcr_dim_scan`` on the analysis, which decides where to sample and
    how widely.  It returns None off the positive boundary, where FCR
    holds (Thm 3.2 (i)/(ii)), and the trial reads None as consistent.  A
    trial whose report breaks an invariant of ``verify_report_invariants``
    records the count and is a disagreement, whatever its scan read.
    """
    trials, seed = _count(trials, "trials"), _count(seed, "seed", 0)
    if (fixed_instance is None) != (fixed_point is None):
        raise ValueError("give fixed_instance and fixed_point together, or neither")
    children = np.random.SeedSequence(seed).spawn(trials)
    rows: list[TrialRecord] = []
    disagreements: list[int] = []
    inconclusive: list[int] = []
    failures: list[tuple[int, str]] = []

    if fixed_instance is not None:
        target, m, n = "fixed", fixed_instance.m, fixed_instance.n
        report, violations = _report(fixed_instance, fixed_point)
        projector = FeasibleSetProjector(fixed_instance, report.point_analysis)
        _check_scan_reach(fixed_instance, projector.reference, _RADII)

    for t, child in enumerate(children):
        trial_seed = int(child.generate_state(1, dtype=np.uint32)[0])
        try:
            if fixed_instance is None:
                target = TARGET_CASES[t % len(TARGET_CASES)]
                m_lo, n_lo = _least_sizes(target)
                rng = np.random.default_rng(child)
                m = int(rng.integers(m_lo, _HARNESS_MAX_SIZE + 1))
                n = int(rng.integers(n_lo, _HARNESS_MAX_SIZE + 1))
                instance, _, report, violations = _draw(m, n, target, trial_seed)
                projector = FeasibleSetProjector(instance, report.point_analysis)
            crcq = report.crcq

            scan = _kappa_scan(
                projector, _RADII, _HARNESS_SAMPLES_PER_RADIUS, trial_seed
            )
            label = classify_kappa_growth(scan)
            retried = False
            if label == "inconclusive":
                retried = True
                scan = _kappa_scan(
                    projector, _RADII, 4 * _HARNESS_SAMPLES_PER_RADIUS, trial_seed + 1
                )
                label = classify_kappa_growth(scan)

            expected = "bounded" if crcq.holds else "growing"
            agree = label == expected

            dim_scan = fcr_dim_scan(
                projector.instance, report.point_analysis, samples=64, seed=trial_seed
            )
            fcr_ok = dim_scan is None or dim_scan.consistent
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
            # An invariant violation is a disagreement whatever the scan read.
            if violations or (label != "inconclusive" and not (agree and fcr_agree)):
                disagreements.append(t)
            elif label == "inconclusive":
                inconclusive.append(t)
        except (GenerationError, NumericalFailureError) as exc:
            failures.append((t, f"{type(exc).__name__}: {exc}"))

    return HarnessReport(
        trials=trials,
        seed=seed,
        rows=tuple(rows),
        disagreements=tuple(disagreements),
        inconclusive=tuple(inconclusive),
        failures=tuple(failures),
    )

"""Euclidean projection onto the feasible set of an affine cone constraint.

The feasible set Omega = {z : Az + b in Q_m} has exactly three global
shapes, and which one is the RCQ verdict at a feasible reference point,
decided by the checker's ``_rcq`` on the reference's ``PointAnalysis``,
whose geometry is the instance's cached SVD A = U_k Sigma V_k^T:

* RCQ holds: the slice meets the cone interior (Slater geometry).  The
  projection is solved exactly through a scalar secular equation, and
  every row is accepted only under an a-posteriori primal-dual gap
  certificate;
* RCQ fails: g(Omega) lies on a single ray of the cone, spanned by the
  unit d = g(ref) / ||g(ref)|| at a boundary reference, by the ray of
  Im(A) at the vertex, and by none when Im(A) meets the cone only at 0.
  When d is in Im(A), Omega = ref + null(A) + {s q : s >= -||g(ref)||}
  with q = A^+ d = V_k Sigma^-1 U_k^T d, a flat plus a half-line
  ("ray_flat"); otherwise A(z - ref) must vanish and
  Omega = ref + null(A) ("flat").  Both are projected in closed form.
  With a = Sigma^-1 U_k^T d and a_hat = a / ||a||, the complement of
  null(A) + span(q) has the projector V_k (I - a_hat a_hat^T) V_k^T,
  which is exactly zero at rank one, so feasible points keep distance 0;
  the half-line bounds the coordinate along q / ||q|| = V_k a_hat from
  below by -||g(ref)|| ||a||.

The degenerate shapes are precisely the instances on which the Slater
certificate has no attained dual and cannot close to tight tolerances, so
they are handled exactly instead.

Largest cone margin on an affine slice.  Both the vertex multiplier below
and the search for feasible and interior points maximize the margin
y0 - ||y_r|| over a slice c + Im(P), P an orthogonal projector.  With N an
orthonormal basis of Im(P), a = N_0, B = N_r, d = c_r and B^T s = a (s in
Im B), max = c0 - min_w (||d + Bw|| - a^T w) and
min_w ||d + Bw|| - a^T w = s^T d + ||d_perp|| sqrt(1 - ||s||^2), since
||y|| - s^T y over y in d + Im B is least at
y = d_perp + ||d_perp|| s / sqrt(1 - ||s||^2) (d_perp: d minus its
projection onto Im B).  Everything is read off P: alpha = P_00 = ||a||^2,
s = P_r0 / (1 - alpha), ||s||^2 = alpha / (1 - alpha),
proj(Im B) = P_rr + P_r0 P_r0^T / (1 - alpha), and the factor
kappa = 1 / sqrt(1 - ||s||^2) = sqrt((1 - alpha) / (1 - 2 alpha)).  The
margin is bounded exactly when alpha < 1/2, i.e. when Im(P) does not meet
the cone interior.  On the image slice b + Im(A), P = U_k U_k^T, the
spectral class of Im(A) gives three cases:

* Im(A) meets the cone interior: the margin is unbounded along the
  recession ray d / margin(A d), d = A^+ w for the interior witness w;
* Im(A) meets the cone only at 0 (alpha < 1/2): the maximizer above,
  attained;
* Im(A) touches the cone along one ray r = (1, e) / sqrt(2): Im(A) lies in
  the supporting hyperplane y0 = e^T y_r, so the margin is at most the
  linear form L = y0 - e^T y_r, which is constant on the slice.  The
  supremum L is in general not attained; c + tau (1, e) with
  tau = L + ||c_perp||^2 / L - e^T c_r (c_perp: c_r minus its e component)
  has margin at least L / 2 when L > 0.

A feasible reference, when none is given, is the least-squares vertex
-A^+ b or else the slice point of the matching case; when neither is
feasible, the supremum is negative, or zero and not attained, and the set
is empty.  The Slater projector needs an interior point only when there is
no recession ray: an interior reference is its own, otherwise the slice
point of its image supplies one.  All of this Slater data is built on
the first batch with an infeasible row: feasible rows are their own
projections, so a projector that only ever sees feasible rows never needs
it.

Slater geometry.  Write g(z) = Az + b, J = diag(1, -1, ..., -1),
M = A^T J A, c = A^T J b and beta = b^T J b.  The projection z of an
infeasible x lands either on the vertex preimage {g = 0} or on a smooth
boundary point, where the KKT conditions read z - x = t (Mz + c) with a
multiplier t >= 0, i.e. (I - tM) z = x + tc, together with
psi = g(z)^T J g(z) = 0 and g0(z) > 0.  One ``eigh`` M = Q diag(lam) Q^T
at construction turns this into a scalar secular equation per row: with
w = Q^T A^T J g(x),

    z(t) = x + t Q (w / (1 - t lam)),
    psi(t) = psi(0) + sum_i w_i^2 t (2 - t lam_i) / (1 - t lam_i)^2,
    psi'(t) = 2 sum_i w_i^2 / (1 - t lam_i)^3.

By Sylvester's law of inertia M inherits at most one positive eigenvalue
lam_+ from J, so psi has at most one pole 1/lam_+ on t > 0 and is strictly
increasing on the monotone branch [0, 1/lam_+): a row with psi(0) < 0 has
exactly one root there.  When that root lands on -Q (g0 < 0), or
psi(0) >= 0, the multiplier lies beyond the pole, where psi is not
monotone.  A row passes through two stages; the second runs only on the
rows the first left uncertified:

1. Vertex, when b is in Im(A) (otherwise no row projects onto the
   vertex).  The least-squares pullback z_v of the vertex, paired with the
   exact vertex multiplier: mu in Q with A^T mu = -(x - z_v) that
   maximizes the cone margin over mu_p + null(A^T), mu_p the
   pseudo-inverse solution, i.e. the slice maximizer above with
   P = I - U_k U_k^T.  Then alpha < 1/2, since b in Im(A) and the Slater
   point put an interior point into Im(A).
2. Secular root.  One fixed logarithmic grid covers both branches
   (t / (1/lam_+) from 1e-14 towards the pole, and the distance to the
   pole from 0.5 down to 1e-16 on both sides and up to 1e17 beyond it).
   The bracket is the first grid step where psi changes sign with g0 > 0
   at its positive end, found in two phases.  Phase 1 evaluates psi alone
   on the monotone-branch columns, for the rows with psi(0) <= 0: psi
   increases there, so such a row changes sign at most once, just before
   its first positive column p, and g0 at p alone decides that step.
   Phase 2 runs only on the rows phase 1 left without a bracket (psi(0)
   > 0, no positive column before the pole, or g0 <= 0 at p): it
   evaluates psi and g0 on the columns past the pole and takes the first
   good sign change there.  Without a pole the whole grid is the monotone
   branch and phase 2 has nothing to scan.  Both phases evaluate the grid
   as matrix products per fixed-size block of rows, so the working set
   does not grow with the batch.  Each bracket is refined by bracketed
   Newton from the secant point, run once on all bracketed rows.  Newton
   evaluates psi directly from g(z(t)) = A z(t) + b, whose rounding scales
   with ||g(z)|| rather than ||g(x)||, so its last steps are the polish of
   the root; a row freezes once psi is at rounding level (taking the
   Newton step from that value), its bracket has collapsed, or its step
   fell below sqrt(eps).  Near the pole the distance u = 1 - t lam_+ is
   carried alongside t, so both stay accurate.  A row without such a
   bracket is the hard case of trust-region solvers (w_+ = 0): t = 1/lam_+
   and the lam_+ coordinate solves the quadratic psi = 0 with g0 > 0.

Every candidate is certified the same way: ub is the distance to the
candidate made feasible (moved along an interior ray of the recession cone
when Im(A) meets the cone interior, else blended towards a known interior
point), and lb is the dual bound <-mu, g(x)> / ||A^T mu|| of a cone
multiplier mu.  A row is accepted once ub - lb <= tol * max(1, ||x||),
tol the instance's ``projection_tol``; otherwise ``NumericalFailureError``
is raised.

``project_batch`` returns a ``BatchProjection``: per row the feasible
point, ``ub`` and ``lb`` with lb <= dist(x, Omega) <= ub.  Feasible rows
and the closed-form geometries are exact, with lb = ub; on the Slater
geometry lb is the dual bound above, capped at ub.  Callers that bound
the distances of further points from these records (the kappa scan's
probes) need no second projection.

``project_batch`` is the one check of its rows ((N, n) and finite); the
private ``_project_rows`` behind it trusts them, and the kappa scan calls it
directly on the rows it built.  Inside, every margin, cone projection and
point location runs the private kernels of ``soc_core`` on arrays computed
here, without a second check.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .affine_instance import AffineSOCInstance, analyze_point
from .cq_checker import _rcq
from .errors import NumericalFailureError
from .soc_core import (  # PROJECTION_TOL is re-exported
    PROJECTION_TOL,
    ConeLocation,
    _margin,
    _margin_rows,
    _norm,
    _projection_rows,
    _row_norms,
    classify_cone_point,
)
from .subspace_cone import SubspaceConeClass, SubspaceKind

_EPS = float(np.finfo(float).eps)
_SQRT_EPS = float(np.sqrt(_EPS))

# The secular grid, four points per decade.  With a pole, in units of
# 1/lam_+: t = 0, then t from 1e-14 to 0.5, then the distance 1 - t to the
# pole from 0.5 down to 1e-16, then t - 1 from 1e-16 up to 1e17; u is
# 1 - t in the same units.  Without a pole, t in units of 1/max|lam|.
_S = np.geomspace(1e-14, 0.5, 58)
_U_NEAR = np.geomspace(0.5, 1e-16, 63)[1:]
_U_FAR = np.geomspace(1e-16, 1e17, 133)
_POLE_GRID_T = np.concatenate([[0.0], _S, 1.0 - _U_NEAR, 1.0 + _U_FAR])
_POLE_GRID_U = np.concatenate([[1.0], 1.0 - _S, _U_NEAR, -_U_FAR])
_POLE_GRID_GAP = _S.size + _U_NEAR.size       # the step across the pole
_FREE_GRID_T = np.concatenate([[0.0], np.geomspace(1e-14, 1e17, 125)])
#: Rows per block of either bracketing phase on the secular grid: each
#: block holds a few (rows x columns) arrays, psi on the monotone branch in
#: phase 1, psi and g0 past the pole in phase 2, so the working set stays
#: bounded for any batch.
_GRID_BLOCK = 128
#: A grid bracket spans a factor 10^(1/4), or [0, 1e-14] at the first
#: step, so bisection alone collapses it to rounding level in under 80
#: steps; Newton rows freeze after a handful.
_NEWTON_STEPS = 120


class BatchProjection(NamedTuple):
    """Per-row result of ``FeasibleSetProjector.project_batch``.

    ``points`` are feasible, ``ub`` is the distance of each row to its
    point and ``lb`` a certified lower bound on its distance to Omega:
    lb <= dist(x, Omega) <= ub and ub - lb <= projection_tol * max(1, ||x||).
    """

    points: np.ndarray
    ub: np.ndarray
    lb: np.ndarray


class _Geometry(enum.Enum):
    SLATER = "slater"
    RAY_FLAT = "ray_flat"
    FLAT = "flat"


@dataclass
class _SlaterData:
    pinv_t: np.ndarray       # pinv(A^T) = U_k diag(1/sigma) V_k^T, m x n
    ray: Optional[np.ndarray]  # d / margin(A d), A d interior (None: no such d)
    # I - U_k U_k^T, the slice of the vertex multiplier; None when b is not
    # in Im(A) and no row projects onto the vertex
    null_proj: Optional[np.ndarray]
    lam: np.ndarray          # eigenvalues of M, ascending; all but the last <= 0
    Q: np.ndarray            # eigenvectors of M
    AQ0: np.ndarray          # first row of A Q: g0 along z(t)
    pole: float              # 1 / lam_+ (inf without a positive eigenvalue)
    grid_t: np.ndarray       # secular grid: multipliers t ...
    grid_u: np.ndarray       # ... with u = 1 - t lam_top, exact near the pole
    grid_h: np.ndarray       # t (2 - t lam) / (1 - t lam)^2: psi = psi(0) + w^2 . h
    grid_v: np.ndarray       # t / (1 - t lam): g(z(t)) = g(x) + A Q (w * v)
    grid_gap: int            # step j -> j+1 that crosses the pole (-1: none)
    # the blend target of pull-ins without a recession ray, and its margin
    interior: Optional[np.ndarray]
    interior_margin: float


class FeasibleSetProjector:
    """Projects points onto Omega = {x : Ax + b in Q_m}.

    Built once per (instance, feasible reference) pair, the reference
    given as a point or as its ``PointAnalysis``; ``project_batch`` then
    handles arbitrarily many points.  The shape of Omega is the RCQ
    verdict at the reference; an infeasible reference is rejected by the
    point analysis, whose error carries the distance of its image to the
    cone.
    All returned points are feasible and all distances carry a
    certificate: where RCQ fails, Omega is a flat, or a flat plus a
    half-line, read off the instance's cached SVD and projected in closed
    form; on the Slater shape, an exact solve (vertex least squares with
    its exact multiplier, or a root of the secular equation, see the
    module docstring) accepted under a primal-dual gap bound.
    """

    def __init__(self, instance: AffineSOCInstance, reference):
        self.instance = instance
        analysis = analyze_point(instance, reference)
        ref, y_ref = analysis.x, analysis.y
        self.reference = ref
        self._flat_projector: Optional[np.ndarray] = None
        self._half_line: Optional[tuple[np.ndarray, float]] = None

        rcq = _rcq(analysis)
        if not rcq.holds:
            geo = analysis.geometry
            rows, U = geo.row_basis, geo.basis
            d = None
            if analysis.location is ConeLocation.POSITIVE_BOUNDARY:
                y_norm = _norm(y_ref)
                d = y_ref / y_norm
            elif geo.kind is SubspaceKind.RAY:
                d, y_norm = geo.ray, 0.0
            if d is not None and _norm(d - U @ (U.T @ d)) <= instance.tol:
                # Omega = ref + null(A) + {s q : s >= -y_norm}, q = A^+ d.
                self.geometry = _Geometry.RAY_FLAT
                a = (d @ U) / geo.singular_values[: geo.rank]
                norm_a = _norm(a)
                a_hat = a / norm_a
                # Not V_k V_k^T - q_hat q_hat^T: this form is exactly zero
                # at rank one, so feasible rows keep distance exactly 0.
                P = np.eye(geo.rank) - np.outer(a_hat, a_hat)
                self._flat_projector = rows.T @ P @ rows
                self._half_line = (a_hat @ rows, -y_norm * norm_a)
            else:
                # The half-line leaves Im(A), or there is none: Omega is
                # ref + null(A).
                self.geometry = _Geometry.FLAT
                self._flat_projector = rows.T @ rows
            return

        self.geometry = _Geometry.SLATER
        # What ``_slater`` needs of the reference: its image, and whether it
        # is an interior point, which is its own pull-in blend target.
        self._y_ref = y_ref
        self._interior = None
        if analysis.location is ConeLocation.INTERIOR:
            self._interior = (ref, rcq.evidence["margin"])

    # -- construction helpers -------------------------------------------

    @cached_property
    def _slater(self) -> _SlaterData:
        """The Slater data, built on first use: the first batch with an
        infeasible row."""
        return self._build_slater(_image_maps(self.instance))

    def _build_slater(self, maps: _ImageMaps) -> _SlaterData:
        """Vertex, secular-equation and pull-in data; see the module docstring.

        Without an interior reference or a recession ray, pull-ins blend
        towards the best point of the image slice through the reference, and
        a slice without an interior point raises ``NumericalFailureError``.
        """
        interior, interior_margin = self._interior or (None, 0.0)
        if interior is None and maps.ray is None:
            z = self.reference + _slice_step(self.instance, maps, self._y_ref)[0]
            interior_margin = _margin(self.instance._evaluate(z))
            if not interior_margin > 0.0:
                raise NumericalFailureError(
                    "the image slice has no interior point", interior_margin
                )
            interior = z

        A, b = self.instance.A, self.instance.b
        # A row can project onto the vertex preimage only when b is in Im(A).
        # The Slater point then lies in Im(A) too, so P_00 < 1/2.
        P = maps.null_proj
        vertex = float(P[0, 0]) < 0.5 and _norm(P @ b) <= self.instance.tol * max(
            1.0, _norm(b)
        )

        JA = A.copy()
        JA[1:] *= -1.0
        lam, Q = np.linalg.eigh(A.T @ JA)
        # Inertia: only the top eigenvalue may be positive.  Positive values
        # further down, and a top value inside the tolerance band, are
        # rounding artifacts of zero eigenvalues.
        spread = float(np.abs(lam).max())
        lam_top = float(lam[-1])
        lam = np.minimum(lam, 0.0)
        if lam_top > self.instance.tol * spread:
            lam[-1] = lam_top
            pole = 1.0 / lam_top
            grid_t, grid_u, grid_gap = pole * _POLE_GRID_T, _POLE_GRID_U, _POLE_GRID_GAP
        else:
            pole = np.inf
            grid_t = _FREE_GRID_T / spread if spread > 0.0 else _FREE_GRID_T
            grid_u = 1.0 - grid_t * lam[-1]
            grid_gap = -1
        E = 1.0 - grid_t[:, None] * lam
        E[:, -1] = grid_u
        return _SlaterData(
            pinv_t=maps.pinv_t,
            ray=maps.ray,
            null_proj=P if vertex else None,
            lam=lam,
            Q=Q,
            AQ0=A[0] @ Q,
            pole=pole,
            grid_t=grid_t,
            grid_u=grid_u,
            grid_h=grid_t[:, None] * (1.0 + E) / (E * E),
            grid_v=grid_t[:, None] / E,
            grid_gap=grid_gap,
            interior=interior,
            interior_margin=interior_margin,
        )

    # -- projection ------------------------------------------------------

    def project_batch(self, X: np.ndarray) -> BatchProjection:
        """Project the rows of X; returns their ``BatchProjection`` record.

        X must be (N, n) and finite; anything else raises ``DimensionError``.
        """
        return self._project_rows(self.instance._point_rows(X))

    def _project_rows(self, X: np.ndarray) -> BatchProjection:
        """``project_batch`` on rows that are already (N, n) and finite."""
        if self.geometry is _Geometry.SLATER:
            return self._project_slater(X)
        R = X - self.reference
        delta = R @ self._flat_projector.T
        if self._half_line is not None:
            # Rows below the half-line's end move up to it along q / ||q||.
            q, lo = self._half_line
            delta += np.minimum(R @ q - lo, 0.0)[:, None] * q
        dist = _row_norms(delta)
        return BatchProjection(X - delta, dist, dist)

    def project(self, x) -> tuple[np.ndarray, float]:
        Z, d, _ = self.project_batch(np.asarray(x, dtype=float)[None, :])
        return Z[0], float(d[0])

    # -- Slater geometry: exact solve with duality certificate -----------

    def _project_slater(self, X: np.ndarray):
        A, b = self.instance.A, self.instance.b
        Z_out = X.copy()
        ub_out = np.zeros(X.shape[0])
        lb_out = np.zeros(X.shape[0])
        GX = X @ A.T + b
        todo = np.flatnonzero(_margin_rows(GX) < 0.0)
        if todo.size == 0:
            return BatchProjection(Z_out, ub_out, lb_out)
        Xs, GXs = X[todo], GX[todo]
        gap_tol = self.instance.projection_tol * np.maximum(1.0, _row_norms(Xs))

        if self._slater.null_proj is not None:
            best_Z, ub, lb = self._vertex_candidate(Xs, GXs)
        else:
            best_Z, ub, lb = Xs.copy(), np.full(len(Xs), np.inf), np.zeros(len(Xs))
        rows = np.flatnonzero(~(ub - lb <= gap_tol))
        if rows.size:
            Z, ub_s, lb_s = self._secular_candidate(Xs[rows], GXs[rows])
            better = ub_s < ub[rows]
            best_Z[rows[better]] = Z[better]
            ub[rows[better]] = ub_s[better]
            lb[rows] = np.fmax(lb[rows], lb_s)

        gap = ub - lb
        if not (gap <= gap_tol).all():
            worst = float(gap.max())
            raise NumericalFailureError(
                f"projection gap {worst:.3e} not certified", worst
            )
        Z_out[todo] = best_Z
        ub_out[todo] = ub
        lb_out[todo] = np.fmin(lb, ub)
        return BatchProjection(Z_out, ub_out, lb_out)

    def _pull_inside(self, Z: np.ndarray, mz: np.ndarray) -> np.ndarray:
        """Move rows with negative margin ``mz`` into Omega.

        The margin is concave and positively homogeneous.  When Im(A)
        meets the cone interior, the step -mz along the recession ray
        d / margin(A d) restores feasibility at a cost independent of the
        distance to the reference; otherwise the blend towards the
        interior point with weight -mz / (interior margin - mz) does.
        """
        neg = mz < 0.0
        if neg.any():
            Z = Z.copy()
            sd = self._slater
            if sd.ray is not None:
                Z[neg] -= mz[neg, None] * sd.ray
            else:
                theta = -mz[neg] / (sd.interior_margin - mz[neg])
                Z[neg] += theta[:, None] * (sd.interior - Z[neg])
        return Z

    def _dual_bound(self, Mu, Xs, Z, GZ) -> np.ndarray:
        """max(0, <-mu, g(x)> / ||A^T mu||) per row, for multipliers mu in Q.

        For feasible w, <mu, g(w)> >= 0, so <-mu, g(x)> <= <mu, A(w - x)>
        <= ||A^T mu|| ||x - w||: a lower bound on dist(x, Omega).  The
        numerator is evaluated as <-mu, g(z)> - <A^T mu, x - z> at the
        candidate z, which keeps its relative precision when ||A^T mu|| is
        small and x is far away.
        """
        AtMu = Mu @ self.instance.A
        num = -np.einsum("ij,ij->i", Mu, GZ) - np.einsum("ij,ij->i", AtMu, Xs - Z)
        den = _row_norms(AtMu)
        lb = np.zeros(num.shape[0])
        good = den > 1e-300
        lb[good] = np.fmax(0.0, num[good] / den[good])
        return lb

    def _certify(self, Xs: np.ndarray, GXs: np.ndarray, Z: np.ndarray):
        """(feasible Z, ub, lb) for candidates at the smooth boundary.

        The multiplier is (1, -ghat) with ghat = g_r(z) / ||g_r(z)||, the
        normal direction at z; it is exact when z is the projection.
        """
        A, b = self.instance.A, self.instance.b
        G = Z @ A.T + b
        nr = _row_norms(G[:, 1:])
        Zf = self._pull_inside(Z, G[:, 0] - nr)
        ub = _row_norms(Xs - Zf)
        Mu = np.empty_like(G)
        Mu[:, 0] = 1.0
        Mu[:, 1:] = -G[:, 1:] / np.maximum(nr, 1e-300)[:, None]
        return Zf, ub, self._dual_bound(Mu, Xs, Z, G)

    def _vertex_candidate(self, Xs: np.ndarray, GXs: np.ndarray):
        """Least-squares pullback z_v of the cone vertex, with its multiplier.

        Solves min ||z - x|| s.t. A z + b = 0 per row and pairs it with the
        margin-maximizing multiplier of the module docstring.  Exact for
        rows whose projection is the vertex preimage; harmless elsewhere.
        """
        A, b = self.instance.A, self.instance.b
        sd = self._slater
        D = GXs @ sd.pinv_t                  # x - z_v = A^+ g(x)
        Gv = (Xs - D) @ A.T + b
        Zv = self._pull_inside(Xs - D, _margin_rows(Gv))
        # A^T mu = -(x - z_v) on the slice -pinv(A^T)(x - z_v) + null(A^T)
        Mu = _max_margin(sd.null_proj, -(D @ sd.pinv_t.T))
        lb = self._dual_bound(_projection_rows(Mu), Xs, Xs - D, Gv)
        return Zv, _row_norms(Xs - Zv), lb

    def _secular_candidate(self, Xs: np.ndarray, GXs: np.ndarray):
        """Root of the secular equation per row (module docstring, stage 2)."""
        sd = self._slater
        JG = GXs.copy()
        JG[:, 1:] *= -1.0
        W = (JG @ self.instance.A) @ sd.Q    # w = Q^T A^T J g(x)
        psi0 = GXs[:, 0] ** 2 - np.einsum("ij,ij->i", GXs[:, 1:], GXs[:, 1:])
        has, j, pl, pr = self._secular_bracket(GXs, W, psi0)
        Z = Xs.copy()

        rows = np.flatnonzero(has)
        if rows.size:
            j, pl, pr = j[rows], pl[rows], pr[rows]
            tl, tr = sd.grid_t[j], sd.grid_t[j + 1]
            ul, ur = sd.grid_u[j], sd.grid_u[j + 1]
            flip = pl > 0.0                   # psi > 0 at the left end
            w = pl / (pl - pr)                # secant start; u is affine in t
            Z[rows] = self._bracketed_newton(
                Xs[rows],
                W[rows],
                np.where(flip, tr, tl),
                np.where(flip, ur, ul),
                np.where(flip, tl, tr),
                np.where(flip, ul, ur),
                tl + w * (tr - tl),
                ul + w * (ur - ul),
            )

        hard = np.flatnonzero(~has) if np.isfinite(sd.pole) else np.zeros(0, int)
        if hard.size:
            Z[hard] = self._hard_case(Xs[hard], W[hard], psi0[hard])
        return self._certify(Xs, GXs, Z)

    def _secular_bracket(self, GXs, W, psi0):
        """(has, j, pl, pr): the first grid step j -> j + 1 where psi changes
        sign and g0 > 0 at its positive end, and psi at both of its ends.

        A continuous path within psi > 0 keeps the sign of g0, so the root
        such a step brackets lies on +Q.  Phase 1 reads the monotone branch:
        psi increases there, so a row with psi(0) <= 0 has at most one sign
        change on it, just before its first positive column p, and only g0
        at p decides it.  Phase 2 scans the columns past the pole, on the
        rows phase 1 left without a bracket.  Both run in row blocks.
        """
        sd = self._slater
        count = len(W)
        has = np.zeros(count, dtype=bool)
        j = np.zeros(count, dtype=np.intp)
        pl, pr = np.zeros(count), np.zeros(count)
        mono = sd.grid_gap + 1 if sd.grid_gap >= 0 else sd.grid_t.size
        rows = np.flatnonzero(psi0 <= 0.0)
        for lo in range(0, rows.size, _GRID_BLOCK):
            r = rows[lo : lo + _GRID_BLOCK]
            Wb = W[r]
            psi = psi0[r, None] + (Wb * Wb) @ sd.grid_h[:mono].T
            p = (psi > 0.0).argmax(axis=1)   # 0: no positive column
            g0 = GXs[r, 0] + np.einsum("ij,ij->i", Wb * sd.AQ0, sd.grid_v[p])
            at = np.flatnonzero((p > 0) & (g0 > 0.0))
            r, p = r[at], p[at]
            has[r], j[r], pl[r], pr[r] = True, p - 1, psi[at, p - 1], psi[at, p]
        if sd.grid_gap < 0:
            return has, j, pl, pr
        past = slice(mono, None)
        rows = np.flatnonzero(~has)
        for lo in range(0, rows.size, _GRID_BLOCK):
            r = rows[lo : lo + _GRID_BLOCK]
            Wb = W[r]
            psi = psi0[r, None] + (Wb * Wb) @ sd.grid_h[past].T
            g0 = GXs[r, :1] + (Wb * sd.AQ0) @ sd.grid_v[past].T
            pos = psi > 0.0
            good = (pos[:, :-1] != pos[:, 1:]) & (
                np.where(pos[:, 1:], g0[:, 1:], g0[:, :-1]) > 0.0
            )
            at = np.flatnonzero(good.any(axis=1))
            r, jb = r[at], good[at].argmax(axis=1)
            has[r], j[r] = True, mono + jb
            pl[r], pr[r] = psi[at, jb], psi[at, jb + 1]
        return has, j, pl, pr

    def _bracketed_newton(self, Xs, W, tn, un, tp, up, t, u):
        """Newton on psi(t) inside [tn, tp] (psi(tn) < 0 < psi(tp)), with
        bisection whenever a step leaves the bracket; returns z(t).

        psi is evaluated from g(z(t)) = A z(t) + b directly: its rounding
        then scales with ||g(z)||, not with ||g(x)|| as the sum
        psi(0) + sum_i (...) would, which matters for distant x.
        """
        A, b = self.instance.A, self.instance.b
        sd = self._slater
        lam_top = sd.lam[-1]
        norm_A, norm_b = self.instance.norm_A(), _norm(b)
        W2 = W * W
        active = np.ones(t.size, dtype=bool)
        for _ in range(_NEWTON_STEPS):
            if not active.any():
                break
            E = 1.0 - t[:, None] * sd.lam
            E[:, -1] = u
            Z = Xs + t[:, None] * ((W / E) @ sd.Q.T)
            G = Z @ A.T + b
            g2 = np.einsum("ij,ij->i", G, G)
            psi = 2.0 * G[:, 0] ** 2 - g2
            neg = psi < 0.0
            tn, un = np.where(neg, t, tn), np.where(neg, u, un)
            tp, up = np.where(neg, tp, t), np.where(neg, up, u)
            # Freeze rows at rounding level of psi or of the point (t, u),
            # whose scale is t, or its distance to the pole when smaller.
            noise = _EPS * np.sqrt(g2) * (
                norm_A * np.sqrt(np.einsum("ij,ij->i", Z, Z)) + norm_b
            )
            scale = np.fmin(t, np.abs(u) * sd.pole)
            stepping = active.copy()
            active &= np.abs(psi) > 8.0 * noise
            active &= np.abs(tp - tn) > 4.0 * _EPS * scale
            step = -psi / (2.0 * (W2 / (E * E * E)).sum(axis=1))
            t_new = t + step
            inside = (t_new - tn) * (t_new - tp) < 0.0
            # Rows freezing now still take their Newton step when it stays
            # in the bracket: near rounding level it can only help.
            newton = stepping & inside
            t_mid, u_mid = 0.5 * (tn + tp), 0.5 * (un + up)
            t = np.where(newton, t_new, np.where(active, t_mid, t))
            u = np.where(newton, u - lam_top * step, np.where(active, u_mid, u))
            # Newton converges quadratically: after a step below sqrt(eps)
            # of the scale, the error left is at rounding level.
            active &= ~inside | (np.abs(step) > _SQRT_EPS * scale)
        E = 1.0 - t[:, None] * sd.lam
        E[:, -1] = u
        return Xs + t[:, None] * ((W / E) @ sd.Q.T)

    def _hard_case(self, Xs, W, psi0):
        """t = 1/lam_+; the lam_+ coordinate solves psi = 0 with g0 > 0."""
        sd = self._slater
        t = sd.pole
        E = 1.0 - t * sd.lam[:-1]
        Wr, w = W[:, :-1], W[:, -1]
        R = psi0 + (Wr * Wr) @ (t * (1.0 + E) / (E * E))
        root = np.sqrt(np.fmax(w * w - R / t, 0.0))
        # psi = R + 2 w s + s^2 / t in the offset s of the top coordinate,
        # and g0 changes by (A Q)[0, top] s: the root of larger g0 is kept.
        s = t * (-w + (root if sd.AQ0[-1] >= 0.0 else -root))
        return Xs + (t * Wr / E) @ sd.Q[:, :-1].T + s[:, None] * sd.Q[:, -1]


def _max_margin(P: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Per row c of C, the point of c + Im(P) of largest cone margin.

    P is an orthogonal projector with P_00 < 1/2; the closed form is in the
    module docstring.
    """
    alpha = float(P[0, 0])
    p = P[1:, 0]
    s = p / (1.0 - alpha)
    proj = P[1:, 1:] + np.outer(p, p) / (1.0 - alpha)
    kappa = float(np.sqrt((1.0 - alpha) / (1.0 - 2.0 * alpha)))
    cr = C[:, 1:]
    perp = cr - cr @ proj
    lift = kappa * _row_norms(perp)
    Y = np.empty_like(C)
    Y[:, 0] = C[:, 0] + (lift * float(s @ s) - cr @ s)
    Y[:, 1:] = perp + lift[:, None] * s
    return Y


class _ImageMaps(NamedTuple):
    geo: SubspaceConeClass
    pinv_t: np.ndarray           # pinv(A^T) = U_k diag(1/sigma) V_k^T, m x n
    null_proj: np.ndarray        # I - U_k U_k^T, the projector onto null(A^T)
    ray: Optional[np.ndarray]    # d / margin(A d), A d interior (None: no such d)


def _image_maps(instance: AffineSOCInstance) -> _ImageMaps:
    """pinv(A^T), the projector onto null(A^T) and the recession ray.

    Shared by the projector and the reference search, and read off the
    memoized ``instance.geometry()``; the ray's d is A^+ w for the
    interior witness w, when Im(A) meets the cone interior.
    """
    geo = instance.geometry()
    U = geo.basis
    pinv_t = (U / geo.singular_values[: geo.rank]) @ geo.row_basis
    ray = None
    if geo.kind is SubspaceKind.MEETS_INTERIOR:
        d = geo.witness @ pinv_t
        margin = _margin(instance.A @ d)
        if margin > 0.0:
            ray = d / margin
    return _ImageMaps(geo, pinv_t, np.eye(instance.m) - U @ U.T, ray)


def _slice_step(instance: AffineSOCInstance, maps: _ImageMaps, y: np.ndarray):
    """(x-step, supremum) towards a large cone margin on y + Im(A).

    The three cases of the module docstring: along the recession ray until
    the margin is at least ||y|| (supremum inf), to the exact maximizer,
    or to a point of margin at least L / 2 (supremum L).  The step is zero
    when there is none to take: no ray, or L <= 0.
    """
    geo, pinv_t, P, ray = maps
    if geo.kind is SubspaceKind.MEETS_INTERIOR:
        if ray is None:
            return np.zeros(instance.n), np.inf
        return (_norm(y) - _margin(y)) * ray, np.inf
    if geo.kind is SubspaceKind.ZERO_ONLY:
        best = _max_margin(np.eye(instance.m) - P, y[None, :])[0]
        return (best - y) @ pinv_t, _margin(best)
    e = geo.ray[1:] / geo.ray[0]              # (1, e) spans the ray
    along = float(e @ y[1:])
    sup = float(y[0]) - along
    if not sup > 0.0:
        return np.zeros(instance.n), sup
    perp = y[1:] - along * e
    tau = sup + float(perp @ perp) / sup - along
    return (tau / geo.ray[0]) * (geo.ray @ pinv_t), sup


def _search_feasible_reference(instance: AffineSOCInstance) -> np.ndarray:
    """A feasible point: the least-squares vertex -A^+ b, else the slice point.

    Each candidate passes the projector's own test, g(z) not OUTSIDE at the
    instance's ``tol``.  When neither does, the supremum of the cone margin
    over b + Im(A) is negative, or zero and not attained: the set is empty,
    and the ``NumericalFailureError`` carries the supremum as its residual.
    """
    maps = _image_maps(instance)
    z = -(instance.b @ maps.pinv_t)
    y = instance.evaluate(z)
    if classify_cone_point(y, instance.tol) is not ConeLocation.OUTSIDE:
        return z
    step, sup = _slice_step(instance, maps, y)
    z = z + step
    y = instance.evaluate(z)
    if classify_cone_point(y, instance.tol) is not ConeLocation.OUTSIDE:
        return z
    raise NumericalFailureError(
        f"the feasible set is empty: the cone margin on b + Im(A) has "
        f"supremum {sup:.6g}",
        sup,
    )


def project_to_feasible_set(
    instance: AffineSOCInstance,
    x,
    reference=None,
) -> tuple[np.ndarray, float]:
    """Project ``x`` onto the feasible set; returns (point, distance).

    A feasible ``reference`` pins down the global shape of the feasible
    set.  Without one, the routine finds a reference in closed form (the
    least-squares vertex or the best point of the image slice, see the
    module docstring), or raises ``NumericalFailureError`` with the
    supremum of the cone margin as the certificate that the set is empty.
    The certified gap is the instance's ``projection_tol``; the shape
    decision, and the feasibility of ``x`` itself, use its ``tol``: a point
    whose image is not OUTSIDE the cone at that tolerance is its own
    projection.
    """
    x = instance.point(x)
    y = instance._image(x)
    if classify_cone_point(y, instance.tol) is not ConeLocation.OUTSIDE:
        return x.copy(), 0.0
    if reference is None:
        reference = _search_feasible_reference(instance)
    projector = FeasibleSetProjector(instance, reference)
    return projector.project(x)

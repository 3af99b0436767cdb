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
  When d is in Im(A) (``SubspaceConeClass._in_image``),
  Omega = ref + null(A) + {s q : s >= -||g(ref)||}
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
the cone interior.  On the image slice b + Im(A), P = U_k U_k^T and
alpha = t^2, t = ||U_k[0]|| the number that classifies Im(A) in
``subspace_cone``, and the class gives three cases:

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
-A^+ b or else the slice point of the matching case, whichever
``analyze_point`` accepts first, and the projector reads that analysis;
when it accepts neither, the supremum is negative, or zero and not
attained, and the set is empty.  The search and the Slater data below read
pinv(A^T) and I - U_k U_k^T off the instance's SVD record, computed once
per instance, and the vertex stage the ``_margin_frame`` of its slice off
the Slater data.  The Slater projector needs an interior point only when
there is no recession ray: an interior reference is its own, otherwise
the slice point of its image supplies one.  All of this Slater data is
built on the first batch with an infeasible row: feasible rows are their
own projections, so a projector that only ever sees feasible rows never
needs it.

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

All of this runs on (s A, s b), s the power of two that puts sigma_max(A)
in [1/2, 1): Omega is the same, and w, which grows like ||A||^2 ||g(x)||,
and t, like 1 / ||A||^2, stay in floating-point range at any scale of
(A, b).

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
   at its positive end; the step across the pole is skipped.  psi and g0
   are evaluated on every column of the grid in one pass, as matrix
   products per fixed-size block of rows, so the working set does not
   grow with the batch; each row enters them scaled by a power of two
   near its largest |g(x)|, which keeps psi, quadratic in g(x), from
   overflowing at distant x or underflowing at near ones and changes no
   sign or ratio.  Each bracket
   is refined by bracketed Newton from the secant point; the bracket's
   orientation and that start are computed once for all bracketed rows,
   and Newton runs once on all of them.  Newton
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

Each formula of the Slater stages is written once, as a method that
reduces rows through a table, and two drivers call them:
``_project_slater`` on (N, n) rows through ``_ROWS``, and ``_project_row``
on the one row that ``project`` and ``project_to_feasible_set`` pass,
through ``_ROW``, with the row's values in Python floats and its vectors
in 1-D numpy, since numpy's per-call cost on length-1 arrays would
dominate.  A driver keeps only its row selection and its table (row dot,
row norm, cone margin and projection, select, min and max, ...); no cone
rule is restated: a row's margin is its table's ``margin`` entry, and the
projection onto Q is ``soc_core._projection_rows`` in both.  The two
tables sum some terms in different orders, so a lone row lands within
rounding of the batch's record of it.  Only the vertex candidate, Newton
and the certificate go through ``_ROW``: the lone row's secular data,
psi(0), grid bracket and hard case run on it as a one-row block, so its
bracket and Newton start are a one-row batch's, bit for bit.  Batches of
two or more rows never take ``_project_row``.

``project_batch`` returns a ``BatchProjection``: per row the feasible
point, ``ub`` and ``lb`` with lb <= dist(x, Omega) <= ub.  Feasible rows
and the closed-form geometries are exact, with lb = ub; on the Slater
geometry lb is the dual bound above, capped at ub.  ``_ray_distances``
bounds the distances of further points on the rays of a record (the
kappa scan's probes), which then need no second projection.

``project_batch`` checks its rows ((N, n), the magnitude rule on the rows
and their images) and ``project`` its one point; the private
``_project_rows`` behind both trusts them, and the kappa scan and
``project_to_feasible_set`` call it directly on the rows they checked,
each entry with the images it checked, when it holds them.  Only the
projector decides whether a point is its own projection: the Slater
drivers when its image lies in Q by their table's margin, the flat shapes
by their closed form.  ``project_to_feasible_set`` projects every point
from a reference; its body, ``_project_point``, takes a checked point and
its image, so ``socpcq project`` evaluates its point once.
Inside, every margin, cone projection and point location runs the private
kernels of ``soc_core`` on arrays computed here, without a second check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .affine_instance import AffineSOCInstance, PointAnalysis, analyze_point
from .cq_checker import _rcq
from .errors import InfeasiblePointError, NumericalFailureError
from .soc_core import (  # PROJECTION_TOL is re-exported
    PROJECTION_TOL,
    ConeLocation,
    _margin,
    _margin_rows,
    _norm,
    _projection_rows,
    _row_norms,
)
from .subspace_cone import SubspaceKind

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
#: Rows per block of the bracket search on the secular grid: each block
#: holds a few (rows x columns) arrays, psi and g0 on every column, so the
#: working set stays bounded for any batch.
_GRID_BLOCK = 128
#: A grid bracket spans a factor 10^(1/4), or [0, 1e-14] at the first
#: step, so bisection alone collapses it to rounding level in under 80
#: steps; Newton rows freeze after a handful.
_NEWTON_STEPS = 120
#: A Newton row freezes once |psi| is within this many times its rounding
#: noise, its bracket is at most _FREEZE_BRACKET * scale wide, or its step
#: was below _FREEZE_STEP * scale, scale being t or its distance to the pole.
_FREEZE_PSI = 8.0
_FREEZE_BRACKET = 4.0 * _EPS
_FREEZE_STEP = _SQRT_EPS


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
    # All of this is for the scaled data (s A, s b); see ``_build_slater``.
    scale: float             # s
    A: np.ndarray            # s A
    b: np.ndarray            # s b
    ray: Optional[np.ndarray]  # d / margin(s A d), A d interior (None: no such d)
    # The vertex stage's pinv((s A)^T) = U_k diag(1/(s sigma)) V_k^T (m x n)
    # and ``_margin_frame`` of its slice I - U_k U_k^T; None when b is not in
    # Im(A) and no row projects onto the vertex
    pinv_t: Optional[np.ndarray]
    vertex: Optional[tuple]
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


def _update_rows(mask, X, f, v):
    """X with f(rows, column of v) in place of the rows where mask holds."""
    if not mask.any():
        return X
    X = X.copy()
    X[mask] = f(X[mask], v[mask, None])
    return X


#: The reductions of the batch driver ``_project_slater``: rows are an
#: (N, k) array, a value per row an (N,) array.  ``apply(M, X)`` is M
#: applied to each row, ``col`` a value per row as a column against rows,
#: ``head`` the first coordinate, ``slope(W2, C, E)`` the sum of
#: w_i^2 / E_i^3 (W2 = W * W, C = W / E), ``margin`` y0 - ||y_r||, ``cone``
#: the projection onto Q, and ``update(mask, X, f, v)`` X with f(rows, v)
#: where mask holds.
_ROWS = SimpleNamespace(
    dot=lambda X, Y: np.einsum("ij,ij->i", X, Y),
    slope=lambda W2, C, E: (W2 / (E * E * E)).sum(axis=1),
    norm=_row_norms,
    head=lambda X: X[:, 0],
    apply=lambda M, X: X @ M.T,
    col=lambda v: v[:, None],
    select=np.where,
    min=np.fmin,
    max=np.fmax,
    sqrt=np.sqrt,
    any=np.any,
    all=np.all,
    margin=_margin_rows,
    cone=_projection_rows,
    update=_update_rows,
)
#: The same reductions for the lone-row driver ``_project_row``: its row is
#: 1-D and its values Python floats, since numpy's per-call cost on
#: length-1 arrays would dominate.  min and max keep their first argument
#: against a NaN second, as np.fmin and np.fmax do.  The two tables sum in
#: different orders (a BLAS dot against einsum; the slope and the margin's
#: norm as a dot against a pairwise sum), and each driver's records, and
#: the pinned and golden outputs built on them, rest on its own order.
_ROW = SimpleNamespace(
    dot=lambda x, y: float(x @ y),
    # A zero slope reads NaN, a step that never stays inside the bracket.
    slope=lambda w2, c, e: float(c @ (c / e)) or math.nan,
    norm=_norm,
    head=lambda x: float(x[0]),
    apply=np.matmul,
    col=lambda v: v,
    select=lambda c, a, b: a if c else b,
    min=min,
    max=max,
    sqrt=math.sqrt,
    any=bool,
    all=bool,
    margin=lambda g: float(g[0]) - _norm(g[1:]),
    cone=lambda mu: _projection_rows(mu[None, :])[0],
    update=lambda mask, x, f, v: f(x, v) if mask else x,
)


class FeasibleSetProjector:
    """Projects points onto Omega = {x : Ax + b in Q_m}.

    Built once per (instance, feasible reference) pair, the reference
    given as a point or as its ``PointAnalysis``; ``project_batch`` then
    handles arbitrarily many points.  The shape of Omega is the RCQ
    verdict at the reference; an infeasible reference is rejected by the
    point analysis, whose error carries the distance of its image to the
    cone.  The projector keeps that ``PointAnalysis`` as ``analysis``
    (``reference`` is its point), which the Slater data and the kappa
    scan's ball test read.
    All returned points are feasible and all distances carry a
    certificate: where RCQ fails, Omega is a flat, or a flat plus a
    half-line, read off the instance's cached SVD and projected in closed
    form; on the Slater shape, an exact solve (vertex least squares with
    its exact multiplier, or a root of the secular equation, see the
    module docstring) accepted under a primal-dual gap bound.
    """

    def __init__(self, instance: AffineSOCInstance, reference):
        self.instance = instance
        self.analysis = analysis = analyze_point(instance, reference)
        self.reference = analysis.x
        self._flat_projector: Optional[np.ndarray] = None
        self._half_line: Optional[tuple[np.ndarray, float]] = None

        if not _rcq(analysis).holds:
            geo = analysis.geometry
            rows = geo.row_basis
            d = None
            if analysis.location is ConeLocation.POSITIVE_BOUNDARY:
                y_norm = _norm(analysis.y)
                d = analysis.y / y_norm
            elif geo.kind is SubspaceKind.RAY:
                d, y_norm = geo.ray, 0.0
            if d is not None and geo._in_image(d, instance.tol):
                # Omega = ref + null(A) + {s q : s >= -y_norm}, q = A^+ d.
                self.geometry = _Geometry.RAY_FLAT
                a = (d @ geo.basis) / geo.singular_values[: geo.rank]
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

    # -- construction helpers -------------------------------------------

    @cached_property
    def _slater(self) -> _SlaterData:
        """The Slater data, built on first use: the first batch with an
        infeasible row."""
        return self._build_slater()

    def _build_slater(self) -> _SlaterData:
        """Vertex, secular-equation and pull-in data; see the module docstring.

        Without an interior reference or a recession ray, pull-ins blend
        towards the best point of the image slice through the reference, and
        a slice without an interior point raises ``NumericalFailureError``.

        The data is that of (s A, s b) (module docstring), s = 2^-k with
        2^k the power of two just above sigma_max(A).  A power of two scales
        every value exactly, so the points and bounds of x-space come out
        the same as on (A, b) wherever both are in range.  The vertex test
        reads the instance's own b.
        """
        geo = self.instance.geometry()
        ray = _recession_ray(self.instance)
        analysis, interior, interior_margin = self.analysis, None, 0.0
        if analysis.location is ConeLocation.INTERIOR:
            interior, interior_margin = analysis.x, _margin(analysis.y)
        elif ray is None:
            z = self.reference + _slice_step(self.instance, analysis.y)[0]
            interior_margin = _margin(self.instance._evaluate(z))
            if not interior_margin > 0.0:
                raise NumericalFailureError(
                    "the image slice has no interior point", interior_margin
                )
            interior = z

        # A row can project onto the vertex preimage only when b is in Im(A).
        # The Slater point then lies in Im(A) too, so P_00 < 1/2.
        P, b = geo._null_proj, self.instance.b
        vertex = float(P[0, 0]) < 0.5 and geo._in_image(b, self.instance.tol)

        scale = math.ldexp(1.0, -math.frexp(float(geo.singular_values[0]))[1])
        A, b = scale * self.instance.A, scale * b
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
            scale=scale,
            A=A,
            b=b,
            ray=None if ray is None else ray / scale,
            pinv_t=geo._pinv_t / scale if vertex else None,
            vertex=_margin_frame(P) if vertex else None,
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
            interior_margin=scale * interior_margin,
        )

    # -- projection ------------------------------------------------------

    def project_batch(self, X: np.ndarray) -> BatchProjection:
        """Project the rows of X; returns their ``BatchProjection`` record.

        X must be (N, n), and its rows and their images must obey the
        instance's magnitude rule; anything else raises ``DimensionError``.
        """
        X = self.instance._point_rows(X)
        return self._project_rows(X, self.instance._image(X))

    def _project_rows(self, X: np.ndarray, GX=None) -> BatchProjection:
        """``project_batch`` on rows that are already (N, n) and finite, with
        their images GX when the caller holds them."""
        if self.geometry is _Geometry.SLATER:
            if GX is None:
                GX = self.instance._evaluate(X)
            if X.shape[0] != 1:
                return self._project_slater(X, GX)
            z, ub, lb = self._project_row(X[0], GX[0])
            return BatchProjection(z[None, :], np.array([ub]), np.array([lb]))
        R = X - self.reference
        delta = R @ self._flat_projector.T
        if self._half_line is not None:
            # Rows below the half-line's end move up to it along q / ||q||.
            q, lo = self._half_line
            delta += np.minimum(R @ q - lo, 0.0)[:, None] * q
        dist = _row_norms(delta)
        return BatchProjection(X - delta, dist, dist)

    def project(self, x) -> tuple[np.ndarray, float]:
        """``project_batch`` on one point of shape (n,); returns (point, distance)."""
        x = self.instance.point(x)
        Z, d, _ = self._project_rows(x[None, :], self.instance._image(x)[None, :])
        return Z[0], float(d[0])

    # -- Slater geometry: exact solve with duality certificate -----------

    def _project_slater(self, X: np.ndarray, GX: np.ndarray):
        Z_out = X.copy()
        ub_out = np.zeros(X.shape[0])
        lb_out = np.zeros(X.shape[0])
        todo = np.flatnonzero(_ROWS.margin(GX) < 0.0)
        if todo.size == 0:
            return BatchProjection(Z_out, ub_out, lb_out)
        # From here on, images are those of the scaled data.
        Xs, GXs = X[todo], self._slater.scale * GX[todo]
        gap_tol = self._gap_tol(_ROWS, Xs)

        if self._slater.vertex is not None:
            best_Z, ub, lb = self._vertex_candidate(_ROWS, Xs, GXs)
        else:
            best_Z, ub, lb = Xs.copy(), np.full(len(Xs), np.inf), np.zeros(len(Xs))
        rows = np.flatnonzero(~(ub - lb <= gap_tol))
        if rows.size:
            Z, ub_s, lb_s = self._secular_candidate(Xs[rows], GXs[rows])
            better = ub_s < ub[rows]
            best_Z[rows[better]] = Z[better]
            ub[rows[better]] = ub_s[better]
            lb[rows] = np.fmax(lb[rows], lb_s)

        _check_gap(_ROWS, ub, lb, gap_tol)
        Z_out[todo] = best_Z
        ub_out[todo] = ub
        lb_out[todo] = np.fmin(lb, ub)
        return BatchProjection(Z_out, ub_out, lb_out)

    def _secular_candidate(self, Xs: np.ndarray, GXs: np.ndarray):
        """Root of the secular equation per row (module docstring, stage 2)."""
        W, Gd, Wd = self._secular_data(GXs)
        has, j, pl, pr = self._secular_bracket(Gd, Wd, _psi0(Gd))
        Z = Xs.copy()

        rows = np.flatnonzero(has)
        if rows.size:
            start = self._newton_start(_ROWS, j[rows], pl[rows], pr[rows])
            Z[rows] = self._newton(_ROWS, Xs[rows], W[rows], *start)

        if np.isfinite(self._slater.pole):
            hard = np.flatnonzero(~has)
            if hard.size:
                Z[hard] = self._hard_case(Xs[hard], W[hard], _psi0(GXs[hard]))
        return self._certify(_ROWS, Xs, Z)

    def _project_row(self, x: np.ndarray, g: np.ndarray):
        """``_project_slater`` on one row x of shape (n,) and its image g:
        (z, ub, lb), z a new array.  The vertex candidate, Newton and the
        certificate run through ``_ROW``; the secular data, psi(0), bracket
        and hard case run on the row as the one-row block ``gs[None, :]``."""
        if not _ROW.margin(g) < 0.0:          # as ``_project_slater``'s todo
            return x.copy(), 0.0, 0.0
        sd = self._slater
        gs = sd.scale * g
        gap_tol = self._gap_tol(_ROW, x)
        z, ub, lb = x, math.inf, 0.0
        if sd.vertex is not None:
            z, ub, lb = self._vertex_candidate(_ROW, x, gs)
        if not ub - lb <= gap_tol:
            GS = gs[None, :]
            W, GD, WD = self._secular_data(GS)
            has, j, pl, pr = self._secular_bracket(GD, WD, _psi0(GD))
            if has[0]:
                # Python floats: numpy scalars would slow the Newton loop.
                start = self._newton_start(_ROW, int(j[0]), float(pl[0]), float(pr[0]))
                zs = self._newton(_ROW, x, W[0], *map(float, start))
            elif math.isfinite(sd.pole):
                zs = self._hard_case(x[None, :], W, _psi0(GS))[0]
            else:
                zs = x.copy()
            zs, ub_s, lb_s = self._certify(_ROW, x, zs)
            if ub_s < ub:
                z, ub = zs, ub_s
            lb = max(lb, lb_s)    # as np.fmax: neither is NaN
        _check_gap(_ROW, ub, lb, gap_tol)
        return z, ub, min(lb, ub)

    def _gap_tol(self, ops, X):
        """The certified gap of each row x: projection_tol * max(1, ||x||)."""
        return self.instance.projection_tol * ops.max(1.0, ops.norm(X))

    def _ray_distances(self, record, P, h):
        """(dist, inherited): the distances to Omega of probes P that the
        rows of ``record`` bound, and the rows where they are certified.

        ``record`` is this projector's (Z, ub, lb) of rows X, and a probe of
        a row with ub > 0 is p = z + h (x - z) / ub: h along the exact
        outward normal from its anchor z.  It lies on the ray from z in
        Omega through x, so convexity and 1-Lipschitz continuity of
        dist(., Omega) along that ray put

            dist(p, Omega) in [h - max(1, h / ub) (ub - lb), ||p - z||],

        and p inherits the upper end when the interval is no wider than
        the gap ``_gap_tol`` certifies at p.  A row with ub = 0 inherits
        nothing.
        """
        Z, ub, lb = record
        dist = _row_norms(P - Z)
        # The interval's width times ub, free of a division by a tiny ub.
        width_ub = (dist - h) * ub + (ub - lb) * np.maximum(ub, h)
        return dist, (ub > 0.0) & (width_ub <= self._gap_tol(_ROWS, P) * ub)

    def _pull_inside(self, Z: np.ndarray, mz) -> np.ndarray:
        """Rows Z with negative margins ``mz`` (a column) moved into Omega.

        The margin is concave and positively homogeneous.  When Im(A)
        meets the cone interior, the step -mz along the recession ray
        d / margin(A d) restores feasibility at a cost independent of the
        distance to the reference; otherwise the blend towards the
        interior point with weight -mz / (interior margin - mz) does.
        """
        sd = self._slater
        if sd.ray is not None:
            return Z - mz * sd.ray
        return Z + (-mz / (sd.interior_margin - mz)) * (sd.interior - Z)

    def _record(self, ops, X, Z, G, Mu):
        """(feasible Z, ub, lb) of candidates Z with images G and multipliers
        Mu in Q: Z pulled inside, ub its distance to X, and lb the dual bound
        max(0, <-mu, g(x)> / ||A^T mu||).

        For feasible w, <mu, g(w)> >= 0, so <-mu, g(x)> <= <mu, A(w - x)>
        <= ||A^T mu|| ||x - w||: a lower bound on dist(x, Omega).  The
        numerator is evaluated as <-mu, g(z)> - <A^T mu, x - z> at the
        candidate z, which keeps its relative precision when ||A^T mu|| is
        small and x is far away.  A row with ||A^T mu|| <= 1e-300 gets 0.
        """
        mz = ops.margin(G)
        Zf = ops.update(mz < 0.0, Z, self._pull_inside, mz)
        AtMu = Mu @ self._slater.A
        num = -ops.dot(Mu, G) - ops.dot(AtMu, X - Z)
        den = ops.norm(AtMu)
        lb = ops.max(0.0, num / ops.select(den > 1e-300, den, math.inf))
        return Zf, ops.norm(X - Zf), lb

    def _certify(self, ops, X, Z):
        """(feasible Z, ub, lb) for candidates at the smooth boundary.

        The multiplier is (1, -ghat) with ghat = g_r(z) / ||g_r(z)||, the
        normal direction at z; it is exact when z is the projection.
        """
        sd = self._slater
        G = ops.apply(sd.A, Z) + sd.b
        Mu = G / -ops.col(ops.max(ops.norm(G[..., 1:]), 1e-300))
        Mu[..., 0] = 1.0
        return self._record(ops, X, Z, G, Mu)

    def _vertex_candidate(self, ops, X, GS):
        """Least-squares pullback z_v of the cone vertex, with its multiplier.

        Solves min ||z - x|| s.t. A z + b = 0 per row and pairs it with the
        margin-maximizing multiplier of the module docstring, projected onto
        Q.  Exact for rows whose projection is the vertex preimage; harmless
        elsewhere.
        """
        sd = self._slater
        D = GS @ sd.pinv_t                   # x - z_v = A^+ g(x)
        Z = X - D
        # A^T mu = -(x - z_v) on the slice -pinv(A^T)(x - z_v) + null(A^T)
        Mu = _max_margin(sd.vertex, -(D @ sd.pinv_t.T))
        return self._record(ops, X, Z, ops.apply(sd.A, Z) + sd.b, ops.cone(Mu))

    def _secular_data(self, GS):
        """(W, Gd, Wd): w = Q^T A^T J g(x) per row g(x) of GS, and the rows
        g(x) and w scaled by 2^-e, 2^e about the row's largest |g(x)|.

        The bracket reads the scaled rows, so that their psi, quadratic in
        g(x), can neither overflow nor underflow.  A power of two scales
        exactly: the bracket, the sign of psi and the secant weight of
        ``_newton_start`` are those of the unscaled row wherever its squares
        are in range.
        """
        sd = self._slater
        JG = -GS
        JG[:, 0] = GS[:, 0]                  # J g(x)
        W = (JG @ sd.A) @ sd.Q
        down = -np.frexp(np.abs(GS).max(axis=1))[1][:, None]
        return W, np.ldexp(GS, down), np.ldexp(W, down)

    def _secular_bracket(self, GXs, W, psi0):
        """(has, j, pl, pr): per row, the first grid step j -> j + 1 where psi
        changes sign and g0 > 0 at its positive end, and psi at both of its
        ends; a row without such a step has ``has`` False and j = 0.

        A continuous path within psi > 0 keeps the sign of g0, so the root
        such a step brackets lies on +Q.  The step across the pole is no
        path and is never taken.  psi and g0 are evaluated on every grid
        column, in row blocks.
        """
        sd = self._slater
        blocks = []
        for lo in range(0, len(W), _GRID_BLOCK):
            r = slice(lo, lo + _GRID_BLOCK)
            psi = psi0[r, None] + (W[r] * W[r]) @ sd.grid_h.T
            g0 = GXs[r, :1] + (W[r] * sd.AQ0) @ sd.grid_v.T
            pos = psi > 0.0
            good = (pos[:, :-1] != pos[:, 1:]) & (
                np.where(pos[:, 1:], g0[:, 1:], g0[:, :-1]) > 0.0
            )
            if sd.grid_gap >= 0:
                good[:, sd.grid_gap] = False
            j = good.argmax(axis=1)
            at = np.arange(j.size)
            blocks.append((good[at, j], j, psi[at, j], psi[at, j + 1]))
        return tuple(map(np.concatenate, zip(*blocks)))

    def _newton_start(self, ops, j, pl, pr):
        """(tn, un, tp, up, t, u) of rows bracketed on grid step j -> j + 1,
        with psi pl and pr at its ends: the end where psi < 0, the end where
        psi > 0, and the secant point, each as (t, u); u is affine in t."""
        sd = self._slater
        tl, tr = sd.grid_t[j], sd.grid_t[j + 1]
        ul, ur = sd.grid_u[j], sd.grid_u[j + 1]
        flip = pl > 0.0                       # psi > 0 at the left end
        tn, tp = ops.select(flip, tr, tl), ops.select(flip, tl, tr)
        un, up = ops.select(flip, ur, ul), ops.select(flip, ul, ur)
        w = pl / (pl - pr)
        return tn, un, tp, up, tl + w * (tr - tl), ul + w * (ur - ul)

    def _newton(self, ops, X, W, tn, un, tp, up, t, u):
        """Newton on psi(t) inside [tn, tp] (psi(tn) < 0 < psi(tp)), with
        bisection whenever a step leaves the bracket; returns z(t).

        psi is evaluated from g(z(t)) = A z(t) + b directly: its rounding
        then scales with ||g(z)||, not with ||g(x)|| as the sum
        psi(0) + sum_i (...) would, which matters for distant x.
        """
        sd = self._slater
        A, b, Q, lam, pole = sd.A, sd.b, sd.Q, sd.lam, sd.pole
        lam_top = float(lam[-1])
        norm_A, norm_b = sd.scale * self.instance.norm_A(), _norm(b)
        W2 = W * W

        def z_of(t, u):
            tc = ops.col(t)
            E = 1.0 - tc * lam
            E[..., -1] = u
            C = W / E
            return E, C, X + tc * ops.apply(Q, C)

        active = True
        for _ in range(_NEWTON_STEPS):
            if not ops.any(active):
                break
            E, C, Z = z_of(t, u)
            G = ops.apply(A, Z) + b
            g0, g2 = ops.head(G), ops.dot(G, G)
            psi = 2.0 * (g0 * g0) - g2
            neg = psi < 0.0
            tn, un = ops.select(neg, t, tn), ops.select(neg, u, un)
            tp, up = ops.select(neg, tp, t), ops.select(neg, up, u)
            # Freeze rows at rounding level of psi or of the point (t, u),
            # whose scale is t, or its distance to the pole when smaller.
            noise = _EPS * ops.sqrt(g2) * (norm_A * ops.sqrt(ops.dot(Z, Z)) + norm_b)
            scale = ops.min(t, abs(u) * pole)
            stepping = active
            active = (
                active
                & (abs(psi) > _FREEZE_PSI * noise)
                & (abs(tp - tn) > _FREEZE_BRACKET * scale)
            )
            step = -psi / (2.0 * ops.slope(W2, C, E))   # psi'(t) = 2 * slope
            t_new = t + step
            inside = (t_new - tn) * (t_new - tp) < 0.0
            # Rows freezing now still take their Newton step when it stays
            # in the bracket: near rounding level it can only help.
            newton = stepping & inside
            t, u = (
                ops.select(newton, t_new, ops.select(active, 0.5 * (tn + tp), t)),
                ops.select(
                    newton, u - lam_top * step, ops.select(active, 0.5 * (un + up), u)
                ),
            )
            # Newton converges quadratically: after a step below sqrt(eps)
            # of the scale, the error left is at rounding level.
            converged = inside & (abs(step) <= _FREEZE_STEP * scale)
            active = ops.select(converged, False, active)
        return z_of(t, u)[2]

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


def _psi0(G: np.ndarray) -> np.ndarray:
    """psi(0) = g0^2 - ||g_r||^2 of each row g(x) of ``G``."""
    return G[:, 0] ** 2 - np.einsum("ij,ij->i", G[:, 1:], G[:, 1:])


def _check_gap(ops, ub, lb, gap_tol) -> None:
    """The gap rule: every row certified, ub - lb <= gap_tol, or
    ``NumericalFailureError`` with the largest gap."""
    gap = ub - lb
    if not ops.all(gap <= gap_tol):
        worst = float(np.max(gap))
        raise NumericalFailureError(f"projection gap {worst:.3e} not certified", worst)


def _margin_frame(P: np.ndarray) -> tuple:
    """What ``_max_margin`` reads off an orthogonal projector P with
    P_00 = alpha < 1/2 (module docstring): (s, the projector onto Im B,
    kappa, s . s), computed once per slice."""
    alpha = float(P[0, 0])
    p = P[1:, 0]
    s = p / (1.0 - alpha)
    proj = P[1:, 1:] + np.outer(p, p) / (1.0 - alpha)
    kappa = float(np.sqrt((1.0 - alpha) / (1.0 - 2.0 * alpha)))
    return s, proj, kappa, float(s @ s)


def _max_margin(frame: tuple, C: np.ndarray) -> np.ndarray:
    """Per row c of C (or for C itself, one row), the point of c + Im(P)
    of largest cone margin, ``frame`` the ``_margin_frame`` of P."""
    s, proj, kappa, ss = frame
    cr = C[..., 1:]
    perp = cr - cr @ proj
    lift = kappa * _row_norms(perp)
    Y = np.empty_like(C)
    Y[..., 0] = C[..., 0] + (lift * ss - cr @ s)
    Y[..., 1:] = perp + lift[..., None] * s
    return Y


def _recession_ray(instance: AffineSOCInstance) -> Optional[np.ndarray]:
    """d / margin(A d) with d = A^+ w, w the interior witness, when Im(A)
    meets the cone interior; None when there is no such ray."""
    geo = instance.geometry()
    if geo.kind is not SubspaceKind.MEETS_INTERIOR:
        return None
    d = geo.witness @ geo._pinv_t
    margin = _margin(instance.A @ d)
    return d / margin if margin > 0.0 else None


def _slice_step(instance: AffineSOCInstance, y: np.ndarray):
    """(x-step, supremum) towards a large cone margin on y + Im(A).

    The three cases of the module docstring: along the recession ray until
    the margin is at least ||y|| (supremum inf), to the exact maximizer,
    or to a point of margin at least L / 2 (supremum L).  The step is zero
    when there is none to take: no ray, or L <= 0.
    """
    geo = instance.geometry()
    if geo.kind is SubspaceKind.MEETS_INTERIOR:
        ray = _recession_ray(instance)
        if ray is None:
            return np.zeros(instance.n), np.inf
        return (_norm(y) - _margin(y)) * ray, np.inf
    if geo.kind is SubspaceKind.ZERO_ONLY:
        frame = _margin_frame(np.eye(instance.m) - geo._null_proj)
        best = _max_margin(frame, y[None, :])[0]
        return (best - y) @ geo._pinv_t, _margin(best)
    e = geo.ray[1:] / geo.ray[0]              # (1, e) spans the ray
    along = float(e @ y[1:])
    sup = float(y[0]) - along
    if not sup > 0.0:
        return np.zeros(instance.n), sup
    perp = y[1:] - along * e
    tau = sup + float(perp @ perp) / sup - along
    return (tau / geo.ray[0]) * (geo.ray @ geo._pinv_t), sup


def _search_feasible_reference(instance: AffineSOCInstance) -> PointAnalysis:
    """The analysis of a feasible point: the least-squares vertex -A^+ b,
    else the slice point.

    ``analyze_point`` decides each candidate.  When it accepts neither,
    the supremum of the cone margin over b + Im(A) is negative, or zero
    and not attained: the set is empty, and the ``NumericalFailureError``
    carries the supremum as its residual.
    """
    z = -(instance.b @ instance.geometry()._pinv_t)
    try:
        return analyze_point(instance, z)
    except InfeasiblePointError:
        pass
    step, sup = _slice_step(instance, instance.evaluate(z))
    try:
        return analyze_point(instance, z + step)
    except InfeasiblePointError:
        raise NumericalFailureError(
            f"the feasible set is empty: the cone margin on b + Im(A) has "
            f"supremum {sup:.6g}",
            sup,
        ) from None


def project_to_feasible_set(instance: AffineSOCInstance, x) -> tuple[np.ndarray, float]:
    """Project ``x`` onto the feasible set; returns (point, distance).

    Every point, feasible or not, is projected from a feasible reference
    that the routine finds in closed form (the least-squares vertex or the
    best point of the image slice, see the module docstring), or the
    routine raises ``NumericalFailureError`` with the supremum of the cone
    margin as the certificate that the set is empty.  The instance's
    ``tol`` decides whether that reference is feasible and the shape of the
    feasible set; its ``projection_tol`` is the certified gap of the
    distance.
    """
    x = instance.point(x)
    return _project_point(instance, x, instance._image(x), None)


def _project_point(instance, x, y, reference) -> tuple[np.ndarray, float]:
    """``project_to_feasible_set`` of a checked ``x`` with its image ``y``,
    from ``reference`` (a point or ``PointAnalysis``), or, when that is
    None, from the one the search finds."""
    if reference is None:
        reference = _search_feasible_reference(instance)
    projector = FeasibleSetProjector(instance, reference)
    Z, d, _ = projector._project_rows(x[None, :], y[None, :])
    return Z[0], float(d[0])

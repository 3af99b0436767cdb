"""Euclidean projection onto the feasible set of an affine cone constraint.

The feasible set Omega = {z : Az + b in Q_m} has exactly three global
shapes, indexed by the minimal cone face that the affine image slice
generates:

* the slice meets the cone interior (Slater geometry) -- the projection is
  solved exactly through a scalar secular equation, and every row is
  accepted only under an a-posteriori primal-dual gap certificate;
* the slice generates a single boundary ray -- Omega is an affine flat
  intersected with a half-space, projected in closed form;
* the slice generates the zero face -- Omega is an affine flat, projected
  by least squares.

The shape is read off a feasible reference point: an interior image, a
boundary image with nonvanishing reduced gradient, or a vertex image
combined with the spectral subspace classification.  The degenerate shapes
are precisely the instances on which the Slater certificate has no attained
dual and cannot close to tight tolerances, so they are handled exactly
instead.

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
   maximizes the cone margin mu0 - ||mu_r|| over mu_p + null(A^T), where
   mu_p is the pseudo-inverse solution.  With N an orthonormal basis of
   null(A^T), a = N_0, B = N_r, d = mu_p,r and B^T s = a (s in Im B),
   min_w ||d + Bw|| - a^T w = s^T d + ||d_perp|| sqrt(1 - ||s||^2), since
   ||y|| - s^T y over y in d + Im B is least at
   y = d_perp + ||d_perp|| s / sqrt(1 - ||s||^2) (d_perp: d minus its
   projection onto Im B).  Everything is read off P = I - U_k U_k^T:
   alpha = P_00 = ||a||^2, s = P_r0 / (1 - alpha), ||s||^2 =
   alpha / (1 - alpha), proj(Im B) = P_rr + P_r0 P_r0^T / (1 - alpha).
   The margin is bounded exactly when alpha < 1/2, i.e. when Im(A) meets
   the cone interior, which b in Im(A) and the Slater point imply.
2. Secular root.  psi(t) on one fixed logarithmic grid that covers both
   branches (t / (1/lam_+) from 1e-14 towards the pole, and the distance
   to the pole from 0.5 down to 1e-16 on both sides and up to 1e17 beyond
   it), evaluated for all rows as two matrix products.  The first sign
   change whose positive end has g0 > 0 is refined by bracketed Newton
   from the secant point.  Newton evaluates psi directly from
   g(z(t)) = A z(t) + b, whose rounding scales with ||g(z)|| rather than
   ||g(x)||, so its last steps are the polish of the root; a row freezes
   once psi is at rounding level (taking the Newton step from that value),
   its bracket has collapsed, or its step fell below sqrt(eps).  Near the pole the distance u = 1 - t lam_+ is
   carried alongside t, so both stay accurate.  A row without such a
   bracket is the hard case of trust-region solvers (w_+ = 0): t = 1/lam_+
   and the lam_+ coordinate solves the quadratic psi = 0 with g0 > 0.

Every candidate is certified the same way: ub is the distance to the
candidate made feasible (moved along an interior ray of the recession cone
when Im(A) meets the cone interior, else blended towards a known interior
point), and lb is the dual bound <-mu, g(x)> / ||A^T mu|| of a cone
multiplier mu.  A row is accepted once ub - lb <= tol * max(1, ||x||);
otherwise ``NumericalFailureError`` is raised.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .affine_instance import AffineSOCInstance, grad_phi, phi
from .errors import DimensionError, InfeasiblePointError, NumericalFailureError
from .soc_core import (
    DEFAULT_TOL,
    ConeLocation,
    classify_cone_point,
    margins,
    projections_to_cone,
)
from .subspace_cone import SubspaceKind

#: Default for the certified projection contract.
PROJECTION_TOL = 1e-10

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
#: A grid bracket spans a factor 10^(1/4), or [0, 1e-14] at the first
#: step, so bisection alone collapses it to rounding level in under 80
#: steps; Newton rows freeze after a handful.
_NEWTON_STEPS = 120


class _Geometry(enum.Enum):
    SLATER = "slater"
    RAY_FLAT = "ray_flat"
    FLAT = "flat"


@dataclass
class _RayFlatData:
    projector_flat: np.ndarray   # n x n projector onto rowspace of M
    c: np.ndarray                # half-space normal in x-space
    gamma: float                 # half-space offset: <c, z> >= gamma
    stacked: Optional[np.ndarray]       # [M; c^T], used when the half-space binds
    stacked_pinv: Optional[np.ndarray]
    stacked_rhs: Optional[np.ndarray]   # [M ref; gamma]


@dataclass
class _SlaterData:
    pinv_t: np.ndarray       # pinv(A^T) = U_k diag(1/sigma) V_k^T, m x n
    ray: Optional[np.ndarray]  # d / margin(A d), A d interior (None: no such d)
    # vertex multiplier (s, projector onto Im B, 1 / sqrt(1 - ||s||^2));
    # None when b is not in Im(A) and no row projects onto the vertex
    mult: Optional[tuple[np.ndarray, np.ndarray, float]]
    lam: np.ndarray          # eigenvalues of M, ascending; all but the last <= 0
    Q: np.ndarray            # eigenvectors of M
    AQ0: np.ndarray          # first row of A Q: g0 along z(t)
    pole: float              # 1 / lam_+ (inf without a positive eigenvalue)
    grid_t: np.ndarray       # secular grid: multipliers t ...
    grid_u: np.ndarray       # ... with u = 1 - t lam_top, exact near the pole
    grid_h: np.ndarray       # t (2 - t lam) / (1 - t lam)^2: psi = psi(0) + w^2 . h
    grid_v: np.ndarray       # t / (1 - t lam): g(z(t)) = g(x) + A Q (w * v)
    grid_gap: int            # step j -> j+1 that crosses the pole (-1: none)


class FeasibleSetProjector:
    """Projects points onto Omega = {x : Ax + b in Q_m}.

    Built once per (instance, feasible reference) pair; ``project_batch``
    then handles arbitrarily many points.  All returned points are feasible
    and all distances carry a certificate: exact linear algebra on the
    degenerate shapes; on the Slater shape, an exact solve (vertex
    least squares with its exact multiplier, or a root of the secular
    equation, see the module docstring) accepted under a primal-dual gap
    bound.
    """

    def __init__(
        self,
        instance: AffineSOCInstance,
        reference,
        tol: float = DEFAULT_TOL,
    ):
        self.instance = instance
        self.tol = float(tol)
        ref = instance.point(reference)
        y_ref = instance.evaluate(ref)
        loc = classify_cone_point(y_ref, tol)
        if loc is ConeLocation.OUTSIDE:
            raise InfeasiblePointError(
                "projection reference point is infeasible",
                float(np.linalg.norm(y_ref)),
            )
        self.reference = ref
        self._interior_point: Optional[np.ndarray] = None
        self._interior_margin = 0.0
        self._ray_data: Optional[_RayFlatData] = None
        self._flat_projector: Optional[np.ndarray] = None
        self._slater: Optional[_SlaterData] = None

        A = instance.A
        if loc is ConeLocation.INTERIOR:
            self.geometry = _Geometry.SLATER
            self._interior_point = ref
            self._interior_margin = float(
                y_ref[0] - np.linalg.norm(y_ref[1:])
            )
        elif loc is ConeLocation.POSITIVE_BOUNDARY:
            # Same nonvanishing-gradient test as the verdicts (Thm3.2(iii)).
            g = grad_phi(instance, ref, tol)
            if float(np.linalg.norm(g)) > self.tol * max(
                1.0, float(np.linalg.norm(A))
            ):
                self.geometry = _Geometry.SLATER
                self._set_interior_from_ascent(ref, g)
            else:
                # The whole image slice sits in the supporting hyperplane at
                # y_ref, so feasibility collapses to the ray of y_ref.
                self.geometry = _Geometry.RAY_FLAT
                self._ray_data = self._build_ray_flat(
                    ref, y_ref / np.linalg.norm(y_ref), float(np.linalg.norm(y_ref))
                )
        else:  # vertex
            cls = instance.geometry(self.tol)
            if cls.kind is SubspaceKind.MEETS_INTERIOR:
                self.geometry = _Geometry.SLATER
            elif cls.kind is SubspaceKind.RAY:
                self.geometry = _Geometry.RAY_FLAT
                self._ray_data = self._build_ray_flat(ref, cls.ray, 0.0)
            else:
                self.geometry = _Geometry.FLAT
                rows = cls.row_basis
                self._flat_projector = rows.T @ rows
        if self.geometry is _Geometry.SLATER:
            self._slater = self._build_slater()
            if self._interior_point is None:
                self._set_interior_from_ray(ref)

    # -- construction helpers -------------------------------------------

    def _set_interior_from_ascent(self, ref: np.ndarray, g: np.ndarray):
        """Walk up the concave margin from a boundary reference."""
        d = g / np.linalg.norm(g)
        best_t, best_margin = 0.0, 0.0
        for t in np.geomspace(1.0, 1e-12, 41):
            m = phi(self.instance, ref + t * d)
            if m > best_margin:
                best_t, best_margin = t, m
        if best_margin <= 0.0:
            raise NumericalFailureError(
                "failed to find an interior point along the ascent direction",
                best_margin,
            )
        self._interior_point = ref + best_t * d
        self._interior_margin = best_margin

    def _set_interior_from_ray(self, ref: np.ndarray):
        """Step from the vertex reference along the interior ray A^+ w."""
        ray = self._slater.ray
        z = ref + (ray if ray is not None else 0.0)
        m = phi(self.instance, z)
        if m <= 0.0:
            raise NumericalFailureError(
                "interior witness did not pull back to an interior point", m
            )
        self._interior_point = z
        self._interior_margin = m

    def _build_ray_flat(
        self, ref: np.ndarray, d_unit: np.ndarray, y_norm: float
    ) -> _RayFlatData:
        """Omega = {z : A(z - ref) in span(d), <d, A(z-ref)> >= -y_norm}.

        The flat is the numerically significant row space of
        M = A - d d^T A.  The verdict side calls rank(A) with a cutoff
        relative to the top singular value of A; singular values of M
        below that same absolute scale are rounding artifacts (an
        outer-product matrix is only rank one up to per-entry rounding)
        and must not enter the projector as genuine constraints.
        """
        A = self.instance.A
        M = A - np.outer(d_unit, d_unit @ A)
        c = A.T @ d_unit
        gamma = float(c @ ref) - y_norm
        cut = self.tol * float(self.instance.geometry(self.tol).singular_values[0])
        _, sigma, vt = np.linalg.svd(M, full_matrices=False)
        rows = vt[sigma > cut]
        projector = rows.T @ rows
        if float(np.linalg.norm(c)) > cut:
            stacked = np.vstack([rows, c[None, :]])
            rhs = np.concatenate([rows @ ref, [gamma]])
            return _RayFlatData(
                projector, c, gamma, stacked, np.linalg.pinv(stacked), rhs
            )
        return _RayFlatData(projector, c, gamma, None, None, None)

    def _build_slater(self) -> _SlaterData:
        """Vertex and secular-equation data; see the module docstring."""
        A = self.instance.A
        m = A.shape[0]
        geo = self.instance.geometry(self.tol)
        U = geo.basis
        pinv_t = (U / geo.singular_values[: geo.rank]) @ geo.row_basis

        # A row can project onto the vertex preimage only when b is in Im(A).
        # The Slater point then lies in Im(A) too, so alpha < 1/2 below.
        ray = None
        if geo.kind is SubspaceKind.MEETS_INTERIOR:
            d = geo.witness @ pinv_t        # A^+ w, with w in Im(A) interior
            margin = float(margins((A @ d)[None, :])[0])
            if margin > 0.0:
                ray = d / margin
        b = self.instance.b
        P = np.eye(m) - U @ U.T             # projector onto null(A^T)
        alpha = float(P[0, 0])
        vertex = alpha < 0.5 and float(np.linalg.norm(P @ b)) <= self.tol * max(
            1.0, float(np.linalg.norm(b))
        )
        mult = None
        if vertex:
            p = P[1:, 0]
            mult = (
                p / (1.0 - alpha),
                P[1:, 1:] + np.outer(p, p) / (1.0 - alpha),
                float(np.sqrt((1.0 - alpha) / (1.0 - 2.0 * alpha))),
            )

        JA = A.copy()
        JA[1:] *= -1.0
        lam, Q = np.linalg.eigh(A.T @ JA)
        # Inertia: only the top eigenvalue may be positive.  Positive values
        # further down, and a top value inside the tolerance band, are
        # rounding artifacts of zero eigenvalues.
        spread = float(np.max(np.abs(lam)))
        lam_top = float(lam[-1])
        lam = np.minimum(lam, 0.0)
        if lam_top > self.tol * spread:
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
            pinv_t=pinv_t,
            ray=ray,
            mult=mult,
            lam=lam,
            Q=Q,
            AQ0=A[0] @ Q,
            pole=pole,
            grid_t=grid_t,
            grid_u=grid_u,
            grid_h=grid_t[:, None] * (1.0 + E) / (E * E),
            grid_v=grid_t[:, None] / E,
            grid_gap=grid_gap,
        )

    # -- projection ------------------------------------------------------

    def project_batch(
        self, X: np.ndarray, tol: float = PROJECTION_TOL
    ) -> tuple[np.ndarray, np.ndarray]:
        """Project the rows of X; returns (Z, distances)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.instance.n:
            raise DimensionError(
                f"points have dimension {X.shape[1]}, expected {self.instance.n}"
            )
        if self.geometry is _Geometry.FLAT:
            delta = (X - self.reference) @ self._flat_projector.T
            return X - delta, np.linalg.norm(delta, axis=1)
        if self.geometry is _Geometry.RAY_FLAT:
            return self._project_ray_flat(X)
        return self._project_slater(X, tol)

    def project(self, x, tol: float = PROJECTION_TOL) -> tuple[np.ndarray, float]:
        Z, d = self.project_batch(np.asarray(x, dtype=float)[None, :], tol)
        return Z[0], float(d[0])

    def _project_ray_flat(self, X: np.ndarray):
        data = self._ray_data
        ref = self.reference
        delta = (X - ref) @ data.projector_flat.T
        P1 = X - delta
        if data.stacked is None:
            return P1, np.linalg.norm(X - P1, axis=1)
        violated = P1 @ data.c < data.gamma
        Z = P1
        if np.any(violated):
            # The half-space binds: project onto the flat with the
            # half-space boundary appended as an equality.
            Z = P1.copy()
            Xv = X[violated]
            res = Xv @ data.stacked.T - data.stacked_rhs
            Z[violated] = Xv - res @ data.stacked_pinv.T
        return Z, np.linalg.norm(X - Z, axis=1)

    # -- Slater geometry: exact solve with duality certificate -----------

    def _project_slater(self, X: np.ndarray, tol: float):
        A, b = self.instance.A, self.instance.b
        Z_out = X.copy()
        D_out = np.zeros(X.shape[0])
        GX = X @ A.T + b
        todo = np.flatnonzero(margins(GX) < 0.0)
        if todo.size == 0:
            return Z_out, D_out
        Xs, GXs = X[todo], GX[todo]
        gap_tol = tol * np.maximum(1.0, np.linalg.norm(Xs, axis=1))

        if self._slater.mult is not None:
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
        if not np.all(gap <= gap_tol):
            worst = float(np.max(gap))
            raise NumericalFailureError(
                f"projection gap {worst:.3e} not certified", worst
            )
        Z_out[todo] = best_Z
        D_out[todo] = ub
        return Z_out, D_out

    def _pull_inside(self, Z: np.ndarray, mz: np.ndarray) -> np.ndarray:
        """Move rows with negative margin ``mz`` into Omega.

        The margin is concave and positively homogeneous.  When Im(A)
        meets the cone interior, the step -mz along the recession ray
        d / margin(A d) restores feasibility at a cost independent of the
        distance to the reference; otherwise the blend towards the
        interior point with weight -mz / (interior margin - mz) does.
        """
        neg = mz < 0.0
        if np.any(neg):
            Z = Z.copy()
            ray = self._slater.ray
            if ray is not None:
                Z[neg] -= mz[neg, None] * ray
            else:
                theta = -mz[neg] / (self._interior_margin - mz[neg])
                Z[neg] += theta[:, None] * (self._interior_point - Z[neg])
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
        den = np.linalg.norm(AtMu, axis=1)
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
        nr = np.linalg.norm(G[:, 1:], axis=1)
        Zf = self._pull_inside(Z, G[:, 0] - nr)
        ub = np.linalg.norm(Xs - Zf, axis=1)
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
        Zv = self._pull_inside(Xs - D, margins(Gv))
        s, proj, kappa = sd.mult
        Mu = -(D @ sd.pinv_t.T)              # A^T mu = -(x - z_v)
        dr = Mu[:, 1:]
        perp = dr - dr @ proj
        lift = kappa * np.linalg.norm(perp, axis=1)
        Mu[:, 0] += lift * float(s @ s) - dr @ s
        Mu[:, 1:] = perp + lift[:, None] * s
        lb = self._dual_bound(projections_to_cone(Mu), Xs, Xs - D, Gv)
        return Zv, np.linalg.norm(Xs - Zv, axis=1), lb

    def _secular_candidate(self, Xs: np.ndarray, GXs: np.ndarray):
        """Root of the secular equation per row (module docstring, stage 2)."""
        sd = self._slater
        JG = GXs.copy()
        JG[:, 1:] *= -1.0
        W = (JG @ self.instance.A) @ sd.Q    # w = Q^T A^T J g(x)
        psi0 = GXs[:, 0] ** 2 - np.einsum("ij,ij->i", GXs[:, 1:], GXs[:, 1:])

        # Bracket: the first grid step where psi changes sign and g0 > 0 at
        # its positive end (a continuous path within psi > 0 keeps the sign
        # of g0, so the root it brackets lies on +Q).
        psi = psi0[:, None] + (W * W) @ sd.grid_h.T
        g0 = GXs[:, :1] + (W * sd.AQ0) @ sd.grid_v.T
        pos = psi > 0.0
        good = (pos[:, :-1] != pos[:, 1:]) & (
            np.where(pos[:, 1:], g0[:, 1:], g0[:, :-1]) > 0.0
        )
        if sd.grid_gap >= 0:
            good[:, sd.grid_gap] = False
        has = good.any(axis=1)
        Z = Xs.copy()

        rows = np.flatnonzero(has)
        if rows.size:
            j = good[rows].argmax(axis=1)
            tl, tr = sd.grid_t[j], sd.grid_t[j + 1]
            ul, ur = sd.grid_u[j], sd.grid_u[j + 1]
            pl, pr = psi[rows, j], psi[rows, j + 1]
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
        norm_A, norm_b = float(np.linalg.norm(A)), float(np.linalg.norm(b))
        W2 = W * W
        active = np.ones(t.size, dtype=bool)
        for _ in range(_NEWTON_STEPS):
            if not np.any(active):
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


def _search_feasible_reference(
    instance: AffineSOCInstance, tol: float
) -> Optional[np.ndarray]:
    """Best-effort feasible point: exact vertex solve, then margin ascent.

    The vertex solve -A^+ b uses the pseudo-inverse at ``tol`` from the
    instance geometry, which the projector then reuses.
    """
    A, b = instance.A, instance.b
    geo = instance.geometry(tol)
    z_v = -((b @ geo.basis) / geo.singular_values[: geo.rank]) @ geo.row_basis
    y_v = A @ z_v + b
    if float(y_v[0] - np.linalg.norm(y_v[1:])) >= 0.0:
        return z_v
    if float(np.linalg.norm(y_v)) <= 1e-12 * max(1.0, float(np.linalg.norm(b))):
        return z_v
    # Random multistart hill climb on the concave margin.
    rng = np.random.default_rng(0)
    best_z, best_m = z_v, phi(instance, z_v)
    for sigma in (0.5, 2.0, 8.0):
        cand = rng.normal(scale=sigma, size=(64, instance.n))
        vals = margins(cand @ A.T + b)
        i = int(np.argmax(vals))
        if vals[i] > best_m:
            best_m, best_z = float(vals[i]), cand[i]
    step = 1.0
    for _ in range(400):
        cand = best_z + step * rng.normal(size=(16, instance.n))
        vals = margins(cand @ A.T + b)
        i = int(np.argmax(vals))
        if vals[i] > best_m:
            best_m, best_z = float(vals[i]), cand[i]
        else:
            step *= 0.7
            if step < 1e-14:
                break
    if best_m >= 0.0:
        return best_z
    return None


def project_to_feasible_set(
    instance: AffineSOCInstance,
    x,
    tol: float = PROJECTION_TOL,
    reference=None,
    geometry_tol: float = DEFAULT_TOL,
) -> tuple[np.ndarray, float]:
    """Project ``x`` onto the feasible set; returns (point, distance).

    A feasible ``reference`` pins down the global shape of the feasible
    set.  Without one, the routine finds a reference itself when it can
    (exact vertex solve or margin ascent) and otherwise raises
    ``NumericalFailureError``.  ``tol`` is the certified gap of the
    projection; ``geometry_tol`` is the tolerance of the shape decision
    (the ``tol`` of :class:`FeasibleSetProjector`).
    """
    x = instance.point(x)
    y = instance.evaluate(x)
    if float(y[0] - np.linalg.norm(y[1:])) >= 0.0:
        return x.copy(), 0.0
    if reference is None:
        reference = _search_feasible_reference(instance, geometry_tol)
        if reference is None:
            raise NumericalFailureError(
                "could not locate a feasible reference point; supply one",
                float("nan"),
            )
    projector = FeasibleSetProjector(instance, reference, geometry_tol)
    return projector.project(x, tol=tol)

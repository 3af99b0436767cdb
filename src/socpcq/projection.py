"""Euclidean projection onto the feasible set of an affine cone constraint.

The feasible set Omega = {x : Ax + b in Q_m} has exactly three global
shapes, indexed by the minimal cone face that the affine image slice
generates:

* the slice meets the cone interior (Slater geometry) -- the projection is
  computed by a splitting iteration with an a-posteriori duality
  certificate;
* the slice generates a single boundary ray -- Omega is an affine flat
  intersected with a half-space, projected in closed form;
* the slice generates the zero face -- Omega is an affine flat, projected
  by least squares.

The shape is read off a feasible reference point: an interior image, a
boundary image with nonvanishing reduced gradient, or a vertex image
combined with the spectral subspace classification.  The degenerate shapes
are precisely the instances on which a splitting scheme has no attained
dual and cannot be certified to tight tolerances, so they are handled
exactly instead.
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

#: Defaults for the certified projection contract.
PROJECTION_TOL = 1e-10
PROJECTION_MAX_ITER = 100_000


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


class FeasibleSetProjector:
    """Projects points onto Omega = {x : Ax + b in Q_m}.

    Built once per (instance, feasible reference) pair; ``project_batch``
    then handles arbitrarily many points.  All returned points are feasible
    and all distances carry a certificate: exact linear algebra on the
    degenerate shapes, a primal-dual gap bound on the Slater shape.
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
                self._set_interior_from_witness(ref, cls.witness)
            elif cls.kind is SubspaceKind.RAY:
                self.geometry = _Geometry.RAY_FLAT
                self._ray_data = self._build_ray_flat(ref, cls.ray, 0.0)
            else:
                self.geometry = _Geometry.FLAT
                rows = cls.row_basis
                self._flat_projector = rows.T @ rows

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

    def _set_interior_from_witness(self, ref: np.ndarray, witness: np.ndarray):
        """Pull an interior image witness back through A."""
        delta, *_ = np.linalg.lstsq(self.instance.A, witness, rcond=None)
        z = ref + delta
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

    # -- projection ------------------------------------------------------

    def project_batch(
        self,
        X: np.ndarray,
        tol: float = PROJECTION_TOL,
        max_iter: int = PROJECTION_MAX_ITER,
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
        return self._project_slater(X, tol, max_iter)

    def project(
        self,
        x,
        tol: float = PROJECTION_TOL,
        max_iter: int = PROJECTION_MAX_ITER,
    ) -> tuple[np.ndarray, float]:
        Z, d = self.project_batch(np.asarray(x, dtype=float)[None, :], tol, max_iter)
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

    # -- Slater geometry: splitting with duality certificate -------------

    def _kkt_polish(self, Xs: np.ndarray, Z0: np.ndarray):
        """Newton-refine smooth-boundary projections from warm starts.

        The projection of an infeasible ``x`` sits on {z : phi(z) = 0}
        with z - x - lam * grad_phi(z) = 0 and lam >= 0.  When the
        boundary is smooth there (g_r != 0) a few Newton steps on that
        square system give the projection to machine precision, and the
        multiplier direction doubles as an exact dual lower bound:
        lb = -<w, g(x)> / ||grad_phi(z)|| with w = (1, -g_r/||g_r||).

        Returns (Zf, ub, lb); rows where the polish does not converge
        (vanishing g_r, negative multiplier) carry ub = inf, lb = 0.
        """
        inst = self.instance
        A, b = inst.A, inst.b
        A0, Ar = A[0], A[1:]
        k, n = Xs.shape
        scale = max(1.0, float(np.linalg.norm(A)))
        ArtAr = Ar.T @ Ar

        Z = Z0.copy()
        lam = np.zeros(k)
        alive = np.ones(k, dtype=bool)
        res = np.full(k, np.inf)
        res_tol = 1e-13 * np.maximum(1.0, np.linalg.norm(Xs, axis=1))
        eye = np.eye(n)

        for step in range(12):
            G = Z @ A.T + b
            gr = G[:, 1:]
            nr = np.linalg.norm(gr, axis=1)
            alive &= nr > 1e-12 * scale
            if not np.any(alive):
                break
            ghat = np.zeros_like(gr)
            ghat[alive] = gr[alive] / nr[alive, None]
            grad = A0[None, :] - ghat @ Ar
            ph = G[:, 0] - nr
            if step == 0:
                gn = np.linalg.norm(grad, axis=1)
                alive &= gn > 1e-12 * scale
                lam = np.where(
                    gn > 0, np.linalg.norm(Z - Xs, axis=1) / np.maximum(gn, 1e-300), 0.0
                )
            R1 = Z - Xs - lam[:, None] * grad
            res = np.sqrt(np.einsum("ij,ij->i", R1, R1) + ph * ph)
            todo = alive & (res > res_tol)
            if not np.any(todo):
                break
            idx = np.flatnonzero(todo)
            t = ghat[idx] @ Ar                      # rows: Ar^T ghat
            H = (t[:, :, None] * t[:, None, :] - ArtAr[None]) / nr[idx, None, None]
            J = np.zeros((idx.size, n + 1, n + 1))
            J[:, :n, :n] = eye[None] - lam[idx, None, None] * H
            J[:, :n, n] = -grad[idx]
            J[:, n, :n] = grad[idx]
            rhs = -np.concatenate([R1[idx], ph[idx, None]], axis=1)
            try:
                delta = np.linalg.solve(J, rhs[:, :, None])[:, :, 0]
            except np.linalg.LinAlgError:
                alive[idx] = False
                break
            Z[idx] += delta[:, :n]
            lam[idx] += delta[:, n]

        ok = alive & (res <= res_tol) & (lam >= -1e-12)
        ub = np.full(k, np.inf)
        lb = np.zeros(k)
        Zf = Z
        if np.any(ok):
            ph = (Z @ A.T + b)[:, 0] - np.linalg.norm((Z @ A.T + b)[:, 1:], axis=1)
            neg = ok & (ph < 0.0)
            if np.any(neg):
                theta = -ph[neg] / (self._interior_margin - ph[neg])
                Zf = Z.copy()
                Zf[neg] += theta[:, None] * (self._interior_point - Z[neg])
            ub[ok] = np.linalg.norm(Xs[ok] - Zf[ok], axis=1)
            G = Z @ A.T + b
            ghat = G[:, 1:] / np.maximum(
                np.linalg.norm(G[:, 1:], axis=1), 1e-300
            )[:, None]
            grad = A0[None, :] - ghat @ Ar
            GXs = Xs @ A.T + b
            num = np.einsum("ij,ij->i", ghat, GXs[:, 1:]) - GXs[:, 0]
            den = np.linalg.norm(grad, axis=1)
            good = ok & (den > 1e-300)
            lb[good] = np.maximum(0.0, num[good] / den[good])
        return Zf, ub, lb

    def _vertex_candidate(self, Xs: np.ndarray, GXs: np.ndarray):
        """Least-squares pullback of the cone vertex as an upper bound.

        Solves min ||z - x|| s.t. A z + b = 0 per row and pairs it with
        the dual vector obtained by projecting the multiplier estimate
        pinv(A^T) (x - z) onto the polar cone.  Exact for rows whose
        projection is the vertex preimage; harmless elsewhere.
        """
        A, b = self.instance.A, self.instance.b
        if not hasattr(self, "_apinv"):
            self._apinv = np.linalg.pinv(A)
        Zv = Xs - GXs @ self._apinv.T
        mv = margins(Zv @ A.T + b)
        ok = mv >= -1e-10 * max(1.0, float(np.linalg.norm(b)))
        ub = np.full(Xs.shape[0], np.inf)
        lb = np.zeros(Xs.shape[0])
        if not np.any(ok):
            return Zv, ub, lb
        neg = ok & (mv < 0.0)
        if np.any(neg):
            theta = -mv[neg] / (self._interior_margin - mv[neg])
            Zv[neg] += theta[:, None] * (self._interior_point - Zv[neg])
        ub[ok] = np.linalg.norm(Xs[ok] - Zv[ok], axis=1)
        Nu = (Xs - Zv) @ self._apinv
        Mu = -projections_to_cone(-Nu)
        den = np.linalg.norm(Mu @ A, axis=1)
        num = np.einsum("ij,ij->i", Mu, GXs)
        good = ok & (den > 1e-300)
        lb[good] = np.maximum(0.0, num[good] / den[good])
        return Zv, ub, lb

    def _project_slater(self, X: np.ndarray, tol: float, max_iter: int):
        A, b = self.instance.A, self.instance.b
        N, n = X.shape
        m = A.shape[0]
        Z_out = X.copy()
        D_out = np.zeros(N)

        feas = margins(X @ A.T + b) >= 0.0
        todo = ~feas
        if not np.any(todo):
            return Z_out, D_out
        Xw = X[todo]
        k = Xw.shape[0]
        tol_rows = tol * np.maximum(1.0, np.linalg.norm(Xw, axis=1))

        AtA = A.T @ A
        rho = 1.0
        K = np.eye(n) + rho * AtA
        Y = projections_to_cone(Xw @ A.T + b)
        U = np.zeros((k, m))
        GX = Xw @ A.T + b

        best_lb = np.zeros(k)
        best_ub = np.full(k, np.inf)
        best_Z = Xw.copy()
        done = np.zeros(k, dtype=bool)
        check_every = 25
        rho_updates = 0

        z_int = self._interior_point
        margin_int = self._interior_margin

        # Exact candidate for rows that project onto the vertex preimage.
        Zv, ub_v, lb_v = self._vertex_candidate(Xw, GX)
        improved = ub_v < best_ub
        best_ub[improved] = ub_v[improved]
        best_Z[improved] = Zv[improved]
        best_lb = np.maximum(best_lb, lb_v)
        done = best_ub - best_lb <= tol_rows
        if np.all(done):
            Z_out[todo] = best_Z
            D_out[todo] = best_ub
            return Z_out, D_out

        it = 0
        Y_prev = Y
        while it < max_iter:
            it += 1
            rhs = Xw + rho * ((Y - b - U) @ A)
            Z = np.linalg.solve(K, rhs.T).T
            V = Z @ A.T + b + U
            Y_prev = Y
            Y = projections_to_cone(V)
            U = V - Y

            if it == 1 or it % check_every == 0 or it == max_iter:
                # Feasible upper bound: blend toward the interior point.
                mz = margins(Z @ A.T + b)
                theta = np.where(mz >= 0.0, 0.0, -mz / (margin_int - mz))
                Zf = Z + theta[:, None] * (z_int - Z)
                ub = np.linalg.norm(Xw - Zf, axis=1)
                improved = ub < best_ub
                best_ub[improved] = ub[improved]
                best_Z[improved] = Zf[improved]
                # Certified lower bound from any polar-cone vector.
                Mu = -projections_to_cone(-rho * U)
                den = np.linalg.norm(Mu @ A, axis=1)
                num = np.einsum("ij,ij->i", Mu, GX)
                ok = den > 1e-300
                lb = np.zeros(k)
                lb[ok] = np.maximum(0.0, num[ok] / den[ok])
                best_lb = np.maximum(best_lb, lb)
                done = best_ub - best_lb <= tol_rows
                # Smooth-boundary rows: Newton polish closes the gap to
                # machine precision from the splitting warm start.
                if not np.all(done):
                    open_idx = np.flatnonzero(~done)
                    Zp, ub_p, lb_p = self._kkt_polish(
                        Xw[open_idx], best_Z[open_idx]
                    )
                    improved = ub_p < best_ub[open_idx]
                    best_ub[open_idx[improved]] = ub_p[improved]
                    best_Z[open_idx[improved]] = Zp[improved]
                    best_lb[open_idx] = np.maximum(best_lb[open_idx], lb_p)
                    done = best_ub - best_lb <= tol_rows
                if np.all(done):
                    break
                # Residual balancing for the penalty parameter.
                if rho_updates < 24 and it % 100 == 0:
                    pri = np.linalg.norm(Z @ A.T + b - Y, axis=1).max()
                    dua = rho * np.linalg.norm((Y - Y_prev) @ A, axis=1).max()
                    if pri > 10.0 * dua:
                        rho *= 2.0
                        U /= 2.0
                        K = np.eye(n) + rho * AtA
                        rho_updates += 1
                    elif dua > 10.0 * pri:
                        rho /= 2.0
                        U *= 2.0
                        K = np.eye(n) + rho * AtA
                        rho_updates += 1

        if not np.all(done):
            worst = float(np.max(best_ub - best_lb))
            raise NumericalFailureError(
                f"projection gap {worst:.3e} not certified within "
                f"{max_iter} iterations",
                worst,
            )
        Z_out[todo] = best_Z
        D_out[todo] = best_ub
        return Z_out, D_out


def _search_feasible_reference(
    instance: AffineSOCInstance, tol: float
) -> Optional[np.ndarray]:
    """Best-effort feasible point: exact vertex solve, then margin ascent."""
    A, b = instance.A, instance.b
    z_v, *_ = np.linalg.lstsq(A, -b, rcond=None)
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
    max_iter: int = PROJECTION_MAX_ITER,
    reference=None,
) -> tuple[np.ndarray, float]:
    """Project ``x`` onto the feasible set; returns (point, distance).

    A feasible ``reference`` pins down the global shape of the feasible
    set.  Without one, the routine finds a reference itself when it can
    (exact vertex solve or margin ascent) and otherwise raises
    ``NumericalFailureError``.
    """
    x = instance.point(x)
    y = instance.evaluate(x)
    if float(y[0] - np.linalg.norm(y[1:])) >= 0.0:
        return x.copy(), 0.0
    if reference is None:
        reference = _search_feasible_reference(instance, DEFAULT_TOL)
        if reference is None:
            raise NumericalFailureError(
                "could not locate a feasible reference point; supply one",
                float("nan"),
            )
    projector = FeasibleSetProjector(instance, reference)
    return projector.project(x, tol=tol, max_iter=max_iter)

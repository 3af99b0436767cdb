"""An exact reference distance to {x : Ax + b in Q_m}, in rational arithmetic.

This helper shares no code with ``socpcq.projection``: it reads the
instance as plain numbers, converts every float to a ``Fraction`` exactly,
and decides in ``Fraction`` arithmetic only, on the primitives of
``rational``.

It covers the smooth-boundary candidate alone.  At the projection z of an
infeasible x with g(z) = Az + b on the boundary of Q and g0(z) > 0, the
normal cone of the feasible set gives z - x = t A^T J g(z) for some t > 0,
with J = diag(1, -1, ..., -1).  So (I - tM) z(t) = x + t c, with M = A^T J A
and c = A^T J b, and t is a positive root of psi(g(z(t))) = 0, where
psi(y) = y^T J y.  By Cramer's rule p(t) = psi(g(z(t))) * det(I - tM)^2 is a
polynomial of degree at most 2n.  The helper

- interpolates p exactly at 2n + 3 integer nodes where det(I - tM) != 0,
  and checks that the two extra coefficients vanish;
- isolates the positive roots of p with a Sturm sequence and bisects each
  one until the squared distance at both ends agrees to ``2**-_BITS``
  relative;
- keeps the roots with det(I - tM) != 0 and g0(z(t)) > 0, and returns the
  least squared distance ||z(t) - x||^2 among them, as an interval.

``boundary_root`` returns that root's narrowed bracket [t_lo, t_hi] and
z(t) at both ends instead.

A projection onto the vertex of the cone, or a root at a pole of z(t) (the
hard case), has no candidate here; the helper then returns None.  Any
candidate it does return is the projection, since the feasible set is
convex and x - z lies in its normal cone at z.
"""

from __future__ import annotations

from fractions import Fraction

from rational import evaluate, exact, interpolate, positive_roots, solve, sturm, trim, variations

#: Relative width, in bits, of the squared-distance interval returned.
_BITS = 120


class _Instance:
    """A, b and x as Fractions, with M = A^T J A and c = A^T J b."""

    def __init__(self, A, b, x):
        self.A = [exact(row) for row in A]
        self.b = exact(b)
        self.x = exact(x)
        self.n = len(self.x)
        JA = [row if i == 0 else [-a for a in row] for i, row in enumerate(self.A)]
        Jb = [v if i == 0 else -v for i, v in enumerate(self.b)]
        cols = list(zip(*self.A))
        self.M = [[sum(a * ja[j] for a, ja in zip(col, JA)) for j in range(self.n)]
                  for col in cols]
        self.c = [sum(a * v for a, v in zip(col, Jb)) for col in cols]

    def point(self, t: Fraction) -> tuple[Fraction, list]:
        """(det(I - tM), z(t)); z is None where the determinant vanishes."""
        n = self.n
        matrix = [[(i == j) - t * self.M[i][j] for j in range(n)] for i in range(n)]
        return solve(matrix, [xi + t * ci for xi, ci in zip(self.x, self.c)])

    def image(self, z: list) -> list:
        return [sum(a * zj for a, zj in zip(row, z)) + bi for row, bi in zip(self.A, self.b)]

    def psi(self, z: list) -> Fraction:
        y = self.image(z)
        return y[0] * y[0] - sum(v * v for v in y[1:])

    def dist2(self, z: list) -> Fraction:
        return sum((zi - xi) ** 2 for zi, xi in zip(z, self.x))


def boundary_distance2(A, b, x):
    """Bounds (lo, hi) on the squared distance from an infeasible x to
    {x : Ax + b in Q} at its smooth-boundary candidate, as Fractions; None
    when there is no such candidate (a vertex or hard-case projection)."""
    nearest = _nearest_root(A, b, x)
    return None if nearest is None else nearest[:2]


def boundary_root(A, b, x):
    """The narrowed root bracket behind ``boundary_distance2``:
    (t_lo, t_hi, z(t_lo), z(t_hi)) as Fractions, at the root whose
    smooth-boundary candidate is nearest x, or None where
    ``boundary_distance2`` is None.  The projection's multiplier t lies in
    [t_lo, t_hi], and ||z(t) - x||^2 at the two ends agree to 2**-_BITS
    relative."""
    nearest = _nearest_root(A, b, x)
    return None if nearest is None else nearest[2]


def _nearest_root(A, b, x):
    """``_bracket`` at the positive root of p whose smooth-boundary
    candidate is nearest x, or None where no root has one."""
    inst = _Instance(A, b, x)
    degree = 2 * inst.n
    nodes, values = [], []
    t = Fraction(0)
    while len(nodes) < degree + 3:
        det, z = inst.point(t)
        if det != 0:
            nodes.append(t)
            values.append(inst.psi(z) * det * det)
        t += 1
    poly = interpolate(nodes, values)
    assert poly[degree + 1] == poly[degree + 2] == 0, "p has degree above 2n"
    poly = trim(poly)
    if len(poly) < 2 or poly[0] == 0:
        # No positive root, or g(x) on the boundary of Q or -Q.
        return None
    chain = sturm(poly)
    best = None
    for lo, hi in positive_roots(chain):
        ends = _bracket(inst, chain, lo, hi)
        if ends is not None and (best is None or ends[1] < best[1]):
            best = ends
    return best


def _candidate(inst: _Instance, t: Fraction):
    """||z(t) - x||^2 where det(I - tM) != 0 and g0(z(t)) > 0, else None."""
    det, z = inst.point(t)
    if det == 0 or inst.image(z)[0] <= 0:
        return None
    return inst.dist2(z)


def _bracket(inst: _Instance, chain: list, lo: Fraction, hi: Fraction):
    """Bisect the root in (lo, hi] until the squared distance at both ends
    agrees to 2**-_BITS relative: (low, high, (lo, hi, z(lo), z(hi))) of
    that distance at the narrowed bracket, or None if the root is no
    smooth-boundary candidate.  A root where p changes sign is bisected on
    the sign of p, any other on the Sturm count."""
    p = chain[0]
    p_lo, p_hi = evaluate(p, lo), evaluate(p, hi)
    if p_hi == 0:
        lo = hi
    sign_change = p_lo * p_hi < 0
    v_lo = variations(chain, lo)
    while True:
        for _ in range(32):
            if lo == hi:
                break
            mid = (lo + hi) / 2
            p_mid = evaluate(p, mid)
            if p_mid == 0:
                lo = hi = mid
            elif sign_change:
                if (p_mid > 0) == (p_lo > 0):
                    lo = mid
                else:
                    hi = mid
            else:
                v_mid = variations(chain, mid)
                if v_lo - v_mid == 1:
                    hi = mid
                else:
                    lo, v_lo = mid, v_mid
        d_lo, d_hi = _candidate(inst, lo), _candidate(inst, hi)
        if d_lo is None or d_hi is None:
            if hi - lo < Fraction(1, 2**_BITS) * (1 + hi):
                return None
            continue
        low, high = min(d_lo, d_hi), max(d_lo, d_hi)
        if high - low <= Fraction(1, 2**_BITS) * (1 + low):
            return low, high, (lo, hi, inst.point(lo)[1], inst.point(hi)[1])

"""An exact reference distance to {x : Ax + b in Q_m}, in rational arithmetic.

This helper shares no code with ``socpcq.projection``: it reads the
instance as plain numbers, converts every float to a ``Fraction`` exactly,
and decides in ``Fraction`` arithmetic only.

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

A projection onto the vertex of the cone, or a root at a pole of z(t) (the
hard case), has no candidate here; the helper then returns None.  Any
candidate it does return is the projection, since the feasible set is
convex and x - z lies in its normal cone at z.
"""

from __future__ import annotations

from fractions import Fraction

#: Relative width, in bits, of the squared-distance interval returned.
_BITS = 120


def _exact(values) -> list:
    return [Fraction(float(v)) for v in values]


def _solve(matrix: list, rhs: list) -> tuple[Fraction, list]:
    """(det, solution) of a square rational system; solution None when the
    matrix is singular."""
    n = len(rhs)
    rows = [list(row) + [r] for row, r in zip(matrix, rhs)]
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, n):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [a - f * c for a, c in zip(rows[i], rows[k])]
    sol = [Fraction(0)] * n
    for k in reversed(range(n)):
        s = rows[k][n] - sum(rows[k][j] * sol[j] for j in range(k + 1, n))
        sol[k] = s / rows[k][k]
    return det, sol


class _Instance:
    """A, b and x as Fractions, with M = A^T J A and c = A^T J b."""

    def __init__(self, A, b, x):
        self.A = [_exact(row) for row in A]
        self.b = _exact(b)
        self.x = _exact(x)
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
        return _solve(matrix, [xi + t * ci for xi, ci in zip(self.x, self.c)])

    def image(self, z: list) -> list:
        return [sum(a * zj for a, zj in zip(row, z)) + bi for row, bi in zip(self.A, self.b)]

    def psi(self, z: list) -> Fraction:
        y = self.image(z)
        return y[0] * y[0] - sum(v * v for v in y[1:])

    def dist2(self, z: list) -> Fraction:
        return sum((zi - xi) ** 2 for zi, xi in zip(z, self.x))


# -- polynomials, as coefficient lists from the constant term up ----------


def _trim(p: list) -> list:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def _eval(p: list, t: Fraction) -> Fraction:
    out = Fraction(0)
    for a in reversed(p):
        out = out * t + a
    return out


def _interpolate(nodes: list, values: list) -> list:
    """Coefficients of the polynomial through (nodes, values), by Newton's
    divided differences."""
    coef = list(values)
    k = len(nodes)
    for j in range(1, k):
        for i in range(k - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (nodes[i] - nodes[i - j])
    poly = [Fraction(0)] * k
    for i in reversed(range(k)):
        # poly = poly * (t - nodes[i]) + coef[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - nodes[i] * q for s, q in zip(shifted, poly)]
        poly[0] += coef[i]
    return poly


def _remainder(a: list, b: list) -> list:
    a = list(a)
    while len(a) >= len(b):
        f = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, v in enumerate(b):
            a[shift + i] -= f * v
        a = _trim(a[:-1])
    return a


def _sturm(p: list) -> list:
    chain = [p, _trim([i * a for i, a in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-v for v in r])
    return chain


def _variations(chain: list, t: Fraction) -> int:
    signs = [v > 0 for v in (_eval(q, t) for q in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _positive_roots(chain: list) -> list:
    """Isolating intervals (lo, hi] of the distinct positive roots of p,
    the head of its Sturm chain, p(0) != 0."""
    p = chain[0]
    bound = 1 + max(abs(a / p[-1]) for a in p[:-1])
    todo, out = [(Fraction(0), bound)], []
    while todo:
        lo, hi = todo.pop()
        count = _variations(chain, lo) - _variations(chain, hi)
        if count == 1:
            out.append((lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            todo += [(lo, mid), (mid, hi)]
    return out


def boundary_distance2(A, b, x):
    """Bounds (lo, hi) on the squared distance from an infeasible x to
    {x : Ax + b in Q} at its smooth-boundary candidate, as Fractions; None
    when there is no such candidate (a vertex or hard-case projection)."""
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
    poly = _interpolate(nodes, values)
    assert poly[degree + 1] == poly[degree + 2] == 0, "p has degree above 2n"
    poly = _trim(poly)
    if len(poly) < 2 or poly[0] == 0:
        # No positive root, or g(x) on the boundary of Q or -Q.
        return None
    chain = _sturm(poly)
    best = None
    for lo, hi in _positive_roots(chain):
        ends = _narrowed(inst, chain, lo, hi)
        if ends is None:
            continue
        if best is None or ends[1] < best[1]:
            best = ends
    return best


def _candidate(inst: _Instance, t: Fraction):
    """||z(t) - x||^2 where det(I - tM) != 0 and g0(z(t)) > 0, else None."""
    det, z = inst.point(t)
    if det == 0 or inst.image(z)[0] <= 0:
        return None
    return inst.dist2(z)


def _narrowed(inst: _Instance, chain: list, lo: Fraction, hi: Fraction):
    """Bisect the root in (lo, hi] until the squared distance at both ends
    agrees to 2**-_BITS relative; (low, high) of it, or None if the root
    is no smooth-boundary candidate.  A root where p changes sign is
    bisected on the sign of p, any other on the Sturm count."""
    p = chain[0]
    p_lo, p_hi = _eval(p, lo), _eval(p, hi)
    if p_hi == 0:
        lo = hi
    sign_change = p_lo * p_hi < 0
    v_lo = _variations(chain, lo)
    while True:
        for _ in range(32):
            if lo == hi:
                break
            mid = (lo + hi) / 2
            p_mid = _eval(p, mid)
            if p_mid == 0:
                lo = hi = mid
            elif sign_change:
                if (p_mid > 0) == (p_lo > 0):
                    lo = mid
                else:
                    hi = mid
            else:
                v_mid = _variations(chain, mid)
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
            return low, high

"""Exact rational arithmetic for the tests' ground truth.

Every routine computes in ``fractions.Fraction`` only and imports nothing
but the standard library, so the ground truth shares no code with the
package it checks.  A matrix is a list of rows; a polynomial is a list of
coefficients from the constant term up.
"""

from __future__ import annotations

from fractions import Fraction


def exact(values) -> list:
    """The binary floats of ``values`` as Fractions, exactly."""
    return [Fraction(float(v)) for v in values]


# -- elimination -----------------------------------------------------------


def eliminate(rows: list) -> tuple[list, list, Fraction]:
    """Gaussian elimination with row pivoting: (echelon rows, pivot columns,
    det).  The pivot columns index a basis of the column space, so their
    number is the rank.  det is the determinant of the leading square block
    when it spans every row (a square matrix, or one with further columns
    appended), and 0 when that block is singular."""
    rows = [list(row) for row in rows]
    det, pivots = Fraction(1), []
    for j in range(len(rows[0])):
        k = len(pivots)
        if k == len(rows):
            break
        pivot = next((i for i in range(k, len(rows)) if rows[i][j] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][j]
        for i in range(k + 1, len(rows)):
            f = rows[i][j] / rows[k][j]
            if f:
                rows[i] = [a - f * c for a, c in zip(rows[i], rows[k])]
        pivots.append(j)
    return rows, pivots, det


def solve(matrix: list, rhs: list) -> tuple[Fraction, list]:
    """(det, solution) of a square rational system; solution None when the
    matrix is singular."""
    n = len(rhs)
    rows, _, det = eliminate([list(row) + [r] for row, r in zip(matrix, rhs)])
    if det == 0:
        return det, None
    sol = [Fraction(0)] * n
    for k in reversed(range(n)):
        s = rows[k][n] - sum(rows[k][j] * sol[j] for j in range(k + 1, n))
        sol[k] = s / rows[k][k]
    return det, sol


# -- polynomials -----------------------------------------------------------


def trim(p: list) -> list:
    """p without its vanishing leading coefficients."""
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def evaluate(p: list, t: Fraction) -> Fraction:
    """p(t), by Horner's rule."""
    out = Fraction(0)
    for a in reversed(p):
        out = out * t + a
    return out


def interpolate(nodes: list, values: list) -> list:
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
        a = trim(a[:-1])
    return a


def sturm(p: list) -> list:
    """The Sturm chain of p, headed by p itself."""
    chain = [p, trim([i * a for i, a in enumerate(p)][1:])]
    while len(chain[-1]) > 1:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append([-v for v in r])
    return chain


def variations(chain: list, t: Fraction) -> int:
    """Sign changes along the chain at t; their drop from lo to hi counts
    the distinct roots of the chain's head in (lo, hi]."""
    signs = [v > 0 for v in (evaluate(q, t) for q in chain) if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def positive_roots(chain: list) -> list:
    """Isolating intervals (lo, hi] of the distinct positive roots of p,
    the head of its Sturm chain, p(0) != 0."""
    p = chain[0]
    bound = 1 + max(abs(a / p[-1]) for a in p[:-1])
    todo, out = [(Fraction(0), bound)], []
    while todo:
        lo, hi = todo.pop()
        count = variations(chain, lo) - variations(chain, hi)
        if count == 1:
            out.append((lo, hi))
        elif count > 1:
            mid = (lo + hi) / 2
            todo += [(lo, mid), (mid, hi)]
    return out

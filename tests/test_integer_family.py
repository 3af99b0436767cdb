"""Bounded-exhaustive verification on small integer instances.

The family is every A in {-1, 0, 1}^(3 x 2), 729 matrices, with xbar = 0
and b one of 0, e0 + e1 and e0, so that g(0) = b is the vertex, a boundary
point or an interior point: 2,187 reports in a fixed order, with no seed.
Small integer data hit the configurations the theorems split on exactly
(Im A a boundary ray, 2 t^2 = 1; a rank drop; a vanishing boundary
gradient) in every combination, where a random draw meets them only where
the generator plants them.

The image class is checked against an exact one, decided in ``Fraction``:
the rank and a column basis B from one elimination, and the class by the
sign of 2 t^2 - 1 with t^2 = e0^T U U^T e0 = B[0]^T (B^T B)^-1 B[0], from
one Gram solve.  A Lorentz boost maps Q_3 onto itself, so every verdict, and
the bounded error modulus of Thm4.4(iv), must survive one.
"""

import functools
import itertools
import math

import numpy as np
import pytest

from socpcq import AffineSOCInstance, classify_image_vs_cone
from socpcq.cq_checker import _report
from socpcq.families import lorentz_boost, transformed
from socpcq.oracles import classify_kappa_growth, mscq_kappa_scan
from socpcq.subspace_cone import SubspaceKind

from rational import eliminate, exact, solve

VERDICTS = ("nondegeneracy", "rcq", "fcr", "h_closed", "crcq", "mscq")
#: g(0) = b at the vertex, on the boundary and inside Q_3.
POINTS = {"vertex": (0, 0, 0), "boundary": (1, 1, 0), "interior": (1, 0, 0)}
#: Rapidities ln 3 and ln 7: boosts with rational entries (5/3, 4/3 and
#: 25/7, 24/7).
RAPIDITIES = (math.log(3.0), math.log(7.0))
XBAR = np.zeros(2)


@functools.cache
def _matrices():
    """Every A in {-1, 0, 1}^(3 x 2), in lexicographic order."""
    entries = itertools.product((-1.0, 0.0, 1.0), repeat=6)
    return [np.array(e).reshape(3, 2) for e in entries]


def _labels(report):
    return tuple((getattr(report, v).holds, getattr(report, v).condition) for v in VERDICTS)


def _boosted(inst, rapidity):
    return transformed(inst, L=lorentz_boost([1.0, 0.0], rapidity))[0]


def _exact_class(A):
    """(kind, rank) of Im(A) in ``Fraction``: a column basis B from one
    elimination, then the sign of 2 t^2 - 1 with
    t^2 = B[0]^T (B^T B)^-1 B[0]."""
    rows = [exact(row) for row in A]
    pivots = eliminate(rows)[1]
    if not pivots:
        return SubspaceKind.ZERO_ONLY, 0
    basis = [[row[j] for row in rows] for j in pivots]
    gram = [[sum(a * b for a, b in zip(u, v)) for v in basis] for u in basis]
    head = [rows[0][j] for j in pivots]
    sign = 2 * sum(h * s for h, s in zip(head, solve(gram, head)[1])) - 1
    if sign > 0:
        return SubspaceKind.MEETS_INTERIOR, len(pivots)
    if sign == 0:
        return SubspaceKind.RAY, len(pivots)
    return SubspaceKind.ZERO_ONLY, len(pivots)


@functools.cache
def _family():
    """{(matrix index, point): (instance, labels)} over the whole family;
    every report is consistent."""
    out = {}
    for i, A in enumerate(_matrices()):
        for point, b in POINTS.items():
            inst = AffineSOCInstance(A, np.array(b, dtype=float))
            report, violations = _report(inst, XBAR)
            assert violations == [], (A.tolist(), point, violations)
            out[i, point] = inst, _labels(report)
    return out


def test_family_reports_are_consistent():
    family = _family()
    assert len(family) == 2187
    # The family reaches every CRCQ clause of Thm 4.4, and a failure at the
    # vertex (Cor 4.2) and on the boundary (FCR).
    crcq = {(point, labels[4]) for (_, point), (_, labels) in family.items()}
    assert crcq == {
        ("vertex", (True, "Thm4.4(iv)")),
        ("vertex", (True, "Thm4.4(v)")),
        ("vertex", (True, "Thm4.4(vi)")),
        ("vertex", (False, None)),
        ("boundary", (True, "Thm4.4(ii)")),
        ("boundary", (True, "Thm4.4(iii)")),
        ("boundary", (False, None)),
        ("interior", (True, "Thm4.4(i)")),
    }


def test_family_image_class_is_exact():
    kinds = set()
    for A in _matrices():
        geo = classify_image_vs_cone(A)
        assert (geo.kind, geo.rank) == _exact_class(A), A.tolist()
        kinds.add(geo.kind)
    # The family holds every class, the exact ray 2 t^2 = 1 included.
    assert kinds == set(SubspaceKind)


@pytest.mark.parametrize("rapidity", RAPIDITIES)
def test_family_labels_survive_boosts(rapidity):
    changed = []
    for (i, point), (inst, labels) in _family().items():
        report, violations = _report(_boosted(inst, rapidity), XBAR)
        assert violations == [], (i, point, violations)
        if _labels(report) != labels:
            changed.append((i, point))
    assert changed == []


def _vertex_slater_instances():
    """The family's vertex instances whose CRCQ reads Thm4.4(iv): Im(A)
    meets the cone interior, so the error modulus at 0 is bounded."""
    return [
        inst
        for (_, point), (inst, labels) in _family().items()
        if point == "vertex" and labels[4] == (True, "Thm4.4(iv)")
    ]


@pytest.mark.parametrize(
    "rapidity",
    [0.0]
    + [
        # 2 and 16 of the 360 scans read inconclusive.
        pytest.param(
            r,
            marks=pytest.mark.xfail(
                strict=True, reason="boosted scans misread a flat kappa-hat (ROADMAP item 1)"
            ),
        )
        for r in RAPIDITIES
    ],
)
def test_family_vertex_slater_scans_are_bounded(rapidity):
    instances = _vertex_slater_instances()
    assert len(instances) == 360
    misread = []
    for k, inst in enumerate(instances):
        if rapidity:
            inst = _boosted(inst, rapidity)
        scan = mscq_kappa_scan(inst, XBAR, samples_per_radius=48, seed=0)
        label = classify_kappa_growth(scan)
        if label != "bounded":
            misread.append((k, label))
    assert misread == []

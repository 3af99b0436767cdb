"""Per-layer metrics from the spans of a traced run.

Times and counts are totals over the traced operations divided by their
number; metrics named ``*_per_<x>`` are the stated ratio instead.  Self
time is a span's duration minus the durations of its direct children.
Span durations are speed-normalized with their operation's factor.
"""

from __future__ import annotations

import numpy as np

from tracer import END, ERROR, LAYERS, NAME, OP, PARENT, ROWS, START, TAG

STRATA = (
    "thm4.4-i",
    "thm4.4-ii",
    "thm4.4-iii",
    "thm4.4-iv",
    "thm4.4-v",
    "thm4.4-vi",
    "cor4.2",
    "degenerate-boundary",
)
GEOMETRIES = ("slater", "ray_flat", "flat")

CONE_PROJ = {"soc_core.projections_to_cone", "soc_core.project_to_cone"}
BATCH_KERNELS = {"soc_core.margins", "soc_core.distances_to_cone", "soc_core.projections_to_cone"}
RANK_CALLS = {
    "subspace_cone.numeric_rank",
    "subspace_cone.image_basis",
    "subspace_cone.classify_image_vs_cone",
}
BUILD = "projection.FeasibleSetProjector.__init__"
BATCH = "projection.FeasibleSetProjector.project_batch"
REPORT = "cq_checker.full_report"
HARNESS = "oracles.equivalence_harness"

#: name -> unit, in the order the metrics are printed.
PER_LAYER = {
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    "soc_core.cone_proj_calls": "count/op",
    "soc_core.cone_proj_rows": "count/op",
    "soc_core.ns_per_row": "ns/row",
    "projection.builds": "count/op",
    "projection.build_ms": "ms/op",
    **{f"projection.batch_self_ms.{g}": "ms/op" for g in GEOMETRIES},
    "projection.rows": "count/op",
    "projection.cone_proj_calls_per_batch": "count/batch",
    "projection.failures": "count/op",
    **{f"cq_checker.report_ms.{s}": "ms/op" for s in STRATA},
    "cq_checker.eta_ms": "ms/op",
    "subspace_cone.rank_calls_per_report": "count/report",
    "affine_instance.analyze_calls_per_report": "count/report",
    "oracles.generate_ms": "ms/op",
    "oracles.kappa_scan_self_ms": "ms/op",
    "oracles.dim_scan_ms": "ms/op",
    "oracles.retry_frac": "fraction",
    "cli.parse_ms": "ms/op",
    "tracing.spans_per_op": "count/op",
    "tracing.coverage_frac": "fraction",
    "tracing.overhead_frac": "fraction",
}


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans: list, factors, traced_ns: float, untraced_ns: float) -> dict:
    """Every ``PER_LAYER`` metric from the spans of one traced run.

    ``factors`` holds each operation's speed factor; ``traced_ns`` and
    ``untraced_ns`` are the normalized times of the traced and the
    untraced pass over the same operations.
    """
    ops = len(factors)
    count = len(spans)
    names = np.array([s[NAME] for s in spans], dtype=object)
    parent = np.array([s[PARENT] for s in spans], dtype=np.int64).reshape(count)
    op_of = np.array([s[OP] for s in spans], dtype=np.int64).reshape(count)
    dur = np.array([s[END] - s[START] for s in spans], dtype=float).reshape(count)
    dur *= np.asarray(factors, dtype=float)[op_of]
    rows = np.array([s[ROWS] for s in spans], dtype=np.int64).reshape(count)
    tags = np.array([s[TAG] for s in spans], dtype=object)
    errors = np.array([s[ERROR] for s in spans], dtype=bool).reshape(count)
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)

    has_parent = parent >= 0
    self_ns = dur.copy()
    np.subtract.at(self_ns, parent[has_parent], dur[has_parent])

    def is_(group) -> np.ndarray:
        return np.array([n in group for n in names], dtype=bool).reshape(count)

    def under(group) -> np.ndarray:
        """Spans with an ancestor in ``group``; parents precede children."""
        mark = is_(group)
        out = np.zeros(count, dtype=bool)
        for i in np.flatnonzero(has_parent):
            p = parent[i]
            out[i] = mark[p] or out[p]
        return out

    ms = 1e-6 / ops
    per_op = 1.0 / ops
    cone = is_(CONE_PROJ)
    kernels = is_(BATCH_KERNELS)
    batch = is_(BATCH)
    report = is_(REPORT)
    in_report = under({REPORT})
    in_projection = layer == "projection"
    parent_failed = np.zeros(count, dtype=bool)
    parent_failed[has_parent] = (errors & in_projection)[parent[has_parent]]
    in_harness = under({HARNESS})
    trials = np.count_nonzero(report & in_harness)

    out = {f"{lay}.self_ms": self_ns[layer == lay].sum() * ms for lay in LAYERS}
    out.update(
        {
            "soc_core.cone_proj_calls": np.count_nonzero(cone) * per_op,
            "soc_core.cone_proj_rows": rows[cone].sum() * per_op,
            "soc_core.ns_per_row": _ratio(self_ns[kernels].sum(), rows[kernels].sum()),
            "projection.builds": np.count_nonzero(is_({BUILD})) * per_op,
            "projection.build_ms": dur[is_({BUILD})].sum() * ms,
        }
    )
    for g in GEOMETRIES:
        out[f"projection.batch_self_ms.{g}"] = self_ns[batch & (tags == g)].sum() * ms
    out.update(
        {
            "projection.rows": rows[batch].sum() * per_op,
            "projection.cone_proj_calls_per_batch": _ratio(
                np.count_nonzero(cone & under({BATCH})), np.count_nonzero(batch)
            ),
            "projection.failures": np.count_nonzero(
                errors & in_projection & ~parent_failed
            )
            * per_op,
        }
    )
    for s in STRATA:
        out[f"cq_checker.report_ms.{s}"] = dur[report & (tags == s)].sum() * ms
    n_reports = np.count_nonzero(report)
    out.update(
        {
            "cq_checker.eta_ms": dur[is_({"cq_checker.minimal_cone_distance_on_image"})].sum() * ms,
            "subspace_cone.rank_calls_per_report": _ratio(
                np.count_nonzero(is_(RANK_CALLS) & in_report), n_reports
            ),
            "affine_instance.analyze_calls_per_report": _ratio(
                np.count_nonzero(is_({"affine_instance.analyze_point"}) & in_report),
                n_reports,
            ),
            "oracles.generate_ms": dur[is_({"oracles.random_instance"})].sum() * ms,
            "oracles.kappa_scan_self_ms": self_ns[is_({"oracles.mscq_kappa_scan"})].sum() * ms,
            "oracles.dim_scan_ms": dur[is_({"oracles.fcr_dim_scan"})].sum() * ms,
            # Each harness trial that gets past its report runs one scan;
            # an inconclusive scan is retried once with a second scan.
            "oracles.retry_frac": _ratio(
                np.count_nonzero(is_({"oracles.mscq_kappa_scan"}) & in_harness) - trials,
                trials,
            ),
            "cli.parse_ms": dur[is_({"cli.parse_instance"})].sum() * ms,
            "tracing.spans_per_op": count * per_op,
            "tracing.coverage_frac": _ratio(dur[~has_parent].sum(), traced_ns),
            "tracing.overhead_frac": _ratio(traced_ns, untraced_ns) - 1.0,
        }
    )
    return {name: float(value) for name, value in out.items()}

"""Command-line front end: instance files, analysis, scans, harness, projection.

Instance documents are single JSON files::

    {
      "m": 3, "n": 3,
      "A": [[1,0,0],[1,0,0],[0,0,1]],
      "b": [0,0,0],
      "points": {"xbar": [1,0,0]},
      "tolerances": {"tol": 1e-9}          # optional
    }

Exit codes: 0 success, 1 infeasible analysis point (the report carries the
cone distance), 2 parse/usage error, 3 numerical failure.

``main(argv)`` may be called repeatedly in one process: the argument parser
is built once, on the first call, and reused, and each call dispatches to
the module's current ``cmd_*`` function; ``build_parser()`` still returns a
fresh parser. Only in-process loops (the test suite, the benchmark's
``cli-oneshot`` workload) gain from this; a ``socpcq`` process makes one
call and builds one parser, as before.
"""

from __future__ import annotations

import argparse
import enum
import functools
import json
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import __version__
from .affine_instance import AffineSOCInstance
from .cq_checker import CQReport, full_report
from .errors import (
    InfeasiblePointError,
    ParseError,
    SocpcqError,
)
from .oracles import (
    dim_scan_consistent,
    equivalence_harness,
    fcr_dim_scan,
    mscq_kappa_scan,
)
from .projection import (
    PROJECTION_TOL,
    project_to_feasible_set,
)
from .soc_core import DEFAULT_TOL, ConeLocation, classify_cone_point, distance_to_cone

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3

#: Exit code of each error type that ``main`` reports; any other package
#: error exits with ``EXIT_NUMERICAL``.
_EXIT_CODES = {ParseError: EXIT_PARSE, InfeasiblePointError: EXIT_INFEASIBLE}

_DEFAULT_RADII = (1e-1, 1e-2, 1e-3)


@dataclass
class InstanceDocument:
    m: int
    n: int
    instance: AffineSOCInstance
    points: dict[str, np.ndarray]
    tolerances: dict[str, float] = field(default_factory=dict)

    @property
    def tol(self) -> float:
        return float(self.tolerances.get("tol", DEFAULT_TOL))

    @property
    def projection_tol(self) -> float:
        return float(self.tolerances.get("projection_tol", PROJECTION_TOL))


def _require(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


def parse_instance(path: str) -> InstanceDocument:
    """Load and validate an instance document; raises ParseError on defects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read instance file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    return instance_document_from_dict(raw)


def instance_document_from_dict(raw: Any) -> InstanceDocument:
    _require(isinstance(raw, dict), "instance document must be a JSON object")
    for key in ("m", "n", "A", "b", "points"):
        _require(key in raw, f"missing field {key!r}")
    m, n = raw["m"], raw["n"]
    _require(isinstance(m, int) and isinstance(n, int), "fields m, n must be integers")
    _require(m >= 2, f"m must be at least 2, got {m}")
    _require(n >= 1, f"n must be at least 1, got {n}")
    A = np.asarray(raw["A"], dtype=float)
    _require(A.shape == (m, n), f"field A must be {m}x{n} row-major, got shape {A.shape}")
    b = np.asarray(raw["b"], dtype=float)
    _require(b.shape == (m,), f"field b must have length {m}, got shape {b.shape}")
    _require(bool(np.all(np.isfinite(A))), "field A contains non-finite entries")
    _require(bool(np.all(np.isfinite(b))), "field b contains non-finite entries")
    _require(isinstance(raw["points"], dict), "field points must map names to vectors")
    points: dict[str, np.ndarray] = {}
    for name, vec in raw["points"].items():
        v = np.asarray(vec, dtype=float)
        _require(
            v.shape == (n,), f"point {name!r} must have length {n}, got shape {v.shape}"
        )
        _require(bool(np.all(np.isfinite(v))), f"point {name!r} has non-finite entries")
        points[name] = v
    tolerances = {}
    for key, value in raw.get("tolerances", {}).items():
        _require(
            isinstance(value, (int, float)) and np.isfinite(value) and value > 0,
            f"tolerance {key!r} must be a positive finite number",
        )
        tolerances[key] = float(value)
    return InstanceDocument(m, n, AffineSOCInstance(A, b), points, tolerances)


def serialize_instance(doc: InstanceDocument) -> dict:
    out: dict[str, Any] = {
        "m": doc.m,
        "n": doc.n,
        "A": doc.instance.A.tolist(),
        "b": doc.instance.b.tolist(),
        "points": {name: v.tolist() for name, v in doc.points.items()},
    }
    if doc.tolerances:
        out["tolerances"] = dict(doc.tolerances)
    return out


def _named_point(doc: InstanceDocument, name: str) -> np.ndarray:
    if name not in doc.points:
        raise ParseError(
            f"point {name!r} not in document (available: {sorted(doc.points)})"
        )
    return doc.points[name]


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def _display_label(label: Optional[str]) -> str:
    """Compact condition labels to display form: Thm4.4(vi) -> Thm 4.4 (vi)."""
    if label is None:
        return ""
    return re.sub(r"^(Thm|Cor)(\d+\.\d+)(\(|$)", r"\1 \2 \3", label).rstrip()


def _jsonable(value: Any) -> Any:
    # numpy values become Python ones first, so a non-finite entry renders
    # as the string "inf"/"nan" like a Python float and the JSON stays strict.
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


def _verdict_dict(v) -> dict:
    return {
        "holds": v.holds,
        "condition": v.condition,
        "evidence": _jsonable(v.evidence),
    }


def report_to_dict(doc: InstanceDocument, name: str, report: CQReport) -> dict:
    analysis = report.point_analysis
    return {
        "schema": "socpcq.report/1",
        "version": __version__,
        "instance": serialize_instance(doc),
        "point": {"name": name, "x": analysis.x.tolist()},
        "tolerances": {"tol": doc.tol, "projection_tol": doc.projection_tol},
        "feasible": True,
        "location": analysis.location.value,
        "g_of_x": analysis.y.tolist(),
        "verdicts": {
            "nondegeneracy": _verdict_dict(report.nondegeneracy),
            "rcq": _verdict_dict(report.rcq),
            "fcr": _verdict_dict(report.fcr),
            "h_closed": _verdict_dict(report.h_closed),
            "crcq": _verdict_dict(report.crcq),
            "mscq": _verdict_dict(report.mscq),
        },
        "h_set": {
            "kind": report.h_set.kind.value,
            "generator": _jsonable(report.h_set.generator),
            "closed": report.h_set.closed,
        },
        "derived_claims": list(report.derived_claims),
    }


def _summary_lines(report: CQReport) -> list[str]:
    lines = [f"location: {report.point_analysis.location.value}"]

    def basic(name: str, verdict) -> str:
        if verdict.holds:
            return f"{name}: holds ({_display_label(verdict.condition)})"
        return f"{name}: fails"

    lines.append(basic("nondegeneracy", report.nondegeneracy))
    lines.append(basic("RCQ", report.rcq))
    lines.append(basic("FCR", report.fcr))
    crcq_mscq_fails = "CRCQ: fails; MSCQ: fails"
    if report.h_closed.holds:
        lines.append(f"H(x̄): closed ({_display_label(report.h_closed.condition)})")
        if report.crcq.holds:
            lines.append(
                f"CRCQ: holds ({_display_label(report.crcq.condition)}); "
                f"MSCQ: holds ({_display_label(report.mscq.condition)})"
            )
        else:
            lines.append(crcq_mscq_fails)
    else:
        reason = report.h_closed.evidence.get("reason", "")
        lines.append(f"H(x̄): not closed ({reason}); {crcq_mscq_fails}")
    for claim in report.derived_claims:
        lines.append(f"derived: {claim}")
    return lines


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_analyze(args) -> int:
    doc = parse_instance(args.instance)
    x = _named_point(doc, args.point)
    try:
        report = full_report(doc.instance, x, doc.tol)
    except InfeasiblePointError as exc:
        payload = {
            "schema": "socpcq.report/1",
            "version": __version__,
            "point": {"name": args.point, "x": x.tolist()},
            "feasible": False,
            "distance_to_cone": exc.distance,
        }
        print(json.dumps(payload, indent=2))
        print(
            f"point {args.point!r} is infeasible: dist(g(x), Q_m) = {exc.distance:.6e}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    payload = report_to_dict(doc, args.point, report)
    text = json.dumps(payload, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    for line in _summary_lines(report):
        print(line)
    return EXIT_OK


def cmd_scan(args) -> int:
    doc = parse_instance(args.instance)
    x = _named_point(doc, args.point)
    radii = _parse_radii(args.radii)
    scans = fcr_dim_scan(
        doc.instance, x, args.dim_radius, args.samples, args.seed, tol=doc.tol
    )
    kappa = mscq_kappa_scan(
        doc.instance,
        x,
        radii=radii,
        samples_per_radius=args.samples,
        seed=args.seed,
        tol=doc.tol,
    )
    print("radius,kappa_hat,samples,discarded")
    total = kappa.sample_count + kappa.probe_count
    for i, r in enumerate(kappa.radii):
        print(f"{r:g},{kappa.kappa_hat[i]:.12g},{total},{total - kappa.evaluated(i)}")
    for scan in scans:
        dims = sorted(scan.observed_dims)
        print(
            f"dimscan face={scan.face_label} observed_dims={dims} "
            f"samples={scan.sample_count} discarded={scan.discarded}"
        )
    print(f"fcr_consistent={str(dim_scan_consistent(scans)).lower()}")
    return EXIT_OK


def cmd_harness(args) -> int:
    if args.trials < 1:
        raise ParseError("--trials must be at least 1")
    fixed_instance = None
    fixed_point = None
    if args.instance is not None:
        doc = parse_instance(args.instance)
        if args.point is None:
            raise ParseError("--point is required when --instance is given")
        fixed_instance = doc.instance
        fixed_point = _named_point(doc, args.point)
    report = equivalence_harness(
        trials=args.trials,
        m_max=args.mmax,
        n_max=args.nmax,
        seed=args.seed,
        fixed_instance=fixed_instance,
        fixed_point=fixed_point,
    )
    header = (
        "trial,target_case,m,n,crcq,condition,kappa_class,agree,retried,"
        "fcr_consistent,fcr_agree,invariant_violations,kappa_hat"
    )
    rows = [header]
    for row in report.rows:
        kappas = ";".join(f"{v:.6g}" for v in row.kappa_hat)
        rows.append(
            f"{row.index},{row.target_case},{row.m},{row.n},"
            f"{str(row.crcq_holds).lower()},{row.crcq_condition or ''},"
            f"{row.scan_class},{str(row.agree).lower()},{str(row.retried).lower()},"
            f"{str(row.fcr_consistent).lower()},{str(row.fcr_agree).lower()},"
            f"{row.invariant_violations},{kappas}"
        )
    text = "\n".join(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    print(
        f"trials={report.trials} disagreements={len(report.disagreements)} "
        f"inconclusive={len(report.inconclusive)} failures={len(report.failures)}"
    )
    for t, msg in report.failures:
        print(f"failure trial={t}: {msg}", file=sys.stderr)
    return EXIT_OK if report.clean else EXIT_NUMERICAL


def cmd_project(args) -> int:
    doc = parse_instance(args.instance)
    x = _named_point(doc, args.point)
    instance = doc.instance
    # The projector's own feasibility test picks the reference, so a boundary
    # point that rounding leaves just outside the cone still qualifies.
    reference = next(
        (
            p
            for p in doc.points.values()
            if classify_cone_point(instance.evaluate(p), doc.tol)
            is not ConeLocation.OUTSIDE
        ),
        None,
    )
    z, dist = project_to_feasible_set(
        instance, x, doc.projection_tol, reference=reference, geometry_tol=doc.tol
    )
    dist_g = distance_to_cone(doc.instance.evaluate(x))
    print(f"z = {z.tolist()}")
    print(f"dist(x, Omega) = {dist:.12g}")
    print(f"dist(g(x), Q_m) = {dist_g:.12g}")
    return EXIT_OK


def _parse_radii(text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ParseError(f"invalid --radii value {text!r}") from exc
    if not radii:
        raise ParseError("--radii must contain at least one radius")
    return radii


def _default_seed(fallback: int) -> int:
    env = os.environ.get("SOCPCQ_SEED")
    if env is None:
        return fallback
    try:
        return int(env)
    except ValueError as exc:
        raise ParseError(f"SOCPCQ_SEED must be an integer, got {env!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socpcq",
        description=(
            "Constraint-qualification certificates for affine second-order "
            "cone constraints"
        ),
    )
    parser.add_argument("--version", action="version", version=f"socpcq {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full qualification report at a named point")
    p.add_argument("instance", help="instance JSON document")
    p.add_argument("point", help="name of the point to analyze")
    p.add_argument("--out", help="also write the JSON report to this path")

    p = sub.add_parser("scan", help="kappa-ratio and face-dimension scans")
    p.add_argument("instance")
    p.add_argument("point")
    p.add_argument("--radii", default="1e-1,1e-2,1e-3", help="comma-separated radii")
    p.add_argument("--samples", type=int, default=200, help="samples per radius")
    p.add_argument("--dim-radius", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("harness", help="analytic-vs-sampled equivalence harness")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--mmax", type=int, default=6)
    p.add_argument("--nmax", type=int, default=6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", help="write the per-trial CSV to this path")
    p.add_argument("--instance", help="run all trials on this fixed instance")
    p.add_argument("--point", help="named point for --instance")

    p = sub.add_parser("project", help="project a named point onto the feasible set")
    p.add_argument("instance")
    p.add_argument("point")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use.

    Reuse is safe: ``parse_args`` fills a fresh ``Namespace`` per call, no
    argument has a mutable default, argparse looks up ``sys.stdout``,
    ``sys.stderr`` and the terminal width only when it prints, and
    ``SOCPCQ_SEED`` is read in ``main`` after parsing.
    """
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if getattr(args, "seed", None) is None and hasattr(args, "seed"):
            args.seed = _default_seed(42 if args.command == "harness" else 0)
        # Looked up per call, not bound into the shared parser, so a cmd_*
        # rebound after the first call (a tracer, a monkeypatch) is the one run.
        command = {
            "analyze": cmd_analyze,
            "scan": cmd_scan,
            "harness": cmd_harness,
            "project": cmd_project,
        }[args.command]
        return command(args)
    except SocpcqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES.get(type(exc), EXIT_NUMERICAL)


if __name__ == "__main__":
    sys.exit(main())

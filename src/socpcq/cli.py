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
cone distance), 2 parse/usage error, 3 numerical failure, 141 (128 +
SIGPIPE) stdout closed before the output was written, as by ``| head``.

``main(argv)`` may be called repeatedly in one process: the argument parser
is built once, on the first call, and reused, and each call dispatches to
the module's current ``cmd_*`` function; ``build_parser()`` still returns a
fresh parser. Only in-process loops (the test suite, the benchmark's
``cli-oneshot`` workload) gain from this; a ``socpcq`` process makes one
call and builds one parser, as before.

Each command imports only the layers it runs: ``analyze`` the verdict
layers that ``import socpcq`` loads, ``project`` also ``projection``, and
``scan`` and ``harness`` ``oracles``, which loads ``families`` and
``projection``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

import numpy as np

from . import __version__
from .affine_instance import _TOLERANCES, AffineSOCInstance, analyze_point
from .cq_checker import CQReport, full_report
from .errors import (
    DimensionError,
    InfeasiblePointError,
    ParseError,
    SocpcqError,
)
from .soc_core import _count, _distance_rows

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_PARSE = 2
EXIT_NUMERICAL = 3
EXIT_CLOSED_STDOUT = 141

#: Exit code of each error type that ``main`` reports; any other package
#: error exits with ``EXIT_NUMERICAL``.  A ``DimensionError`` is malformed
#: input that the document's checks cannot see, a finite point whose g(x)
#: overflows: the entry that computes g(x) rejects it.
_EXIT_CODES = {
    ParseError: EXIT_PARSE,
    DimensionError: EXIT_PARSE,
    InfeasiblePointError: EXIT_INFEASIBLE,
}

@dataclass(eq=False)
class InstanceDocument:
    """A parsed document; ``tolerances`` echo those it names."""

    instance: AffineSOCInstance
    points: dict[str, np.ndarray]
    tolerances: dict[str, float] = field(default_factory=dict)


def _require(condition: bool, message: str):
    if not condition:
        raise ParseError(message)


def _is_number(value, kinds) -> bool:
    """``isinstance(value, kinds)``, but a JSON ``true``/``false`` is no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


def _item_types(value) -> set:
    """Entry types of a vector or matrix of lists; deeper lists fail a shape check."""
    if type(value) is not list:
        return {type(value)}
    types = set(map(type, value))
    if types == {list}:
        types = set(map(type, itertools.chain.from_iterable(value)))
    return types


def _floats(value, what: str) -> np.ndarray:
    """``value`` as a float array; anything that is not numeric, or is
    ragged, raises ``ParseError``.

    A JSON string or ``true``/``false`` is no number, though numpy would
    parse ``"1e3"`` and read ``true`` as 1, also inside a float or an int
    array; integers beyond int64 arrive as an object array and are
    converted like any other."""
    try:
        types = _item_types(value)
        if str in types or bool in types:
            raise TypeError("a JSON string or true/false is not a number")
        array = np.asarray(value)
        if array.dtype.kind == "f":
            return array
        return array.astype(float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{what} must be numeric: {exc}") from exc


def parse_instance(path: str) -> InstanceDocument:
    """Load and validate an instance document; raises ParseError on defects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read instance file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; a document
        # nested past the interpreter's recursion limit raises RecursionError.
        raise ParseError(f"invalid JSON in {path!r}: {exc}") from exc
    return instance_document_from_dict(raw)


def instance_document_from_dict(raw: Any) -> InstanceDocument:
    """Check what JSON can get wrong and numpy would accept (keys, integer
    sizes, numbers, the declared shapes); the instance checks the rest."""
    _require(isinstance(raw, dict), "instance document must be a JSON object")
    for key in ("m", "n", "A", "b", "points"):
        _require(key in raw, f"missing field {key!r}")
    m, n = raw["m"], raw["n"]
    _require(_is_number(m, int) and _is_number(n, int), "fields m, n must be integers")
    A = _floats(raw["A"], "field A")
    _require(A.shape == (m, n), f"field A must be {m}x{n} row-major, got shape {A.shape}")
    b = _floats(raw["b"], "field b")
    _require(b.shape == (m,), f"field b must have length {m}, got shape {b.shape}")
    _require(isinstance(raw["points"], dict), "field points must map names to vectors")
    points = {name: _floats(v, f"point {name!r}") for name, v in raw["points"].items()}
    tolerances = raw.get("tolerances", {})
    _require(isinstance(tolerances, dict), "field tolerances must map names to numbers")
    for key in tolerances:
        _require(key in _TOLERANCES, f"unknown tolerance {key!r}")
    name = None
    try:
        instance = AffineSOCInstance(A, b, **tolerances)
        for name, v in points.items():
            points[name] = instance.point(v)
    except DimensionError as exc:
        where = "instance" if name is None else f"point {name!r}"
        raise ParseError(f"invalid {where}: {exc}") from exc
    tolerances = {key: getattr(instance, key) for key in tolerances}
    return InstanceDocument(instance, points, tolerances)


def serialize_instance(doc: InstanceDocument) -> dict:
    out: dict[str, Any] = {
        "m": doc.instance.m,
        "n": doc.instance.n,
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


# Cached: re.sub per summary line shows in cli-oneshot's op_p50_ms (CHANGES.md).
@functools.cache
def _display_label(label: str) -> str:
    """Compact condition labels to display form: Thm4.4(vi) -> Thm 4.4 (vi)."""
    return re.sub(r"^(Thm|Cor)(\d+\.\d+)(\(|$)", r"\1 \2 \3", label).rstrip()


_PLAIN_TYPES = frozenset({str, int, bool, type(None)})


def _jsonable(value: Any) -> Any:
    # numpy values become Python ones first, so a non-finite entry renders
    # as the string "inf"/"nan" like a Python float and the JSON stays strict.
    t = type(value)
    if t in _PLAIN_TYPES:
        return value
    if t is float:
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer)):
        return _jsonable(value.item())
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


_INF = float("inf")


def _float_text(x: float) -> str:
    """A float as ``json`` spells it, NaN and the infinities included."""
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _render(value: Any, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, byte for byte, for what ``_jsonable``
    emits: dicts with str keys, lists, tuples, str, int, float, bool, None.

    ``indent`` sends ``json`` to its pure-Python encoder, which yields one
    fragment per item; this builds each container with one join. ``newline``
    is the line break and indentation of the line that holds ``value``.
    """
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is float:
        return _float_text(value)
    if t is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        items = [_encode_str(k) + ": " + _render(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is list or t is tuple:
        if not value:
            return "[]"
        inner = newline + "  "
        items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if t is int:
        return int.__repr__(value)
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


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
        "tolerances": {k: getattr(doc.instance, k) for k in _TOLERANCES},
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
            "closed": report.h_closed.holds,
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
        report = full_report(doc.instance, x)
    except InfeasiblePointError as exc:
        payload = {
            "schema": "socpcq.report/1",
            "version": __version__,
            "point": {"name": args.point, "x": x.tolist()},
            "feasible": False,
            "distance_to_cone": exc.distance,
        }
        print(_render(payload))
        print(
            f"point {args.point!r} is infeasible: dist(g(x), Q_m) = {exc.distance:.6e}",
            file=sys.stderr,
        )
        return EXIT_INFEASIBLE
    payload = report_to_dict(doc, args.point, report)
    text = _render(payload)
    if args.out:
        _write_out(args.out, text)
    print("\n".join([text, *_summary_lines(report)]))
    return EXIT_OK


def cmd_scan(args) -> int:
    from .oracles import (
        _RADII,
        _SAMPLES_PER_RADIUS,
        _scan_settings,
        fcr_dim_scan,
        mscq_kappa_scan,
    )

    seed = _seed(args)
    doc = parse_instance(args.instance)
    x = _named_point(doc, args.point)
    try:
        radii = _RADII
        if args.radii is not None:
            radii = (float(r) for r in args.radii.split(",") if r.strip())
        samples = _SAMPLES_PER_RADIUS if args.samples is None else args.samples
        radii, samples = _scan_settings(radii, samples)
    except ValueError as exc:
        raise ParseError(f"invalid --radii or --samples: {exc}") from exc
    analysis = analyze_point(doc.instance, x)
    # The kappa scan first: its reach, 2 radii[0], is checked before the
    # dimension scan's smaller ball, so a point both refuse gets its error.
    kappa = mscq_kappa_scan(
        doc.instance, analysis, radii=radii, samples_per_radius=samples, **seed
    )
    dim_scan = fcr_dim_scan(doc.instance, analysis, samples, **seed)
    print("radius,kappa_hat,samples,discarded")
    total = kappa.sample_count + kappa.probe_count
    for i, r in enumerate(kappa.radii):
        print(f"{r:g},{kappa.kappa_hat[i]:.12g},{total},{total - kappa.evaluated(i)}")
    if dim_scan is not None:
        dims = sorted(dim_scan.observed_dims)
        print(
            f"dimscan face=ZeroFace observed_dims={dims} "
            f"samples={dim_scan.sample_count} discarded={dim_scan.discarded}"
        )
    consistent = dim_scan is None or dim_scan.consistent
    print(f"fcr_consistent={str(consistent).lower()}")
    return EXIT_OK


def cmd_harness(args) -> int:
    from .oracles import equivalence_harness

    seed = _seed(args)
    try:
        trials = _count(args.trials, "trials")
    except ValueError as exc:
        raise ParseError(f"invalid --trials: {exc}") from exc
    fixed = None
    if (args.instance is None) != (args.point is None):
        raise ParseError("give --instance and --point together, or neither")
    if args.instance is not None:
        doc = parse_instance(args.instance)
        fixed = analyze_point(doc.instance, _named_point(doc, args.point))
    report = equivalence_harness(trials=trials, **seed, fixed=fixed)
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
        _write_out(args.out, text)
    print(text)
    print(
        f"trials={report.trials} disagreements={len(report.disagreements)} "
        f"inconclusive={len(report.inconclusive)} failures={len(report.failures)}"
    )
    for t, msg in report.failures:
        print(f"failure trial={t}: {msg}", file=sys.stderr)
    return EXIT_OK if report.clean else EXIT_NUMERICAL


def cmd_project(args) -> int:
    from .projection import _project_point

    doc = parse_instance(args.instance)
    x = _named_point(doc, args.point)
    instance = doc.instance
    # The document checked its points; ``_image`` checks their images.
    y = instance._image(x)
    # The reference is the first point in document order that
    # ``analyze_point`` accepts (an overflowing image is no reference), which
    # can be x itself; the projector reads its analysis, and x and y as
    # checked here, without redoing them.
    reference = None
    for p in doc.points.values():
        try:
            reference = analyze_point(instance, p)
            break
        except (InfeasiblePointError, DimensionError):
            pass
    z, dist = _project_point(instance, x, y, reference)
    dist_g = float(_distance_rows(y[None, :])[0])
    print(f"z = {z.tolist()}")
    print(f"dist(x, Omega) = {dist:.12g}")
    print(f"dist(g(x), Q_m) = {dist_g:.12g}")
    return EXIT_OK


def _write_out(path: str, text: str) -> None:
    """Write ``text`` and a newline to the ``--out`` file; a path that
    cannot be written is a usage error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise ParseError(f"cannot write {path!r}: {exc}") from exc


def _seed(args) -> dict:
    """``--seed`` as keyword arguments: none when it is unset, so the
    library's default seed stands; a negative seed is a usage error."""
    if args.seed is None:
        return {}
    if args.seed < 0:
        raise ParseError(f"--seed must be a non-negative integer, got {args.seed!r}")
    return {"seed": args.seed}


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

    p = sub.add_parser("scan", help="kappa-ratio scan and FCR dimension scan")
    p.add_argument("instance")
    p.add_argument("point")
    # The scan's defaults live in ``oracles``, which only ``cmd_scan`` imports.
    p.add_argument("--radii", help="comma-separated radii")
    p.add_argument(
        "--samples", type=int, help="kappa-scan samples per radius and FCR-scan samples"
    )
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("harness", help="analytic-vs-sampled equivalence harness")
    p.add_argument("--trials", type=int, default=100)
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
    argument has a mutable default, and argparse looks up ``sys.stdout``,
    ``sys.stderr`` and the terminal width only when it prints.
    """
    return build_parser()


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    A reader that closes stdout early (``socpcq harness | head -1``) ends the
    command with ``EXIT_CLOSED_STDOUT`` and no traceback, as the Python
    documentation's note on SIGPIPE advises: stdout is pointed at
    ``os.devnull``, so the interpreter's flush at exit cannot fail again.
    """
    try:
        code = _main(argv)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        _discard_stdout()
        return EXIT_CLOSED_STDOUT


def _discard_stdout() -> None:
    """Point the file descriptor behind ``sys.stdout`` at ``os.devnull``;
    an in-process stream without a descriptor is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _main(argv) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code) if exc.code else EXIT_OK
    try:
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

"""End-to-end CLI behavior: golden outputs, exit codes, document validation."""

import contextlib
import io
import json
import subprocess
import sys
import textwrap
from importlib.resources import files

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import socpcq
from socpcq import cli, full_report, random_instance
from socpcq import cq_checker, oracles
from socpcq.cli import (
    EXIT_CLOSED_STDOUT,
    EXIT_INFEASIBLE,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PARSE,
    _jsonable,
    _render,
    build_parser,
    instance_document_from_dict,
    main,
    parse_instance,
    report_to_dict,
    serialize_instance,
)
from socpcq.errors import InfeasiblePointError
from socpcq.families import TARGET_CASES
from socpcq.soc_core import _margin_rows


def fixture(name: str) -> str:
    return str(files("socpcq").joinpath("fixtures", f"{name}.json"))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def split_report(stdout: str):
    """analyze prints the JSON report followed by the human summary."""
    lines = stdout.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("location: "))
    return json.loads("\n".join(lines[:start])), lines[start:]


GOLDEN_SUMMARIES = {
    ("boundary_degenerate", "xbar"): [
        "location: positive_boundary",
        "nondegeneracy: fails",
        "RCQ: fails",
        "FCR: fails",
        "H(x̄): closed (Thm 4.1 (i))",
        "CRCQ: fails; MSCQ: fails",
    ],
    ("vertex_halfplane", "origin"): [
        "location: zero",
        "nondegeneracy: fails",
        "RCQ: fails",
        "FCR: holds (Thm 3.2 (i))",
        "H(x̄): not closed (Cor 4.2); CRCQ: fails; MSCQ: fails",
    ],
    ("vertex_tangent_plane", "origin"): [
        "location: zero",
        "nondegeneracy: fails",
        "RCQ: fails",
        "FCR: holds (Thm 3.2 (i))",
        "H(x̄): not closed (Cor 4.2); CRCQ: fails; MSCQ: fails",
    ],
    ("vertex_boundary_line", "origin"): [
        "location: zero",
        "nondegeneracy: fails",
        "RCQ: fails",
        "FCR: holds (Thm 3.2 (i))",
        "H(x̄): closed (Thm 4.1 (iv))",
        "CRCQ: holds (Thm 4.4 (vi)); MSCQ: holds (Thm 5.1)",
        "derived: T_Omega(xbar) = L_Omega(xbar)",
        "derived: N_Omega(xbar) = H(xbar)",
    ],
}


@pytest.mark.parametrize("name,point", sorted(GOLDEN_SUMMARIES))
def test_analyze_golden_fixtures(capsys, name, point):
    code, out, _ = run_cli(capsys, "analyze", fixture(name), point)
    assert code == EXIT_OK
    payload, summary = split_report(out)
    assert summary == GOLDEN_SUMMARIES[(name, point)]
    assert payload["schema"] == "socpcq.report/1"
    assert payload["feasible"] is True
    assert payload["point"]["name"] == point
    for key in ("nondegeneracy", "rcq", "fcr", "h_closed", "crcq", "mscq"):
        verdict = payload["verdicts"][key]
        assert set(verdict) == {"holds", "condition", "evidence"}
        assert isinstance(verdict["holds"], bool)
    # The embedded instance must round-trip through the parser unchanged.
    doc = instance_document_from_dict(payload["instance"])
    assert serialize_instance(doc) == payload["instance"]


def test_analyze_condition_labels_match_report_fields(capsys):
    _, out, _ = run_cli(capsys, "analyze", fixture("vertex_boundary_line"), "origin")
    payload, _ = split_report(out)
    v = payload["verdicts"]
    assert v["crcq"] == {
        "holds": True,
        "condition": "Thm4.4(vi)",
        "evidence": v["crcq"]["evidence"],
    }
    assert v["mscq"]["condition"] == "Thm5.1"
    assert v["mscq"]["evidence"]["equivalent_route"] == "Thm4.4(vi)"
    assert v["mscq"]["evidence"]["kappa"] == pytest.approx(np.sqrt(0.5), rel=1e-9)
    assert v["h_closed"]["condition"] == "Thm4.1(iv)"
    assert payload["h_set"]["kind"] == "cone_image"
    assert payload["h_set"]["closed"] is True


def test_analyze_infeasible_point_exits_1(capsys, tmp_path):
    out_path = tmp_path / "outside.json"
    code, out, err = run_cli(
        capsys, "analyze", fixture("vertex_halfplane"), "outside", "--out", str(out_path)
    )
    assert code == EXIT_INFEASIBLE
    payload = json.loads(out)
    assert payload["feasible"] is False
    assert payload["distance_to_cone"] > 0
    assert "infeasible" in err
    assert not out_path.exists()  # the report of an infeasible point is not written


def test_analyze_unknown_point_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", fixture("vertex_halfplane"), "nope")
    assert code == EXIT_PARSE
    assert "not in document" in err


def test_analyze_out_writes_report_file(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "analyze", fixture("vertex_halfplane"), "origin", "--out", str(out_path)
    )
    assert code == EXIT_OK
    payload, _ = split_report(out)
    assert json.loads(out_path.read_text()) == payload


# A = 0 with b in the cone: Omega is all of R^2.
ZERO_MATRIX_DOCUMENT = {
    "m": 3,
    "n": 2,
    "A": [[0, 0], [0, 0], [0, 0]],
    "b": [0, 0, 0],
    "points": {"xbar": [0.5, -1]},
}


def zero_matrix_path(tmp_path) -> str:
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(ZERO_MATRIX_DOCUMENT))
    return str(path)


def strict_json(text: str):
    """json.loads that rejects the non-standard Infinity/NaN constants."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def test_analyze_zero_matrix_kappa_bound_is_zero(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "analyze", zero_matrix_path(tmp_path), "xbar")
    assert code == EXIT_OK
    payload, _ = split_report(out)
    mscq = payload["verdicts"]["mscq"]
    assert mscq["condition"] == "Thm5.1"
    assert mscq["evidence"]["kappa_bound"] == 0.0
    assert mscq["evidence"]["bound_M"] == "inf"
    assert mscq["evidence"]["eta"] == "inf"


@pytest.mark.parametrize("name,point", [*sorted(GOLDEN_SUMMARIES), ("zero", "xbar")])
def test_analyze_report_is_strict_json(capsys, tmp_path, name, point):
    path = zero_matrix_path(tmp_path) if name == "zero" else fixture(name)
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "analyze", path, point, "--out", str(out_path))
    assert code == EXIT_OK
    lines = out.splitlines()
    start = next(i for i, ln in enumerate(lines) if ln.startswith("location: "))
    assert strict_json("\n".join(lines[:start])) == strict_json(out_path.read_text())


def test_jsonable_renders_non_finite_numpy_values_like_floats():
    value = {
        "scalar": np.float64(np.inf),
        "vector": np.array([1.0, -np.inf, np.nan]),
        "matrix": np.array([[np.inf]]),
        "nested": [np.float32(np.nan), (np.int64(3),)],
        "python": float("-inf"),
    }
    rendered = _jsonable(value)
    assert rendered == {
        "scalar": "inf",
        "vector": [1.0, "-inf", "nan"],
        "matrix": [["inf"]],
        "nested": ["nan", [3]],
        "python": "-inf",
    }
    assert strict_json(json.dumps(rendered)) == rendered


@pytest.mark.parametrize(
    "array",
    [
        np.array([[1.0, -0.0], [5e-324, 1.7976931348623157e308]]),
        np.array([1.5], dtype=np.float32),
        np.array([-(2**63), 2**63 - 1]),
        np.array([2**64 - 1], dtype=np.uint64),
        np.array([True, False]),
        np.array(2.5),
        np.empty((0, 3)),
    ],
)
def test_jsonable_arrays_match_their_python_lists(array):
    expected = array.tolist()
    rendered = _jsonable(array)
    assert rendered == expected
    assert json.dumps(rendered) == json.dumps(expected)  # types too: 1.0 vs 1


# -- report rendering ------------------------------------------------------------

_SPECIAL_FLOATS = [
    -0.0,
    5e-324,
    1.7976931348623157e308,
    float("nan"),
    float("inf"),
    -float("inf"),
]
_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**63 - 2, max_value=2**70).flatmap(lambda i: st.sampled_from([i, -i])),
    st.floats(),
    st.sampled_from(_SPECIAL_FLOATS),
    st.text(),
    st.text(alphabet='"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600 ab\n\t'),
)
_json_values = st.recursive(
    _json_scalars,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
        # The shapes of a report's vectors: lists of floats, non-finite ones
        # among them, and lists that start with a float.
        st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS)),
        st.tuples(st.floats(), st.lists(children)).map(lambda t: [t[0], *t[1]]),
    ),
    max_leaves=25,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_json_values)
def test_render_matches_json_dumps_indent_2(value):
    assert _render(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1: 2}, {"a": np.float64(1.0)}, [1.0, np.float32(2)], {"s"}])
def test_render_rejects_what_jsonable_never_emits(value):
    with pytest.raises(TypeError):
        _render(value)


def _analyze_cases():
    """Every fixture point, and xbar plus a far point of one draw per stratum."""
    for stem in sorted({name for name, _ in GOLDEN_SUMMARIES}):
        path = fixture(stem)
        with open(path, encoding="utf-8") as fh:
            points = json.load(fh)["points"]
        for point in points:
            yield pytest.param(path, point, id=f"{stem}-{point}")
    for case in TARGET_CASES:
        yield pytest.param(case, "xbar", id=f"{case}-xbar")
        yield pytest.param(case, "far", id=f"{case}-far")


@pytest.mark.parametrize("source,point", _analyze_cases())
def test_analyze_prints_json_dumps_bytes(capsys, tmp_path, source, point):
    if source in TARGET_CASES:
        instance, xbar = random_instance(5, 4, source, seed=3)
        far = xbar + np.array([40.0, -30.0, 20.0, 10.0])
        path = tmp_path / "draw.json"
        path.write_text(
            json.dumps(
                {
                    "m": 5,
                    "n": 4,
                    "A": instance.A.tolist(),
                    "b": instance.b.tolist(),
                    "points": {"xbar": xbar.tolist(), "far": far.tolist()},
                }
            )
        )
        source = str(path)
    doc = parse_instance(source)
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "analyze", source, point, "--out", str(out_path))
    try:
        report = full_report(doc.instance, doc.points[point])
    except InfeasiblePointError as exc:
        payload = {
            "schema": "socpcq.report/1",
            "version": cli.__version__,
            "point": {"name": point, "x": doc.points[point].tolist()},
            "feasible": False,
            "distance_to_cone": exc.distance,
        }
        assert code == EXIT_INFEASIBLE
        assert out == json.dumps(payload, indent=2) + "\n"
        assert "is infeasible" in err
        assert not out_path.exists()
        return
    text = json.dumps(report_to_dict(doc, point, report), indent=2)
    assert (code, err) == (EXIT_OK, "")
    assert out == "\n".join([text, *cli._summary_lines(report)]) + "\n"
    assert out_path.read_text() == text + "\n"


# Each document carries the point p at the declared length n wherever it
# can, so it is rejected by the check it aims at and not by the lookup of p.
BAD_DOCUMENTS = [
    "this is not json {{{",
    '{"m": 1, "n": 1, "A": [[1]], "b": [0], "points": {"p": [0]}}',
    '{"m": 3.0, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]}}',
    '{"m": 3, "n": 2, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1,0]}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0], "points": {"p": [1]}}',
    '{"m": 3, "n": 1, "A": [[NaN],[0],[0]], "b": [0,0,0], "points": {"p": [1]}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1,2]}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": []}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0]}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
    ' "tolerances": {"tol": -1e-9}}',
    # JSON booleans are no numbers: without the check each of these parses
    # (n = 1, tol = 1.0) and p is analyzed
    '{"m": 3, "n": true, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
    ' "tolerances": {"tol": true}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
    ' "tolerances": {"projection_tol": true}}',
    # Not numeric, or ragged: numpy raises on the conversion itself.
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
    ' "tolerances": [1]}',
    '{"m": 3, "n": 1, "A": "foo", "b": [0,0,0], "points": {"p": [1]}}',
    '{"m": 3, "n": 2, "A": [[1,0],[0],[0,1]], "b": [0,0,0], "points": {"p": [1,0]}}',
    '{"m": 3, "n": 2, "A": [[1,0],[0,0],[0,1]], "b": [0,0,0], "points": {"p": "xy"}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": {"x": 0}, "points": {"p": [1]}}',
    # An integer beyond the float range is no finite tolerance.
    pytest.param(
        '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
        ' "tolerances": {"tol": 1' + 400 * "0" + "}}",
        id="tol-1e400",
    ),
    # A JSON string is no number, even where numpy's float conversion would
    # parse it: without the check, p is analyzed (exit 1 or 0).
    '{"m": 3, "n": 1, "A": [["1"],[0],["1e3"]], "b": [0,0,0], "points": {"p": ["1"]}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": ["0",0,0], "points": {"p": [1]}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": ["1"]}}',
    # An integer beyond int64 makes numpy build an object array.
    '{"m": 3, "n": 1, "A": [[100000000000000000000],["1"],[0]], "b": [0,0,0],'
    ' "points": {"p": [1]}}',
    # A JSON true/false inside a vector is no number either, though numpy
    # reads it as 1/0 and makes a float array of [1.5, true] and an int
    # array of [true, 0]: without the check, p is analyzed (exit 0).
    '{"m": 3, "n": 1, "A": [[true],[0],[0]], "b": [0,0,false], "points": {"p": [true]}}',
    '{"m": 3, "n": 1, "A": [[1.5],[true],[0.0]], "b": [0,0,0], "points": {"p": [1]}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [true,0,0], "points": {"p": [1]}}',
    # A tolerance the instance does not know would be reported, not used.
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
    ' "tolerances": {"Tol": 1e-6}}',
    # A tolerance of 1 or more would read every rank as 0 and every point
    # as the vertex.
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
    ' "tolerances": {"tol": 1.5}}',
    '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
    ' "tolerances": {"projection_tol": 1.0}}',
]


@pytest.mark.parametrize("text", BAD_DOCUMENTS)
def test_malformed_documents_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "analyze", str(path), "p")
    assert code == EXIT_PARSE
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "data",
    [
        b'{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p\xff": [1]}}',
        100_000 * b"[" + 100_000 * b"]",
    ],
    ids=["not-utf-8", "nested-1e5-deep"],
)
def test_undecodable_or_deeply_nested_documents_exit_2(capsys, tmp_path, data):
    # A UnicodeDecodeError or RecursionError from the JSON reader is a parse
    # error, not a traceback with exit 1, the infeasible-point code.
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    code, out, err = run_cli(capsys, "analyze", str(path), "p")
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"error: invalid JSON in {str(path)!r}: ")
    assert err.count("\n") == 1


def test_unknown_tolerance_is_named(capsys, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(
        '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [1]},'
        ' "tolerances": {"tol": 1e-9, "Tol": 1e-6}}'
    )
    code, out, err = run_cli(capsys, "analyze", str(path), "p")
    assert (code, out) == (EXIT_PARSE, "")
    assert "unknown tolerance 'Tol'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", fixture("vertex_halfplane"), "origin"),
        ("harness", "--trials", "1", "--seed", "0"),
    ],
)
def test_unwritable_out_path_exits_2(capsys, tmp_path, argv):
    out_path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == EXIT_PARSE
    assert err.startswith("error: cannot write ")
    assert out == ""


#: Documents with a value whose squared norm overflows, and the one error
#: line each gets: g(x) = 1e160, A = 1e300 I, and the point (2e200, 1e200, 0)
#: of an image inside the cone; last, a point with a NaN entry.
OVERFLOWING_DOCUMENTS = [
    (
        '{"m": 3, "n": 1, "A": [[1e150],[0],[0]], "b": [0,0,0], "points": {"p": [1e10]}}',
        "error: g(x) has a squared norm that overflows\n",
    ),
    (
        '{"m": 3, "n": 3, "A": [[1e300,0,0],[0,1e300,0],[0,0,1e300]], "b": [0,0,0], '
        '"points": {"p": [0,0,0]}}',
        "error: invalid instance: instance data has a squared norm that overflows\n",
    ),
    (
        '{"m": 3, "n": 3, "A": [[1,0,0],[0,1,0],[0,0,1]], "b": [0,0,0], '
        '"points": {"p": [2e200,1e200,0]}}',
        "error: invalid point 'p': point has a squared norm that overflows\n",
    ),
    (
        '{"m": 3, "n": 1, "A": [[1],[0],[0]], "b": [0,0,0], "points": {"p": [NaN]}}',
        "error: invalid point 'p': point has non-finite entries\n",
    ),
]


@pytest.mark.parametrize("command", ["analyze", "project", "scan"])
def test_point_whose_image_overflows_is_a_usage_error(capsys, tmp_path, command):
    # Finite data whose squared norm overflows, in the instance, the point or
    # g(x): one error line, no numpy warning, and the exit code of a NaN
    # point, which the last document checks under every command too.
    path = tmp_path / "overflow.json"
    for document, message in OVERFLOWING_DOCUMENTS:
        path.write_text(document)
        code, out, err = run_cli(capsys, command, str(path), "p")
        assert code == EXIT_PARSE
        assert out == ""
        assert err == message


def test_scan_whose_balls_overflow_is_a_usage_error(capsys, tmp_path):
    # g(p) = (9.3e153, 9.3e153, 0) obeys the magnitude rule, so `analyze`
    # runs, but ||b|| alone is past the bound that every scan's reach rule
    # applies: `scan` prints one error line, no numpy warning (the test run
    # turns one into an error), and exits 2.  It once ran the FCR scan
    # first, which sampled its ball with numpy's overflow warning, a
    # traceback under -W error::RuntimeWarning.
    path = tmp_path / "wide.json"
    path.write_text(
        '{"m": 3, "n": 2, "A": [[9e153, 0], [9e153, 0], [0, 1e150]], '
        '"b": [9.3e153, 9.3e153, 0], "points": {"p": [0, 0]}}'
    )
    code, _, err = run_cli(capsys, "analyze", str(path), "p")
    assert (code, err) == (EXIT_OK, "")
    for radii in ("0.1,0.01,0.001", "0.01,0.001"):
        code, out, err = run_cli(capsys, "scan", str(path), "p", "--radii", radii)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == (
            f"error: radius {radii.split(',')[0]} takes the kappa scan's points "
            "or their images past the magnitude rule\n"
        )


class _ClosedStdout(io.TextIOBase):
    """A stdout whose reader has gone: every write fails with EPIPE."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", fixture("vertex_halfplane"), "origin"],
        ["scan", fixture("vertex_halfplane"), "origin", "--samples", "16"],
        ["harness", "--trials", "2"],
        ["project", fixture("vertex_halfplane"), "outside"],
    ],
)
def test_closed_stdout_exits_without_a_traceback(capsys, monkeypatch, argv):
    # The stream has no file descriptor, so the process's own stdout is
    # left alone.
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main(argv) == EXIT_CLOSED_STDOUT
    assert capsys.readouterr().err == ""


def test_process_with_a_closed_stdout_pipe_exits_141():
    # The reader is gone before the process writes its first byte, so its
    # write fails, and so would the interpreter's flush at exit, had main
    # not pointed the descriptor at os.devnull.
    proc = subprocess.Popen(
        [sys.executable, "-m", "socpcq.cli", "analyze", fixture("vertex_halfplane"), "origin"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == EXIT_CLOSED_STDOUT
    assert err == b""


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/instance.json", "p")
    assert code == EXIT_PARSE
    assert "cannot read" in err


def test_usage_errors_exit_2(capsys):
    assert main([]) == EXIT_PARSE
    capsys.readouterr()
    assert main(["analyze"]) == EXIT_PARSE
    capsys.readouterr()


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, "--version")
    assert code == EXIT_OK
    assert out.startswith("socpcq ")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "socpcq.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("socpcq ")


# -- one parser per process ---------------------------------------------------


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        for argv in (
            ["--version"],
            ["analyze", fixture("vertex_halfplane"), "origin"],
            ["project", fixture("vertex_halfplane"), "outside"],
            ["analyze"],
            ["analyze", fixture("vertex_boundary_line"), "origin"],
        ):
            main(argv)
        capsys.readouterr()
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_import_builds_no_parser():
    code = textwrap.dedent(
        """
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)
        argparse.ArgumentParser.__init__ = counting
        import socpcq.cli
        print(len(built), socpcq.cli._parser.cache_info().currsize)
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


def _layers_loaded_by(code: str) -> str:
    """The list, as printed, of the lazily imported layers that a fresh
    interpreter holds after running ``code``."""
    script = code + textwrap.dedent(
        """
        import sys
        lazy = ("families", "oracles", "projection")
        print([name for name in lazy if f"socpcq.{name}" in sys.modules])
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "code, loaded",
    [
        ("import socpcq, socpcq.cli", "[]"),
        (
            "from socpcq import cli\n"
            f"assert cli.main(['analyze', {fixture('vertex_halfplane')!r}, 'origin']) == 0",
            "[]",
        ),
        (
            "from socpcq import cli\n"
            f"assert cli.main(['project', {fixture('vertex_halfplane')!r}, 'outside']) == 0",
            "['projection']",
        ),
    ],
    ids=["import", "analyze", "project"],
)
def test_a_command_imports_only_the_layers_it_runs(code, loaded):
    assert _layers_loaded_by(code) == loaded


def test_layers_load_no_undeclared_dependency():
    # pyproject.toml declares numpy alone, so no layer may import scipy,
    # sympy or mpmath, even where they are installed.
    script = textwrap.dedent(
        """
        import sys
        import socpcq, socpcq.cli, socpcq.oracles, socpcq.projection, socpcq.families
        extra = ("scipy", "sympy", "mpmath")
        print(sorted({name.split(".")[0] for name in sys.modules} & set(extra)))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_public_names_resolve_to_their_defining_modules():
    # In a fresh interpreter, where every lazy name is resolved cold.
    code = textwrap.dedent(
        """
        import sys
        import socpcq
        star = {}
        exec("from socpcq import *", star)
        assert len(socpcq.__all__) == 37
        constants = {"__version__": "socpcq", "DEFAULT_TOL": "socpcq.soc_core"}
        for name in socpcq.__all__:
            obj = getattr(socpcq, name)
            module = constants.get(name) or obj.__module__
            assert getattr(sys.modules[module], name) is obj, name
            assert star[name] is obj, name
        assert set(socpcq.__all__) <= set(dir(socpcq))
        """
    )
    assert _layers_loaded_by(code) == "['families', 'oracles', 'projection']"


def test_lazy_names_are_read_from_their_module(monkeypatch):
    def patched():
        pass

    monkeypatch.setattr(oracles, "equivalence_harness", patched)
    assert socpcq.equivalence_harness is patched
    monkeypatch.undo()
    assert socpcq.equivalence_harness is oracles.equivalence_harness
    assert "equivalence_harness" not in vars(socpcq)
    assert "equivalence_harness" in dir(socpcq)
    with pytest.raises(AttributeError, match="no_such_name"):
        socpcq.no_such_name


def test_shared_parser_holds_no_call_state(capsys):
    parser = cli._parser()
    first = parser.parse_args(
        ["scan", "doc.json", "p", "--seed", "5", "--radii", "1e-1,1e-2"]
    )
    second = parser.parse_args(["scan", "doc.json", "p"])
    assert first is not second
    assert (first.seed, second.seed) == (5, None)
    assert (second.radii, second.samples) == (None, None)
    # The scan's defaults live in oracles: a scan that sets neither option
    # prints the bytes of one that spells the defaults out.
    args = ("scan", fixture("boundary_degenerate"), "xbar")
    plain = run_cli(capsys, *args)
    spelled = run_cli(capsys, *args, "--radii", "0.1,0.01,0.001", "--samples", "200")
    assert plain[0] == EXIT_OK
    assert plain == spelled


@pytest.mark.parametrize(
    "name, argv",
    [
        ("cmd_analyze", ["analyze", fixture("vertex_halfplane"), "origin"]),
        ("cmd_project", ["project", fixture("vertex_halfplane"), "outside"]),
    ],
)
def test_main_runs_a_command_rebound_after_the_first_call(
    capsys, monkeypatch, name, argv
):
    assert main(argv) == EXIT_OK
    calls = []

    def patched(args):
        calls.append(args.point)
        return EXIT_OK

    monkeypatch.setattr(cli, name, patched)
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert calls == [argv[-1]]


def test_consecutive_scans_do_not_leak_arguments(capsys):
    args = ("scan", fixture("vertex_tangent_plane"), "origin")
    code, custom, _ = run_cli(
        capsys, *args, "--radii", "1e-1,1e-2", "--seed", "5", "--samples", "40"
    )
    assert code == EXIT_OK
    _, plain, _ = run_cli(capsys, *args)
    _, seed_zero, _ = run_cli(capsys, *args, "--seed", "0")

    def radii(text):
        rows = text.splitlines()[1:]
        return [r.split(",")[0] for r in rows if not r.startswith(("dimscan", "fcr_"))]

    assert radii(custom) == ["0.1", "0.01"]
    assert radii(plain) == ["0.1", "0.01", "0.001"]
    assert plain == seed_zero


def test_analyze_out_does_not_carry_over(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    args = ("analyze", fixture("vertex_halfplane"), "origin")
    assert run_cli(capsys, *args, "--out", str(out_path))[0] == EXIT_OK
    out_path.write_text("untouched\n")
    assert run_cli(capsys, *args)[0] == EXIT_OK
    assert out_path.read_text() == "untouched\n"


@pytest.mark.parametrize("columns", ["200", "50"])
@pytest.mark.parametrize("command", [(), ("analyze",), ("scan",), ("harness",), ("project",)])
def test_help_matches_a_fresh_parser(capsys, monkeypatch, command, columns):
    # Build the shared parser first, so the width below is read at print time.
    main(["--version"])
    capsys.readouterr()
    monkeypatch.setenv("COLUMNS", columns)
    code, shared, _ = run_cli(capsys, *command, "--help")
    assert code == EXIT_OK
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "--help"])
    assert shared == capsys.readouterr().out


def test_help_width_is_read_when_printing(capsys, monkeypatch):
    outputs = []
    for columns in ("200", "50"):
        monkeypatch.setenv("COLUMNS", columns)
        outputs.append(run_cli(capsys, "--help")[1])
    assert outputs[0] != outputs[1]
    assert max(len(line) for line in outputs[1].splitlines()) <= 50


def test_usage_errors_reach_the_current_stderr():
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert main(["analyze"]) == EXIT_PARSE
        assert "the following arguments are required" in err.getvalue()


# -- scan ---------------------------------------------------------------------


def test_scan_half_line_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan",
        fixture("vertex_boundary_line"),
        "origin",
        "--samples",
        "500",
        "--seed",
        "0",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "radius,kappa_hat,samples,discarded"
    radii = []
    for row in lines[1:4]:
        r, kappa, total, discarded = row.split(",")
        radii.append(float(r))
        assert kappa == "0.707106781187"  # exact constant ratio, 12 digits
        assert int(total) == 562  # 500 uniform draws + 62 planted probes
        assert 0 <= int(discarded) < 562
    assert radii == [0.1, 0.01, 0.001]
    # At the vertex FCR holds (Thm 3.2 (i)): no face is scanned.
    assert not any(line.startswith("dimscan") for line in lines)
    assert lines[4:] == ["fcr_consistent=true"]


def test_scan_degenerate_boundary_flags_inconsistency(capsys):
    code, out, _ = run_cli(
        capsys, "scan", fixture("boundary_degenerate"), "xbar", "--samples", "300"
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    kappas = [float(row.split(",")[1]) for row in lines[1:4]]
    assert kappas[1] / kappas[0] >= 10.0
    assert kappas[2] / kappas[1] >= 10.0
    assert "dimscan face=ZeroFace observed_dims=[0, 1] samples=301 discarded=0" in lines
    assert lines[-1] == "fcr_consistent=false"


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", fixture("vertex_boundary_line"), "origin", "--seed", "-1"),
        ("harness", "--trials", "1", "--seed", "-3"),
    ],
    ids=["scan-flag", "harness-flag"],
)
def test_negative_seed_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith("error: ")
    assert "must be a non-negative integer, got " in err


#: xbar sits 7e-9 outside the cone: on the boundary at the document's tol
#: of 1e-6, outside at the default tol.
LOOSE_DOCUMENT = {
    "m": 3,
    "n": 3,
    "A": np.eye(3).tolist(),
    "b": [0.0, 0.0, 0.0],
    "points": {"xbar": [1.0, 1.0 + 1e-8, 0.0]},
    "tolerances": {"tol": 1e-6},
}


def test_scan_uses_document_tol(capsys, tmp_path):
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(LOOSE_DOCUMENT))
    code, _, _ = run_cli(capsys, "analyze", str(path), "xbar")
    assert code == EXIT_OK
    code, out, _ = run_cli(capsys, "scan", str(path), "xbar", "--samples", "50")
    assert code == EXIT_OK
    assert out.splitlines()[-1] == "fcr_consistent=true"


def test_harness_uses_document_tol(capsys, tmp_path):
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(LOOSE_DOCUMENT))
    code, out, err = run_cli(
        capsys, "harness", "--trials", "1", "--instance", str(path), "--point", "xbar"
    )
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert lines[1].startswith("0,fixed,3,3,true,Thm4.4(ii),bounded,true,")
    assert lines[-1] == "trials=1 disagreements=0 inconclusive=0 failures=0"


#: An identity instance whose projection gap no projection can close.
UNCERTIFIABLE_DOCUMENT = {
    "m": 3,
    "n": 3,
    "A": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "b": [0, 0, 0],
    "points": {"p": [1, 1, 0], "q": [0, 3, 4]},
    "tolerances": {"projection_tol": 1e-300},
}


def test_document_projection_tol_reaches_every_projecting_command(capsys, tmp_path):
    # project, scan and harness --instance all certify their distances at
    # the document's projection_tol, so each fails (exit 3) at 1e-300 and
    # succeeds at the default.
    commands = [
        ("project", "{path}", "q"),
        ("scan", "{path}", "p", "--samples", "48"),
        ("harness", "--instance", "{path}", "--point", "p", "--trials", "2"),
    ]
    tight = tmp_path / "tight.json"
    tight.write_text(json.dumps(UNCERTIFIABLE_DOCUMENT))
    default = tmp_path / "default.json"
    untoleranced = dict(UNCERTIFIABLE_DOCUMENT)
    del untoleranced["tolerances"]
    default.write_text(json.dumps(untoleranced))
    for command in commands:
        for path, expected in ((tight, EXIT_NUMERICAL), (default, EXIT_OK)):
            argv = [part.format(path=path) for part in command]
            code, _, err = run_cli(capsys, *argv)
            assert code == expected, (argv, err)
            if expected == EXIT_NUMERICAL:
                assert "not certified" in err


@pytest.mark.parametrize(
    "extra",
    [
        ["--radii", "a,b"],
        ["--samples", "0"],
        ["--samples", "-3"],
        ["--radii", "1e-2,1e-1"],
        ["--radii", "0.1,0.1"],
        ["--radii", "0.1,nan"],
        ["--radii", "inf,0.1"],
        ["--radii", "0.1,0"],
        ["--radii", "0.1,-0.01"],
    ],
    ids=" ".join,
)
def test_scan_rejects_bad_radii(capsys, extra):
    code, _, err = run_cli(capsys, "scan", fixture("vertex_halfplane"), "origin", *extra)
    assert code == EXIT_PARSE
    assert err.startswith("error: ")


@pytest.mark.parametrize("radius", ["1e160", "1e200"])
def test_scan_rejects_a_radius_past_the_magnitude_rule(capsys, radius):
    # No CSV and no numpy warning, which the test run turns into an error.
    code, out, err = run_cli(
        capsys, "scan", fixture("vertex_halfplane"), "origin", "--radii", radius
    )
    assert (code, out) == (EXIT_PARSE, "")
    assert err.startswith(f"error: radius {float(radius):g} ")


# -- harness ------------------------------------------------------------------


@pytest.mark.parametrize(
    "point, message",
    [
        (
            [4e153, 4e153, 0],
            "radius 0.1 takes the kappa scan's points or their images "
            "past the magnitude rule",
        ),
        (
            [1e100, 1e100, 0],
            "radius 0.001 puts the kappa scan's probe offset 1.38889e-07 "
            "below one ulp of its center",
        ),
    ],
)
def test_harness_fixed_point_obeys_the_scan_reach_rule(capsys, tmp_path, point, message):
    # Points whose kappa scan would pass the magnitude rule, or whose probe
    # offsets lie below one ulp of them: harness --instance exits 2 with
    # scan's error, not with a scan that resolved nothing read as bounded.
    path = tmp_path / "far.json"
    doc = {"m": 3, "n": 3, "A": np.eye(3).tolist(), "b": [0, 0, 0]}
    path.write_text(json.dumps({**doc, "points": {"p": point}}))
    for argv in (
        ("scan", str(path), "p"),
        ("harness", "--instance", str(path), "--point", "p", "--trials", "1"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert err == f"error: {message}\n"


def test_harness_fixed_instance_row(capsys):
    code, out, _ = run_cli(
        capsys,
        "harness",
        "--trials",
        "1",
        "--instance",
        fixture("vertex_tangent_plane"),
        "--point",
        "origin",
    )
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == (
        "trial,target_case,m,n,crcq,condition,kappa_class,agree,retried,"
        "fcr_consistent,fcr_agree,invariant_violations,kappa_hat"
    )
    fields = lines[1].split(",")
    assert fields[:8] == ["0", "fixed", "3", "2", "false", "", "growing", "true"]
    assert fields[10] == "true"  # fcr_agree
    assert fields[11] == "0"  # invariant violations
    assert len(fields[12].split(";")) == 3
    assert lines[2] == "trials=1 disagreements=0 inconclusive=0 failures=0"


def test_harness_reports_an_invariant_violation(capsys, monkeypatch):
    # A verdict inconsistency is a disagreement row and exit 3, not a
    # traceback and exit 1, the infeasible-point code.
    monkeypatch.setattr(
        cq_checker, "verify_report_invariants", lambda report: ["forced"]
    )
    code, out, _ = run_cli(capsys, "harness", "--trials", "1", "--seed", "0")
    assert code == EXIT_NUMERICAL
    lines = out.splitlines()
    assert lines[1].split(",")[11] == "1"
    assert lines[2] == "trials=1 disagreements=1 inconclusive=0 failures=0"


def test_harness_small_random_run(capsys, tmp_path):
    out_path = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "harness", "--trials", "8", "--seed", "42", "--out", str(out_path)
    )
    assert code == EXIT_OK
    assert "trials=8 disagreements=0 inconclusive=0 failures=0" in out
    written = out_path.read_text().splitlines()
    assert len(written) == 9  # header + one row per trial


def test_harness_argument_validation(capsys):
    code, _, _ = run_cli(capsys, "harness", "--trials", "0")
    assert code == EXIT_PARSE
    code, _, _ = run_cli(
        capsys, "harness", "--trials", "1", "--instance", fixture("vertex_halfplane")
    )
    assert code == EXIT_PARSE  # --point required alongside --instance
    code, out, err = run_cli(capsys, "harness", "--trials", "1", "--point", "xbar")
    assert (code, out) == (EXIT_PARSE, "")  # and --instance alongside --point
    assert "--instance and --point together" in err
    for option in ("--mmax", "--nmax"):
        # The random trials' size bound is fixed; the options are gone.
        code, _, err = run_cli(capsys, "harness", option, "5")
        assert code == EXIT_PARSE
        assert f"unrecognized arguments: {option} 5" in err


# -- project ------------------------------------------------------------------


def test_project_golden_output(capsys):
    code, out, _ = run_cli(capsys, "project", fixture("vertex_halfplane"), "outside")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "z = [0.0, 2.0, 0.0]",
        "dist(x, Omega) = 3.16227766017",
        "dist(g(x), Q_m) = 2.94317475869",
    ]


def _slater_document(tmp_path, b=(1, 0, 0), p=(0, 0, 0)):
    """A = I, b = (1, 0, 0) by default: the interior point p and the
    infeasible x."""
    path = tmp_path / "slater.json"
    path.write_text(
        json.dumps(
            {
                "m": 3,
                "n": 3,
                "A": np.eye(3).tolist(),
                "b": list(b),
                "points": {"p": list(p), "x": [0, 3, 4]},
            }
        )
    )
    return path


@pytest.mark.parametrize(
    "b,p,dist,expected",
    [
        # One secular root, taken by the lone-row Newton loop: with A = I and
        # b = (1, 0, 0), z = P_Q(x + b) - b = (2, 1.8, 2.4) in closed form.
        ((1, 0, 0), (0, 0, 0), "2.82842712475", [2.0, 1.8, 2.4]),
        # The lone hard case: with b = 0 and the interior reference
        # (1, 0, 0), x has no secular bracket (w_+ = 0); z = P_Q(x) =
        # (2.5, 1.5, 2), 5 / sqrt(2) from x.
        ((0, 0, 0), (1, 0, 0), "3.53553390593", [2.5, 1.5, 2.0]),
    ],
    ids=["newton", "hard-case"],
)
def test_project_slater_success_path(capsys, tmp_path, b, p, dist, expected):
    # The last digit of z is rounding, so z is checked within 1e-9.
    path = _slater_document(tmp_path, b, p)
    code, out, err = run_cli(capsys, "project", str(path), "x")
    assert (code, err) == (EXIT_OK, "")
    lines = out.splitlines()
    assert lines[1] == f"dist(x, Omega) = {dist}"
    assert lines[0].startswith("z = ")
    z = json.loads(lines[0][len("z = "):])
    assert np.max(np.abs(np.subtract(z, expected))) <= 1e-9


@pytest.mark.parametrize(
    "point,location,crcq",
    [
        # g(p) = (1.5e-9, 6e-10, 0) passes the boundary band at tol 1e-9,
        # but ||gr|| lies below the gradient floor, so p is no
        # positive-boundary point: its margin 9e-10 makes it interior.
        ([1.5e-9, 6e-10, 0], "interior", "Thm 4.4 (i)"),
        # g(q) = (0.9e-9, 1.5e-9, 0) lies in the band with a negative
        # margin, within sqrt(5) tol of the vertex: q reads as the vertex,
        # where Im(A) = R^3 meets the interior.
        ([0.9e-9, 1.5e-9, 0], "zero", "Thm 4.4 (iv)"),
    ],
)
def test_near_vertex_band_point_runs_in_every_command(
    capsys, tmp_path, point, location, crcq
):
    # Every command that reads the document runs, the projection of x too,
    # which analyzes p as its reference.
    path = tmp_path / "near_vertex.json"
    doc = {"m": 3, "n": 3, "A": np.eye(3).tolist(), "b": [0, 0, 0]}
    path.write_text(json.dumps({**doc, "points": {"p": point, "x": [0, 3, 4]}}))
    code, out, err = run_cli(capsys, "analyze", str(path), "p")
    assert (code, err) == (EXIT_OK, "")
    summary = split_report(out)[1]
    assert summary[0] == f"location: {location}"
    assert f"CRCQ: holds ({crcq}); MSCQ: holds (Thm 5.1)" in summary
    for argv in (
        ("scan", str(path), "p", "--samples", "16"),
        ("harness", "--instance", str(path), "--point", "p", "--trials", "2"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (EXIT_OK, ""), argv
    code, out, err = run_cli(capsys, "project", str(path), "x")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1] == "dist(x, Omega) = 3.53553390593"


def test_project_analyzes_its_reference_once(capsys, tmp_path, monkeypatch):
    # The reference's analysis (its image, location and gradient) is made
    # once, in the reference search, and the projector reads it; x is
    # evaluated once, and the projector reads its image; the Slater data is
    # built once; the output is the same, to the last digit.
    from socpcq import affine_instance, projection

    counts = {"analyze": 0, "build": 0}
    images = []
    analyze_point = affine_instance.analyze_point
    evaluate = affine_instance.AffineSOCInstance._evaluate
    build_slater = projection.FeasibleSetProjector._build_slater

    def analyzing(instance, x):
        if not isinstance(x, affine_instance.PointAnalysis):
            counts["analyze"] += 1
        return analyze_point(instance, x)

    def imaging(self, x):
        images.append(np.array(x))
        return evaluate(self, x)

    def building(self):
        counts["build"] += 1
        return build_slater(self)

    for module in (cli, projection):
        monkeypatch.setattr(module, "analyze_point", analyzing)
    monkeypatch.setattr(affine_instance.AffineSOCInstance, "_evaluate", imaging)
    monkeypatch.setattr(projection.FeasibleSetProjector, "_build_slater", building)
    code, out, err = run_cli(capsys, "project", str(_slater_document(tmp_path)), "x")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "z = [2.000000000000001, 1.8, 2.4]\n"
        "dist(x, Omega) = 2.82842712475\n"
        "dist(g(x), Q_m) = 2.82842712475\n"
    )
    assert counts == {"analyze": 1, "build": 1}
    assert sum(not x.any() for x in images) == 1     # the reference p = 0
    assert sum(np.array_equal(x, [0.0, 3.0, 4.0]) for x in images) == 1


def test_project_reads_the_points_in_order_for_any_point(capsys, tmp_path):
    # The point "big" has an image past the magnitude rule.  Every point is
    # projected from the first point in document order that analyze_point
    # accepts; "big" is skipped like an infeasible point, so x is its own
    # reference and y is projected from x.  Only "big" itself exits 2, since
    # a point's own image is checked first.
    path = tmp_path / "big.json"
    path.write_text(
        json.dumps(
            {
                "m": 3,
                "n": 3,
                "A": [[1e150, 0, 0], [0, 1, 0], [0, 0, 1]],
                "b": [0, 0, 0],
                "points": {"big": [1e10, 0, 0], "x": [1, 0, 0], "y": [0, 3, 4]},
            }
        )
    )
    code, out, err = run_cli(capsys, "project", str(path), "x")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[:2] == ["z = [1.0, 0.0, 0.0]", "dist(x, Omega) = 0"]
    code, out, err = run_cli(capsys, "project", str(path), "y")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[:2] == ["z = [5e-150, 3.0, 4.0]", "dist(x, Omega) = 5e-150"]
    code, out, err = run_cli(capsys, "project", str(path), "big")
    assert (code, out) == (EXIT_PARSE, "")
    assert "overflows" in err


def test_project_measures_a_point_whose_image_passes_the_cone_test(capsys, tmp_path):
    # On a degenerate boundary Omega is a flat: x = xbar + 1e-7 V_k[0] has
    # an image of cone margin 0.0, yet lies 9.99e-8 off Omega, as the flat
    # projector from xbar gives it.
    inst, xbar = random_instance(5, 4, "degenerate-boundary", 26)
    x = xbar + 1e-7 * inst.geometry().row_basis[0]
    assert _margin_rows(inst.evaluate(x)[None, :])[0] == 0.0
    path = tmp_path / "flat.json"
    doc = {"m": 5, "n": 4, "A": inst.A.tolist(), "b": inst.b.tolist()}
    path.write_text(json.dumps({**doc, "points": {"xbar": xbar.tolist(), "x": x.tolist()}}))
    code, out, err = run_cli(capsys, "project", str(path), "x")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[1:] == [
        "dist(x, Omega) = 9.99088586177e-08",
        "dist(g(x), Q_m) = 0",
    ]


def test_project_from_rounded_degenerate_boundary_reference(capsys, tmp_path):
    # g(xbar) lies a rounding error outside the cone; the projector's own
    # tolerance still accepts xbar as the reference
    inst, xbar = random_instance(5, 3, "degenerate-boundary", seed=0)
    x = xbar + np.array([0.0, 0.0, 4.0])
    assert _margin_rows((inst.A @ x + inst.b)[None, :])[0] < 0.0
    doc = {
        "m": 5,
        "n": 3,
        "A": inst.A.tolist(),
        "b": inst.b.tolist(),
        "points": {"xbar": xbar.tolist(), "outside": x.tolist()},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "project", str(path), "outside")
    assert code == EXIT_OK
    lines = dict(line.split(" = ", 1) for line in out.splitlines())
    z = np.array(json.loads(lines["z"]))
    dist = float(lines["dist(x, Omega)"])
    y = inst.A @ z + inst.b
    assert _margin_rows(y[None, :])[0] >= -1e-10 * max(1.0, float(np.linalg.norm(y)))
    assert dist <= float(np.linalg.norm(x - xbar)) * (1.0 + 1e-12)


def test_project_point_within_tol_of_a_degenerate_boundary(capsys, tmp_path):
    # g(x) lies 2.6e-11 from the cone, inside the document's tol, but x lies
    # 8.6e-6 off Omega: it is projected, to the xbar projector's distance.
    from socpcq import FeasibleSetProjector

    inst, xbar = random_instance(3, 2, "degenerate-boundary", 0)
    x = xbar + 1e-5 * inst.geometry().row_basis[0]
    doc = {
        "m": 3,
        "n": 2,
        "A": inst.A.tolist(),
        "b": inst.b.tolist(),
        "points": {"xbar": xbar.tolist(), "x": x.tolist()},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "project", str(path), "x")
    assert (code, err) == (EXIT_OK, "")
    lines = dict(line.split(" = ", 1) for line in out.splitlines())
    dist = float(lines["dist(x, Omega)"])
    assert dist == pytest.approx(8.64952103482e-06, rel=1e-9)
    _, d_xbar = FeasibleSetProjector(inst, xbar).project(x)
    assert abs(dist - d_xbar) <= inst.projection_tol
    assert float(lines["dist(g(x), Q_m)"]) < inst.tol


@pytest.mark.parametrize("with_origin", [False, True])
def test_project_uses_document_tol_without_feasible_point(
    capsys, tmp_path, with_origin
):
    # At tol 1e-6 the 1e-8 column is rank-deficient noise, so Omega is the
    # line x1 = 0; the answer must not depend on whether the document
    # happens to carry a feasible point.
    points = {"outside": [1.0, 1.0]}
    if with_origin:
        points["origin"] = [0.0, 0.0]
    doc = {
        "m": 3,
        "n": 2,
        "A": [[0.0, 0.0], [1.0, 0.0], [0.0, 1e-8]],
        "b": [0.0, 0.0, 0.0],
        "points": points,
        "tolerances": {"tol": 1e-6},
    }
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "project", str(path), "outside")
    assert code == EXIT_OK
    lines = dict(line.split(" = ", 1) for line in out.splitlines())
    assert np.allclose(json.loads(lines["z"]), [0.0, 1.0], atol=1e-12)
    assert float(lines["dist(x, Omega)"]) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "A, b, supremum",
    [
        # g(x) = (-1, x, 0) never reaches the cone: the margin -1 - |x| has
        # supremum -1, so no reference exists
        ([[0.0], [1.0], [0.0]], [-1.0, 0.0, 0.0], "-1"),
        # g(x) = (x, x, 1) runs parallel to the boundary ray (1, 1, 0): the
        # margin x - sqrt(x^2 + 1) has supremum 0, never attained
        ([[1.0], [1.0], [0.0]], [0.0, 0.0, 1.0], "0"),
    ],
    ids=["negative-supremum", "boundary-ray"],
)
def test_project_reports_empty_feasible_set(capsys, tmp_path, A, b, supremum):
    doc = {"m": 3, "n": 1, "A": A, "b": b, "points": {"x": [0.5]}}
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "project", str(path), "x")
    assert code == EXIT_NUMERICAL
    assert out == ""
    assert "feasible set is empty" in err
    assert err.rstrip().endswith(f"supremum {supremum}")


def test_project_feasible_point_is_fixed(capsys):
    code, out, _ = run_cli(capsys, "project", fixture("vertex_halfplane"), "inside")
    assert code == EXIT_OK
    assert "dist(x, Omega) = 0" in out


# -- document round trip --------------------------------------------------------


def test_parse_serialize_round_trip():
    doc = parse_instance(fixture("boundary_degenerate"))
    again = instance_document_from_dict(serialize_instance(doc))
    assert np.array_equal(doc.instance.A, again.instance.A)
    assert np.array_equal(doc.instance.b, again.instance.b)
    assert doc.points.keys() == again.points.keys()
    for name in doc.points:
        assert np.array_equal(doc.points[name], again.points[name])
    assert doc.tolerances == again.tolerances

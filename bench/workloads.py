"""The benchmark's three workloads.

Each workload is a closed loop with one client.  Its inputs come from the
workload seed alone and are generated in fixed-composition chunks, outside
the timed calls.  Inputs are drawn from two streams, so that no timed or
traced operation repeats an input the process has already seen: ``MAIN``
feeds the timed run and the traced pass, and ``WARMUP``, keyed by a fixed
seed, the warm-up calls of each set-up.
``run`` is the timed call into socpcq; ``check`` validates its output.

``check`` returns ``(failure, wrong)``: ``failure`` names why the
operation failed (``None`` when it succeeded).  ``wrong`` is True for an
output that is unreadable or wrong in a way the program never produced
when the benchmark was defined, so that the run is not ``correct``; the
failure kinds the baseline has (inconclusive or disagreeing scans, the
``project`` exits on degenerate-boundary documents) only count as failed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import shutil
from pathlib import Path
from typing import Any, Iterator, Optional

import numpy as np

import socpcq
from measure import GUARD_S
from socpcq import cli, cq_checker, oracles
from socpcq.affine_instance import AffineSOCInstance

#: Feasibility and distance slack for checking printed projections.
CHECK_TOL = 1e-9
#: Warm-up inputs do not depend on the workload seed, so that set-up time
#: measures the same work on every seed.
WARMUP_SEED = 0
#: Input streams, keys of the input generators; see the module docstring.
WARMUP, MAIN = 0, 1


def _rng(seed: int, stream: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, k])


def _child_seed(seed: int, stream: int, i: int) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(stream, i)).generate_state(1)[0])


def _margin(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> float:
    y = A @ x + b
    return float(y[0] - np.linalg.norm(y[1:]))


class Workload:
    """Base: chunked deterministic inputs and a per-op deadline."""

    name = ""
    #: Client deadline for one call in the timed run, in seconds of CPU time.
    deadline_s = GUARD_S
    #: Nominal operations per second of the timed run, about the baseline's
    #: rate on a 2-vCPU Xeon; fixes the timed op count from ``--seconds``.
    ops_per_s = 1.0
    #: Operations per second of run time in a traced run; fixes the traced
    #: op count from ``--seconds`` alone so traced counts repeat exactly.
    trace_ops_per_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed)
        self.workdir = workdir
        self._chunks = {}

    def setup(self, rep: int = 0) -> None:
        """Set-up number ``rep``: make ``MAIN`` chunk ``rep`` and warm up on
        ``WARMUP`` chunk ``rep``, so repeated set-ups share no input."""
        self._chunks[rep] = self.chunk(rep)
        for item in self.warmup_inputs(rep):
            self.check(item, self.run(item))

    def inputs(self) -> Iterator[Any]:
        """``MAIN`` inputs in order; chunks not made in set-up are made on
        demand."""
        for k in itertools.count():
            chunk = self._chunks.pop(k, None)
            yield from chunk if chunk is not None else self.chunk(k)

    def close(self) -> None:
        """Remove files the workload wrote."""

    def chunk(self, k: int) -> list:
        """``MAIN`` chunk ``k``."""
        raise NotImplementedError

    def warmup_inputs(self, rep: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, output) -> tuple[Optional[str], bool]:
        raise NotImplementedError


class Harness(Workload):
    """Sweeps of the equivalence harness, one trial per stratum each."""

    name = "harness"
    ops_per_s = 12.0
    trace_ops_per_s = 8.0
    trials = len(oracles.TARGET_CASES)

    def chunk(self, k):
        size = 64
        return [_child_seed(self.seed, MAIN, i) for i in range(k * size, (k + 1) * size)]

    def warmup_inputs(self, rep):
        return [_child_seed(WARMUP_SEED, WARMUP, rep)]

    def run(self, item):
        return oracles.equivalence_harness(trials=self.trials, seed=item)

    def check(self, item, report):
        targets = oracles.TARGET_CASES
        if len(report.rows) + len(report.failures) != self.trials or any(
            row.target_case != targets[row.index % len(targets)]
            or row.agree != (row.scan_class == ("bounded" if row.crcq_holds else "growing"))
            for row in report.rows
        ):
            return "malformed harness report", True
        if report.failures:
            return "harness trial raised", True
        if any(row.invariant_violations for row in report.rows):
            return "invariant violation", True
        if report.inconclusive:
            return "inconclusive scan", False
        if report.disagreements:
            return "disagreement", False
        return None, False


def lorentz_boost(m: int, rapidity: float, rng: np.random.Generator) -> np.ndarray:
    """A boost of Q_m along a random spatial direction; it maps Q_m onto itself."""
    u = rng.standard_normal(m - 1)
    u /= np.linalg.norm(u)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    L = np.eye(m)
    L[0, 0] = ch
    L[0, 1:] = sh * u
    L[1:, 0] = sh * u
    L[1:, 1:] += (ch - 1.0) * np.outer(u, u)
    return L


class KappaSlater(Workload):
    """kappa-scans at vertex Slater points, Thm4.4(iv), half of them boosted."""

    name = "kappa-slater"
    ops_per_s = 10.0
    trace_ops_per_s = 8.0
    case = "Thm4.4(iv)"
    rapidities = (0.0, 1.0)
    samples_per_radius = 48

    def _item(self, rng, m, n, rapidity):
        instance, xbar = oracles.random_instance(
            m, n, self.case, seed=int(rng.integers(2**32))
        )
        if rapidity:
            L = lorentz_boost(m, rapidity, rng)
            instance = AffineSOCInstance(L @ instance.A, L @ instance.b)
        label = cq_checker.check_crcq(instance, xbar).condition
        return instance, xbar, int(rng.integers(2**32)), label

    def chunk(self, k):
        rng = _rng(self.seed, MAIN, k)
        grid = [
            (m, n, rap)
            for m in range(2, 7)
            for n in range(1, 7)
            for rap in self.rapidities
        ]
        order = rng.permutation(len(grid))
        return [self._item(rng, *grid[i]) for i in order]

    def warmup_inputs(self, rep):
        rng = _rng(WARMUP_SEED, WARMUP, rep)
        return [self._item(rng, 4, 3, rap) for rap in self.rapidities]

    def run(self, item):
        instance, xbar, scan_seed, _ = item
        scan = oracles.mscq_kappa_scan(
            instance, xbar, samples_per_radius=self.samples_per_radius, seed=scan_seed
        )
        return scan, oracles.classify_kappa_growth(scan)

    def check(self, item, output):
        scan, label = output
        kappa = np.asarray(scan.kappa_hat)
        if kappa.shape != (3,) or not np.all(np.isfinite(kappa)) or np.any(kappa < 0):
            return "malformed kappa scan", True
        if item[3] != self.case:
            return "CRCQ label changed under the boost", True
        if label != "bounded":
            return f"kappa growth {label}", False
        return None, False


#: Bundled fixtures: (file stem, analysed point, expected CRCQ label).
FIXTURES = (
    ("boundary_degenerate", "xbar", None),
    ("vertex_halfplane", "origin", None),
    ("vertex_tangent_plane", "origin", None),
    ("vertex_boundary_line", "origin", "Thm4.4(vi)"),
)

#: CRCQ label each generator stratum must produce (None: CRCQ fails).
STRATUM_LABELS = {
    case: (None if case in ("Cor4.2", "degenerate-boundary") else case)
    for case in oracles.TARGET_CASES
}


class CliOneshot(Workload):
    """In-process ``socpcq analyze`` / ``project``; one fresh document per call."""

    name = "cli-oneshot"
    #: A call past this is stopped and counted failed.  Over seeds 1-13 the
    #: slowest call that completed took 0.25 s, and the known
    #: 100,000-iteration failures take 7-14 s; a deadline well inside that
    #: gap stops the same calls on every run of a seed.
    deadline_s = 1.0
    ops_per_s = 350.0
    trace_ops_per_s = 150.0
    per_kind = 20

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        fixture_dir = Path(socpcq.__file__).parent / "fixtures"
        self.fixtures = {
            stem: (json.loads((fixture_dir / f"{stem}.json").read_text()), point, label)
            for stem, point, label in FIXTURES
        }
        self.kinds = [*oracles.TARGET_CASES, *self.fixtures]

    def setup(self, rep=0):
        self.workdir.mkdir(parents=True, exist_ok=True)
        super().setup(rep)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _outside(self, rng, A, b, xbar):
        """An infeasible point along a random ray from xbar."""
        for _ in range(64):
            u = rng.standard_normal(xbar.shape[0])
            u /= np.linalg.norm(u)
            for direction in (u, -u):
                r = 0.5
                for _ in range(40):
                    x = xbar + r * direction
                    if _margin(A, b, x) < 0.0:
                        return x
                    r *= 2.0
        raise RuntimeError("no infeasible point found")

    def _document(self, rng, kind):
        if kind in oracles.TARGET_CASES:
            m, n = int(rng.integers(3, 7)), int(rng.integers(2, 7))
            instance, xbar = oracles.random_instance(
                m, n, kind, seed=int(rng.integers(2**32))
            )
            A, b, label = instance.A, instance.b, STRATUM_LABELS[kind]
        else:
            raw, point, label = self.fixtures[kind]
            scale = 1.0 + rng.random()
            A = scale * np.asarray(raw["A"], dtype=float)
            b = scale * np.asarray(raw["b"], dtype=float)
            xbar = np.asarray(raw["points"][point], dtype=float)
        outside = self._outside(rng, A, b, xbar)
        doc = {
            "m": A.shape[0],
            "n": A.shape[1],
            "A": A.tolist(),
            "b": b.tolist(),
            "points": {"xbar": xbar.tolist(), "outside": outside.tolist()},
        }
        return doc, label

    def _calls(self, rng, tag, per_kind):
        """Alternating analyze/project calls, equal shares of every kind."""
        shares = []
        for command, point in (("analyze", "xbar"), ("project", "outside")):
            kinds = [kind for kind in self.kinds for _ in range(per_kind // 2)]
            shares.append([(command, point, kinds[i]) for i in rng.permutation(len(kinds))])
        calls = []
        for command, point, kind in itertools.chain.from_iterable(zip(*shares)):
            doc, label = self._document(rng, kind)
            path = self.workdir / f"{tag}-{len(calls)}.json"
            path.write_text(json.dumps(doc))
            calls.append((command, str(path), point, label, doc, kind))
        return calls

    def chunk(self, k):
        return self._calls(_rng(self.seed, MAIN, k), f"c{k}", self.per_kind)

    def warmup_inputs(self, rep):
        return self._calls(_rng(WARMUP_SEED, WARMUP, rep), f"w{rep}", 2)

    def run(self, item):
        command, path, point = item[:3]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, path, point])
        return code, out.getvalue()

    def check(self, item, output):
        command, _, _, label, doc, kind = item
        code, text = output
        if code != 0:
            return f"{command} exit {code} ({kind})", False
        if command == "analyze":
            try:
                payload, _ = json.JSONDecoder().raw_decode(text)
                got = payload["verdicts"]["crcq"]["condition"]
            except (ValueError, KeyError, TypeError):
                return "analyze output unreadable", True
            if got != label:
                return "CRCQ label differs from the stratum", True
            return None, False
        try:
            lines = dict(line.split(" = ", 1) for line in text.splitlines())
            z = np.asarray(json.loads(lines["z"]), dtype=float)
            dist = float(lines["dist(x, Omega)"])
        except (ValueError, KeyError):
            return "project output unreadable", True
        A, b = np.asarray(doc["A"]), np.asarray(doc["b"])
        x = np.asarray(doc["points"]["outside"])
        xbar = np.asarray(doc["points"]["xbar"])
        scale = max(1.0, float(np.linalg.norm(A @ z + b)))
        if _margin(A, b, z) < -CHECK_TOL * scale:
            return "projection infeasible", True
        if abs(dist - float(np.linalg.norm(x - z))) > CHECK_TOL * max(1.0, dist):
            return "printed distance differs from |x - z|", True
        if dist > float(np.linalg.norm(x - xbar)) * (1.0 + CHECK_TOL) + CHECK_TOL:
            return f"distance exceeds |x - xbar| ({kind})", False
        return None, False


WORKLOADS = {w.name: w for w in (Harness, KappaSlater, CliOneshot)}

"""Smoke test of the benchmark itself; runs in well under a minute.

    python3 bench/smoke_test.py        (or: python3 -m pytest bench/smoke_test.py)

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that two timed runs of one seed attempt and fail the same
operations, that the tracer puts every wrapped function back, that two
traced runs of one seed, each in a process of its own, give identical
counts, and that the benchmark refuses to run without the program's
sources.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (pins BLAS threads before numpy is imported)

run.import_program()

import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
SECONDS = 0.5
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _workload(name):
    return WORKLOADS[name](SEED, run.OUT_DIR / f"docs-smoke-{name}")


def _declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _function_sites():
    """Identity of every function attribute of the socpcq modules."""
    sites = {}
    for name, module in sys.modules.items():
        if name == "socpcq" or name.startswith("socpcq."):
            for attr, value in vars(module).items():
                if inspect.isfunction(value):
                    sites[(name, attr)] = value
    cls = sys.modules["socpcq.projection"].FeasibleSetProjector
    for attr, value in vars(cls).items():
        if inspect.isfunction(value):
            sites[("FeasibleSetProjector", attr)] = value
    return sites


def _run(name, cwd=run.ROOT, trace=1):
    """One benchmark run in a process of its own."""
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", name, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def _counts(metrics):
    units = _declared("per_layer")
    return {
        k: v for k, v in metrics.items()
        if units[k].startswith("count") or k == "oracles.retry_frac"
    }


def test_end_to_end_metrics_emitted():
    measure.MIN_OPS = 5
    for name in WORKLOADS:
        outcomes = []
        for _ in range(2):
            workload = _workload(name)
            try:
                tally, metrics, units = measure.end_to_end(workload, SECONDS, run.time_import)
            finally:
                workload.close()
            assert {k: units[k] for k in metrics} == _declared("end_to_end"), name
            assert tally.attempted >= 5 and tally.wrong == 0, name
            assert all(v > 0 for v in metrics.values()), (name, metrics)
            outcomes.append((tally.attempted, dict(tally.reasons)))
        # The op count is fixed by seed and seconds, so outcomes repeat.
        assert outcomes[0] == outcomes[1], (name, outcomes)


def test_traced_metrics_restore():
    before = _function_sites()
    for name in WORKLOADS:
        workload = _workload(name)
        try:
            tally, metrics, units = measure.traced(
                workload, SECONDS, run.OUT_DIR / f"spans-smoke-{name}.jsonl.gz"
            )
        finally:
            workload.close()
        after = _function_sites()
        assert after.keys() == before.keys()
        assert all(after[k] is before[k] for k in before), f"{name}: wrapper left behind"
        assert {k: units[k] for k in metrics} == _declared("per_layer"), name
        assert tally.wrong == 0, name
        assert metrics["tracing.coverage_frac"] >= 0.9, name


def test_traced_counts_repeat():
    # Separate processes, so that no state of the first run helps the second.
    for name in WORKLOADS:
        first, second = (_run(name) for _ in range(2))
        assert first.returncode == 0 and second.returncode == 0, first.stderr + second.stderr
        first, second = (json.loads(p.stdout.splitlines()[-1]) for p in (first, second))
        assert first["correct"] and second["correct"], name
        values = [{k: m["value"] for k, m in r["metrics"].items()} for r in (first, second)]
        assert _counts(values[0]) == _counts(values[1]), name


def test_refuses_without_sources():
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / run.BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("harness", cwd=bare, trace=0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    for test in (
        test_end_to_end_metrics_emitted,
        test_traced_metrics_restore,
        test_traced_counts_repeat,
        test_refuses_without_sources,
    ):
        test()
        print(f"ok {test.__name__}")

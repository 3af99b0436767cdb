#!/usr/bin/env python3
"""socpcq benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload harness --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs a fixed number of operations traced, and as many
others untraced for reference, and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported: threading only adds scheduler noise
# on these small matrices.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse
import hashlib
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch output of a run, relative to the root; listed in .gitignore.
OUT_DIR = ROOT / ".bench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


#: Imports numpy and socpcq and prints how long that took, in s.
IMPORT_CODE = """
import time
start = time.perf_counter()
import numpy, socpcq, socpcq.cli
print(time.perf_counter() - start)
"""


def import_program() -> None:
    """Import numpy and socpcq from ``src/``."""
    if not (SRC / "socpcq" / "__init__.py").is_file():
        raise SystemExit(f"error: socpcq sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import numpy  # noqa: F401
    import socpcq
    import socpcq.cli  # noqa: F401

    if Path(socpcq.__file__).resolve().parent != (SRC / "socpcq").resolve():
        raise SystemExit(f"error: socpcq imported from {socpcq.__file__}, not {SRC}")


def time_import() -> float:
    """Import time of numpy and socpcq in a fresh interpreter, in s.

    A process imports only once, so each sample takes a child process; the
    time is taken inside the child and leaves out interpreter start-up.
    """
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(proc.stdout)


def git_commit() -> str:
    """HEAD of the checkout; ``none`` unless the checkout is a git repository."""
    # The ceiling keeps git from taking up a repository above the checkout.
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "socpcq").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {key: os.environ.get(key) for key in THREAD_ENV},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from measure import end_to_end, traced
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}"
        )
    if args.seconds <= 0:
        raise SystemExit("error: --seconds must be positive")
    print(json.dumps({"environment": environment()}))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR / f"docs-{os.getpid()}")
    try:
        if args.trace:
            tally, metrics, units = traced(
                workload, args.seconds, OUT_DIR / f"spans-{args.workload}.jsonl.gz"
            )
        else:
            tally, metrics, units = end_to_end(workload, args.seconds, time_import)
    finally:
        workload.close()
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    reasons = ", ".join(f"{why}: {n}" for why, n in sorted(tally.reasons.items()))
    print(
        f"failed_frac = {tally.failed}/{tally.attempted} = "
        f"{tally.failed / tally.attempted:.4g} ({reasons or 'none'}); "
        f"wrong outputs: {tally.wrong}"
    )
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

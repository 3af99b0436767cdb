#!/usr/bin/env python3
"""Output parity of the working tree against a base revision.

    python tests/parity.py BASE

Exports ``src/`` of the git revision ``BASE`` into a temporary directory
and, for that tree and for the working tree's ``src/``, each in a fresh
interpreter, prints four digests of the benchmark's workloads at seed 11:
the reprs of the first 400 ``harness`` reports
(``equivalence_harness(8, seed=_child_seed(11, MAIN, i))``), the exit codes
and standard output of the first 2,400 ``cli-oneshot`` calls, the reprs of
the first 240 ``kappa-slater`` scans and their classes (kappa scans at
Thm4.4(iv) vertex Slater points, half of them boosted at rapidity 1, the
only digested rows on boosted instances), and, as ``fcr-records``, the
repr of every record that ``oracles.fcr_dim_scan`` returns during those
calls (a ``DimScan`` or None, one per harness trial).  A fifth digest,
``kappa-interior``, covers interior points in other frames: the reprs and
classes of the kappa scans of the first 60 draws
``random_instance(2 + s % 5, 1 + s % 6, "Thm4.4(i)", s)``, boosted along
e_1 at rapidities 1, 2, 3 and 5 and with (A, b) scaled by 1e-3 and 1e3,
at seed s and the scan's default settings.  A sixth, ``fcr-boosted``, does
the same for the FCR oracle on the positive boundary: the reprs of the
``fcr_dim_scan`` records (64 samples, seed s) of the first 40 draws each of
Thm4.4(ii), Thm4.4(iii) and degenerate-boundary, ``random_instance(2 + s %
5, 1 + s % 6, case, s)`` with m = 3 + s % 4 for degenerate-boundary, in the
same six frames.
The reports show that record only as ``fcr_consistent`` and
``fcr_agree``, so the oracle is wrapped in place, as the recording fixture
of ``tests/test_oracles.py`` wraps it.  Both trees run the inputs of the
working tree's ``bench/workloads.py``.

Exits 0 when the digests agree, 1 when they differ, and 2 when the base
cannot be exported or a tree fails to run.  Nothing is written into the
checkout.  pytest does not collect this file.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11
#: Operations digested per workload.
COUNTS = {"harness": 400, "cli-oneshot": 2400, "kappa-slater": 240}

#: Run in a fresh interpreter with ``src/`` and ``bench/`` on the path:
#: prints ``<workload> <sha256>`` per workload, then ``fcr-records <sha256>``,
#: ``kappa-interior <sha256>`` and ``fcr-boosted <sha256>``.
DIGEST_CODE = """
import hashlib, itertools, json, sys, tempfile
from pathlib import Path
import numpy as np
import socpcq
from socpcq import AffineSOCInstance, classify_kappa_growth, oracles
from socpcq.families import lorentz_boost, transformed
from workloads import WORKLOADS

records = []
fcr_scan = oracles.fcr_dim_scan

def recording(*args, **kwargs):
    records.append(fcr_scan(*args, **kwargs))
    return records[-1]

# A draw boosted along e_1 at rapidities 1, 2, 3 and 5, then scaled.
def frames(inst):
    boosts = [
        transformed(inst, L=lorentz_boost(np.eye(inst.m - 1)[0], rapidity))[0]
        for rapidity in (1.0, 2.0, 3.0, 5.0)
    ]
    return boosts + [AffineSOCInstance(c * inst.A, c * inst.b) for c in (1e-3, 1e3)]

oracles.fcr_dim_scan = recording

src, seed, counts = sys.argv[1], int(sys.argv[2]), json.loads(sys.argv[3])
if Path(socpcq.__file__).resolve().parent != Path(src).resolve() / "socpcq":
    sys.exit(f"socpcq imported from {socpcq.__file__}, not {src}")
with tempfile.TemporaryDirectory() as tmp:
    for name, count in counts.items():
        workload = WORKLOADS[name](seed, Path(tmp))
        digest = hashlib.sha256()
        for item in itertools.islice(workload.inputs(), count):
            digest.update(repr(workload.run(item)).encode())
        print(name, digest.hexdigest())
digest = hashlib.sha256()
for record in records:
    digest.update(repr(record).encode())
print("fcr-records", digest.hexdigest())
digest = hashlib.sha256()
for s in range(60):
    inst, xbar = oracles.random_instance(2 + s % 5, 1 + s % 6, "Thm4.4(i)", s)
    for frame in frames(inst):
        scan = oracles.mscq_kappa_scan(frame, xbar, seed=s)
        digest.update(repr((scan, classify_kappa_growth(scan))).encode())
print("kappa-interior", digest.hexdigest())
digest = hashlib.sha256()
for case in ("Thm4.4(ii)", "Thm4.4(iii)", "degenerate-boundary"):
    for s in range(40):
        m = 3 + s % 4 if case == "degenerate-boundary" else 2 + s % 5
        inst, xbar = oracles.random_instance(m, 1 + s % 6, case, s)
        for frame in frames(inst):
            digest.update(repr(fcr_scan(frame, xbar, samples=64, seed=s)).encode())
print("fcr-boosted", digest.hexdigest())
"""


def digests(src: Path) -> dict[str, str]:
    """The workload digests of the package under ``src``."""
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "bench")]),
        # As bench/run.py pins them.
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }
    with tempfile.TemporaryDirectory() as cwd:
        argv = [str(src), str(SEED), json.dumps(COUNTS)]
        proc = subprocess.run(
            [sys.executable, "-B", "-c", DIGEST_CODE, *argv],
            cwd=cwd, env=env, capture_output=True, text=True,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"digests of {src} failed:\n{proc.stderr}")
    return dict(line.split() for line in proc.stdout.splitlines())


def export_src(base: str, into: Path) -> Path:
    """``src/`` of revision ``base``, extracted under ``into``."""
    proc = subprocess.run(
        ["git", "archive", "--format=tar", base, "src"], cwd=ROOT, capture_output=True
    )
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr.decode().strip())
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as archive:
        archive.extractall(into, filter="data")
    return into / "src"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python tests/parity.py BASE", file=sys.stderr)
        return 2
    base = argv[0]
    try:
        with tempfile.TemporaryDirectory() as tmp:
            theirs = digests(export_src(base, Path(tmp)))
        ours = digests(ROOT / "src")
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for label, result in ((base, theirs), ("working tree", ours)):
        for name, digest in result.items():
            print(f"{label:<14} {name:<14} {digest}")
    differ = [name for name in ours if theirs[name] != ours[name]]
    print(f"differ: {', '.join(differ)}" if differ else "identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

"""Measurement loops: timed calls, output checks and speed normalization.

On a shared virtual machine the same code runs up to half again slower
for minutes at a time, and the slowdown shows in CPU time as much as in
wall time.  So a fixed probe kernel of small numpy operations driven from
Python, the same kind of work as the program's, is timed between
operations, and each operation's time is scaled by ``REFERENCE_NS`` over
the probe time around it: it is reported as its time on a machine where
the probe kernel takes exactly ``REFERENCE_NS``.
"""

from __future__ import annotations

import collections
import gc
import itertools
import math
import resource
import signal
import statistics
import time

import numpy as np

from layers import PER_LAYER, layer_metrics
from tracer import Tracer

#: Nominal probe-kernel time; the kernel takes 0.9-1.4 ms on a 2.1 GHz
#: Xeon vCPU, depending on the host's load.
REFERENCE_NS = 1_000_000
#: Operation time between two probes.
PROBE_EVERY_NS = 50_000_000
#: Set-up repetitions; ``setup_s`` is the median import time, from fresh
#: interpreters, plus the median set-up time.
SETUP_REPEATS = 7
#: Minimum operations of a timed run, so that ten lie beyond the 90th
#: percentile.
MIN_OPS = 100
#: Minimum operations of a traced run.
MIN_TRACED_OPS = 8
#: Wall-clock cap of a loop, to end well inside three minutes even on a
#: much slower machine; a run that reaches it has fewer operations.
WALL_CAP_S = 120.0
#: Per-call guard of traced runs and of workloads without a tighter deadline.
GUARD_S = 20.0

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class OpTimeout(BaseException):
    """Raised in a call that uses up its deadline of CPU time.

    A BaseException, so that no handler inside the program absorbs it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


class SpeedProbe:
    """Times the fixed kernel; ``measure`` returns the mean of three runs.

    The mean, not the minimum: a minimum hides slow phases that are on for
    part of the probe, and those slow the operations around it as well.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((6, 6))
        self.K = self.A + 6.0 * np.eye(6)
        self.X = rng.standard_normal((48, 6))
        self.b = rng.standard_normal(6)

    def _kernel(self) -> int:
        start = time.perf_counter_ns()
        for _ in range(40):
            Y = self.X @ self.A.T + self.b
            np.linalg.norm(Y[:, 1:], axis=1)
            np.linalg.svd(self.A, compute_uv=False)
            np.linalg.solve(self.K, Y[0])
        return time.perf_counter_ns() - start

    def measure(self) -> float:
        return (self._kernel() + self._kernel() + self._kernel()) / 3.0


class Normalizer:
    """Probes between operations; scales each by the speed around it.

    The operations between two probes form a window, and their times are
    scaled by ``REFERENCE_NS`` over the mean of the two probe times.
    """

    def __init__(self):
        self.probe = SpeedProbe()
        self.marks = [(0, self.probe.measure())]
        self._since = 0

    def after_op(self, ops_done: int, elapsed_ns: int) -> None:
        self._since += elapsed_ns
        if self._since >= PROBE_EVERY_NS:
            self.marks.append((ops_done, self.probe.measure()))
            self._since = 0

    def factors(self, ops_done: int) -> np.ndarray:
        """Per-operation scale factors; closes the last window."""
        if self.marks[-1][0] < ops_done:
            self.marks.append((ops_done, self.probe.measure()))
        out = np.empty(ops_done)
        for (lo, p_lo), (hi, p_hi) in zip(self.marks, self.marks[1:]):
            out[lo:hi] = REFERENCE_NS / (0.5 * (p_lo + p_hi))
        return out


class Tally:
    """Outcome counts of checked operations; ``wrong`` counts the outputs
    that make a run not ``correct``."""

    def __init__(self):
        self.attempted = 0
        self.wrong = 0
        self.reasons = collections.Counter()

    def add(self, failure, wrong):
        self.attempted += 1
        self.wrong += bool(wrong)
        if failure is not None:
            self.reasons[failure] += 1

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())


def call(workload, item, deadline_s):
    """One timed call; returns (elapsed_ns, output, failure or None)."""
    # A CPU-time timer: time the process spends descheduled on a shared
    # host does not count against the call.
    signal.setitimer(signal.ITIMER_PROF, deadline_s)
    start = time.perf_counter_ns()
    try:
        output, failure = workload.run(item), None
    except OpTimeout:
        output, failure = None, "timeout"
    except Exception as exc:  # an exception is a failed operation, not a crash
        output, failure = None, f"raised {type(exc).__name__}"
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
    return time.perf_counter_ns() - start, output, failure


def run_ops(workload, items, tally, deadline_s, tracer=None):
    """Run and check every item; returns (times_ns, speed factors), one per op.

    The loop stops early only past ``WALL_CAP_S`` of wall time.
    """
    signal.signal(signal.SIGPROF, _on_alarm)
    times = []
    wall_end = time.monotonic() + WALL_CAP_S
    speed = Normalizer()
    for op, item in enumerate(items):
        if time.monotonic() > wall_end:
            break
        if tracer is not None:
            tracer.op = op
        try:
            elapsed, output, failure = call(workload, item, deadline_s)
        except OpTimeout:  # the timer fired after the call had returned
            elapsed, output, failure = int(deadline_s * 1e9), None, "timeout"
        times.append(elapsed)
        speed.after_op(len(times), elapsed)
        if failure is None:
            tally.add(*workload.check(item, output))
        else:
            tally.add(failure, False)
    return np.asarray(times, dtype=float), speed.factors(len(times))


def end_to_end(workload, seconds, time_import):
    """The timed run: every ``END_TO_END`` metric.

    It takes a fixed number of operations, ``--seconds`` times the
    workload's nominal ``ops_per_s``, so that ``attempted`` and ``failed``
    repeat exactly for a given seed whatever the machine's speed.
    """
    probe = SpeedProbe()
    before = probe.measure()
    imports, setups = [], []
    for rep in range(SETUP_REPEATS):
        import_ns = time_import() * 1e9
        after = probe.measure()
        imports.append(import_ns / (0.5 * (before + after)))
        before = after
        start = time.perf_counter_ns()
        workload.setup(rep)
        elapsed = time.perf_counter_ns() - start
        after = probe.measure()
        setups.append(elapsed / (0.5 * (before + after)))
        before = after
    gc.collect()
    tally = Tally()
    ops = max(MIN_OPS, math.ceil(seconds * workload.ops_per_s))
    items = itertools.islice(workload.inputs(), ops)
    times, factors = run_ops(workload, items, tally, workload.deadline_s)
    times_ms = times * factors / 1e6
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(setups))
        * REFERENCE_NS / 1e9,
        "ops_per_s": 1e3 * len(times_ms) / times_ms.sum(),
        "op_p50_ms": float(np.percentile(times_ms, 50)),
        "op_p90_ms": float(np.percentile(times_ms, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally, metrics, dict(END_TO_END)


def traced(workload, seconds, out_path):
    """The traced run: every per-layer metric; spans are written to ``out_path``.

    The traced pass runs first, on inputs the process has not seen, so
    that the spans record each operation's own work even if the program
    keeps a cache across calls.  The untraced pass for
    ``tracing.overhead_frac`` then repeats the same inputs; a cache would
    show there as extra overhead, not in the per-layer metrics.
    """
    workload.setup()
    ops = max(MIN_TRACED_OPS, math.ceil(seconds * workload.trace_ops_per_s / 2))
    items = list(itertools.islice(workload.inputs(), ops))
    gc.collect()
    tracer = Tracer()
    targets = tracer.targets()
    tracer.install()
    try:
        tally = Tally()
        times, factors = run_ops(workload, items, tally, GUARD_S, tracer=tracer)
    finally:
        tracer.uninstall()
    if not tracer.restored(targets):
        raise RuntimeError("tracer left a wrapper in place")
    traced_ns = float(np.dot(times, factors))
    plain = Tally()
    times_ref, factors_ref = run_ops(workload, items, plain, GUARD_S)
    tracer.write(out_path)
    metrics = layer_metrics(
        tracer.spans, factors, traced_ns, float(np.dot(times_ref, factors_ref))
    )
    tally.wrong += plain.wrong
    return tally, metrics, dict(PER_LAYER)

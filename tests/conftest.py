"""Fixtures shared by the test modules: counters of the projector's builds
and batches, and of the random generators and evaluations of the kappa
scan."""

import sys

import numpy as np
import pytest

from socpcq import AffineSOCInstance, PointAnalysis, cq_checker, oracles, projection
from socpcq.projection import FeasibleSetProjector


@pytest.fixture
def calls(monkeypatch):
    """Counts projector builds and batches, and the ``analyze_point`` calls
    that analyze (those not handed an analysis of their own instance);
    ``rows`` holds the rows of each batch, in call order."""
    counts = {"build": 0, "batch": 0, "analyze": 0, "rows": []}

    def counting(key, fn, counts_call=lambda *args: True):
        def wrapper(*args, **kwargs):
            counts[key] += counts_call(*args)
            return fn(*args, **kwargs)

        return wrapper

    def analyzes(instance, x):
        return not (isinstance(x, PointAnalysis) and x.instance is instance)

    monkeypatch.setattr(
        FeasibleSetProjector,
        "__init__",
        counting("build", FeasibleSetProjector.__init__),
    )
    batch = counting("batch", FeasibleSetProjector._project_rows)

    def recording(self, X):
        counts["rows"].append(X.copy())
        return batch(self, X)

    monkeypatch.setattr(FeasibleSetProjector, "_project_rows", recording)
    for module in (cq_checker, oracles, projection):
        monkeypatch.setattr(
            module,
            "analyze_point",
            counting("analyze", module.analyze_point, analyzes),
        )
    return counts


@pytest.fixture
def scan_spy(monkeypatch, calls):
    """``calls``, which records the rows of each projector batch, plus the
    count of random generators built (``rng``) and the rows of each
    ``_evaluate`` call that ``oracles._kappa_scan`` makes itself
    (``evaluated``); the projector's own evaluations are not recorded."""
    calls.update(rng=0, evaluated=[])
    default_rng = np.random.default_rng
    evaluate = AffineSOCInstance._evaluate

    def counting_rng(*args, **kwargs):
        calls["rng"] += 1
        return default_rng(*args, **kwargs)

    def evaluating(self, x):
        if sys._getframe(1).f_code is oracles._kappa_scan.__code__:
            calls["evaluated"].append(x.copy())
        return evaluate(self, x)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    monkeypatch.setattr(AffineSOCInstance, "_evaluate", evaluating)
    return calls

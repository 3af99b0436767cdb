"""External span tracer for the socpcq layers.

The tracer wraps the public functions of each socpcq module, and the
public methods of ``FeasibleSetProjector``, from outside the package.
``from .x import f`` binds ``f`` in the importing module too, so every
module attribute that refers to a wrapped function is patched where it is
looked up; ``uninstall`` puts every original back.

A span is ``[name, parent, start_ns, end_ns, op, tag, rows, error]``.
Spans are kept in memory in start order, so a parent always precedes its
children, and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from typing import Callable

#: The package's layers, in dependency order.
LAYERS = (
    "soc_core",
    "subspace_cone",
    "affine_instance",
    "cq_checker",
    "projection",
    "oracles",
    "cli",
)

#: Public methods wrapped on classes; every other class is left alone.
METHODS = {"projection": {"FeasibleSetProjector": ("__init__", "project", "project_batch")}}

NAME, PARENT, START, END, OP, TAG, ROWS, ERROR = range(8)


def _rows(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is None:
        return 0
    return int(shape[0]) if len(shape) == 2 else 1


def _first_array_rows(args, kwargs) -> int:
    return _rows(args[0]) if args else 0


def _projector_rows(args, kwargs) -> int:
    return _rows(args[1]) if len(args) > 1 else _rows(kwargs.get("X"))


def stratum_slug(report) -> str:
    """Metric-name slug of a report's stratum, e.g. ``thm4.4-v``.

    A failing CRCQ verdict carries no label; at the vertex it is the
    Cor 4.2 configuration, on the boundary the degenerate-boundary one.
    """
    label = report.crcq.condition
    if label is not None:
        return label.lower().replace("(", "-").replace(")", "")
    if report.point_analysis.location.value == "zero":
        return "cor4.2"
    return "degenerate-boundary"


#: Row counters and result tags for selected span names.
ROW_COUNTERS: dict[str, Callable] = {
    "soc_core.margins": _first_array_rows,
    "soc_core.distances_to_cone": _first_array_rows,
    "soc_core.projections_to_cone": _first_array_rows,
    "soc_core.project_to_cone": lambda args, kwargs: 1,
    "projection.FeasibleSetProjector.project_batch": _projector_rows,
}
TAGGERS: dict[str, Callable] = {
    "projection.FeasibleSetProjector.project_batch": lambda args, kwargs, result: (
        args[0].geometry.value
    ),
    "cq_checker.full_report": lambda args, kwargs, result: stratum_slug(result),
}


class Tracer:
    """Records nested spans around the socpcq public functions."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- patching --------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_rows = ROW_COUNTERS.get(name)
        tag_of = TAGGERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0, 0, tracer.op, None, 0, False]
            if count_rows is not None:
                span[ROWS] = count_rows(args, kwargs)
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[END] = clock()
                stack.pop()
                span[ERROR] = True
                raise
            span[END] = clock()
            stack.pop()
            if tag_of is not None:
                span[TAG] = tag_of(args, kwargs, result)
            return result

        return traced

    def targets(self) -> list[tuple[object, str, object, str]]:
        """``(owner, attribute, original, span name)`` for every wrap site."""
        modules = {name: sys.modules[f"socpcq.{name}"] for name in LAYERS}
        wrapped: dict[int, str] = {}
        out = []
        for layer, module in modules.items():
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and not attr.startswith("_")
                    and value.__module__ == module.__name__
                ):
                    wrapped[id(value)] = f"{layer}.{attr}"
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    out.append(
                        (cls, method, vars(cls)[method], f"{layer}.{cls_name}.{method}")
                    )
        for owner in (sys.modules["socpcq"], *modules.values()):
            for attr, value in vars(owner).items():
                if inspect.isfunction(value) and id(value) in wrapped:
                    out.append((owner, attr, value, wrapped[id(value)]))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for owner, attr, original, name in self.targets():
            setattr(owner, attr, self._wrap(original, name))
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def restored(self, targets) -> bool:
        """True when every wrap site again holds its original object."""
        return all(vars(owner)[attr] is original for owner, attr, original, _ in targets)

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as gzipped JSON Lines, one span per line."""
        keys = ("name", "parent", "start_ns", "end_ns", "op", "tag", "rows", "error")
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **dict(zip(keys, span))}) + "\n")

"""Constraint-qualification certificates for affine second-order cone constraints.

Given g(x) = Ax + b constrained to the Lorentz cone Q_m, this package
decides — with checkable numeric certificates — which qualifications hold
at a feasible point (nondegeneracy, Robinson's CQ, the facial constant
rank property, constant-rank CQ, metric subregularity), describes the
multiplier-image set H(x) and its closedness, and cross-validates every
analytic verdict with independent sampling oracles.

The public names of ``families``, ``oracles`` and ``projection`` are
imported on first access, so a process that only decides verdicts (the
``analyze`` command) never loads the sampling and projection layers.
"""

import importlib

__version__ = "0.1.0"

from .affine_instance import AffineSOCInstance, PointAnalysis, analyze_point
from .cq_checker import (
    CQReport,
    HSetDescription,
    HSetKind,
    Verdict,
    check_crcq,
    full_report,
    verify_report_invariants,
)
from .errors import (
    DimensionError,
    GenerationError,
    InfeasiblePointError,
    NumericalFailureError,
    ParseError,
    SocpcqError,
)
from .soc_core import (
    DEFAULT_TOL,
    ConeLocation,
    classify_cone_point,
    cone_margin,
    distance_to_cone,
)
from .subspace_cone import (
    SubspaceConeClass,
    SubspaceKind,
    classify_image_vs_cone,
)

__all__ = [
    "__version__",
    "AffineSOCInstance",
    "PointAnalysis",
    "analyze_point",
    "CQReport",
    "HSetDescription",
    "HSetKind",
    "Verdict",
    "check_crcq",
    "full_report",
    "verify_report_invariants",
    "DimensionError",
    "GenerationError",
    "InfeasiblePointError",
    "NumericalFailureError",
    "ParseError",
    "SocpcqError",
    "DimScan",
    "HarnessReport",
    "KappaScan",
    "brute_force_subspace_class",
    "classify_kappa_growth",
    "equivalence_harness",
    "fcr_dim_scan",
    "mscq_kappa_scan",
    "random_instance",
    "BatchProjection",
    "FeasibleSetProjector",
    "project_to_feasible_set",
    "DEFAULT_TOL",
    "ConeLocation",
    "classify_cone_point",
    "cone_margin",
    "distance_to_cone",
    "SubspaceConeClass",
    "SubspaceKind",
    "classify_image_vs_cone",
]

#: Module of each public name that is imported on first access.
_LAZY = {
    "random_instance": "families",
    **dict.fromkeys(
        (
            "DimScan",
            "HarnessReport",
            "KappaScan",
            "brute_force_subspace_class",
            "classify_kappa_growth",
            "equivalence_harness",
            "fcr_dim_scan",
            "mscq_kappa_scan",
        ),
        "oracles",
    ),
    **dict.fromkeys(
        ("BatchProjection", "FeasibleSetProjector", "project_to_feasible_set"),
        "projection",
    ),
}


def __getattr__(name: str):
    # Read from the module on every access, never stored here, so that an
    # attribute patched on the defining module is the one returned.  Any
    # other name raises, which lets ``from socpcq import oracles`` fall
    # back to importing the submodule.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

"""Constraint-qualification certificates for affine second-order cone constraints.

Given g(x) = Ax + b constrained to the Lorentz cone Q_m, this package
decides — with checkable numeric certificates — which qualifications hold
at a feasible point (nondegeneracy, Robinson's CQ, the facial constant
rank property, constant-rank CQ, metric subregularity), describes the
multiplier-image set H(x) and its closedness, and cross-validates every
analytic verdict with independent sampling oracles.
"""

__version__ = "0.1.0"

from .affine_instance import (
    AffineSOCInstance,
    HSetDescription,
    HSetKind,
    PointAnalysis,
    analyze_point,
    grad_phi,
    linearization_cone_membership,
    phi,
)
from .cq_checker import (
    CQReport,
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
    SingularReductionError,
    SocpcqError,
)
from .families import random_instance
from .oracles import (
    DimScan,
    HarnessReport,
    KappaScan,
    brute_force_subspace_class,
    classify_kappa_growth,
    equivalence_harness,
    fcr_dim_scan,
    mscq_kappa_scan,
)
from .projection import (
    BatchProjection,
    FeasibleSetProjector,
    project_to_feasible_set,
)
from .soc_core import (
    DEFAULT_TOL,
    ConeLocation,
    classify_cone_point,
    cone_margin,
    distance_to_cone,
    distances_to_cone,
    margins,
    project_to_cone,
    projections_to_cone,
    tangent_membership,
)
from .subspace_cone import (
    SubspaceConeClass,
    SubspaceKind,
    classify_image_vs_cone,
)

__all__ = [
    "__version__",
    "AffineSOCInstance",
    "HSetDescription",
    "HSetKind",
    "PointAnalysis",
    "analyze_point",
    "grad_phi",
    "linearization_cone_membership",
    "phi",
    "CQReport",
    "Verdict",
    "check_crcq",
    "full_report",
    "verify_report_invariants",
    "DimensionError",
    "GenerationError",
    "InfeasiblePointError",
    "NumericalFailureError",
    "ParseError",
    "SingularReductionError",
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
    "distances_to_cone",
    "margins",
    "project_to_cone",
    "projections_to_cone",
    "tangent_membership",
    "SubspaceConeClass",
    "SubspaceKind",
    "classify_image_vs_cone",
]

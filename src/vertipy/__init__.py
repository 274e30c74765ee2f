"""Projection methods for piecewise-linear profiles under slope/curvature bounds.

The package bundles closed-form projectors for interpolation, slope, and
curvature constraints (with overshooting "intrepid" companions and a
nonconvex minimum-slope variant), a family of feasibility-seeking and
best-approximation algorithms built on them, a seeded benchmark problem
generator, and the metrics used to compare runs.  The ``vertipy`` console
script drives the generate/run/report/verify pipeline.
"""

from .bestapprox import (
    InfeasibleIntersectionError,
    badr_two_set_step,
    q_operator,
)
from .feasibility import (
    ALGORITHMS,
    BEST_APPROXIMATION_ALGORITHMS,
    FEASIBILITY_ALGORITHMS,
    SUPERIORIZED_ALGORITHMS,
    AlgorithmConfigError,
    AnchoredDouglasRachford,
    CyclicDykstra,
    FeasibilityProblem,
    HalpernWittmann,
    HaugazeauCyclic,
    HaugazeauDouglasRachford,
    HaugazeauParallel,
    ParallelDykstra,
    admm_two_set_step,
    cycp_plus_step,
    cycp_step,
    dr_two_set_step,
    exaltp_step,
    exparp_step,
    make_algorithm,
    parp_step,
    run,
    sap_step,
)
from .geometry import (
    Breakpoints,
    Constraint,
    CurvatureBounds,
    CurvatureConstraint,
    InterpolationConstraint,
    InterpolationSpec,
    InvalidSpecError,
    SlopeBounds,
    SlopeConstraint,
    project_interpolation,
)
from .metrics import (
    RunRecord,
    StopRule,
    UndefinedNormalizerError,
    distance_stats,
    performance_profile,
    proximity,
    proximity_squared_sum,
    relative_proximity_curve,
)
from .probgen import ProblemSpec, child_seed, generate, make_batch
from .product import diagonal_part, make_product_point
from .sets import BallSet, HalfspaceSet, SlabSet, SpanSet
from .superior import Superiorized

__version__ = "0.1.0"

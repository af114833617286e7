"""Lines minimizing the L^p norm of euclidean point-to-line distances.

The library fits a line to a finite planar point set under any exponent
1 <= p <= inf, provides closed-form solvers for p in {1, 2, inf}, a certified
numeric solver for the rest, and the complete analytic solution for the unit
equilateral triangle including its optimal-set phase transitions at p = 4/3
and p = 2.
"""

from .geometry import (
    PNorm,
    Point2,
    SignPartition,
    UnitLine,
    canonicalize,
    default_eps_zero,
    distance_vector,
    first_order_residual,
    line_through,
    lines_close,
    lp_objective,
    sign_partition,
)
from .exact import (
    DegenerateInputError,
    EveryDirection,
    FamilyDescriptor,
    OptimalSet,
    ParallelStrip,
    PencilThroughPoint,
    ReducedCurve,
    solve_p1,
    solve_p2,
    solve_pinf,
)
from .numeric import (
    SolveReport,
    best_offset_for_direction,
    minimize,
    objective_gradient,
    solve,
)
from .triangle import (
    ReducedPoint,
    TrianglePhase,
    canonical_triangle,
    centroid,
    classify_phase,
    critical_x_of_y,
    family_indicator,
    family_member,
    reduced_gradient,
    reduced_objective,
    reduced_to_line,
    regime_indicator,
    side_parallel_offset,
    side_parallel_value,
    stationarity_gap,
    symmetry_orbit,
    triangle_min_value,
    triangle_optimal_set,
)
from .verification import (
    SuiteReport,
    run_verification_suite,
    stationarity_gap_over_t,
)

__version__ = "0.1.0"

__all__ = [
    "PNorm", "Point2", "SignPartition", "UnitLine",
    "canonicalize", "default_eps_zero", "distance_vector",
    "first_order_residual", "line_through", "lines_close",
    "lp_objective", "sign_partition",
    "DegenerateInputError", "EveryDirection", "FamilyDescriptor", "OptimalSet",
    "ParallelStrip", "PencilThroughPoint", "ReducedCurve",
    "solve_p1", "solve_p2", "solve_pinf",
    "SolveReport", "best_offset_for_direction",
    "minimize", "objective_gradient", "solve",
    "ReducedPoint", "TrianglePhase",
    "canonical_triangle", "centroid", "classify_phase", "critical_x_of_y",
    "family_indicator", "family_member", "reduced_gradient", "reduced_objective",
    "reduced_to_line", "regime_indicator",
    "side_parallel_offset", "side_parallel_value", "stationarity_gap",
    "symmetry_orbit", "triangle_min_value", "triangle_optimal_set",
    "SuiteReport",
    "run_verification_suite", "stationarity_gap_over_t",
    "__version__",
]

"""Closed-form cosine summation kernels with a geometric cross-check.

The library evaluates partial sums of cos(l*phi) (full, even-index, and
odd-index families) through closed forms with explicit singularity handling,
verifies them against brute-force oracles and against a recursive two-line
unit-segment construction, and samples the parametric orbit curves traced by
the construction points.
"""

from .angle import Angle, as_angle
from .bench import BENCH_PHI, BenchResult, measure
from .chebyshev import MAX_DEGREE, chebyshev_u, sin_ratio, u_sequence
from .errors import (
    BadRange,
    ConstructionImpossible,
    CountOutOfRange,
    DegreeTooLarge,
    EmptyGrid,
    ExcludedAngle,
    SingularAngle,
    SingularDenominator,
    TrigsumError,
)
from .geometry import (
    EPSILON_EXCLUDE,
    TOL_TANGENT,
    ConstructionConfig,
    Line,
    PlacedPoint,
    Point2,
    PointSeq,
    chebyshev_form_point,
    closed_form_point,
    construct_points,
    line_coordinates,
    line_for_index,
    projection_sum,
    projection_sums,
    segment_direction_angles,
)
from .kernels import (
    DEFAULT_THRESHOLD,
    Family,
    Method,
    SumSpec,
    SumValue,
    compensated_trig_sum,
    even_index_sum,
    halfangle_free_sum,
    lagrange_sum,
    naive_running_sums,
    naive_trig_sum,
    odd_index_sum,
    sum_auto,
    x_coordinate_identity,
)
from .orbit import EmitFormat, OrbitCurve, emit, orbit_samples
from .verify import (
    ROW_RETENTION_LIMIT,
    GridSpec,
    MethodComparison,
    ResidualPair,
    ResidualReport,
    compare_methods,
    residual_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "as_angle",
    "BENCH_PHI",
    "BenchResult",
    "measure",
    "MAX_DEGREE",
    "chebyshev_u",
    "sin_ratio",
    "u_sequence",
    "TrigsumError",
    "ExcludedAngle",
    "SingularAngle",
    "SingularDenominator",
    "ConstructionImpossible",
    "CountOutOfRange",
    "DegreeTooLarge",
    "BadRange",
    "EmptyGrid",
    "EPSILON_EXCLUDE",
    "TOL_TANGENT",
    "Line",
    "Point2",
    "PlacedPoint",
    "PointSeq",
    "ConstructionConfig",
    "construct_points",
    "closed_form_point",
    "chebyshev_form_point",
    "line_coordinates",
    "line_for_index",
    "projection_sum",
    "projection_sums",
    "segment_direction_angles",
    "DEFAULT_THRESHOLD",
    "Family",
    "Method",
    "SumSpec",
    "SumValue",
    "naive_trig_sum",
    "naive_running_sums",
    "compensated_trig_sum",
    "lagrange_sum",
    "halfangle_free_sum",
    "even_index_sum",
    "odd_index_sum",
    "x_coordinate_identity",
    "sum_auto",
    "EmitFormat",
    "OrbitCurve",
    "orbit_samples",
    "emit",
    "ROW_RETENTION_LIMIT",
    "GridSpec",
    "ResidualPair",
    "ResidualReport",
    "MethodComparison",
    "residual_sweep",
    "compare_methods",
]

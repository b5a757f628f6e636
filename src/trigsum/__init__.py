"""Closed-form cosine summation kernels with a geometric cross-check.

The library evaluates partial sums of cos(l*phi) (full, even-index, and
odd-index families) through closed forms with explicit singularity handling,
verifies them against brute-force oracles and against a recursive two-line
unit-segment construction, and samples the parametric orbit curves traced by
the construction points.

`import trigsum` loads no submodule: each exported name is imported from its
module on first use (PEP 562), so a caller pays only for what it touches.
"""

__version__ = "0.1.0"

#: Every exported name, by the submodule that defines it.
_EXPORTS = {
    "angle": ("Angle", "as_angle"),
    "bench": ("BENCH_PHI", "BenchResult", "measure"),
    "chebyshev": ("MAX_DEGREE", "chebyshev_u", "u_sequence"),
    "errors": ("TrigsumError", "ExcludedAngle", "SingularAngle", "SingularDenominator",
               "CountOutOfRange", "DegreeTooLarge", "BadRange", "EmptyGrid"),
    "geometry": ("EPSILON_EXCLUDE", "TOL_TANGENT", "Line", "Point2", "PointSeq",
                 "ConstructionConfig", "construct_points", "closed_form_point",
                 "chebyshev_form_point", "line_for_index",
                 "projection_sum", "projection_sums", "segment_direction_angles"),
    "kernels": ("DEFAULT_THRESHOLD", "Family", "Method", "SumSpec", "SumValue", "naive_trig_sum",
                "naive_running_sums", "lagrange_sum", "halfangle_free_sum", "even_index_sum",
                "odd_index_sum", "x_coordinate_identity", "sum_auto"),
    "orbit": ("EmitFormat", "OrbitCurve", "orbit_samples", "emit"),
    "verify": ("GridSpec", "ResidualPair", "ResidualReport", "residual_sweep"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Import an exported name, or a submodule, on first access."""
    if name in _EXPORTS:
        # __import__, unlike importlib.import_module, shows in `python -X importtime`
        return getattr(__import__(f"{__name__}.{name}"), name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__getattr__(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

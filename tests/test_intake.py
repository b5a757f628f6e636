"""Counts and choices enter the library one way.

A count goes through angle.as_count (or its tuple form, as_counts), so a
float raises TypeError wherever a count is taken; a choice goes through its
Enum once, at the public entry, so a value string means its member and a
string that names none raises ValueError. Each row below is an input the
library once took without either rule.
"""

import pytest

from trigsum import (
    ConstructionConfig,
    CountOutOfRange,
    DegreeTooLarge,
    EmitFormat,
    Family,
    GridSpec,
    Line,
    ResidualPair,
    SumSpec,
    chebyshev_form_point,
    chebyshev_u,
    closed_form_point,
    construct_points,
    emit,
    line_for_index,
    naive_running_sums,
    orbit_samples,
    projection_sum,
    projection_sums,
    residual_sweep,
    u_sequence,
)

SEQ = construct_points(ConstructionConfig(0.9, 5))
CURVE = orbit_samples(3, steps=9)
GRID = GridSpec(0.1, 3.0, 5, (1, 4))
HUGE = 10**5000

#: name -> (call, expected): the exception type the call raises, that type
#: with its message, or a call over Enum members whose result the first
#: call's equals.
INTAKE = {
    "grid-float-count": (lambda: GridSpec(0.1, 3.0, 5, (2.5,)), TypeError),
    "construction-float-n": (lambda: ConstructionConfig(0.9, 2.5), TypeError),
    "projection-sums-float-count": (
        lambda: projection_sums(ConstructionConfig(0.9, 5), Line.X, (2.5,)), TypeError),
    "closed-form-point-float-n": (lambda: closed_form_point(0.5, 2.5), TypeError),
    "projection-sum-float-count": (lambda: projection_sum(SEQ, Line.X, 0.5), TypeError),
    "line-for-float-index": (lambda: line_for_index(1.5, "x"), TypeError),
    "line-for-negative-index": (lambda: line_for_index(-1, "x"), ValueError),
    "running-sums-family-value": (lambda: naive_running_sums(1.0, "even", (3,)),
                                  lambda: naive_running_sums(1.0, Family.EVEN, (3,))),
    "running-sums-bogus-family": (lambda: naive_running_sums(1.0, "bogus", (3,)), ValueError),
    "construction-bogus-line": (lambda: ConstructionConfig(0.9, 3, "bogus"), ValueError),
    "emit-bogus-format": (lambda: emit(CURVE, "bogus"), ValueError),
    "sweep-bogus-pair": (lambda: residual_sweep(GRID, "bogus"), ValueError),
    "projection-sum-line-value": (lambda: projection_sum(SEQ, "x", 3),
                                  lambda: projection_sum(SEQ, Line.X, 3)),
    "projection-sums-line-value": (
        lambda: projection_sums(ConstructionConfig(0.9, 5), "x", (3, 1, 5)),
        lambda: projection_sums(ConstructionConfig(0.9, 5), Line.X, (3, 1, 5))),
    "line-for-odd-index": (lambda: line_for_index(1, "x"), lambda: Line.X),
    "line-for-even-index": (lambda: line_for_index(2, "x"), lambda: Line.E),
    "construction-start-line-value": (lambda: ConstructionConfig(0.9, 3, "e").start_line,
                                      lambda: Line.E),
    "emit-format-value": (lambda: emit(CURVE, "csv"), lambda: emit(CURVE, EmitFormat.CSV)),
    "sweep-pair-value": (lambda: residual_sweep(GRID, "LagrangeVsNaive"),
                         lambda: residual_sweep(GRID, ResidualPair.LAGRANGE_VS_NAIVE)),
    # past the interpreter's 4300-digit limit on int to str: named by its bits
    "spec-huge-negative-count": (lambda: SumSpec(1.0, -HUGE), (
        ValueError, "count must be >= 1, got a negative int of 16610 bits")),
    "orbit-huge-negative-n": (lambda: orbit_samples(-HUGE), (
        ValueError, "n must be >= 1, got a negative int of 16610 bits")),
    "line-for-huge-negative-index": (lambda: line_for_index(-HUGE, "x"), (
        ValueError, "index must be >= 0, got a negative int of 16610 bits")),
    "running-sums-huge-negative-count": (lambda: naive_running_sums(1.0, "full", (3, -HUGE)), (
        ValueError, r"counts must all be >= 1, got \(3, a negative int of 16610 bits\)")),
    "grid-huge-negative-count": (lambda: GridSpec(0.1, 3.0, 5, (-HUGE,)), (
        ValueError, r"counts must all be >= 1, got \(a negative int of 16610 bits,\)")),
    "projection-sum-huge-count": (lambda: projection_sum(SEQ, "x", HUGE), (
        CountOutOfRange, "count must be in 1..5, got an int of 16610 bits")),
    "projection-sums-huge-count": (
        lambda: projection_sums(ConstructionConfig(0.9, 5), "x", (HUGE,)), (
            CountOutOfRange, r"counts must be in 1..5, got \(an int of 16610 bits,\)")),
    "chebyshev-huge-degree": (lambda: chebyshev_u(HUGE, 0.5), (
        DegreeTooLarge, "degree of 16610 bits exceeds the configured maximum 1000000")),
    "u-sequence-huge-degree": (lambda: u_sequence(HUGE, 0.5), (
        DegreeTooLarge, "degree of 16610 bits exceeds the configured maximum 1000000")),
    "chebyshev-form-point-huge-n": (lambda: chebyshev_form_point(0.5, HUGE + 1), (
        DegreeTooLarge, "degree of 16610 bits exceeds the configured maximum 1000000")),
    # n no float holds, and n * alpha past the largest float
    "closed-form-point-huge-n": (lambda: closed_form_point(0.5, HUGE), (
        CountOutOfRange,
        "n of 16610 bits is too large: n times alpha overflows a float at alpha = 0.5")),
    "closed-form-point-overflowing-product": (lambda: closed_form_point(3.0, 10**308), (
        CountOutOfRange,
        f"n = {10**308} is too large: n times alpha overflows a float at alpha = 3.0")),
}


@pytest.mark.parametrize("call, expected", INTAKE.values(), ids=INTAKE)
def test_counts_and_choices_take_one_intake(call, expected):
    if isinstance(expected, type):
        with pytest.raises(expected):
            call()
    elif isinstance(expected, tuple):  # the exception type and its whole message
        with pytest.raises(expected[0], match=f"^{expected[1]}$"):
            call()
    else:
        assert call() == expected()

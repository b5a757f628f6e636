"""Tests for residual sweeps and their reports."""

import json
import math
import signal
import sys
import tracemalloc

import pytest

from trigsum import (
    Angle,
    BadRange,
    ConstructionConfig,
    EmptyGrid,
    Family,
    GridSpec,
    Line,
    ResidualPair,
    ResidualReport,
    SumSpec,
    TrigsumError,
    construct_points,
    even_index_sum,
    halfangle_free_sum,
    lagrange_sum,
    naive_trig_sum,
    odd_index_sum,
    projection_sum,
    residual_sweep,
    x_coordinate_identity,
)
from trigsum import kernels
from trigsum.angle import inclusive_grid

TWO_PI = 2.0 * math.pi


def small_grid(**overrides):
    params = dict(angle_min=0.05, angle_max=TWO_PI - 0.05, steps=101, counts=(1, 8, 64))
    params.update(overrides)
    return GridSpec(**params)


def test_grid_validation():
    with pytest.raises(BadRange):
        GridSpec(1.0, 1.0, 10, (1,))
    with pytest.raises(BadRange):
        GridSpec(0.0, 1.0, 1, (1,))
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 10, ())
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 10, (1, 0))
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 10, (1,), guard=-0.1)
    with pytest.raises(ValueError):
        GridSpec(math.nan, 1.0, 10, (1,))


def test_counts_coerced_to_tuple():
    grid = GridSpec(0.1, 1.0, 4, [3, 5])
    assert grid.counts == (3, 5)


def test_single_term_full_family_is_exact():
    # with one term both routes reduce to cos(phi)
    report = residual_sweep(
        GridSpec(0.05, TWO_PI - 0.05, 500, (1,)), ResidualPair.LAGRANGE_VS_NAIVE
    )
    assert report.max_abs_residual <= 1e-12


@pytest.mark.parametrize(
    "pair, bound",
    [
        (ResidualPair.LAGRANGE_VS_NAIVE, 1e-8),
        (ResidualPair.HALFANGLE_VS_NAIVE, 1e-8),
        (ResidualPair.LAGRANGE_VS_HALFANGLE, 1e-9),
        (ResidualPair.EVEN_VS_NAIVE, 1e-8),
        (ResidualPair.ODD_VS_NAIVE, 1e-8),
        (ResidualPair.DECOMPOSITION_VS_HALFANGLE, 1e-9),
    ],
)
def test_pairs_agree_on_guarded_grid(pair, bound):
    report = residual_sweep(small_grid(), pair)
    assert report.max_abs_residual <= bound
    assert report.mean_abs_residual <= report.max_abs_residual
    assert report.evaluated + report.skipped == 101 * 3


def test_projection_pair():
    report = residual_sweep(
        GridSpec(0.1, 3.0, 50, tuple(range(1, 9))),
        ResidualPair.PROJECTION_VS_CLOSED_FORM,
    )
    assert report.max_abs_residual <= 1e-9


def test_skip_accounting_matches_guard_rule():
    grid = GridSpec(0.0, TWO_PI, 101, (2, 5), guard=0.01)
    report = residual_sweep(grid, ResidualPair.HALFANGLE_VS_NAIVE)
    angles = inclusive_grid(grid.angle_min, grid.angle_max, grid.steps, "angle")
    expected_skips = sum(1 for a in angles if abs(math.sin(a)) < 0.01)
    assert expected_skips > 0
    assert report.skipped == expected_skips * 2
    assert report.evaluated == (101 - expected_skips) * 2


def test_guard_zero_skips_only_exact_singularities():
    # angle 0.0 has sin exactly 0; the kernel's zero check converts the
    # division into a skip so the accounting still closes
    grid = GridSpec(0.0, 1.0, 5, (3,), guard=0.0)
    report = residual_sweep(grid, ResidualPair.HALFANGLE_VS_NAIVE)
    assert report.skipped == 1
    assert report.evaluated == 4


def test_empty_grid():
    with pytest.raises(EmptyGrid):
        residual_sweep(
            GridSpec(3.13, 3.15, 5, (2,), guard=0.5), ResidualPair.HALFANGLE_VS_NAIVE
        )


def test_guarded_out_grid_with_counts_no_float_holds_is_empty():
    # per-count constants are prepared once per sweep; a count too large for
    # a float still fails only at an angle that is evaluated
    grid = GridSpec(-0.01, 0.01, 5, (10**400, 10**400 + 1, 2), guard=0.5)
    for pair in ResidualPair:
        with pytest.raises(EmptyGrid):
            residual_sweep(grid, pair)


def hang(signum, frame):
    raise TimeoutError("the sweep ran into its alarm")


@pytest.mark.parametrize("pair", list(ResidualPair), ids=lambda pair: pair.value)
def test_count_no_float_holds_raises_before_the_oracle_pass(pair):
    # every rule evaluates its closed side first, so the count's multiplier
    # raises where it meets the first evaluated angle; an oracle pass or a
    # walk to 2 * 10**400 + 2 that started first would run into the alarm
    # (or fail in len() with another message)
    grid = GridSpec(0.5, 0.6, 3, (10**400, 2))
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(5)
    try:
        with pytest.raises(OverflowError, match="int too large to convert to float"):
            residual_sweep(grid, pair)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_monotone_guard():
    maxima = [
        residual_sweep(small_grid(guard=g), ResidualPair.HALFANGLE_VS_NAIVE).max_abs_residual
        for g in (0.01, 0.05, 0.2)
    ]
    assert maxima[0] >= maxima[1] >= maxima[2]


def test_determinism():
    first = residual_sweep(small_grid(), ResidualPair.LAGRANGE_VS_HALFANGLE, keep_rows=True)
    second = residual_sweep(small_grid(), ResidualPair.LAGRANGE_VS_HALFANGLE, keep_rows=True)
    assert first == second
    assert first.to_json() == second.to_json()
    assert first.to_csv() == second.to_csv()


def test_row_order_is_angle_major_count_minor():
    grid = GridSpec(0.5, 0.7, 3, (5, 2))
    report = residual_sweep(grid, ResidualPair.LAGRANGE_VS_NAIVE, keep_rows=True)
    layout = [(angle, count) for angle, count, _ in report.rows]
    angles = inclusive_grid(grid.angle_min, grid.angle_max, grid.steps, "angle")
    assert layout == [(a, c) for a in angles for c in (5, 2)]


def test_row_retention_control():
    dropped = residual_sweep(GridSpec(0.5, 0.7, 3, (2,)), ResidualPair.LAGRANGE_VS_NAIVE)
    assert dropped.rows is None
    with pytest.raises(ValueError):
        dropped.to_csv()
    # kept on request at any size, here above 100 000 grid points
    grid = GridSpec(0.5, 1.0, 50_001, (1, 2))
    kept = residual_sweep(grid, ResidualPair.LAGRANGE_VS_HALFANGLE, keep_rows=True)
    assert len(kept.rows) == kept.evaluated == 100_002


def test_sweep_memory_does_not_grow_with_its_grid():
    # without rows a sweep holds one angle at a time: a 20 001-angle grid
    # would take about 0.65 MB as a list of its angles
    tracemalloc.start()
    try:
        residual_sweep(GridSpec(0.1, 3.0, 20_001, (1,)), ResidualPair.LAGRANGE_VS_HALFANGLE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_json_summary_shape():
    report = residual_sweep(small_grid(), ResidualPair.EVEN_VS_NAIVE)
    payload = json.loads(report.to_json())
    assert list(payload) == [
        "pair",
        "evaluated",
        "skipped",
        "max_abs_residual",
        "mean_abs_residual",
        "argmax_angle",
        "argmax_count",
    ]
    assert payload["pair"] == "EvenVsNaive"
    assert payload["evaluated"] == report.evaluated
    assert payload["max_abs_residual"] == report.max_abs_residual
    assert payload["argmax_count"] in (1, 8, 64)
    assert report.to_json().endswith("}\n")


def test_csv_rows_shape():
    report = residual_sweep(
        GridSpec(0.5, 0.9, 3, (2, 4)), ResidualPair.ODD_VS_NAIVE, keep_rows=True
    )
    lines = report.to_csv().splitlines()
    assert lines[0] == "pair,angle,count,residual"
    assert len(lines) == 1 + report.evaluated
    pair, angle, count, residual = lines[1].split(",")
    assert pair == "OddVsNaive"
    assert float(angle) == report.rows[0][0]
    assert int(count) == 2
    assert float(residual) == report.rows[0][2]


def test_argmax_is_reported_point():
    report = residual_sweep(small_grid(), ResidualPair.HALFANGLE_VS_NAIVE, keep_rows=True)
    located = [
        abs(r)
        for angle, count, r in report.rows
        if angle == report.argmax_angle and count == report.argmax_count
    ]
    assert located
    assert max(located) == report.max_abs_residual


# -- per-point reference ---------------------------------------------------
# The sweep evaluates each angle once for all counts. These are the per-point
# definitions it replaced, built on the public kernels and the construction;
# every report must match them byte for byte.


def _naive(rad, count, family=Family.FULL):
    return naive_trig_sum(SumSpec(Angle(rad), count, family))


def _ref_projection(rad, k):
    n = 2 * k + 2
    seq = construct_points(ConstructionConfig(Angle(rad), n))
    _, rhs = x_coordinate_identity(rad, k, threshold=0.0)
    return projection_sum(seq, Line.X, n) - rhs


REFERENCE_RULES = {
    ResidualPair.LAGRANGE_VS_NAIVE: (
        lambda a: abs(math.sin(0.5 * a)),
        lambda a, m: lagrange_sum(a, m, threshold=0.0) - _naive(a, m),
    ),
    ResidualPair.HALFANGLE_VS_NAIVE: (
        lambda a: abs(math.sin(a)),
        lambda a, m: halfangle_free_sum(a, m, threshold=0.0) - _naive(a, m),
    ),
    ResidualPair.LAGRANGE_VS_HALFANGLE: (
        lambda a: min(abs(math.sin(0.5 * a)), abs(math.sin(a))),
        lambda a, m: lagrange_sum(a, m, threshold=0.0)
        - halfangle_free_sum(a, m, threshold=0.0),
    ),
    ResidualPair.EVEN_VS_NAIVE: (
        lambda a: abs(math.sin(a)),
        lambda a, k: even_index_sum(a, k, threshold=0.0) - _naive(a, k, Family.EVEN),
    ),
    ResidualPair.ODD_VS_NAIVE: (
        lambda a: abs(math.sin(a)),
        lambda a, k: odd_index_sum(a, k, threshold=0.0) - _naive(a, k, Family.ODD),
    ),
    ResidualPair.PROJECTION_VS_CLOSED_FORM: (
        lambda a: min(abs(math.sin(a)), abs(math.cos(a))),
        _ref_projection,
    ),
    ResidualPair.DECOMPOSITION_VS_HALFANGLE: (
        lambda a: abs(math.sin(a)),
        lambda a, k: (even_index_sum(a, k, threshold=0.0) + odd_index_sum(a, k, threshold=0.0))
        - halfangle_free_sum(a, 2 * k, threshold=0.0),
    ),
}


def reference_sweep(grid, pair):
    guard_fn, residual_fn = REFERENCE_RULES[pair]
    rows = []
    skipped = 0
    for rad in inclusive_grid(grid.angle_min, grid.angle_max, grid.steps, "angle"):
        if guard_fn(rad) < grid.guard:
            skipped += len(grid.counts)
            continue
        for count in grid.counts:
            try:
                rows.append((rad, count, residual_fn(rad, count)))
            except TrigsumError:
                skipped += 1
    max_abs, abs_sum, argmax_angle, argmax_count = -1.0, 0.0, math.nan, 0
    for rad, count, residual in rows:
        abs_sum += abs(residual)
        if abs(residual) > max_abs:
            max_abs, argmax_angle, argmax_count = abs(residual), rad, count
    return ResidualReport(
        pair, len(rows), skipped, max_abs, abs_sum / len(rows), argmax_angle, argmax_count,
        tuple(rows),
    )


IDENTITY_GRIDS = {
    "unsorted-duplicated-counts": GridSpec(0.05, TWO_PI - 0.05, 61, (7, 3, 3, 1, 40, 7, 2)),
    # the criterion-1 counts: 64 one-term gaps, then gaps of 36 and 900 terms
    "dense-counts": GridSpec(0.05, TWO_PI - 0.05, 21, (*range(1, 65), 100, 1000)),
    "sparse-unsorted-repeated-counts": GridSpec(-4.0, 9.0, 41, (5, 1000, 17, 17)),
    "single-count": GridSpec(0.05, TWO_PI - 0.05, 41, (12,)),
    # whole angles guarded out near every multiple of pi/2, for every pair
    "guarded-out-angles": GridSpec(0.0, 4 * math.pi, 49, (3, 1, 8), guard=0.3),
    # 0.0 divides by an exact zero and pi by sin(pi) = 1.2e-16
    "guard-zero-0-to-pi": GridSpec(0.0, math.pi, 9, (3, 1, 4), guard=0.0),
    "negative-multi-turn": GridSpec(-20.0, 13.7, 151, (1, 2, 9, 40, 2)),
    "negative-multi-turn-guard-zero": GridSpec(-3 * math.pi, 3 * math.pi, 25, (5, 1), guard=0.0),
    # the closed-form pairs at large k; the naive and construction references
    # would take O(k) per grid point
    "negative-multi-turn-large-k": GridSpec(-40.0, -3.3, 151, (1, 2, 512, 4096, 10**6)),
}

#: Grids checked on a subset of the pairs; every other grid runs them all.
IDENTITY_PAIRS = {
    "negative-multi-turn-large-k": (
        ResidualPair.LAGRANGE_VS_HALFANGLE,
        ResidualPair.DECOMPOSITION_VS_HALFANGLE,
    ),
}


@pytest.mark.parametrize("name", sorted(IDENTITY_GRIDS))
def test_sweep_is_byte_identical_to_per_point_reference(name):
    grid = IDENTITY_GRIDS[name]
    for pair in IDENTITY_PAIRS.get(name, ResidualPair):
        report = residual_sweep(grid, pair, keep_rows=True)
        expected = reference_sweep(grid, pair)
        assert report.to_json() == expected.to_json(), pair
        assert report.to_csv() == expected.to_csv(), pair


def test_guarded_identity_grid_skips_and_keeps_angles_for_every_pair():
    grid = IDENTITY_GRIDS["guarded-out-angles"]
    for pair in ResidualPair:
        report = residual_sweep(grid, pair)
        assert report.skipped > 0 and report.evaluated > 0, pair


def test_projection_sweep_through_tangent_steps_is_accurate_and_byte_identical():
    # the 500-angle projection grid: 6 of its walks take a tangent step, which
    # must land on the other root; a step to the foot of the perpendicular
    # leaves residuals ~1e-5
    grid = GridSpec(0.05, TWO_PI - 0.05, 500, (1, 10, 50, 100, 249))
    report = residual_sweep(grid, ResidualPair.PROJECTION_VS_CLOSED_FORM, keep_rows=True)
    expected = reference_sweep(grid, ResidualPair.PROJECTION_VS_CLOSED_FORM)
    assert (report.evaluated, report.skipped) == (2470, 30)
    assert report.max_abs_residual <= 1e-10
    assert report.to_json() == expected.to_json()
    assert report.to_csv() == expected.to_csv()


@pytest.mark.parametrize("pair, sines_per_point, sines_per_angle, oracle", [
    # sin((2k+1)a) and sin(2ka), shared by the even, odd and whole-angle forms
    (ResidualPair.DECOMPOSITION_VS_HALFANGLE, 2, 0, False),
    # the closed form's sine, and sin(phi/2) of the guard, whose lambda looks
    # math.sin up at each call
    (ResidualPair.LAGRANGE_VS_NAIVE, 1, 1, True),
    (ResidualPair.ODD_VS_NAIVE, 1, 0, True),
], ids=["DecompositionVsHalfangle", "LagrangeVsNaive", "OddVsNaive"])
def test_sweep_evaluates_each_side_once(monkeypatch, pair, sines_per_point, sines_per_angle,
                                        oracle):
    # Counted through math.sin and math.cos as the closed forms and the
    # oracle pass look them up at each call; the sweep binds math.sin once
    # per sweep, when it prepares the pair. The denominators of the routes
    # that are math.sin itself were bound when kernels loaded. An oracle pair
    # makes one ordered pass of max(counts) cosines per angle.
    grid = GridSpec(0.05, 3.0, 40, (1, 7, 7, 300, 2))
    calls = {"sin": 0, "cos": 0}

    def counted(name):
        function = getattr(math, name)

        def call(x):
            calls[name] += 1
            return function(x)

        return call

    expected = residual_sweep(grid, pair)
    for name in calls:
        monkeypatch.setattr(math, name, counted(name))
    report = residual_sweep(grid, pair)
    assert report.skipped == 0
    assert report == expected
    assert calls["sin"] == (sines_per_point * len(grid.counts) + sines_per_angle) * grid.steps
    assert calls["cos"] == (max(grid.counts) * grid.steps if oracle else 0)


def decomposition_by_routes(rad, counts):
    """DecompositionVsHalfangle at each count from ROUTES' even, odd and
    halfangle (m = 2k) bodies, all dividing by sin(rad)."""
    even, odd, whole = (kernels.ROUTES[name] for name in ("even", "odd", "halfangle"))
    d = whole.checked(rad, 0.0)
    return [(e + o) - w for e, o, w in zip(
        even.evaluate(rad, d, list(map(even.multiplier, counts))),
        odd.evaluate(rad, d, list(map(odd.multiplier, counts))),
        whole.evaluate(rad, d, [whole.multiplier(2 * k) for k in counts]))]


#: Counts from one term to where 2k sin(a) nears the largest double; the
#: first seven keep (2k + 1) a finite up to |a| = 1e5.
DECOMPOSITION_COUNTS = (1, 2, 7, 512, 2**52 + 1, 10**17 + 3, 10**300, 10**307, 8 * 10**307)


@pytest.mark.parametrize("grid", [
    GridSpec(0.05, 1.0, 41, DECOMPOSITION_COUNTS[:-1]),
    GridSpec(-1e5, 1e5, 40, DECOMPOSITION_COUNTS[:7], guard=0.0),
    # from the least normal double: sin(a) = a is normal throughout
    GridSpec(sys.float_info.min, 1e-300, 7, DECOMPOSITION_COUNTS, guard=0.0),
    # subnormal sines, guard 0: the routes' own halvings, which reach -inf
    GridSpec(5e-324, 2.2e-308, 7, DECOMPOSITION_COUNTS, guard=0.0),
], ids=["normal", "normal-wide", "normal-least", "subnormal"])
def test_decomposition_rule_is_its_route_bodies_bit_for_bit(grid):
    report = residual_sweep(grid, ResidualPair.DECOMPOSITION_VS_HALFANGLE, keep_rows=True)
    assert report.skipped == 0
    angles = list(inclusive_grid(grid.angle_min, grid.angle_max, grid.steps, "angle"))
    expected = [value for rad in angles for value in decomposition_by_routes(rad, grid.counts)]
    assert [residual.hex() for _, _, residual in report.rows] == [x.hex() for x in expected]
    # with a halved denominator the same subnormal rows would read 0.0, not -inf
    subnormal = abs(math.sin(grid.angle_max)) < sys.float_info.min
    assert (-math.inf in expected) == subnormal

"""Tests for the two-line construction and its closed coordinate forms."""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trigsum import (
    MAX_DEGREE,
    Angle,
    ConstructionConfig,
    CountOutOfRange,
    DegreeTooLarge,
    ExcludedAngle,
    Line,
    SingularAngle,
    chebyshev_form_point,
    closed_form_point,
    construct_points,
    line_for_index,
    projection_sum,
    projection_sums,
    segment_direction_angles,
)

TWO_PI = 2.0 * math.pi

# Angles safely away from the excluded sets, spread over (0, 2 pi).
REGULAR_ANGLES = [0.11, 0.5, 0.9, 1.3, 2.0, 2.8, 3.5, 4.2, 5.0, 5.9]

# Angles where the construction degenerates: |cos a| or |sin a| below 1e-8.
EXCLUDED_ANGLES = [math.pi / 2, 3 * math.pi / 2, math.pi, TWO_PI, 1e-9]


def build(alpha, n, start=Line.X):
    return construct_points(ConstructionConfig(Angle(alpha), n, start))


def coords(seq):
    return [(p.x, p.y) for p in seq.points]


def circular_diff(a, b):
    d = (a - b) % TWO_PI
    return min(d, TWO_PI - d)


def test_pi_over_3_walk():
    # hand-computed: the walk closes onto the origin at step 3 and continues
    # to the mirrored unit point at step 4
    seq = build(math.pi / 3, 4)
    pts = coords(seq)
    expected = [
        (0.0, 0.0),
        (1.0, 0.0),
        (0.5, math.sqrt(3) / 2),
        (0.0, 0.0),
        (-0.5, -math.sqrt(3) / 2),
    ]
    for (x, y), (ex, ey) in zip(pts, expected):
        assert x == pytest.approx(ex, abs=1e-12)
        assert y == pytest.approx(ey, abs=1e-12)
    assert seq.tangency_events == ()
    assert [line_for_index(i, seq.start_line) for i in range(5)] == [
        Line.E, Line.X, Line.E, Line.X, Line.E]


def test_pi_over_4_tangency():
    # at a = pi/4 the second point sits at height 1, so the next unit circle
    # is tangent to line x and both roots of the step are A1
    seq = build(math.pi / 4, 3)
    assert seq.tangency_events == (3,)
    a2 = seq.points[2]
    assert a2.x == pytest.approx(1.0, abs=1e-12)
    assert a2.y == pytest.approx(1.0, abs=1e-12)
    a1, a3 = seq.points[1], seq.points[3]
    assert math.hypot(a3.x - a1.x, a3.y - a1.y) <= 1e-12


#: Angles whose walk comes near tangency: pi/4, pi/6 and 3 pi/10 reach
#: |sin(l a)| = 1 at some l, exactly and nudged off it. Of two angles of the
#: 500-angle projection grid, the first takes a tangent step (329) and the
#: second comes within a discriminant of 1.1e-9, just above TOL_TANGENT.
TANGENT_ANGLES = [
    *(base * scale for base in (math.pi / 4, math.pi / 6, 3 * math.pi / 10)
      for scale in (1.0, 1 + 3e-12)),
    5.7994949549726007,
    3.432784747214483,
]


@pytest.mark.parametrize("alpha", TANGENT_ANGLES)
def test_walk_through_tangent_steps_matches_mpmath(alpha):
    # A_l is (sin(l a) / sin a) times the direction of its line; a tangent
    # step that lands off the true root carries its error into every later point
    seq = build(alpha, 10**4)
    with mpmath.workprec(100):
        a = mpmath.mpf(alpha)
        cos_a, sin_a = mpmath.cos(a), mpmath.sin(a)
        for l, p in enumerate(seq.points):
            t = mpmath.sin(l * a) / sin_a
            x, y = (t, 0.0) if l % 2 else (t * cos_a, t * sin_a)
            assert abs(p.x - x) <= 1e-9 and abs(p.y - y) <= 1e-9, l


@pytest.mark.parametrize("alpha", EXCLUDED_ANGLES)
def test_excluded_angles(alpha):
    with pytest.raises(ExcludedAngle):
        build(alpha, 2)


def test_start_line_e():
    alpha = 0.8
    seq = build(alpha, 2, start=Line.E)
    a1 = seq.points[1]
    assert a1.x == pytest.approx(math.cos(alpha), abs=1e-15)
    assert a1.y == pytest.approx(math.sin(alpha), abs=1e-15)
    assert [line_for_index(i, seq.start_line) for i in range(3)] == [Line.X, Line.E, Line.X]


def test_line_for_index_parity():
    assert line_for_index(1, Line.X) is Line.X
    assert line_for_index(2, Line.X) is Line.E
    assert line_for_index(0, Line.X) is Line.E
    assert line_for_index(3, Line.E) is Line.E
    assert line_for_index(4, Line.E) is Line.X


def test_config_validation():
    with pytest.raises(ValueError):
        ConstructionConfig(Angle(1.0), 0)
    with pytest.raises(ValueError):
        Angle(math.inf)


@pytest.mark.parametrize("alpha", REGULAR_ANGLES)
def test_unit_segments_and_line_membership(alpha):
    seq = build(alpha, 120)
    sin_a, cos_a = math.sin(alpha), math.cos(alpha)
    prev = seq.points[0]
    for cur in seq.points[1:]:
        dx = cur.x - prev.x
        dy = cur.y - prev.y
        assert abs(math.hypot(dx, dy) - 1.0) <= 1e-10
        prev = cur
    for i, p in enumerate(seq.points):
        if line_for_index(i, seq.start_line) is Line.X:
            assert abs(p.y) <= 1e-10
        else:
            assert abs(cos_a * p.y - sin_a * p.x) <= 1e-10


def test_closed_form_examples():
    p = closed_form_point(math.pi / 3, 2)
    assert p.x == pytest.approx(0.5, abs=1e-15)
    assert p.y == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    p = closed_form_point(math.pi / 4, 2)
    assert p.x == pytest.approx(1.0, abs=1e-15)
    assert p.y == pytest.approx(1.0, abs=1e-15)
    # sin(6 * pi/6) vanishes, taking both coordinates with it
    p = closed_form_point(math.pi / 6, 6)
    assert abs(p.x) <= 1e-14
    assert abs(p.y) <= 1e-14


def test_closed_form_singular_angle():
    with pytest.raises(SingularAngle):
        closed_form_point(math.pi, 2)
    with pytest.raises(ValueError):
        closed_form_point(1.0, 0)


def test_chebyshev_form_point_check_order():
    # n, then the angle, then the degree n - 1
    with pytest.raises(ValueError, match="n must be"):
        chebyshev_form_point(math.inf, 0)
    with pytest.raises(ValueError, match="finite"):
        chebyshev_form_point(math.inf, MAX_DEGREE + 2)
    with pytest.raises(DegreeTooLarge):
        chebyshev_form_point(0.5, MAX_DEGREE + 2)


def test_chebyshev_form_examples():
    p = chebyshev_form_point(math.pi / 3, 2)
    assert p.x == pytest.approx(0.5, abs=1e-15)
    assert p.y == pytest.approx(math.sqrt(3) / 2, abs=1e-15)
    # cos(pi/2) zeroes both factors
    p = chebyshev_form_point(math.pi / 2, 2)
    assert abs(p.x) <= 1e-15
    assert abs(p.y) <= 1e-15
    p = chebyshev_form_point(math.pi / 4, 3)
    assert p.x == pytest.approx(math.sqrt(2) / 2, abs=1e-15)
    assert p.y == pytest.approx(math.sqrt(2) / 2, abs=1e-15)


@pytest.mark.parametrize("alpha", REGULAR_ANGLES)
def test_construction_matches_both_closed_forms(alpha):
    seq = build(alpha, 60)
    for n in range(2, 61, 2):
        built = seq.points[n]
        trig = closed_form_point(alpha, n)
        poly = chebyshev_form_point(alpha, n)
        assert built.x == pytest.approx(trig.x, abs=1e-9)
        assert built.y == pytest.approx(trig.y, abs=1e-9)
        assert built.x == pytest.approx(poly.x, abs=1e-9)
        assert built.y == pytest.approx(poly.y, abs=1e-9)


@given(st.sampled_from(REGULAR_ANGLES), st.integers(1, 40))
@settings(deadline=None)
def test_closed_forms_agree(alpha, n):
    trig = closed_form_point(alpha, n)
    poly = chebyshev_form_point(alpha, n)
    assert abs(trig.x - poly.x) <= 1e-9
    assert abs(trig.y - poly.y) <= 1e-9


def test_projection_onto_x_telescopes():
    seq = build(math.pi / 3, 4)
    assert projection_sum(seq, Line.X, 4) == pytest.approx(-0.5, abs=1e-12)
    assert projection_sum(seq, Line.X, 1) == 1.0
    for count in range(1, 5):
        assert projection_sum(seq, Line.X, count) == pytest.approx(
            seq.points[count].x, abs=1e-10
        )


def test_projection_onto_e_example():
    # cos a sin(3a) / sin a at a = pi/6 is sqrt(3)
    seq = build(math.pi / 6, 4)
    assert projection_sum(seq, Line.E, 3) == pytest.approx(math.sqrt(3), abs=1e-12)


@pytest.mark.parametrize("alpha", REGULAR_ANGLES)
def test_projection_onto_e_closed_form(alpha):
    seq = build(alpha, 31)
    for count in (1, 3, 7, 15, 31):
        expected = math.cos(alpha) * math.sin(count * alpha) / math.sin(alpha)
        assert projection_sum(seq, Line.E, count) == pytest.approx(expected, abs=1e-9)


def test_projection_count_bounds():
    seq = build(1.0, 3)
    with pytest.raises(CountOutOfRange):
        projection_sum(seq, Line.X, 0)
    with pytest.raises(CountOutOfRange):
        projection_sum(seq, Line.X, 4)


@pytest.mark.parametrize("start", list(Line))
@pytest.mark.parametrize("alpha", [math.pi / 4, -math.pi / 3, *REGULAR_ANGLES, 41.3])
def test_projection_sums_match_projection_sum(alpha, start):
    cfg = ConstructionConfig(Angle(alpha), 120, start)
    seq = construct_points(cfg)
    counts = (7, 1, 120, 7, 33, 2)
    for target in Line:
        running = projection_sums(cfg, target, counts)
        assert [x.hex() for x in running] == [
            projection_sum(seq, target, c).hex() for c in counts
        ]


def test_projection_sums_count_bounds():
    cfg = ConstructionConfig(Angle(1.0), 3)
    with pytest.raises(CountOutOfRange):
        projection_sums(cfg, Line.X, (1, 0))
    with pytest.raises(CountOutOfRange):
        projection_sums(cfg, Line.X, (4,))


@pytest.mark.parametrize("alpha", EXCLUDED_ANGLES)
def test_projection_sums_reject_excluded_angle(alpha):
    with pytest.raises(ExcludedAngle):
        projection_sums(ConstructionConfig(Angle(alpha), 5), Line.X, (1, 5))


def test_projection_sums_check_order():
    # the counts, then the target line, then the angle
    cfg = ConstructionConfig(Angle(math.pi / 2), 5)
    with pytest.raises(CountOutOfRange):
        projection_sums(cfg, "bogus", (6,))
    with pytest.raises(ValueError, match="bogus"):
        projection_sums(cfg, "bogus", (5,))


def test_direction_angles_pi_over_3():
    seq = build(math.pi / 3, 3)
    angles = segment_direction_angles(seq)
    assert angles[0] == 0.0
    assert angles[1] == pytest.approx(2 * math.pi / 3, abs=1e-12)
    assert angles[2] == pytest.approx(4 * math.pi / 3, abs=1e-12)


def test_fourth_segment_direction_at_pi_over_6():
    seq = build(math.pi / 6, 4)
    angles = segment_direction_angles(seq)
    assert circular_diff(angles[3], 4 * math.pi / 6) <= 1e-12


@pytest.mark.parametrize("alpha", REGULAR_ANGLES)
def test_direction_angle_law(alpha):
    # segment 1 points along x; even segments point at l*a, odd ones at -(l-1)*a
    seq = build(alpha, 24)
    angles = segment_direction_angles(seq)
    assert angles[0] == 0.0
    for l in range(2, 25):
        expected = l * alpha if l % 2 == 0 else -(l - 1) * alpha
        assert circular_diff(angles[l - 1], expected % TWO_PI) <= 1e-9


def test_direction_angles_stay_below_two_pi():
    # segment 14 at pi/7 has dy = -2.4e-16: atan2 returns -2.4e-16, which a
    # plain `% 2 pi` rounds up to exactly 2 pi
    angles = segment_direction_angles(build(math.pi / 7, 14))
    assert all(0.0 <= angle < TWO_PI for angle in angles)
    assert angles[13] == 0.0


def test_csv_serialization():
    seq = build(math.pi / 4, 3)
    text = seq.to_csv()
    lines = text.splitlines()
    assert lines[0] == "index,line,x,y"
    assert len(lines) == 5
    assert text.endswith("\n")
    index, line, x, y = lines[3].split(",")
    assert (index, line) == ("2", "e")
    assert float(x) == seq.points[2].x
    assert float(y) == seq.points[2].y
    # serialization is a pure function of the sequence
    assert seq.to_csv() == text


def test_segment_count():
    assert build(1.0, 7).segment_count == 7

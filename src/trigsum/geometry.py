"""Recursive two-line unit-segment construction and its closed coordinate forms.

Two lines meet at the origin with opening angle a: the x axis and a line e
with unit direction (cos a, sin a). A_0 is the origin and A_1 sits one unit
along the start line; every later point A_l lies on the line of its parity
(the lines alternate) at unit distance from A_{l-1}, choosing the circle-line
intersection farther from A_{l-2}. The signed position of each point along
its own line then follows the second-kind Chebyshev recurrence, which is what
the closed-form coordinate functions evaluate directly.
"""

from __future__ import annotations

import math
from enum import Enum
from itertools import cycle, islice
from typing import Iterable, Iterator, Sequence

from .angle import Angle, Record, _index, _isfinite, as_angle, as_count, int_text
from .chebyshev import _check_degree, _u, chebyshev_u  # perfbench patches chebyshev_u here
from .errors import CountOutOfRange, ExcludedAngle, SingularAngle
from .formatting import csv_text, json_line

#: Rejection tolerance for degenerate opening angles. Near |cos a| = 0 every
#: second point falls back onto A_0 or A_1; near |sin a| = 0 the two lines
#: coincide and the alternating rule is ill-defined.
EPSILON_EXCLUDE = 1e-8

#: Tangency threshold on the circle-line discriminant. Below it a step takes
#: the other root from the sum of the roots, not from the square root, whose
#: rounding error grows like eps/sqrt(disc) as the circle nears tangency.
TOL_TANGENT = 1e-10

TWO_PI = 2.0 * math.pi


class Line(Enum):
    """The two construction lines; serialized as "x" and "e"."""

    X = "x"
    E = "e"


class Point2(Record):
    """A plane point with finite coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        if not (_isfinite(x) and _isfinite(y)):
            raise ValueError(f"coordinates must be finite, got ({x!r}, {y!r})")
        _set_x(self, x)
        _set_y(self, y)


_set_x, _set_y = Point2.x.__set__, Point2.y.__set__


class ConstructionConfig(Record):
    """Inputs of a construction run; n, the number of points beyond A_0, goes
    through as_count and start_line through Line(start_line)."""

    __slots__ = ("alpha", "n", "start_line")

    def __init__(self, alpha: Angle, n: int, start_line: Line | str = Line.X) -> None:
        alpha, n = as_angle(alpha), as_count(n, "n")
        self._set(alpha, n, start_line if start_line.__class__ is Line else Line(start_line))


class PointSeq(Record):
    """An ordered construction run A_0 .. A_n.

    points[l] is A_l; it lies on line_for_index(l, start_line).
    tangency_events lists the step indices l whose step circle was tangent to
    the target line within TOL_TANGENT: there both roots lie next to A_{l-2},
    and the step takes A_l from their sum.
    """

    __slots__ = ("alpha", "start_line", "points", "tangency_events")

    def __init__(self, alpha: Angle, start_line: Line, points: tuple[Point2, ...],
                 tangency_events: tuple[int, ...]) -> None:
        self._set(alpha, start_line, points, tangency_events)

    @property
    def segment_count(self) -> int:
        return len(self.points) - 1

    def _rows(self) -> Iterator[tuple[int, str, float, float]]:
        lines = [line.value for line in _parity_lines(self.start_line)]
        return ((index, lines[index % 2], p.x, p.y) for index, p in enumerate(self.points))

    def to_csv(self) -> str:
        """Serialize as CSV rows index,line,x,y ordered by index."""
        return csv_text("index,line,x,y", self._rows())

    def to_json(self) -> str:
        """One-line JSON: alpha, start_line, the points as [index, line, x, y]
        in index order, and tangency_events."""
        return json_line({"alpha": self.alpha.radians, "start_line": self.start_line.value,
                          "points": list(self._rows()), "tangency_events": self.tangency_events})


def line_for_index(index: int, start_line: Line | str) -> Line:
    """Parity rule: A_1 sits on start_line and the lines alternate.

    A_0 is the intersection point and lies on both lines; it is labeled with
    the even-parity line for consistency.
    """
    index = as_count(index, "index", least=0)
    even, odd = _parity_lines(Line(start_line))
    return odd if index % 2 == 1 else even


def _parity_lines(start_line: Line) -> tuple[Line, Line]:
    """The lines of even- and odd-index points, for a start_line member."""
    return (Line.E if start_line is Line.X else Line.X), start_line


def _direction(line: Line, cos_a: float, sin_a: float) -> tuple[float, float]:
    """Unit direction of a line; line e points along (cos a, sin a) always."""
    if line is Line.X:
        return 1.0, 0.0
    return cos_a, sin_a


def _cos_sin(rad: float) -> tuple[float, float]:
    """(cos a, sin a), or ExcludedAngle where |cos a| or |sin a| < EPSILON_EXCLUDE."""
    cos_a, sin_a = math.cos(rad), math.sin(rad)
    if abs(cos_a) < EPSILON_EXCLUDE:
        raise ExcludedAngle(f"|cos(alpha)| = {abs(cos_a):.3e} < {EPSILON_EXCLUDE:.3e}: "
                            "every second point would fall back onto A0/A1")
    if abs(sin_a) < EPSILON_EXCLUDE:
        raise ExcludedAngle(f"|sin(alpha)| = {abs(sin_a):.3e} < {EPSILON_EXCLUDE:.3e}: "
                            "the two lines coincide")
    return cos_a, sin_a


def _walk(cos_a: float, sin_a: float, n: int,
          start_line: Line) -> Iterator[tuple[float, float, bool]]:
    """The construction core: the plane points A_0 .. A_n, for a checked
    (cos a, sin a), as (x, y, is_tangent).

    At each step the current point sits at signed coordinate s = prev on the
    other line; a candidate at coordinate t on the target line is at unit
    distance exactly when t^2 - 2 t s cos(a) + s^2 - 1 = 0 (both lines pass
    through the origin with opening angle a). A_{l-2} is itself a root of
    this quadratic, so preferring the intersection farther from it picks the
    other root. Where the discriminant is below TOL_TANGENT that root is
    2 s cos(a) - t_{l-2}, from the sum of the roots. A_1 lies on start_line
    and the lines alternate, so each t is placed along its line's direction.
    """
    tol_tangent = TOL_TANGENT  # read at every step, so bound as a local
    even, odd = (_direction(line, cos_a, sin_a) for line in _parity_lines(start_line))
    prev2, prev = 0.0, 1.0
    yield prev2 * even[0], prev2 * even[1], False
    yield prev * odd[0], prev * odd[1], False
    for dx, dy in islice(cycle((even, odd)), n - 1):
        proj = prev * cos_a
        perp = prev * sin_a  # signed distance from the current point to the target line
        disc = 1.0 - perp * perp  # squared half-chord
        tangent = disc < tol_tangent
        if tangent:
            t = 2.0 * proj - prev2
        else:
            half = math.sqrt(disc)
            lo, hi = proj - half, proj + half
            t = hi if abs(hi - prev2) >= abs(lo - prev2) else lo
        yield t * dx, t * dy, tangent
        prev2, prev = prev, t


def construct_points(cfg: ConstructionConfig) -> PointSeq:
    """Run the construction and return the n+1 points with tangency events.

    Opening angles where the construction degenerates (|cos a| or |sin a|
    below EPSILON_EXCLUDE) raise ExcludedAngle before any step runs. Every
    step has a root; the index of each tangent step is recorded.
    """
    cos_a, sin_a = _cos_sin(cfg.alpha.radians)
    points = []
    tangencies: list[int] = []
    for index, (x, y, tangent) in enumerate(_walk(cos_a, sin_a, cfg.n, cfg.start_line)):
        if tangent:
            tangencies.append(index)
        points.append(Point2(x, y))
    return PointSeq(cfg.alpha, cfg.start_line, tuple(points), tuple(tangencies))


def closed_form_point(alpha: Angle | float, n: int) -> Point2:
    """Trigonometric coordinates (cot a * sin(n a), sin(n a)).

    This is the on-line-e form: under the A_1-on-x convention it gives A_n
    for even n. It evaluates for any n >= 1 where n a is a finite float;
    callers enforce the parity convention. Undefined where sin a vanishes
    (SingularAngle); where n a overflows a float, CountOutOfRange names n.
    """
    n = as_count(n, "n")
    rad = as_angle(alpha).radians
    sin_a = math.sin(rad)
    if abs(sin_a) < EPSILON_EXCLUDE:
        raise SingularAngle(f"|sin(alpha)| = {abs(sin_a):.3e}: cot(alpha) undefined")
    try:
        sin_na = math.sin(n * rad)
    except (ValueError, OverflowError):  # n * a is inf, or n has no float
        raise CountOutOfRange(f"{int_text(n, 'n')} is too large: n times alpha overflows "
                              f"a float at alpha = {rad!r}") from None
    return Point2(math.cos(rad) / sin_a * sin_na, sin_na)


def chebyshev_form_point(alpha: Angle | float, n: int) -> Point2:
    """Polynomial coordinates (cos a * U_{n-1}(cos a), sin a * U_{n-1}(cos a)).

    Total in a (no singularity); equals closed_form_point wherever both are
    defined.
    """
    n = as_count(n, "n")
    rad = as_angle(alpha).radians
    cos_a = math.cos(rad)
    u = _u(_check_degree(n - 1), cos_a)
    return Point2(cos_a * u, math.sin(rad) * u)


def projection_sum(seq: PointSeq, target: Line | str, count: int) -> float:
    """Signed scalar projections of the first count segments onto target.

    Each segment A_{l-1} -> A_l is projected onto the unit direction of the
    target line and the projections are accumulated in index order. Onto
    line x the sum telescopes to the x-coordinate of A_count.
    """
    count = _index(count)
    if count < 1 or count > seq.segment_count:
        raise CountOutOfRange(
            f"count must be in 1..{seq.segment_count}, got {int_text(count)}"
        )
    rad = seq.alpha.radians
    dx, dy = _direction(Line(target), math.cos(rad), math.sin(rad))
    total = 0.0
    pts = seq.points
    for l in range(1, count + 1):
        sx = pts[l].x - pts[l - 1].x
        sy = pts[l].y - pts[l - 1].y
        total += sx * dx + sy * dy
    return total


def projection_sums(cfg: ConstructionConfig, target: Line | str,
                    counts: Sequence[int]) -> list[float]:
    """projection_sum at each of counts, from one walk of the construction.

    The walk runs the construction steps up to cfg.n and accumulates the same
    per-segment projections as projection_sum on construct_points(cfg), so
    each returned value has the exact bits of projection_sum at that count,
    without building the points. counts may be unsorted and repeat; the
    result follows their order. Memory is one float per distinct count.
    """
    counts = tuple(map(_index, counts))
    if any(count < 1 or count > cfg.n for count in counts):
        raise CountOutOfRange(f"counts must be in 1..{cfg.n}, got {int_text(counts)}")
    totals = _projection_totals(cfg.alpha.radians, cfg.n, cfg.start_line, Line(target),
                                sorted(set(counts)))
    return [totals[count] for count in counts]


def _projection_totals(rad: float, n: int, start_line: Line, target: Line,
                       wanted: Iterable[int]) -> dict[int, float]:
    """The core of projection_sums, on checked arguments: the running total of
    the segment projections onto target at each wanted index of one walk to n.

    wanted holds distinct indices in 1..n in increasing order. The walk goes
    one segment run per wanted index, up to it, and stops at the last one;
    each segment's projection is added in index order, as projection_sum does.
    """
    cos_a, sin_a = _cos_sin(rad)
    tx, ty = _direction(target, cos_a, sin_a)
    totals: dict[int, float] = {}
    total = 0.0
    points = _walk(cos_a, sin_a, n, start_line)
    px, py, _ = next(points)
    done = 0
    for index in wanted:
        for x, y, _ in islice(points, index - done):
            total += (x - px) * tx + (y - py) * ty
            px, py = x, y
        totals[index] = total
        done = index
    return totals


def segment_direction_angles(seq: PointSeq) -> list[float]:
    """Direction angle of each segment A_{l-1} -> A_l, reduced to [0, 2 pi).

    With A_1 on line x the angles follow l*a (even l) and -(l-1)*a (odd l)
    modulo 2 pi, which is the testable form of the isosceles-triangle
    rotation pattern at the vertices.
    """
    out = []
    for prev, cur in zip(seq.points, seq.points[1:]):
        ang = math.atan2(cur.y - prev.y, cur.x - prev.x) % TWO_PI
        # a tiny negative atan2 rounds up to 2 pi here, the direction of 0
        out.append(0.0 if ang == TWO_PI else ang)
    return out

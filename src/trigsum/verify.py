"""Grid sweeps measuring residuals between independent evaluation routes.

Every pair puts two computations of the same quantity side by side (closed
form vs literal sum, two closed forms against each other, or the geometric
simulation vs its closed coordinate) over a uniform angle grid times a list
of term counts. Points where the pair's denominator magnitude falls below
the guard are skipped and counted, so a report always accounts for the full
grid cardinality. Reports serialize deterministically: identical inputs give
byte-identical CSV and JSON.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from . import kernels
from .angle import Record, as_counts, inclusive_grid
from .errors import EmptyGrid, TrigsumError
from .formatting import csv_text, json_line

DEFAULT_GUARD = 0.01


class ResidualPair(Enum):
    """Named pairs of evaluation routes for the same sum or coordinate."""

    LAGRANGE_VS_NAIVE = "LagrangeVsNaive"
    HALFANGLE_VS_NAIVE = "HalfangleVsNaive"
    LAGRANGE_VS_HALFANGLE = "LagrangeVsHalfangle"
    EVEN_VS_NAIVE = "EvenVsNaive"
    ODD_VS_NAIVE = "OddVsNaive"
    PROJECTION_VS_CLOSED_FORM = "ProjectionVsClosedForm"
    DECOMPOSITION_VS_HALFANGLE = "DecompositionVsHalfangle"


class GridSpec(Record):
    """A uniform inclusive angle grid crossed with a list of term counts.

    guard is the minimum denominator magnitude a grid angle must clear for
    the pair under sweep; angles below it are skipped and counted. Its
    default is the module constant DEFAULT_GUARD; GridSpec.guard is a slot.
    """

    __slots__ = ("angle_min", "angle_max", "steps", "counts", "guard")

    def __init__(self, angle_min: float, angle_max: float, steps: int,
                 counts: Iterable[int], guard: float = DEFAULT_GUARD) -> None:
        counts = as_counts(counts)
        inclusive_grid(angle_min, angle_max, steps, "angle")
        if not counts:
            raise ValueError("counts must be non-empty")
        if not (math.isfinite(guard) and guard >= 0.0):
            raise ValueError(f"guard must be finite and >= 0, got {guard}")
        self._set(angle_min, angle_max, steps, counts, guard)


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate residual statistics of one sweep, plus optional rows."""

    pair: ResidualPair
    evaluated: int
    skipped: int
    max_abs_residual: float
    mean_abs_residual: float
    argmax_angle: float
    argmax_count: int
    rows: tuple[tuple[float, int, float], ...] | None = None

    def to_json(self) -> str:
        """One-line JSON summary, floats with 17 significant digits."""
        return json_line({
            "pair": self.pair.value,
            "evaluated": self.evaluated,
            "skipped": self.skipped,
            "max_abs_residual": self.max_abs_residual,
            "mean_abs_residual": self.mean_abs_residual,
            "argmax_angle": self.argmax_angle,
            "argmax_count": self.argmax_count,
        })

    def to_csv(self) -> str:
        """Per-point rows as CSV; requires the sweep to have kept rows."""
        if self.rows is None:
            raise ValueError("rows were not retained for this sweep")
        name = self.pair.value
        return csv_text("pair,angle,count,residual", ((name, *row) for row in self.rows))


# Each pair's entry prepares the pair for a sweep's counts, once, and returns
# the rule that maps (radians, guard) to the residuals at every count. A rule
# checks all of the pair's denominators before it evaluates either side and
# raises TrigsumError when one is below the guard or exactly zero: the sweep
# then skips the whole angle.

_Rule = Callable[[float, float], list[float]]
_Prepare = Callable[[Sequence[int]], _Rule]


def _route_pair(first: str, second: str) -> _Prepare:
    """Route first against route second, or against the literal sum of
    first's family (one ordered pass up to max(counts), planned once per
    sweep) when second is kernels.NAIVE."""
    routes = [kernels.ROUTES[name] for name in (first, second) if name != kernels.NAIVE]
    evaluate = routes[0].evaluate

    def prepare(counts: Sequence[int]) -> _Rule:
        plan = kernels.RunningSumPlan(routes[0].family, counts) if second == kernels.NAIVE else None
        mults = [list(map(route.multiplier, counts)) for route in routes]

        def rule(rad: float, guard: float) -> list[float]:
            dens = [route.checked(rad, guard) for route in routes]
            # the closed side first, so a count no float can hold raises
            # before the O(max(counts)) oracle pass
            closed = evaluate(rad, dens[0], mults[0])
            other = plan(rad) if plan is not None else routes[1].evaluate(rad, dens[1], mults[1])
            return [a - b for a, b in zip(closed, other)]

        return rule

    return prepare


def _projection_vs_closed_form(counts: Sequence[int]) -> _Rule:
    from . import geometry  # the one pair that walks the construction

    # The x-projections of the first 2k+2 segments telescope to the terminal
    # abscissa, whose closed form is the identity's right-hand side. One
    # construction walk, to the largest n, serves every count. The closed
    # side runs first, so a count no float can hold raises before the walk.
    terminal = kernels.ROUTES["x_terminal"]
    mults = list(map(terminal.multiplier, counts))
    ns = [2 * k + 2 for k in counts]
    wanted = sorted(set(ns))

    def rule(rad: float, guard: float) -> list[float]:
        den = terminal.checked(rad, guard)
        kernels._guard(math.cos(rad), guard, "cos(alpha)")
        rhs = terminal.evaluate(rad, den, mults)
        totals = geometry._projection_totals(rad, geometry.Line.X, geometry.Line.X, wanted)
        return [totals[n] - r for n, r in zip(ns, rhs)]

    return rule


def _decomposition_vs_halfangle(counts: Sequence[int]) -> _Rule:
    """even + odd at count k against the full whole-angle form at 2k.

    All three routes divide by d = sin(alpha). Where d is a normal double the
    rule divides by h = 2d instead of halving each quotient, which keeps every
    bit: doubling d is exact, (0.5 s2) / d and s2 / h round the same real
    quotient, and fl(s1 / h) = fl(s1 / d) / 2 and fl(q / 2 - 0.5) =
    fl(q - 1) / 2, because scaling by a power of two commutes with rounding.
    That holds until a result overflows or underflows, and neither can while
    d is normal: |s| <= 1, and s2 is normal whenever d is.
    """
    routes = [kernels.ROUTES[name] for name in ("even", "odd", "halfangle")]
    # The even and odd routes' multipliers, 2k+1 and 2k (see kernels.ROUTES)
    odd_mults, even_mults = (list(map(route.multiplier, counts)) for route in routes[:2])
    sin = math.sin
    normal_min = sys.float_info.min

    def rule(rad: float, guard: float) -> list[float]:
        d_even, d_odd, d_whole = [route.checked(rad, guard) for route in routes]
        # A subnormal d (reachable only with a guard below 2**-1022) keeps the
        # routes' own expressions: there (s1 + s2) / d can overflow where
        # (s1 + s2) / 2d does not, so the forms differ (at a = 5e-324 or
        # 1e-310, guard 0, counts from 1e300 to 8e307: -inf against 0.0).
        if abs(d_whole) >= normal_min:
            h = 2.0 * d_whole
            return [
                (((s1 := sin(o * rad)) / h - 0.5) + (s2 := sin(e * rad)) / h)
                - ((s1 + s2) / h - 0.5)
                for o, e in zip(odd_mults, even_mults)
            ]
        # ROUTES' even, odd and halfangle (m = 2k) bodies in their operation
        # order; (m + 1)*rad at m = 2k is the even body's (2k + 1)*rad
        return [
            (0.5 * ((s1 := sin(o * rad)) / d_even - 1.0) + 0.5 * (s2 := sin(e * rad)) / d_odd)
            - 0.5 * ((s1 + s2) / d_whole - 1.0)
            # zip reuses its pair tuple, so no (2k+1, 2k) tuples are kept per count
            for o, e in zip(odd_mults, even_mults)
        ]

    return rule


_PAIR_RULES: dict[ResidualPair, _Prepare] = {
    ResidualPair.LAGRANGE_VS_NAIVE: _route_pair("lagrange", kernels.NAIVE),
    ResidualPair.HALFANGLE_VS_NAIVE: _route_pair("halfangle", kernels.NAIVE),
    ResidualPair.LAGRANGE_VS_HALFANGLE: _route_pair("lagrange", "halfangle"),
    ResidualPair.EVEN_VS_NAIVE: _route_pair("even", kernels.NAIVE),
    ResidualPair.ODD_VS_NAIVE: _route_pair("odd", kernels.NAIVE),
    ResidualPair.PROJECTION_VS_CLOSED_FORM: _projection_vs_closed_form,
    ResidualPair.DECOMPOSITION_VS_HALFANGLE: _decomposition_vs_halfangle,
}


def residual_sweep(
    grid: GridSpec, pair: ResidualPair | str, *, keep_rows: bool = False
) -> ResidualReport:
    """Evaluate a pair over the grid and aggregate |residual| statistics.

    The pair is prepared once per sweep for the grid's counts, so every
    per-count constant is computed once: each route's multipliers
    (Route.multiplier: what its body multiplies the angle by, a float, or
    the int from 2**53 on, so each product keeps the int count's bits and a
    count no float can hold raises OverflowError at the first evaluated
    angle), the running-sum plan of the ...VsNaive pairs
    (kernels.RunningSumPlan: the distinct counts, runs of one-term gaps as
    float multipliers, a range per other gap, the read-off position of each
    count, none where the counts are distinct and increasing) and the
    construction's sorted lengths n = 2k + 2. Each angle then costs the
    pair's denominators and their guard once, one call per route body over
    all the prepared multipliers, the closed side first, so such a count
    raises before the other side runs; one ordered naive pass up to
    max(counts) for the oracle pairs; one construction walk up to
    n = 2 max(counts) + 2 for the projection pair, in geometry's private
    loop (no generator, no Angle, ConstructionConfig or count check per
    angle, and _walk's expressions in their order); and two sines per
    count, sin((2k+1) a) and sin(2k a), shared by
    DecompositionVsHalfangle's three closed forms, which divide by 2 sin(a)
    instead of halving wherever sin(a) is a normal double: an exact
    rewrite, with the same bits (see the rule). Plan memory is
    O(len(counts)), and so is memory per angle. An angle's closed forms and
    residuals run in list comprehensions, which on CPython 3.11 run as
    specialized bytecode. The statistics accumulate point by point in grid
    order: abs_sum by += left to right, never sum() (which compensates from
    Python 3.12 on) or math.fsum, and the argmax is the first point that
    strictly exceeds the running maximum, looked up only at an angle that
    raises it. So every report is byte for byte the one a per-point
    evaluation of the same pair gives.

    Per-point rows are kept, in canonical order (angle-major, count-minor),
    only when keep_rows is true; otherwise rows is None at any grid size.
    An angle whose denominator is below the guard, or whose evaluation
    raises a domain error (possible only with guard below the kernels'
    exact-zero check or the construction's exclusion rule), counts all its
    grid points as skipped, so evaluated + skipped always equals the grid
    size. Every such error depends on the angle alone.
    """
    pair = ResidualPair(pair)
    counts = grid.counts
    width = len(counts)
    rule = _PAIR_RULES[pair](counts)
    guard = grid.guard
    rows: list[tuple[float, int, float]] | None = [] if keep_rows else None

    evaluated = 0
    skipped = 0
    abs_sum = 0.0
    max_abs = -1.0
    argmax_angle = math.nan
    argmax_count = 0
    for rad in inclusive_grid(grid.angle_min, grid.angle_max, grid.steps, "angle"):
        try:
            residuals = rule(rad, guard)
        except TrigsumError:
            skipped += width
            continue
        evaluated += width
        top = max_abs
        for magnitude in map(abs, residuals):
            abs_sum += magnitude
            if magnitude > top:
                top = magnitude
        if top > max_abs:  # the first point of the angle at its top sets the argmax
            max_abs = top
            argmax_angle = rad
            argmax_count = counts[[*map(abs, residuals)].index(top)]
        if rows is not None:
            rows += [(rad, count, residual) for count, residual in zip(counts, residuals)]
    if evaluated == 0:
        raise EmptyGrid(f"all {skipped} grid points were guarded out")
    return ResidualReport(
        pair=pair,
        evaluated=evaluated,
        skipped=skipped,
        max_abs_residual=max_abs,
        mean_abs_residual=abs_sum / evaluated,
        argmax_angle=argmax_angle,
        argmax_count=argmax_count,
        rows=tuple(rows) if rows is not None else None,
    )

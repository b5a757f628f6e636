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
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Sequence

from . import kernels
from .angle import Angle, as_angle, inclusive_grid
from .errors import EmptyGrid, SingularDenominator, TrigsumError
from .formatting import csv_text, json_line


class ResidualPair(Enum):
    """Named pairs of evaluation routes for the same sum or coordinate."""

    LAGRANGE_VS_NAIVE = "LagrangeVsNaive"
    HALFANGLE_VS_NAIVE = "HalfangleVsNaive"
    LAGRANGE_VS_HALFANGLE = "LagrangeVsHalfangle"
    EVEN_VS_NAIVE = "EvenVsNaive"
    ODD_VS_NAIVE = "OddVsNaive"
    PROJECTION_VS_CLOSED_FORM = "ProjectionVsClosedForm"
    DECOMPOSITION_VS_HALFANGLE = "DecompositionVsHalfangle"


@dataclass(frozen=True)
class GridSpec:
    """A uniform inclusive angle grid crossed with a list of term counts.

    guard is the minimum denominator magnitude a grid angle must clear for
    the pair under sweep; angles below it are skipped and counted.
    """

    angle_min: float
    angle_max: float
    steps: int
    counts: tuple[int, ...]
    guard: float = 0.01

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(self.counts))
        inclusive_grid(self.angle_min, self.angle_max, self.steps, "angle", nonfinite=ValueError)
        if not self.counts:
            raise ValueError("counts must be non-empty")
        if any(c < 1 for c in self.counts):
            raise ValueError(f"counts must all be >= 1, got {self.counts}")
        if not (math.isfinite(self.guard) and self.guard >= 0.0):
            raise ValueError(f"guard must be finite and >= 0, got {self.guard}")

    def angles(self) -> list[float]:
        """The grid angles, endpoint-inclusive, in increasing order."""
        return list(inclusive_grid(self.angle_min, self.angle_max, self.steps, "angle"))


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


# Each pair rule maps (angle, guard, counts) to the residuals at every count.
# It checks all of the pair's denominators before it evaluates either side and
# raises TrigsumError when one is below the guard or exactly zero: the sweep
# then skips the whole angle.

_Rule = Callable[[Angle, float, Sequence[int]], list[float]]


def _route_pair(first: str, second: str) -> _Rule:
    """Route first against route second, or against the literal sum of
    first's family (one ordered pass up to max(counts)) when second is
    kernels.NAIVE."""
    routes = [kernels.ROUTES[name] for name in (first, second) if name != kernels.NAIVE]
    evaluates = [route.evaluate for route in routes]

    def rule(angle: Angle, guard: float, counts: Sequence[int]) -> list[float]:
        rad = angle.radians
        dens = [route.checked(rad, guard) for route in routes]
        sides = [[evaluate(rad, den, c) for c in counts] for evaluate, den in zip(evaluates, dens)]
        if second == kernels.NAIVE:
            sides.append(kernels.naive_running_sums(angle, routes[0].family, counts))
        return [a - b for a, b in zip(*sides)]

    return rule


def _projection_vs_closed_form(angle: Angle, guard: float, counts: Sequence[int]) -> list[float]:
    from . import geometry  # the one pair that walks the construction

    # The x-projections of the first 2k+2 segments telescope to the terminal
    # abscissa, whose closed form is the identity's right-hand side. One
    # construction walk, to the largest n, serves every count. The closed
    # side runs first, so a count no float can hold raises before the walk.
    rad = angle.radians
    terminal = kernels.ROUTES["x_terminal"]
    den = terminal.checked(rad, guard)
    kernels._guard(math.cos(rad), guard, "cos(alpha)")
    rhs = [terminal.evaluate(rad, den, k) for k in counts]
    ns = [2 * k + 2 for k in counts]
    cfg = geometry.ConstructionConfig(angle, max(ns))
    lhs = geometry.projection_sums(cfg, geometry.Line.X, ns)
    return [x - r for x, r in zip(lhs, rhs)]


def _decomposition_vs_halfangle(angle: Angle, guard: float, counts: Sequence[int]) -> list[float]:
    # even + odd at count k against the full whole-angle form at 2k
    rad = angle.radians
    d_even, d_odd, d_whole = [
        kernels.ROUTES[name].checked(rad, guard) for name in ("even", "odd", "halfangle")
    ]
    sin = math.sin
    residuals = []
    for k in counts:
        s1 = sin((2 * k + 1) * rad)
        s2 = sin(2 * k * rad)
        # ROUTES' even, odd and halfangle (m = 2k) bodies in their operation
        # order; (m + 1)*rad at m = 2k is the even body's (2k + 1)*rad
        residuals.append(
            (0.5 * (s1 / d_even - 1.0) + 0.5 * s2 / d_odd) - 0.5 * ((s1 + s2) / d_whole - 1.0)
        )
    return residuals


_PAIR_RULES: dict[ResidualPair, _Rule] = {
    ResidualPair.LAGRANGE_VS_NAIVE: _route_pair("lagrange", kernels.NAIVE),
    ResidualPair.HALFANGLE_VS_NAIVE: _route_pair("halfangle", kernels.NAIVE),
    ResidualPair.LAGRANGE_VS_HALFANGLE: _route_pair("lagrange", "halfangle"),
    ResidualPair.EVEN_VS_NAIVE: _route_pair("even", kernels.NAIVE),
    ResidualPair.ODD_VS_NAIVE: _route_pair("odd", kernels.NAIVE),
    ResidualPair.PROJECTION_VS_CLOSED_FORM: _projection_vs_closed_form,
    ResidualPair.DECOMPOSITION_VS_HALFANGLE: _decomposition_vs_halfangle,
}


def residual_sweep(
    grid: GridSpec, pair: ResidualPair, *, keep_rows: bool = False
) -> ResidualReport:
    """Evaluate a pair over the grid and aggregate |residual| statistics.

    The pair is evaluated per angle, not per grid point: its denominators
    and their guard once, one ordered naive pass up to max(counts) for the
    oracle pairs, and one construction walk up to n = 2 max(counts) + 2 for
    the projection pair. DecompositionVsHalfangle costs two sines per count,
    sin((2k+1) a) and sin(2k a), shared by its three closed forms. Memory
    per angle is O(len(counts)).

    Per-point rows are kept, in canonical order (angle-major, count-minor),
    only when keep_rows is true; otherwise rows is None at any grid size.
    An angle whose denominator is below the guard, or whose evaluation
    raises a domain error (possible only with guard below the kernels'
    exact-zero check or the construction's exclusion rule), counts all its
    grid points as skipped, so evaluated + skipped always equals the grid
    size. Every such error depends on the angle alone, except
    ConstructionImpossible, which is unreachable for admissible angles:
    should it occur, the whole angle is skipped, also the counts whose
    shorter walks stop before the failing step.
    """
    rule = _PAIR_RULES[pair]
    counts = grid.counts
    rows: list[tuple[float, int, float]] | None = [] if keep_rows else None

    evaluated = 0
    skipped = 0
    abs_sum = 0.0
    max_abs = -1.0
    argmax_angle = math.nan
    argmax_count = 0
    for rad in grid.angles():
        angle = Angle(rad)
        try:
            residuals = rule(angle, grid.guard, counts)
        except TrigsumError:
            skipped += len(counts)
            continue
        evaluated += len(counts)
        for count, residual in zip(counts, residuals):
            magnitude = abs(residual)
            abs_sum += magnitude
            if magnitude > max_abs:
                max_abs = magnitude
                argmax_angle = rad
                argmax_count = count
            if rows is not None:
                rows.append((rad, count, residual))
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


@dataclass(frozen=True)
class MethodComparison:
    """One method's value and signed residual against the literal sum."""

    method: str
    value: float | None
    residual: float | None
    skipped_reason: str | None = None


def compare_methods(phi: Angle | float, m: int) -> list[MethodComparison]:
    """Evaluate every applicable route for the full-family sum at (phi, m).

    Always reports the naive sum and both closed forms; for even m also the
    even+odd split at k = m/2. Routes whose denominator guard trips are
    reported as skipped with the reason instead of raising.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    rad = as_angle(phi).radians
    oracle = kernels.naive_trig_sum(kernels.SumSpec(Angle(rad), m, kernels.Family.FULL))
    out = [MethodComparison(kernels.NAIVE, oracle, 0.0)]

    routes, threshold = kernels.ROUTES, kernels.DEFAULT_THRESHOLD
    closed = {name: partial(routes[name], rad, m, threshold) for name in kernels.FULL_FORMS}
    if m % 2 == 0:
        k = m // 2
        closed["decomposition"] = (
            lambda: routes["even"](rad, k, threshold) + routes["odd"](rad, k, threshold)
        )
    for name, fn in closed.items():
        try:
            value = fn()
        except SingularDenominator as exc:
            out.append(MethodComparison(name, None, None, str(exc)))
        else:
            out.append(MethodComparison(name, value, value - oracle))
    return out

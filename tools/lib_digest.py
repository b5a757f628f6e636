"""Digest what the trigsum library of a source tree returns, call by call.

    python tools/lib_digest.py TREE
    diff <(python tools/lib_digest.py A) <(python tools/lib_digest.py B)

Imports trigsum from TREE/src and evaluates a fixed list of calls, each a
Python expression over trigsum's public names. Prints one line per call: the
call, then what it gave: the .hex() of each float it returns (a method by its
name), a sha256 of any writer text, or `ExceptionType: message`. Two trees
whose libraries return the same bits print the same lines. Uses the standard
library only.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from pathlib import Path

from cli_digest import PAIRS, sha256_parts

ANGLES = tuple(map(repr, (0.0, 1e-9, 0.3, 1.0, math.pi / 3, math.pi - 1e-5, math.pi,
                          2 * math.pi - 1.1e-4, -2.5, 123456.789)))
COUNTS = (1, 2, 7, 8, 9, 64, 1000)
#: Angles whose scaled arguments overflow, and one far from the first period:
#: sum_auto's closed forms run at the reduced angle there.
REDUCED_ANGLES = tuple(map(repr, (1e300, -1e300, 1e308, 1e5 * math.pi + 3e-4)))
#: Counts next to 2**52 and 2**53, where the scaled arguments of sum_auto's
#: closed forms start to round.
EDGE_COUNTS = (2**52 - 1, 2**52 + 1, 2**53 - 1)
#: Subnormal angles with an even last bit, so that phi / 2 is exact; the least
#: positive threshold keeps them on the closed forms.
SUBNORMAL_ANGLES = tuple(map(repr, (2 * 5e-324, 4 * 5e-324, 1000 * 5e-324, 2**20 * 5e-324)))
#: Angles whose remainder modulo 2 pi lies in or next to [2**-20, 2**-19), at
#: the edge of the split reduction's domain for the full family's half angle.
NEAR_TWO_PI_K = tuple(repr(k * 2 * math.pi + t * 2.0**-20)
                      for k in (1, 3, 1000, 2**19 + 1) for t in (1.0, 1.37, -1.73))


def _ulp_steps(x: float, steps: int) -> list[float]:
    """The doubles from steps ulps below x to steps ulps above it."""
    for _ in range(steps):
        x = math.nextafter(x, -math.inf)
    out = []
    for _ in range(2 * steps + 1):
        out.append(x)
        x = math.nextafter(x, math.inf)
    return out


#: Centres of the edges of the Cody-Waite split's domain (|rad / pi| < 2**20,
#: |r| >= 2**-20) and of its half-periods, where rad / pi lies within 2**-32
#: of a half-integer and the split may take the other integer beside it.
SPLIT_EDGE_CENTRES = (
    *(s * 2.0**20 * math.pi for s in (1.0, -1.0)),
    *(k * math.pi + t * 2.0**-20 for k in (1, 1001, 2**20 - 1) for t in (1.0, -1.0)),
    *(s * (k + 0.5) * math.pi for k in (0, 7, 2**19 + 3) for s in (1.0, -1.0)),
)
#: A few ulps either side of each centre.
SPLIT_EDGE_ANGLES = tuple(repr(x) for centre in SPLIT_EDGE_CENTRES
                          for x in _ulp_steps(centre, 3))
#: Each family with a form that guards it, as sum_auto's keyword suffix.
FAMILY_FORMS = (("FULL", "'halfangle'"), ("FULL", "'lagrange'"), ("EVEN", None), ("ODD", None))
#: Unsorted, with repeats.
MIXED_COUNTS = "(9, 1, 1000, 9, 64, 2)"
KERNELS = ("lagrange_sum", "halfangle_free_sum", "even_index_sum", "odd_index_sum")
#: pi/4 takes a tangent step; the other two angles are generic.
CONSTRUCTION_ANGLES = (repr(math.pi / 4), "0.9", "2.5")
#: An angle of the 500-angle projection grid whose walk comes within
#: TOL_TANGENT of tangency at step 329.
NEAR_TANGENT = "5.799494954972601"
#: A generic grid, one with guard 0 (which reaches exact zeros of the sines),
#: one with unsorted, repeated counts, and one that the guard empties.
GRIDS = (
    "GridSpec(0.05, 6.2, 25, (1, 2, 8, 33))",
    "GridSpec(0.0, 6.2, 25, (1, 2, 8, 33), guard=0.0)",
    "GridSpec(0.05, 6.2, 25, (33, 1, 8, 1, 2))",
    "GridSpec(1e-06, 2e-06, 3, (1, 2))",
)
#: The grids' upper end, 2 pi - 0.05, and the spacing of their 2000 angles.
ACCEPTANCE_TOP = 2 * math.pi - 0.05
ACCEPTANCE_STEP = (ACCEPTANCE_TOP - 0.05) / 1999
#: The acceptance grids the sweep benchmark runs: criterion 1's, criterion
#: 4's and the 500-angle projection grid.
ACCEPTANCE_GRIDS = (
    ("LagrangeVsNaive", f"GridSpec(0.05, {ACCEPTANCE_TOP!r}, 2000, "
                        "tuple(range(1, 65)) + (100, 1000))"),
    ("DecompositionVsHalfangle", f"GridSpec(0.05, {ACCEPTANCE_TOP!r}, 2000, "
                                 "tuple(range(1, 513)))"),
    ("ProjectionVsClosedForm", f"GridSpec(0.05, {ACCEPTANCE_TOP!r}, 500, (1, 10, 50, 100, 249))"),
)
#: The benchmark's first shard of criterion 4's grid: its angles 0, 25, ..., 1975.
DECOMPOSITION_SHARD = (f"GridSpec(0.05, {0.05 + 79 * 25 * ACCEPTANCE_STEP!r}, 80, "
                       "tuple(range(1, 513)))")
#: Counts from 10**300 up: at a subnormal angle (sin((2k+1) a) + sin(2k a)) / sin(a)
#: overflows near k = 8e307, and the multiplier 2k + 1 of 10**308 has no float.
SUBNORMAL_SWEEP_COUNTS = ("(10**300, 3 * 10**306, 8 * 10**307)", "(10**300, 10**308)")
#: Runs of consecutive counts between gaps of one to a few hundred terms,
#: unsorted and repeated.
RUN_COUNTS = ("(1, 2, 3, 4, 9, 10, 11, 12, 13, 200, 201, 202, 5)",
              "(40, 7, 8, 41, 42, 6, 300, 8, 1, 43, 2, 299)")
#: Odd-family one-term gaps whose multipliers 2k - 1 straddle 2**53, and a huge gap.
PLAN_EDGE_COUNTS = "(2**52 - 1, 2**52, 2**52 + 1, 2**52 + 2, 10**400)"
#: Unsorted, repeated and all below n, so the walk stops short of n.
PROJECTION_COUNTS = ("(7, 3, 7, 1, 20, 3)", "(39, 2, 38, 2)")
#: Counts either side of 2**52 and 2**53, where a route's prepared multiplier
#: turns from a float into the int; two closed forms, so no oracle pass.
MULTIPLIER_EDGE_GRID = ("GridSpec(0.05, 6.2, 5, (2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1, "
                        "2**53, 2**53 + 1, 3))")


def calls() -> list[str]:
    """Every call, in a fixed order."""
    out = []
    for family, form in FAMILY_FORMS:
        suffix = f", full_form={form}" if form else ""
        out += [f"sum_auto(SumSpec({phi}, {count}, Family.{family}){suffix})"
                for phi in ANGLES for count in COUNTS]
        out += [f"sum_auto(SumSpec({phi}, {count}, Family.{family}){suffix})"
                for phi in REDUCED_ANGLES for count in (7, 1000)]
    for family, form in FAMILY_FORMS:
        suffix = f", full_form={form}" if form else ""
        out += [f"sum_auto(SumSpec({phi}, {count}, Family.{family}){suffix})"
                for phi in ("0.3", "2.5", "123456.789", "1e300") for count in EDGE_COUNTS]
        out += [f"sum_auto(SumSpec({phi}, {count}, Family.{family}), threshold=5e-324{suffix})"
                for phi in SUBNORMAL_ANGLES for count in (1, 10, 10**6)]
    out += [f"sum_auto(SumSpec({phi}, {count}), threshold=1e-07, full_form={form})"
            for form in ("'halfangle'", "'lagrange'") for phi in NEAR_TWO_PI_K
            for count in (7, 1000, 10**6)]
    for kernel in KERNELS:
        out += [f"{kernel}({phi}, {count}{threshold})"
                for threshold in ("", ", threshold=0.0") for phi in ANGLES for count in COUNTS]
    out += [f"x_coordinate_identity({alpha}, {k}{threshold})"
            for threshold in ("", ", threshold=0.0") for alpha in ANGLES
            for k in (0, 1, 7, 8, 9, 50, 999)]
    out += [f"naive_running_sums({phi}, Family.{family}, {MIXED_COUNTS})"
            for family in ("FULL", "EVEN", "ODD") for phi in ANGLES]
    out += [f"construct_points(ConstructionConfig({alpha}, 12, Line.{line})).{writer}()"
            for alpha in CONSTRUCTION_ANGLES for line in ("X", "E")
            for writer in ("to_csv", "to_json")]
    out += [f"projection_sums(ConstructionConfig({alpha}, 40), Line.{line}, (40, 1, 7, 8, 40, 2))"
            for alpha in CONSTRUCTION_ANGLES for line in ("X", "E")]
    out += [f"emit(orbit_samples({n}, steps=33), EmitFormat.{fmt})"
            for n in (1, 3, 5) for fmt in ("CSV", "JSON", "SVG")]
    out.append("emit(orbit_samples(4, 0.5, 2.5, 2), EmitFormat.SVG)")
    for grid in GRIDS:
        for pair in PAIRS:
            out.append(f"residual_sweep({grid}, ResidualPair({pair!r})).to_json()")
            out.append(f"residual_sweep({grid}, ResidualPair({pair!r}), keep_rows=True).to_csv()")
    # inputs the library rejects
    out += [
        "sum_auto(SumSpec(1.0, 5), full_form='reduced')",
        "sum_auto(SumSpec(1.0, 5), threshold=0.0)",
        "sum_auto(SumSpec(1.0, 5), threshold=float('nan'))",
        "SumSpec(1.0, 0)",
        "lagrange_sum(1.0, 0)",
        "even_index_sum(1.0, 0)",
        "x_coordinate_identity(1.0, -1)",
        "naive_running_sums(1.0, Family.FULL, (3, 0))",
        "projection_sums(ConstructionConfig(0.9, 5), Line.X, (6,))",
        "orbit_samples(0)",
        "SumSpec(1.0, 2.5)",
        "lagrange_sum(1.0, 2.5)",
        "SumSpec(1.0, 3, 'bogus')",
        # the threshold and full_form checks run for every family
        "sum_auto(SumSpec(1.0, 5, Family.EVEN), full_form='reduced')",
        "sum_auto(SumSpec(1.0, 5, Family.ODD), threshold=float('nan'))",
    ]
    # a family given by its value
    out.append("sum_auto(SumSpec(1.0, 3, 'even'))")
    # every count through one intake, every choice through its Enum
    out += [
        "GridSpec(0.1, 3.0, 5, (2.5,))",
        "ConstructionConfig(0.9, 2.5)",
        "projection_sums(ConstructionConfig(0.9, 5), Line.X, (2.5,))",
        "closed_form_point(0.5, 2.5)",
        "naive_running_sums(1.0, 'even', (3,))",
        "naive_running_sums(1.0, 'bogus', (3,))",
        "projection_sum(construct_points(ConstructionConfig(0.9, 5)), 'x', 3)",
        "projection_sums(ConstructionConfig(0.9, 5), 'x', (3, 1, 5))",
        "line_for_index(1, 'x')",
        "line_for_index(2, 'x')",
        "ConstructionConfig(0.9, 3, 'e').start_line",
        "emit(orbit_samples(3, steps=33), 'csv')",
        "residual_sweep(GridSpec(0.1, 3.0, 5, (1, 4)), 'LagrangeVsNaive').to_json()",
    ]
    # a step that misses the other root at step 329 moves every later point
    out += [f"projection_sums(ConstructionConfig({NEAR_TANGENT}, 500), Line.{line}, (500, 4, 330))"
            for line in ("X", "E")]
    out.append(f"construct_points(ConstructionConfig({NEAR_TANGENT}, 500)).to_json()")
    # the start line places each coordinate on its line, through the same step 329
    out.append(f"construct_points(ConstructionConfig({NEAR_TANGENT}, 500, Line.E)).to_json()")
    out += [f"projection_sums(ConstructionConfig({NEAR_TANGENT}, 500, Line.E), Line.{line}, "
            "(500, 1, 329, 330, 4))" for line in ("X", "E")]
    # no counts: nothing to walk, yet an excluded angle still raises
    out += [f"projection_sums(ConstructionConfig({alpha}, 5), Line.X, ())"
            for alpha in ("0.9", "1.5707963267948966")]
    out += [f"residual_sweep({grid}, ResidualPair({pair!r})).to_json()"
            for pair, grid in ACCEPTANCE_GRIDS]
    out.append(f"residual_sweep({DECOMPOSITION_SHARD}, "
               "ResidualPair('DecompositionVsHalfangle'), keep_rows=True).to_csv()")
    # the split's edges: the least threshold keeps every angle on the closed forms
    out += [f"sum_auto(SumSpec({phi}, {count}, Family.{family}), threshold=5e-324)"
            for family in ("EVEN", "ODD") for phi in SPLIT_EDGE_ANGLES for count in (7, 1000)]
    out += [f"orbit_samples({n}, {lo!r}, {hi!r}, 3).samples"
            for centre in SPLIT_EDGE_CENTRES for lo, *_, hi in (_ulp_steps(centre, 3),)
            for n in (2, 7, 1000)]
    # the decomposition pair where sin(a) is subnormal (its guard must be below 2**-1022)
    out += [f"residual_sweep(GridSpec({lo!r}, {hi!r}, 3, {counts}, guard={guard!r}), "
            f"ResidualPair('DecompositionVsHalfangle'), keep_rows=True).to_csv()"
            for lo, hi in ((5e-324, 1e-310), (1e-320, 2.2e-308))
            for guard in (0.0, 5e-324) for counts in SUBNORMAL_SWEEP_COUNTS]
    out += [f"naive_running_sums({phi}, Family.{family}, {counts})"
            for family in ("FULL", "EVEN", "ODD") for phi in ("0.3", "-2.5", "123456.789")
            for counts in RUN_COUNTS]
    # a plan's counts cost nothing until a pass runs, which the NaN angle stops
    out.append(f"naive_running_sums(float('nan'), Family.ODD, {PLAN_EDGE_COUNTS})")
    out += [f"projection_sums(ConstructionConfig({alpha}, 40), Line.{line}, {counts})"
            for alpha in CONSTRUCTION_ANGLES for line in ("X", "E")
            for counts in PROJECTION_COUNTS]
    out.append(f"residual_sweep({MULTIPLIER_EDGE_GRID}, ResidualPair('LagrangeVsHalfangle'), "
               "keep_rows=True).to_csv()")
    out.append(f"residual_sweep({MULTIPLIER_EDGE_GRID}, "
               "ResidualPair('LagrangeVsHalfangle')).to_json()")
    return out


def library() -> dict[str, object]:
    """The names the calls read: every public name of the trigsum on sys.path."""
    import trigsum

    return {name: getattr(trigsum, name) for name in trigsum.__all__}


def _render(value: object) -> str:
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, str):
        value = value.encode("utf-8")
    if isinstance(value, bytes):
        return "sha256:" + sha256_parts(value)
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, (list, tuple)):
        return " ".join(map(_render, value))
    # a SumValue
    return _render((value.value, value.method, value.singular_proximity))


def digest_line(call: str, namespace: dict[str, object]) -> str:
    """The line of one call, evaluated over namespace."""
    try:
        result = _render(eval(call, namespace))
    except Exception as exc:  # an error is that call's output
        result = f"{type(exc).__name__}: {exc}"
    return f"{call} -> {result}"


def main() -> None:
    if len(sys.argv) != 2:
        sys.exit("usage: python tools/lib_digest.py TREE")
    src = Path(sys.argv[1], "src").resolve()
    if not (src / "trigsum" / "__init__.py").is_file():
        sys.exit(f"no trigsum/__init__.py under {src}")
    sys.path.insert(0, str(src))
    namespace = library()
    exprs = calls()
    for call in exprs:
        print(digest_line(call, namespace), flush=True)
    print(f"# {len(exprs)} vectors")


if __name__ == "__main__":
    main()

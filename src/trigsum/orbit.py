"""Parametric curves traced by a fixed construction point as the angle varies.

For fixed n the point A_n sweeps the curve
(cos a * U_{n-1}(cos a), sin a * U_{n-1}(cos a)) as the opening angle a runs
over a range. Each sample takes U_{n-1}(cos a) from kernels._ratio: O(1) in n,
within about n * eps, and total, so the curve crosses the sin a = 0 angles
without gaps where the cotangent form would blow up.
"""

from __future__ import annotations

import math
from enum import Enum

from .angle import Record, as_count, inclusive_grid
from .formatting import csv_text, fmt12, json_line
from .geometry import TWO_PI, chebyshev_form_point  # perfbench patches the last
from .kernels import _ratio


class EmitFormat(Enum):
    CSV = "csv"
    JSON = "json"
    SVG = "svg"


class OrbitCurve(Record):
    """Uniform samples (alpha, x, y) of the orbit of A_n."""

    __slots__ = ("n", "alpha_min", "alpha_max", "steps", "samples")

    def __init__(self, n: int, alpha_min: float, alpha_max: float, steps: int,
                 samples: tuple[tuple[float, float, float], ...]) -> None:
        self._set(n, alpha_min, alpha_max, steps, samples)


def orbit_samples(
    n: int,
    alpha_min: float = 0.0,
    alpha_max: float = TWO_PI,
    steps: int = 1024,
) -> OrbitCurve:
    """Sample the orbit of A_n uniformly, inclusive of both endpoints."""
    n = as_count(n, "n")
    grid = inclusive_grid(alpha_min, alpha_max, steps, "alpha")
    samples = [(a, math.cos(a) * u, math.sin(a) * u) for a in grid for u in (_ratio(a, n),)]
    # float bounds render like the samples: 1e+17, not 100000000000000000
    return OrbitCurve(n, float(alpha_min), float(alpha_max), steps, tuple(samples))


def emit(curve: OrbitCurve, fmt: EmitFormat | str) -> bytes:
    """Serialize a curve; a pure function, byte-identical for equal inputs."""
    fmt = EmitFormat(fmt)
    if fmt is EmitFormat.CSV:
        text = csv_text("alpha,x,y", curve.samples)
    elif fmt is EmitFormat.JSON:
        text = json_line({
            "n": curve.n,
            "alpha_min": curve.alpha_min,
            "alpha_max": curve.alpha_max,
            "steps": curve.steps,
            "points": curve.samples,
        })
    else:
        text = _emit_svg(curve)
    return text.encode("utf-8")


#: Extents up to this size would pad to a viewBox size that rounds to zero
#: (or to rounding noise) at 12 decimals.
_MIN_EXTENT = 1e-12


def _padded(lo: float, hi: float) -> tuple[float, float]:
    # Degenerate extents get a half-unit pad so the viewBox keeps positive size.
    pad = 0.05 * (hi - lo) if hi - lo > _MIN_EXTENT else 0.5
    return lo - pad, hi + pad


def _emit_svg(curve: OrbitCurve) -> str:
    """A single polyline of the data coordinates (SVG's y axis points down,
    so the rendering is the mirror image of the mathematical orientation)."""
    xs = [x for _, x, _ in curve.samples]
    ys = [y for _, _, y in curve.samples]
    x0, x1 = _padded(min(xs), max(xs))
    y0, y1 = _padded(min(ys), max(ys))
    width = x1 - x0
    height = y1 - y0
    stroke = 0.004 * max(width, height)
    points = " ".join(f"{fmt12(x)},{fmt12(y)}" for _, x, y in curve.samples)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{fmt12(x0)} {fmt12(y0)} {fmt12(width)} {fmt12(height)}">\n'
        f'  <polyline fill="none" stroke="black" stroke-width="{fmt12(stroke)}" '
        f'points="{points}"/>\n'
        "</svg>\n"
    )

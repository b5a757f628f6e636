"""Angle value type (a finite angle in radians, never range-reduced) and
the uniform angle grid shared by sweeps and orbit sampling."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from .errors import BadRange


@dataclass(frozen=True)
class Angle:
    """An angle in radians, used as-is (no range reduction).

    Cosine sums are periodic, so values outside (0, 2*pi) are legitimate
    inputs; closeness to the singular sets is therefore classified by the
    magnitude of sin/cos, never by range membership.
    """

    radians: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radians):
            raise ValueError(f"angle must be finite, got {self.radians!r}")


def as_angle(value: Angle | float) -> Angle:
    """Coerce a bare number to an Angle; Angle instances pass through."""
    if isinstance(value, Angle):
        return value
    return Angle(float(value))


def inclusive_grid(
    lo: float, hi: float, steps: int, name: str, *, nonfinite: type[Exception] = BadRange
) -> Iterator[float]:
    """Validate a uniform endpoint-inclusive grid and return its angles.

    The bounds must be finite (else nonfinite is raised), ordered, and span
    a finite width; steps must be at least 2. Validation runs on the call;
    the steps angles lo + (hi - lo) * i / (steps - 1) are then yielded in
    increasing order, from the bounds coerced to float. name ("angle",
    "alpha") prefixes the messages.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise nonfinite(f"{name} bounds must be finite")
    if not lo < hi:
        raise BadRange(f"{name}_min must be < {name}_max, got [{lo}, {hi}]")
    if steps < 2:
        raise BadRange(f"steps must be >= 2, got {steps}")
    lo = float(lo)
    span = float(hi) - lo
    if not math.isfinite(span):
        raise BadRange(f"{name}_max - {name}_min overflows, got [{lo}, {hi}]")
    last = steps - 1
    return (lo + span * i / last for i in range(steps))

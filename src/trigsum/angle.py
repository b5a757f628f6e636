"""Angle value type: a finite angle in radians, never range-reduced."""

from __future__ import annotations

import math
from dataclasses import dataclass


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

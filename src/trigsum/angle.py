"""Value types (the Record base, and Angle: a finite angle in radians, never
range-reduced), the count intake, and the uniform grid of sweeps and orbits."""

from __future__ import annotations

import math
from operator import index as _index
from typing import Iterable, Iterator

from .errors import BadRange

_isfinite = math.isfinite  # bound once: the per-point and per-query records call it


class Record:
    """Immutable value type: equality, hashing and repr by the fields a subclass
    lists in __slots__ and sets in __init__ through each slot's own setter, the
    __set__ of its member descriptor; any other assignment or deletion raises
    AttributeError. Copy and pickle call __init__. The per-query and per-point
    records bind their setters once (_set_radians), 15-30% cheaper per record than
    object.__setattr__'s generic path (Angle 280 -> 240 ns, SumValue 475 -> 335 ns)."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _set(self, *values: object) -> None:
        """Set the fields in __slots__ order, each through its slot's setter."""
        for name, value in zip(self.__slots__, values):
            getattr(self.__class__, name).__set__(self, value)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class Angle(Record):
    """An angle in radians, used as-is (no range reduction).

    Cosine sums are periodic, so values outside (0, 2*pi) are legitimate
    inputs; closeness to the singular sets is therefore classified by the
    magnitude of sin/cos, never by range membership.
    """

    __slots__ = ("radians",)

    def __init__(self, radians: float) -> None:
        if not _isfinite(radians):
            raise ValueError(f"angle must be finite, got {radians!r}")
        _set_radians(self, radians)


_set_radians = Angle.radians.__set__


def as_angle(value: Angle | float) -> Angle:
    """Coerce a bare number to an Angle; Angle instances pass through."""
    if isinstance(value, Angle):
        return value
    return Angle(float(value))


def _radians(value: Angle | float) -> float:
    """as_angle(value).radians, without building an Angle for a finite float."""
    if value.__class__ is float and _isfinite(value):
        return value
    return as_angle(value).radians


def int_text(value: int | tuple[int, ...], name: str | None = None) -> str:
    """An int for a message: its digits ("name = digits" given a name) up to 2048
    bits, where str() is within any int_max_str_digits (617 digits against 640 at
    least), else "name of B bits" ("an int", "a negative int" unnamed). A tuple
    reads like its repr, each int by this rule."""
    if value.__class__ is tuple:
        return f"({', '.join(map(int_text, value))}{',' if len(value) == 1 else ''})"
    if value.bit_length() <= 2048:
        return str(value) if name is None else f"{name} = {value}"
    return f"{name or ('a negative int' if value < 0 else 'an int')} of {value.bit_length()} bits"


def as_count(value: int, name: str, least: int = 1) -> int:
    """value as an int >= least; a non-int goes through operator.index (a
    float raises TypeError), a smaller value raises ValueError naming it."""
    if value.__class__ is not int:
        value = _index(value)
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {int_text(value)}")
    return value


def as_counts(values: Iterable[int]) -> tuple[int, ...]:
    """values as a tuple of ints, each through operator.index and all >= 1;
    one message names them all."""
    counts = tuple(map(_index, values))
    if any(count < 1 for count in counts):
        raise ValueError(f"counts must all be >= 1, got {int_text(counts)}")
    return counts


def inclusive_grid(lo: float, hi: float, steps: int, name: str) -> Iterator[float]:
    """Validate a uniform endpoint-inclusive grid and return its angles.

    The bounds must be finite, ordered, and span a finite width, and steps
    must be an int (through operator.index) of at least 2, with steps - 1 a
    float; else BadRange is raised (TypeError for a non-int). Validation runs
    on the call; the steps angles lo + (hi - lo) * i / (steps - 1) are then
    yielded in increasing order, from the bounds coerced to float. name
    ("angle", "alpha") prefixes the messages.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise BadRange(f"{name} bounds must be finite")
    if not lo < hi:
        raise BadRange(f"{name}_min must be < {name}_max, got [{lo}, {hi}]")
    steps = _index(steps)
    if steps < 2:
        raise BadRange(f"steps must be >= 2, got {int_text(steps)}")
    lo = float(lo)
    span = float(hi) - lo
    if not math.isfinite(span):
        raise BadRange(f"{name}_max - {name}_min overflows, got [{lo}, {hi}]")
    try:
        last = float(steps - 1)  # the divisor a float / int division converts it to
    except OverflowError:
        raise BadRange(f"{int_text(steps, 'steps')} is too large: steps - 1 has no float") from None
    return (lo + span * i / last for i in range(steps))

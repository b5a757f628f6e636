"""Deterministic formatting shared by the serializers."""

from __future__ import annotations

from typing import Iterable, Sequence


def fmt17(x: float) -> str:
    """Render with 17 significant digits (value-preserving round trip)."""
    return format(x, ".17g")


def fmt12(x: float) -> str:
    """Render with exactly 12 decimal places (SVG coordinate contract)."""
    return format(x, ".12f")


def _scalar(value: object) -> str:
    return fmt17(value) if isinstance(value, float) else str(value)


def _json(value: object) -> str:
    if isinstance(value, float):
        return fmt17(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_json, value)) + "]"
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{key}": {_json(item)}' for key, item in value.items()) + "}"
    if isinstance(value, str):
        return f'"{value}"'
    return str(value)


def json_line(value: object) -> str:
    """One-line JSON of nested dicts, lists, str, int and float, newline-ended.

    Floats render with fmt17 and ints with str; separators are ", " and
    ": ". Strings are written as-is between quotes, so they must not need
    escaping.
    """
    return _json(value) + "\n"


def csv_text(header: str, rows: Iterable[Sequence[object]]) -> str:
    """CSV text: the header line, then one line per row, newline-ended.

    Cells render as in json_line, strings unquoted.
    """
    lines = [header]
    lines.extend(",".join(map(_scalar, row)) for row in rows)
    return "\n".join(lines) + "\n"

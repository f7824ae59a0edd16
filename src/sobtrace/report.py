"""The two output formats: JSON reports and ``.17g`` CSV tables.

Every report type inherits ``Report.to_json``, which serialises its fields
recursively through ``payload``; every CSV table is written by
``csv_text`` and read back by ``csv_columns``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

__all__ = ["Report", "payload", "csv_text", "csv_columns"]


def payload(obj):
    """A JSON-ready copy of obj: dataclasses and named tuples become objects
    keyed by their fields, other tuples and lists become lists, and numpy
    scalars become Python numbers."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: payload(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, tuple) and hasattr(obj, "_fields"):
        return {name: payload(value) for name, value in zip(obj._fields, obj)}
    if isinstance(obj, (tuple, list)):
        return [payload(value) for value in obj]
    if isinstance(obj, dict):
        return {key: payload(value) for key, value in obj.items()}
    if isinstance(obj, np.generic):
        return obj.item()
    return obj


class Report:
    """Base of the report dataclasses: one JSON object keyed by field name."""

    def to_json(self) -> str:
        return json.dumps(payload(self), sort_keys=True)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(value)
    return format(value, ".17g")


def csv_text(header: str, rows) -> str:
    """CSV text: the header line, then one line per row.  Floats are written
    with 17 significant digits, so they read back exactly; bools as 0/1 and
    None as an empty field."""
    lines = [header] + [",".join(map(_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def csv_columns(text: str, header: str) -> tuple[list[float], list[float]]:
    """The two float columns of CSV text whose first non-blank line is header."""
    rows = [(n, ln.strip()) for n, ln in enumerate(text.splitlines(), start=1)
            if ln.strip()]
    if not rows or rows[0][1] != header:
        raise ValueError(f"expected header {header!r}")
    first, second = [], []
    for n, ln in rows[1:]:
        try:
            a, b = (float(x) for x in ln.split(","))
        except ValueError:
            raise ValueError(f"line {n}: expected {header!r}, got {ln!r}") from None
        first.append(a)
        second.append(b)
    return first, second

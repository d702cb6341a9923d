"""The package's one check of scalar arguments: counts and finite reals.

Each check returns the value converted to int or float, or raises a
ValueError that names the argument, the accepted range and the value given.
"""

from __future__ import annotations

import math
import numbers


def _span(low, high, strict: bool) -> str:
    if high == math.inf:
        return "" if low == -math.inf else f" {'>' if strict else '>='} {low}"
    if low == -math.inf:
        return f" {'<' if strict else '<='} {high}"
    return f" in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"


def count(name: str, value, low, high=math.inf) -> int:
    """`value` as an int, when it is an integer (not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer{_span(low, high, False)}, got {value!r}")
    return int(value)


def real(name: str, value, low=-math.inf, high=math.inf, strict: bool = False) -> float:
    """`value` as a float, when it is a finite real (not a bool) in [low, high],
    or in (low, high) when `strict`."""
    try:
        ok = (not isinstance(value, bool) and isinstance(value, numbers.Real)
              and math.isfinite(value) and (low < value < high if strict else low <= value <= high))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite real{_span(low, high, strict)}, got {value!r}")
    return float(value)

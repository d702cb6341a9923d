"""The package's one check of arguments from outside: counts, finite reals
and finite real arrays.

Each check returns the value converted to int, float or a new float64
array, or raises a ValueError that names the argument, what it accepts and
what it was given.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


def _span(low, high, strict: bool) -> str:
    if high == math.inf:
        return "" if low == -math.inf else f" {'>' if strict else '>='} {low}"
    if low == -math.inf:
        return f" {'<' if strict else '<='} {high}"
    return f" in {'(' if strict else '['}{low}, {high}{')' if strict else ']'}"


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # an integer of more digits than Python converts to text (4300 by default)
        n = abs(value)
        d = int(math.log10(n))  # one off at worst, next to a power of ten
        d += (n >= 10**d) + (n >= 10 * 10**d)
        return f"{'a negative' if value < 0 else 'an'} integer of {d} digits"


def count(name: str, value, low, high=math.inf) -> int:
    """`value` as an int, when it is an integer (not a bool) in [low, high]."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer{_span(low, high, False)}, got {_shown(value)}")
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
        raise ValueError(f"{name} must be a finite real{_span(low, high, strict)}, got {_shown(value)}")
    return float(value)


def array(name: str, value, shape: tuple) -> np.ndarray:
    """`value` as a new float64 array, when it holds integers or reals (not bools,
    strings, complex numbers or objects), has `shape` (a None entry matches any
    length) and every entry is finite."""
    try:
        arr = np.asarray(value)
    except ValueError:  # nesting numpy cannot make rectangular
        got = "a ragged sequence"
    else:
        if arr.dtype.kind not in "iuf":
            got = f"dtype {arr.dtype}"
        elif arr.shape != shape and (arr.ndim != len(shape) or any(
                n not in (None, h) for n, h in zip(shape, arr.shape))):
            got = f"shape {arr.shape}"
        else:
            out = arr.astype(np.float64)
            if np.isfinite(out).all():
                return out
            got = "a NaN or inf entry"
    want = ", ".join("*" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
    raise ValueError(f"{name} must be a finite real array of shape ({want}), got {got}")

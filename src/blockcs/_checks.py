"""The package's one check of arguments from outside: counts, finite reals,
reals, finite real arrays, squared norms, instances of a class and file paths.

Each check returns the value converted to int, float, a new float64 array
or str, the instance itself, or the squared norms, or raises a ValueError
that names the argument, what it accepts and what it was given.
"""

from __future__ import annotations

import math
import numbers
import os

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
    if type(value) is int and low <= value <= high:  # the common case, before the ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not low <= value <= high:
        raise ValueError(f"{name} must be an integer{_span(low, high, False)}, got {_shown(value)}")
    return int(value)


def real(name: str, value, low=-math.inf, high=math.inf, strict: bool = False) -> float:
    """`value` as a float, when it is a finite real (not a bool) in [low, high],
    or in (low, high) when `strict`."""
    try:
        ok = ((type(value) is float or not isinstance(value, bool) and isinstance(value, numbers.Real))
              and math.isfinite(value) and (low < value < high if strict else low <= value <= high))
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a finite real{_span(low, high, strict)}, got {_shown(value)}")
    return float(value)


def number(name: str, value) -> float:
    """`value` as a float, when it is a real (not a bool) within the float range;
    NaN and the infinities pass, for callers that report them themselves."""
    try:
        if not isinstance(value, bool) and isinstance(value, numbers.Real):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise ValueError(f"{name} must be a real number, got {_shown(value)}")


def scale_error(entries: np.ndarray, what: str, whose: str = "the solver's",
                rescale: str = "the matrix and the observations") -> ValueError:
    """The error for a sensing matrix whose scale a computation cannot take: it names
    the matrix's largest entry, what went out of range and what to rescale."""
    return ValueError(f"the sensing matrix's scale (largest |entry| {np.abs(entries).max():.3g}) "
                      f"is out of {whose} range: {what}; rescale {rescale} toward unit entries")


def instance(name: str, value, cls: type):
    """`value`, when it is an instance of `cls`: a SensingMatrix, BlockStructure,
    SolverConfig or ExperimentSpec."""
    if not isinstance(value, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ValueError(f"{name} must be {article} {cls.__name__}, got {type(value).__name__}")
    return value


def path(name: str, value) -> str:
    """`value` as a str, when it is a non-empty str or os.PathLike naming a str path."""
    text = os.fspath(value) if isinstance(value, (str, os.PathLike)) else None
    if not isinstance(text, str) or not text:
        raise ValueError(f"{name} must be a non-empty str or os.PathLike path, got {_shown(value)}")
    return text


def array(name: str, value, shape: tuple) -> np.ndarray:
    """`value` as a new C-ordered float64 array, when it holds integers or reals (not
    bools, strings, complex numbers or objects), has `shape` (a None entry matches
    any length) and every entry is finite.  C order makes the bits computed from it
    independent of the caller's layout: matmul's BLAS call, and numpy's reductions
    over axis 0, can follow the layout of their operands."""
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
            out = arr.astype(np.float64, order="C")
            if np.isfinite(out).all():
                return out
            got = "a NaN or inf entry"
    want = ", ".join("*" if n is None else str(n) for n in shape) + ("," if len(shape) == 1 else "")
    raise ValueError(f"{name} must be a finite real array of shape ({want}), got {got}")


def squares(name: str, value: np.ndarray, axis=None) -> np.ndarray:
    """np.add.reduce(value * value, axis), the squared norms of the finite float64
    array `value` along `axis` (of all of it when None), when each is finite: an
    entry beyond about 1.3e154 makes its square overflow."""
    with np.errstate(over="ignore"):
        sums = np.add.reduce(value * value, axis=axis)
    if not np.isfinite(sums).all():
        raise ValueError(f"{name} must have a finite squared norm, "
                         f"got entries as large as {np.abs(value).max():g}")
    return sums

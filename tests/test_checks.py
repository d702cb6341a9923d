import math
import re
from fractions import Fraction

import numpy as np
import pytest

from blockcs import _checks
from conftest import rejects_argument


@pytest.mark.parametrize("value", [10**400, -10**400, np.float32("inf"), np.float32("nan")],
                         ids=["10**400", "-10**400", "float32_inf", "float32_nan"])
def test_real_rejects_values_no_float_holds(value):
    with rejects_argument("x", value):
        _checks.real("x", value)


def test_real_accepts_float32_and_large_integers():
    assert _checks.real("x", np.float32(1.5)) == 1.5
    assert _checks.real("x", 10**300) == 1e300


@pytest.mark.parametrize("value, shown", [(10**5000, "an integer of 5001 digits"),
                                          (10**5000 - 1, "an integer of 5000 digits"),
                                          (-10**4400, "a negative integer of 4401 digits")],
                         ids=["10**5000", "10**5000-1", "-10**4400"])
def test_integers_too_long_for_text_are_shown_by_their_digit_count(value, shown):
    with pytest.raises(ValueError, match=rf"^x must be a finite real, got {shown}$"):
        _checks.real("x", value)
    with pytest.raises(ValueError, match=rf"^x must be an integer in \[0, 9\], got {shown}$"):
        _checks.count("x", value, 0, 9)


def test_array_returns_a_new_float64_array():
    ints = np.arange(6).reshape(2, 3)
    out = _checks.array("x", ints, (2, None))
    assert out.dtype == np.float64 and out.shape == (2, 3) and not np.shares_memory(out, ints)
    floats = np.ones(3)
    assert not np.shares_memory(_checks.array("x", floats, (3,)), floats)
    assert _checks.array("x", np.float32([1.5]), (1,)).tolist() == [1.5]


@pytest.mark.parametrize("value", ["0.1", "abc", True, None, 0.1 + 0j, 10**400],
                         ids=["str", "text", "bool", "None", "complex", "10**400"])
def test_number_rejects_what_is_no_real_a_float_holds(value):
    with pytest.raises(ValueError, match=rf"^x must be a real number, got {re.escape(repr(value))}$"):
        _checks.number("x", value)


def test_number_passes_every_float_and_real_type():
    assert _checks.number("x", np.float32(1.5)) == 1.5 and _checks.number("x", 3) == 3.0
    assert math.isnan(_checks.number("x", math.nan))
    assert _checks.number("x", -math.inf) == -math.inf
    assert _checks.number("x", Fraction(1, 4)) == 0.25

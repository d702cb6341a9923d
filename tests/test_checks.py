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

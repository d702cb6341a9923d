import math
import re
from fractions import Fraction

import numpy as np
import pytest

from blockcs import (
    BlockSignal,
    BlockStructure,
    SensingMatrix,
    _checks,
    apply,
    best_block_approx,
    block_soft_threshold,
    block_support,
    brute_force_l20,
    brute_force_l20_batch,
    cone_constraint_check,
    disjoint_pair_energy_residual,
    exact_block_ric,
    gaussian_matrix,
    mixed_norm_2_0,
    mixed_norm_2_1,
    mixed_norm_2_inf,
    polytope_decompose,
    run_experiment,
    solve_noiseless,
    solve_noiseless_batch,
    solve_noisy,
    solve_noisy_batch,
    spread_kernel_matrix,
    subset_energy_difference_residual,
)
from blockcs.serialize import matrix_to_json, signal_to_json, structure_to_json
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


def test_squares_give_the_bits_of_numpy_norms_and_refuse_an_overflow():
    a = np.random.default_rng(3).standard_normal((5, 7)) * 10.0 ** np.arange(-3, 4)
    for axis in (0, 1):
        norms = np.sqrt(_checks.squares("a", a, axis=axis))
        assert norms.tobytes() == np.linalg.norm(a, axis=axis).tobytes()
    a[2, 3] = 2e154  # one square beyond the float range; its column's and row's sums overflow
    for axis in (None, 0, 1):
        with pytest.raises(ValueError, match=r"^a must have a finite squared norm, got entries "
                                             r"as large as 2e\+154$"):
            _checks.squares("a", a, axis=axis)


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


# --- signals ---

_ST, _OTHER = BlockStructure((1, 2)), BlockStructure((2, 1))
_SIG = BlockSignal([1.0, 0.0, 0.0], _ST)
_PHI = SensingMatrix(np.eye(3), _ST)
_B = [1.0, 0.0, 0.0]

# (label, bad value, how the message shows it)
_ARRAY = ("array", np.array(_B), "ndarray")
_NONE = ("None", None, "NoneType")
_OFF = ("other_structure", BlockSignal(_B, _OTHER), re.escape(repr(_OTHER)))

# (entry point, argument name, call taking the value, the bad values it refuses): a structure
# is checked only where there is one to lie on, and a truth may be None
_SIGNAL_ARGUMENTS = [
    ("mixed_norm_2_1", "x", mixed_norm_2_1, (_ARRAY, _NONE)),
    ("mixed_norm_2_0", "x", mixed_norm_2_0, (_ARRAY, _NONE)),
    ("mixed_norm_2_inf", "x", mixed_norm_2_inf, (_ARRAY, _NONE)),
    ("block_support", "x", block_support, (_ARRAY, _NONE)),
    ("best_block_approx", "x", lambda v: best_block_approx(v, 1), (_ARRAY, _NONE)),
    ("block_soft_threshold", "x", lambda v: block_soft_threshold(v, 0.5), (_ARRAY, _NONE)),
    ("polytope_decompose", "x", lambda v: polytope_decompose(v, 1.0, 1), (_ARRAY, _NONE)),
    ("signal_to_json", "signal", signal_to_json, (_ARRAY, _NONE)),
    ("BlockSignal.__add__", "other", lambda v: _SIG + v, (_ARRAY, _NONE, _OFF)),
    ("BlockSignal.__sub__", "other", lambda v: _SIG - v, (_ARRAY, _NONE, _OFF)),
    ("apply", "x", lambda v: apply(_PHI, v), (_ARRAY, _NONE, _OFF)),
    ("subset_energy_difference_residual", "x",
     lambda v: subset_energy_difference_residual(_PHI, v, 1, 2), (_ARRAY, _NONE, _OFF)),
    ("disjoint_pair_energy_residual", "x",
     lambda v: disjoint_pair_energy_residual(_PHI, v, 1, 1), (_ARRAY, _NONE, _OFF)),
    ("cone_constraint_check", "h", lambda v: cone_constraint_check(v, _SIG, 1), (_ARRAY, _NONE)),
    ("cone_constraint_check", "x", lambda v: cone_constraint_check(_SIG, v, 1), (_ARRAY, _NONE, _OFF)),
    ("solve_noiseless", "truth", lambda v: solve_noiseless(_PHI, _B, truth=v), (_ARRAY, _OFF)),
    ("solve_noisy", "truth", lambda v: solve_noisy(_PHI, _B, 0.1, truth=v), (_ARRAY, _OFF)),
    ("solve_noiseless_batch", "truths[1]",
     lambda v: solve_noiseless_batch(_PHI, np.eye(3)[:, :2], truths=[None, v]), (_ARRAY, _OFF)),
    ("solve_noisy_batch", "truths[1]",
     lambda v: solve_noisy_batch(_PHI, np.eye(3)[:, :2], 0.1, truths=[None, v]), (_ARRAY, _OFF)),
]


@pytest.mark.parametrize("name, call, value, got", [
    pytest.param(name, call, value, got, id=f"{entry}-{name}-{label}")
    for entry, name, call, bad in _SIGNAL_ARGUMENTS
    for label, value, got in bad
])
def test_signal_arguments_are_checked_by_name(name, call, value, got):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a BlockSignal\b.*, got {got}$"):
        call(value)


def test_signal_check_says_whose_structure_it_wants():
    want = f"x must be a BlockSignal on h's {_ST!r}, got {_OTHER!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        cone_constraint_check(_SIG, _OFF[1], 1)
    with pytest.raises(ValueError, match=r"^x must be a BlockSignal, got list$"):
        mixed_norm_2_1(_B)


# --- matrices, structures and solver configs ---

# (entry point, argument name, the class it wants, call taking the value, the bad values with
# how the message shows each)
_INSTANCE_ARGUMENTS = [
    *[(entry, "phi", "SensingMatrix", call,
       ((np.eye(3), "ndarray"), (None, "NoneType"), (_ST, "BlockStructure")))
      for entry, call in [
          ("solve_noiseless", lambda v: solve_noiseless(v, _B)),
          ("solve_noisy", lambda v: solve_noisy(v, _B, 0.1)),
          ("solve_noiseless_batch", lambda v: solve_noiseless_batch(v, np.eye(3))),
          ("solve_noisy_batch", lambda v: solve_noisy_batch(v, np.eye(3), 0.1)),
          ("brute_force_l20", lambda v: brute_force_l20(v, _B, 1)),
          ("brute_force_l20_batch", lambda v: brute_force_l20_batch(v, np.eye(3), 1)),
          ("exact_block_ric", lambda v: exact_block_ric(v, 1)),
          ("apply", lambda v: apply(v, _SIG)),
          ("subset_energy_difference_residual",
           lambda v: subset_energy_difference_residual(v, _SIG, 1, 2)),
          ("disjoint_pair_energy_residual", lambda v: disjoint_pair_energy_residual(v, _SIG, 1, 1)),
          ("matrix_to_json", matrix_to_json),
      ]],
    *[(entry, "structure", "BlockStructure", call,
       (((1, 2), "tuple"), ([1, 2], "list"), (None, "NoneType")))
      for entry, call in [
          ("BlockSignal", lambda v: BlockSignal(_B, v)),
          ("BlockSignal.zeros", BlockSignal.zeros),
          ("SensingMatrix", lambda v: SensingMatrix(np.eye(3), v)),
          ("gaussian_matrix", lambda v: gaussian_matrix(2, v, 1)),
          ("spread_kernel_matrix", lambda v: spread_kernel_matrix(2, v, 1)),
          ("structure_to_json", structure_to_json),
      ]],
    *[(entry, "config", "SolverConfig", call,
       (({"max_iters": 3}, "dict"), (3, "int")))
      for entry, call in [
          ("solve_noiseless", lambda v: solve_noiseless(_PHI, _B, config=v)),
          ("solve_noisy", lambda v: solve_noisy(_PHI, _B, 0.1, config=v)),
          ("solve_noiseless_batch", lambda v: solve_noiseless_batch(_PHI, np.eye(3), config=v)),
          ("solve_noisy_batch", lambda v: solve_noisy_batch(_PHI, np.eye(3), 0.1, config=v)),
      ]],
    ("run_experiment", "spec", "ExperimentSpec", run_experiment,
     ((5, "int"), (None, "NoneType"), ({"kind": "IDENTITY_SUITE"}, "dict"))),
]


@pytest.mark.parametrize("name, cls, call, value, got", [
    pytest.param(name, cls, call, value, got, id=f"{entry}-{name}-{got}")
    for entry, name, cls, call, bad in _INSTANCE_ARGUMENTS
    for value, got in bad
])
def test_matrix_structure_and_config_arguments_are_checked_by_name(name, cls, call, value, got):
    article = "an" if cls[0] in "AEIOU" else "a"
    with pytest.raises(ValueError, match=rf"^{name} must be {article} {cls}, got {got}$"):
        call(value)


@pytest.mark.parametrize("value, got", [(5, "int"), (0.5, "float"), (object(), "object")],
                         ids=["int", "float", "object"])
@pytest.mark.parametrize("solve", [
    lambda v: solve_noiseless_batch(_PHI, np.eye(3), truths=v),
    lambda v: solve_noisy_batch(_PHI, np.eye(3), 0.1, truths=v),
], ids=["noiseless", "noisy"])
def test_batch_solves_name_truths_that_are_no_sequence(solve, value, got):
    with pytest.raises(ValueError, match=rf"^truths must be a sequence of BlockSignal or None "
                                         rf"entries, got {got}$"):
        solve(value)

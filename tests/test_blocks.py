import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcs import (
    BlockSignal,
    BlockStructure,
    SensingMatrix,
    best_block_approx,
    block_support,
    mixed_norm_2_0,
    mixed_norm_2_1,
    mixed_norm_2_inf,
)
from conftest import (
    BAD_COUNTS,
    BAD_REALS,
    bad_arguments,
    bad_arrays,
    random_block_sparse,
    random_signal,
    random_structure,
    rejects_argument,
    rejects_array,
)


def test_structure_validation():
    with pytest.raises(ValueError):
        BlockStructure(())
    with pytest.raises(ValueError):
        BlockStructure((2, 0, 1))
    st_ = BlockStructure((1, 2, 3))
    assert st_.num_blocks == 3
    assert st_.total_dim == 6
    assert st_.offsets == (0, 1, 3)


def test_structure_single_block_degenerate():
    st_ = BlockStructure((4,))
    x = BlockSignal([1.0, 2.0, 3.0, 4.0], st_)
    assert mixed_norm_2_0(x) == 1
    assert mixed_norm_2_1(x) == pytest.approx(np.linalg.norm(x.coeffs))


def test_signals_are_equal_by_structure_and_coefficients():
    st_ = BlockStructure((1, 2))
    coeffs = np.array([1.0, -2.0, 0.5])
    x = BlockSignal(coeffs, st_)
    assert x == BlockSignal(coeffs.copy(), st_) and not x != BlockSignal(coeffs.copy(), st_)
    assert x != BlockSignal([1.0, -2.0, 0.25], st_)
    assert x != BlockSignal(coeffs, BlockStructure((2, 1)))
    assert x.__eq__(coeffs) is NotImplemented and x != coeffs.tolist()
    with pytest.raises(TypeError, match="unhashable"):
        hash(x)


def test_signal_length_mismatch():
    with pytest.raises(ValueError):
        BlockSignal([1.0, 2.0], BlockStructure((3,)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_signal_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        BlockSignal([1.0, bad], BlockStructure((2,)))


def test_signal_immutable():
    x = BlockSignal([1.0, 2.0], BlockStructure((2,)))
    with pytest.raises(ValueError):
        x.coeffs[0] = 5.0


# --- mixed norms: trivial cases from stated examples ---

def test_mixed_norm_2_1_single_block_345():
    x = BlockSignal([3.0, 4.0, 0.0, 0.0], BlockStructure((2, 2)))
    assert mixed_norm_2_1(x) == 5.0


def test_mixed_norm_2_1_zero():
    x = BlockSignal.zeros(BlockStructure((3, 1, 2)))
    assert mixed_norm_2_1(x) == 0.0


def test_mixed_norm_2_1_matches_per_block_oracle(rng):
    # independent oracle: explicit python loop over 4-wide blocks
    st_ = BlockStructure.uniform(4, 5)
    x = random_signal(rng, st_)
    expected = 0.0
    for i in range(5):
        seg = x.coeffs[4 * i : 4 * i + 4]
        expected += math.sqrt(sum(float(v) ** 2 for v in seg))
    assert abs(mixed_norm_2_1(x) - expected) <= 1e-12


def test_mixed_norm_2_0_cases():
    st_ = BlockStructure((2, 2))
    assert mixed_norm_2_0(BlockSignal([3, 4, 0, 0], st_)) == 1
    assert mixed_norm_2_0(BlockSignal.zeros(st_)) == 0
    st7 = BlockStructure.uniform(2, 7)
    x = BlockSignal(np.ones(14), st7)
    assert mixed_norm_2_0(x) == 7


def test_mixed_norm_2_0_exact_zero_test():
    # a tiny but nonzero coefficient still counts: the zero test is bitwise
    x = BlockSignal([1e-300, 0.0, 0.0, 0.0], BlockStructure((2, 2)))
    assert mixed_norm_2_0(x) == 1


def test_mixed_norm_2_inf_cases(rng):
    st_ = BlockStructure((2, 2))
    assert mixed_norm_2_inf(BlockSignal([3, 4, 0, 0], st_)) == 5.0
    assert mixed_norm_2_inf(BlockSignal.zeros(st_)) == 0.0
    stv = BlockStructure((1, 3, 2, 2))
    x = random_signal(rng, stv)
    expected = max(
        math.sqrt(sum(float(v) ** 2 for v in x.coeffs[stv.block_slice(i)]))
        for i in range(stv.num_blocks)
    )
    assert abs(mixed_norm_2_inf(x) - expected) <= 1e-12


def test_block_support_cases():
    # block indices are 0-based: (3, 4) occupies the first block, index 0
    st_ = BlockStructure((2, 2))
    assert block_support(BlockSignal([3, 4, 0, 0], st_)) == frozenset({0})
    assert block_support(BlockSignal.zeros(st_)) == frozenset()
    st6 = BlockStructure.uniform(2, 6)
    coeffs = np.zeros(12)
    coeffs[4:6] = 1.0   # block 2
    coeffs[10:12] = 2.0  # block 5
    assert block_support(BlockSignal(coeffs, st6)) == frozenset({2, 5})


# --- best block approximation ---

def test_best_block_approx_exactly_sparse(rng):
    st_ = BlockStructure.uniform(2, 6)
    x = random_block_sparse(rng, st_, 3)
    approx = best_block_approx(x, 3)
    np.testing.assert_array_equal(approx.head.coeffs, x.coeffs)
    assert mixed_norm_2_1(approx.tail) == 0.0


def test_best_block_approx_s_zero(rng):
    st_ = BlockStructure((2, 3))
    x = random_signal(rng, st_)
    approx = best_block_approx(x, 0)
    assert not approx.kept_blocks
    np.testing.assert_array_equal(approx.head.coeffs, np.zeros(5))
    np.testing.assert_array_equal(approx.tail.coeffs, x.coeffs)


def test_best_block_approx_out_of_range(rng):
    x = random_signal(rng, BlockStructure((2, 2)))
    with pytest.raises(ValueError):
        best_block_approx(x, 3)
    with pytest.raises(ValueError):
        best_block_approx(x, -1)


def test_best_block_approx_beats_every_other_selection(rng):
    # oracle: exhaustive search over all C(l, 2) selections
    st_ = BlockStructure.uniform(3, 6)
    x = random_signal(rng, st_)
    approx = best_block_approx(x, 2)
    kept_mass = mixed_norm_2_1(approx.head)
    norms = x.block_norms()
    for sel in itertools.combinations(range(6), 2):
        assert norms[list(sel)].sum() <= kept_mass + 1e-12


def test_best_block_approx_tie_breaks_to_lowest_index():
    st_ = BlockStructure.uniform(1, 4)
    x = BlockSignal([1.0, 1.0, 1.0, 1.0], st_)
    approx = best_block_approx(x, 2)
    assert approx.kept_blocks == frozenset({0, 1})


def test_head_plus_tail_exact(rng):
    for _ in range(20):
        st_ = random_structure(rng)
        x = random_signal(rng, st_)
        s = int(rng.integers(0, st_.num_blocks + 1))
        approx = best_block_approx(x, s)
        np.testing.assert_array_equal(approx.head.coeffs + approx.tail.coeffs, x.coeffs)
        assert block_support(approx.head).isdisjoint(block_support(approx.tail))
        assert len(block_support(approx.head)) <= s


def test_head_min_kept_at_least_max_dropped(rng):
    for _ in range(20):
        st_ = random_structure(rng, max_blocks=7)
        x = random_signal(rng, st_)
        s = int(rng.integers(1, st_.num_blocks + 1))
        approx = best_block_approx(x, s)
        norms = x.block_norms()
        kept = sorted(approx.kept_blocks)
        dropped = [i for i in range(st_.num_blocks) if i not in approx.kept_blocks]
        if kept and dropped:
            assert min(norms[kept]) >= max(norms[dropped]) - 1e-15


# --- norm properties ---

def test_norm_chain_for_block_sparse(rng):
    # for block s-sparse x:  ||x||_(2,inf) <= ||x||_2 <= ||x||_(2,I) <= sqrt(s)*||x||_2
    for _ in range(50):
        st_ = random_structure(rng, max_blocks=8)
        s = int(rng.integers(1, st_.num_blocks + 1))
        x = random_block_sparse(rng, st_, s)
        n_inf = mixed_norm_2_inf(x)
        n_2 = float(np.linalg.norm(x.coeffs))
        n_21 = mixed_norm_2_1(x)
        slack = 1e-10 * max(1.0, n_21)
        assert n_inf <= n_2 + slack
        assert n_2 <= n_21 + slack
        assert n_21 <= math.sqrt(s) * n_2 + slack


def test_l2_norm_equals_block_quadrature(rng):
    for _ in range(20):
        st_ = random_structure(rng)
        x = random_signal(rng, st_)
        via_blocks = math.sqrt(float((x.block_norms() ** 2).sum()))
        assert abs(via_blocks - np.linalg.norm(x.coeffs)) <= 1e-12 * max(1.0, via_blocks)


coeff_lists = st.lists(
    st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=6, max_size=6
)


@settings(max_examples=50, deadline=None)
@given(coeff_lists, coeff_lists)
def test_mixed_norm_triangle_inequality(a, b):
    st_ = BlockStructure((2, 1, 3))
    xa, xb = BlockSignal(a, st_), BlockSignal(b, st_)
    lhs = mixed_norm_2_1(xa + xb)
    rhs = mixed_norm_2_1(xa) + mixed_norm_2_1(xb)
    assert lhs <= rhs + 1e-10 * max(1.0, rhs)


@settings(max_examples=50, deadline=None)
@given(coeff_lists, st.floats(min_value=-10, max_value=10, allow_nan=False))
def test_mixed_norm_homogeneity(a, c):
    st_ = BlockStructure((3, 3))
    x = BlockSignal(a, st_)
    assert mixed_norm_2_1(c * x) == pytest.approx(abs(c) * mixed_norm_2_1(x), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(coeff_lists, st.integers(min_value=0, max_value=3))
def test_best_block_approx_idempotent_on_head(a, s):
    st_ = BlockStructure((2, 2, 2))
    x = BlockSignal(a, st_)
    head = best_block_approx(x, s).head
    again = best_block_approx(head, s).head
    np.testing.assert_array_equal(again.coeffs, head.coeffs)


_THREE = BlockStructure.uniform(2, 3)


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("BlockStructure", "block_lengths[0]", lambda v: BlockStructure((v, 2)), BAD_COUNTS),
    ("uniform", "block_length", lambda v: BlockStructure.uniform(v, 2), BAD_COUNTS),
    ("uniform", "num_blocks", lambda v: BlockStructure.uniform(2, v), BAD_COUNTS),
    ("best_block_approx", "s",
     lambda v: best_block_approx(BlockSignal([1.0, 2.0, 3.0], BlockStructure((1, 1, 1))), v),
     BAD_COUNTS),
    # -1 would index the block edges from the end, 3 past them
    ("block_slice", "i", lambda v: _THREE.block_slice(v), (*BAD_COUNTS, 2.5, -1, 3)),
    ("block_indices", "blocks[1]", lambda v: _THREE.block_indices([0, v]), (*BAD_COUNTS, 2.5, -1, 3)),
    ("block", "i", lambda v: BlockSignal.zeros(_THREE).block(v), (*BAD_COUNTS, 2.5, -1, 3)),
    ("column_block", "i", lambda v: SensingMatrix(np.eye(6), _THREE).column_block(v),
     (*BAD_COUNTS, 2.5, -1, 3)),
))
def test_rejects_bad_count(name, call, value):
    with rejects_argument(name, value):
        call(value)


@pytest.mark.parametrize("value, got", [(5, "int"), (None, "NoneType"), (2.5, "float")],
                         ids=["int", "None", "float"])
def test_structure_rejects_block_lengths_that_are_no_sequence(value, got):
    with pytest.raises(ValueError, match=rf"^block_lengths must be a sequence of integers >= 1, "
                                         rf"got {got}$"):
        BlockStructure(value)


@pytest.mark.parametrize("value", BAD_REALS)
def test_scalar_multiple_rejects_bad_scalar(value):
    x = BlockSignal([1.0, 2.0], BlockStructure((2,)))
    with rejects_argument("scalar", value):
        value * x


@pytest.mark.parametrize("name, call, value", bad_arrays(
    ("BlockSignal", "coeffs", lambda v: BlockSignal(v, BlockStructure((1, 2))), [1.0, 2.0, 3.0]),
))
def test_rejects_bad_array(name, call, value):
    with rejects_array(name):
        call(value)


def test_signal_copies_integer_coefficients_as_floats():
    coeffs = np.array([1, 2, 3])
    x = BlockSignal(coeffs, BlockStructure((1, 2)))
    assert x.coeffs.dtype == np.float64 and not np.shares_memory(x.coeffs, coeffs)
    np.testing.assert_array_equal(x.coeffs, [1.0, 2.0, 3.0])

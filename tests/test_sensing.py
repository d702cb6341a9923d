import itertools
import math

import numpy as np
import pytest

from blockcs import (
    BlockSignal,
    BlockStructure,
    apply,
    block_support,
    exact_block_ric,
    gaussian_matrix,
    mixed_norm_2_0,
    mixed_norm_2_1,
    sharpness_instance,
    spread_kernel_matrix,
    SensingMatrix,
)
from conftest import BAD_COUNTS, BAD_REALS, bad_arguments, bad_arrays, rejects_argument, rejects_array


def test_gaussian_determinism():
    st_ = BlockStructure.uniform(2, 4)
    a = gaussian_matrix(4, st_, seed=7)
    b = gaussian_matrix(4, st_, seed=7)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_gaussian_seed_sensitivity():
    st_ = BlockStructure.uniform(2, 4)
    a = gaussian_matrix(4, st_, seed=7)
    b = gaussian_matrix(4, st_, seed=8)
    assert np.any(a.entries != b.entries)


def test_gaussian_rejects_bad_rows():
    with pytest.raises(ValueError):
        gaussian_matrix(0, BlockStructure((2, 2)), seed=1)


def test_gaussian_column_norms_concentrate():
    # variance 1/M puts column norms near 1 for M = 200
    st_ = BlockStructure.uniform(2, 4)
    phi = gaussian_matrix(200, st_, seed=123)
    mean_norm = float(np.linalg.norm(phi.entries, axis=0).mean())
    assert abs(mean_norm - 1.0) < 0.1


def test_matrix_structure_mismatch():
    with pytest.raises(ValueError):
        SensingMatrix(np.eye(3), BlockStructure((2, 2)))


def test_matrices_are_equal_by_structure_and_entries():
    phi = gaussian_matrix(3, BlockStructure((1, 2)), seed=4)
    assert phi == SensingMatrix(phi.entries.copy(), phi.structure)
    assert not phi != SensingMatrix(phi.entries.copy(), phi.structure)
    assert phi != gaussian_matrix(3, BlockStructure((1, 2)), seed=5)
    assert phi != SensingMatrix(phi.entries, BlockStructure((2, 1)))
    assert phi.__eq__(phi.entries) is NotImplemented
    with pytest.raises(TypeError, match="unhashable"):
        hash(phi)


def test_apply_identity_and_zero(rng):
    st_ = BlockStructure((2, 3))
    phi = SensingMatrix(np.eye(5), st_)
    x = BlockSignal(rng.standard_normal(5), st_)
    np.testing.assert_allclose(apply(phi, x), x.coeffs, atol=0)
    np.testing.assert_array_equal(apply(phi, BlockSignal.zeros(st_)), np.zeros(5))


def test_apply_matches_triple_loop_oracle(rng):
    st_ = BlockStructure((2, 2, 1))
    phi = SensingMatrix(rng.standard_normal((4, 5)), st_)
    x = BlockSignal(rng.standard_normal(5), st_)
    expected = np.zeros(4)
    for i in range(4):
        acc = 0.0
        for j in range(5):
            acc += phi.entries[i, j] * x.coeffs[j]
        expected[i] = acc
    np.testing.assert_allclose(apply(phi, x), expected, atol=1e-12)


def test_apply_structure_mismatch(rng):
    phi = SensingMatrix(np.eye(4), BlockStructure((2, 2)))
    x = BlockSignal(rng.standard_normal(4), BlockStructure((1, 3)))
    with pytest.raises(ValueError):
        apply(phi, x)


# --- the threshold-attaining construction ---

def test_sharpness_invariants():
    inst = sharpness_instance(1.0, 2, 2, 6)
    assert abs(np.linalg.norm(inst.x1.coeffs) - 1.0) <= 1e-12
    np.testing.assert_allclose(apply(inst.phi, inst.x1), 0.0, atol=1e-12)
    np.testing.assert_allclose(
        apply(inst.phi, inst.x0), apply(inst.phi, inst.x_hat), atol=1e-12
    )
    sd = 2 * math.sqrt(2)
    assert abs(mixed_norm_2_1(inst.x0) - sd) <= 1e-12
    assert abs(mixed_norm_2_1(inst.x_hat) - sd) <= 1e-12
    assert mixed_norm_2_0(inst.x0) == 2
    assert mixed_norm_2_0(inst.x_hat) == 2
    assert block_support(inst.x0).isdisjoint(block_support(inst.x_hat))
    assert np.linalg.norm(inst.x0.coeffs - inst.x_hat.coeffs) > 1.0


def test_sharpness_witness_difference_is_kernel_direction():
    inst = sharpness_instance(0.5, 2, 3, 7)
    diff = inst.x0.coeffs - inst.x_hat.coeffs
    scale = math.sqrt(2 * inst.s * inst.d)
    np.testing.assert_allclose(diff, scale * inst.x1.coeffs, atol=1e-12)
    np.testing.assert_allclose(inst.phi.entries @ diff, 0.0, atol=1e-12)


def test_sharpness_mixed_norm_small_instance():
    inst = sharpness_instance(1.0, 2, 1, 5)
    assert mixed_norm_2_1(inst.x0) == pytest.approx(2.0, abs=1e-12)
    assert mixed_norm_2_1(inst.x_hat) == pytest.approx(2.0, abs=1e-12)


def test_sharpness_attains_exact_constant():
    inst = sharpness_instance(1.0, 2, 2, 6)
    cert = exact_block_ric(inst.phi, 2)
    assert abs(cert.delta - 1.0 / 3.0) <= 1e-10


def test_sharpness_parameter_errors():
    with pytest.raises(ValueError):
        sharpness_instance(1.0, 2, 2, 4)   # needs 2s < l
    with pytest.raises(ValueError):
        sharpness_instance(4.0 / 3.0, 2, 2, 6)
    with pytest.raises(ValueError):
        sharpness_instance(0.0, 2, 2, 6)
    with pytest.raises(ValueError):
        sharpness_instance(1.0, 0, 2, 6)


@pytest.mark.parametrize("t,s,d,l", [(1.0, 2, 2, 6), (1.0, 2, 1, 5), (2.0 / 3.0, 3, 1, 8)])
def test_sharpness_two_sided_bound_on_first_blocks(t, s, d, l):
    # for every block (t*s)-sparse x supported in the first 2s blocks:
    #   (1 - t/(4-t)) ||x||^2 <= ||Phi x||^2 <= (1 + t/(4-t)) ||x||^2,
    # checked through restricted Gram eigenvalues over all such supports
    inst = sharpness_instance(t, s, d, l)
    order = round(t * s)
    delta = t / (4.0 - t)
    entries = inst.phi.entries
    st_ = inst.phi.structure
    for sup in itertools.combinations(range(2 * s), order):
        cols = st_.block_indices(sup)
        sub = entries[:, cols]
        w = np.linalg.eigvalsh(sub.T @ sub)
        assert w[0] >= 1.0 - delta - 1e-10
        assert w[-1] <= 1.0 + delta + 1e-10


# --- engineered spread-kernel instances ---

def test_spread_kernel_certifies_small_constant():
    st_ = BlockStructure.uniform(2, 12)
    phi = spread_kernel_matrix(21, st_, seed=5)
    assert phi.num_rows == 21
    cert = exact_block_ric(phi, 2)
    assert cert.delta < 1.0 / 3.0


def test_spread_kernel_determinism():
    st_ = BlockStructure.uniform(2, 6)
    a = spread_kernel_matrix(11, st_, seed=3)
    b = spread_kernel_matrix(11, st_, seed=3)
    np.testing.assert_array_equal(a.entries, b.entries)


def test_spread_kernel_rejects_overdetermined():
    st_ = BlockStructure.uniform(2, 4)
    with pytest.raises(ValueError):
        spread_kernel_matrix(8, st_, seed=1)


def test_spread_kernel_rejects_balance_order_out_of_range():
    st_ = BlockStructure.uniform(2, 3)
    for order in (0, 5):
        with pytest.raises(ValueError):
            spread_kernel_matrix(4, st_, 1, balance_order=order)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        SensingMatrix([[1.0, bad]], BlockStructure.uniform(1, 2))


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("gaussian_matrix", "m", lambda v: gaussian_matrix(v, BlockStructure.uniform(2, 4), 1),
     BAD_COUNTS),
    ("spread_kernel_matrix", "m",
     lambda v: spread_kernel_matrix(v, BlockStructure.uniform(2, 4), 1), BAD_COUNTS),
    ("sharpness_instance", "t", lambda v: sharpness_instance(v, 2, 2, 6), BAD_REALS),
    ("sharpness_instance", "s", lambda v: sharpness_instance(1.0, v, 2, 6), BAD_COUNTS),
    ("sharpness_instance", "d", lambda v: sharpness_instance(1.0, 2, v, 6), BAD_COUNTS),
    ("sharpness_instance", "l", lambda v: sharpness_instance(1.0, 2, 2, v), BAD_COUNTS),
))
def test_rejects_bad_count_or_real(name, call, value):
    with rejects_argument(name, value):
        call(value)


@pytest.mark.parametrize("name, call, value", bad_arrays(
    ("SensingMatrix", "entries", lambda v: SensingMatrix(v, BlockStructure.uniform(1, 2)),
     [[1.0, 0.0], [0.0, 1.0]]),
))
def test_rejects_bad_array(name, call, value):
    with rejects_array(name):
        call(value)

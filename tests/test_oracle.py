import itertools
import math

import numpy as np
import pytest

from blockcs import (
    BlockSignal,
    BlockStructure,
    EnumerationCapError,
    HypothesisNotMetError,
    NoSparseFitError,
    SensingMatrix,
    apply,
    brute_force_l20,
    cone_constraint_check,
    gaussian_matrix,
    sharpness_instance,
    tail_power_check,
)
from conftest import random_block_sparse


def test_oracle_zero_observation():
    st_ = BlockStructure.uniform(2, 4)
    phi = gaussian_matrix(4, st_, seed=1)
    sol = brute_force_l20(phi, np.zeros(4), s_max=2)
    assert sol.sparsity == 0
    assert sol.support == ()
    np.testing.assert_array_equal(sol.estimate.coeffs, np.zeros(8))


def test_oracle_one_block_fit():
    st_ = BlockStructure.uniform(2, 5)
    phi = gaussian_matrix(6, st_, seed=3)
    truth = np.zeros(10)
    truth[4:6] = [1.5, -2.0]  # block 2
    b = phi.entries @ truth
    sol = brute_force_l20(phi, b, s_max=3)
    assert sol.sparsity == 1
    assert sol.support == (2,)
    assert sol.residual <= 1e-10
    np.testing.assert_allclose(sol.estimate.coeffs, truth, atol=1e-10)


def test_oracle_lexicographic_tie_break():
    # duplicated column-blocks: supports {0} and {1} fit equally well
    st_ = BlockStructure.uniform(2, 3)
    col = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    other = np.array([[0.5, 0.2], [0.3, -0.4], [0.1, 0.9]])
    phi = SensingMatrix(np.hstack([col, col, other]), st_)
    b = col @ np.array([2.0, -1.0])
    sol = brute_force_l20(phi, b, s_max=2)
    assert sol.sparsity == 1
    assert sol.support == (0,)


def test_oracle_tie_break_across_block_widths():
    # blocks 0 (two columns) and 1 (one column) both fit exactly; block 1's width
    # group is searched first, yet the lexicographically first support wins
    e = np.eye(3)
    phi = SensingMatrix(np.column_stack([e[0], e[1], e[0], e[2], e[1]]), BlockStructure((2, 1, 2)))
    sol = brute_force_l20(phi, 2.0 * e[0], s_max=1)
    assert (sol.support, sol.residual, sol.supports_searched) == ((0,), 0.0, 4)
    np.testing.assert_array_equal(sol.estimate.coeffs, [2.0, 0.0, 0.0, 0.0, 0.0])


def _supports_identifiable(phi, s):
    # spark-style check: every union of two size-s block supports keeps
    # full column rank, so block s-sparse representations are unique
    st_ = phi.structure
    l = st_.num_blocks
    sups = list(itertools.combinations(range(l), s))
    for s1, s2 in itertools.combinations(sups, 2):
        union = sorted(set(s1) | set(s2))
        cols = st_.block_indices(union)
        sub = phi.entries[:, cols]
        if np.linalg.matrix_rank(sub, tol=1e-10) < sub.shape[1]:
            return False
        if np.linalg.cond(sub) > 1e6:
            return False
    return True


def test_oracle_recovers_true_support_over_seeded_trials(rng):
    st_ = BlockStructure.uniform(2, 8)
    hits = 0
    trials = 0
    for seed in range(50):
        phi = gaussian_matrix(8, st_, seed=seed)
        if not _supports_identifiable(phi, 2):
            continue
        trials += 1
        x = random_block_sparse(rng, st_, 2)
        b = apply(phi, x)
        sol = brute_force_l20(phi, b, s_max=3)
        expected = tuple(sorted(int(i) for i in np.nonzero(x.block_norms())[0]))
        if sol.support == expected:
            hits += 1
    assert trials >= 40  # well-conditioned instances dominate at this size
    assert hits == trials


def test_oracle_minimality(rng):
    st_ = BlockStructure.uniform(2, 6)
    phi = gaussian_matrix(8, st_, seed=4)
    x = random_block_sparse(rng, st_, 2)
    b = apply(phi, x)
    sol = brute_force_l20(phi, b, s_max=3)
    assert sol.sparsity == 2
    for drop in sol.support:
        keep = [i for i in sol.support if i != drop]
        cols = st_.block_indices(keep)
        sub = phi.entries[:, cols]
        coef, *_ = np.linalg.lstsq(sub, b, rcond=None)
        assert np.linalg.norm(sub @ coef - b) > 1e-8


def test_oracle_not_found_signal():
    st_ = BlockStructure.uniform(2, 4)
    phi = gaussian_matrix(6, st_, seed=5)
    rng = np.random.Generator(np.random.Philox(key=55))
    b = rng.standard_normal(6)  # generic b is not 1-sparse representable
    with pytest.raises(NoSparseFitError) as err:
        brute_force_l20(phi, b, s_max=1)
    assert err.value.best_residual > 1e-8


def test_oracle_cap_error():
    st_ = BlockStructure.uniform(1, 30)
    phi = gaussian_matrix(10, st_, seed=6)
    with pytest.raises(EnumerationCapError) as err:
        brute_force_l20(phi, np.zeros(10), s_max=15, cap=10_000)
    total = sum(math.comb(30, k) for k in range(16))
    assert err.value.num_supports == total
    assert str(total) in str(err.value)


def test_oracle_rejects_non_finite_observation():
    phi = gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1)
    with pytest.raises(ValueError, match="finite"):
        brute_force_l20(phi, np.array([0.0, np.nan, 0.0, 0.0]), s_max=1)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_oracle_rejects_bad_residual_tol(tol):
    inst = sharpness_instance(1.0, 2, 2, 6)
    with pytest.raises(ValueError, match="residual_tol"):
        brute_force_l20(inst.phi, apply(inst.phi, inst.x0), s_max=2, residual_tol=tol)


# --- sorted tail power-sum inequality ---

def test_tail_power_boundary_equality():
    rep = tail_power_check([1.0, 1.0], s=1, alpha=2.0, psi=0.0)
    assert rep.lhs == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(1.0)
    assert rep.holds


def test_tail_power_simple_case():
    rep = tail_power_check([2.0, 1.0, 1.0], s=1, alpha=2.0, psi=0.0)
    assert rep.lhs == pytest.approx(2.0)
    assert rep.rhs == pytest.approx(4.0)
    assert rep.holds


def test_tail_power_input_validation():
    with pytest.raises(ValueError):
        tail_power_check([1.0, 2.0], s=1, alpha=2.0)  # not nonincreasing
    with pytest.raises(ValueError):
        tail_power_check([1.0, -0.5], s=1, alpha=2.0)
    with pytest.raises(ValueError):
        tail_power_check([1.0, 0.5], s=1, alpha=0.5)  # alpha < 1
    with pytest.raises(ValueError):
        tail_power_check([1.0, 0.5], s=1, alpha=2.0, psi=-1.0)


def test_tail_power_hypothesis_not_met():
    # head sum 1 < tail sum 1.8 and psi = 0: no verdict possible
    with pytest.raises(HypothesisNotMetError):
        tail_power_check([1.0, 0.9, 0.9], s=1, alpha=2.0, psi=0.0)


def test_tail_power_randomized_battery(rng):
    # the inequality always holds; any failure here is an implementation bug
    for _ in range(1000):
        l = int(rng.integers(2, 12))
        a = np.sort(rng.gamma(1.0, 1.0, l))[::-1]
        s = int(rng.integers(1, l + 1))
        alpha = float(rng.uniform(1.0, 3.0))
        head, tail = a[:s].sum(), a[s:].sum()
        if head >= tail:
            psi = float(rng.uniform(0.0, tail + 1.0)) if rng.random() < 0.5 else 0.0
        else:
            psi = float(tail - head + rng.uniform(0.0, 1.0))
        rep = tail_power_check(a, s=s, alpha=alpha, psi=psi)
        assert rep.holds, (a, s, alpha, psi, rep)


# --- cone-constraint diagnostic ---

def test_cone_check_zero_error(rng):
    st_ = BlockStructure.uniform(2, 5)
    x = BlockSignal(rng.standard_normal(10), st_)
    rep = cone_constraint_check(BlockSignal.zeros(st_), x, 2)
    assert rep.lhs == 0.0
    assert rep.slack >= 0.0


def test_cone_check_sparse_truth_sparse_error(rng):
    st_ = BlockStructure.uniform(2, 6)
    x = random_block_sparse(rng, st_, 2)
    h = random_block_sparse(rng, st_, 2)
    rep = cone_constraint_check(h, x, 2)
    # h is block 2-sparse: its tail vanishes, so the bound is immediate
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)
    assert rep.slack >= 0.0


def test_cone_check_structure_mismatch(rng):
    a = BlockSignal(rng.standard_normal(4), BlockStructure((2, 2)))
    b = BlockSignal(rng.standard_normal(4), BlockStructure((1, 3)))
    with pytest.raises(ValueError):
        cone_constraint_check(a, b, 1)

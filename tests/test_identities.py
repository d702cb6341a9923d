import numpy as np
import pytest

from blockcs import (
    BlockSignal,
    BlockStructure,
    SensingMatrix,
    gaussian_matrix,
    mixed_norm_2_0,
    mixed_norm_2_1,
    mixed_norm_2_inf,
    polytope_decompose,
    disjoint_pair_energy_residual,
    subset_energy_difference_residual,
    subset_inner_product_residual,
    subset_sum_residual,
)
from conftest import BAD_COUNTS, BAD_REALS, bad_arguments, random_signal, rejects_argument


# --- subset-sum identity ---

def test_subset_sum_full_subset(rng):
    vectors = [rng.standard_normal(3) for _ in range(4)]
    assert subset_sum_residual(vectors, 4) <= 1e-14


def test_subset_sum_singletons():
    vectors = [np.eye(3)[i] for i in range(3)]
    assert subset_sum_residual(vectors, 1) <= 1e-15


def test_subset_sum_random(rng):
    vectors = [rng.standard_normal(4) for _ in range(5)]
    assert subset_sum_residual(vectors, 3) <= 1e-12


def test_subset_sum_parameter_errors(rng):
    vectors = [rng.standard_normal(2) for _ in range(3)]
    with pytest.raises(ValueError):
        subset_sum_residual(vectors, 0)
    with pytest.raises(ValueError):
        subset_sum_residual(vectors, 4)


# --- pairwise inner-product identity ---

def test_subset_inner_full_subset(rng):
    vectors = [rng.standard_normal(3) for _ in range(4)]
    assert subset_inner_product_residual(vectors, 4) <= 1e-12


def test_subset_inner_orthogonal_vectors():
    vectors = [np.eye(4)[i] for i in range(4)]
    assert subset_inner_product_residual(vectors, 2) == 0.0


def test_subset_inner_random(rng):
    vectors = [rng.standard_normal(4) for _ in range(5)]
    assert subset_inner_product_residual(vectors, 3) <= 1e-12


def test_subset_inner_requires_m_at_least_two(rng):
    vectors = [rng.standard_normal(2) for _ in range(3)]
    with pytest.raises(ValueError):
        subset_inner_product_residual(vectors, 1)


# --- column-block energy identities ---

def test_energy_difference_m_equals_n(rng):
    st_ = BlockStructure.uniform(2, 4)
    phi = gaussian_matrix(5, st_, seed=1)
    x = random_signal(rng, st_)
    assert subset_energy_difference_residual(phi, x, 2, 2) <= 1e-12


def test_energy_difference_single_block_signal():
    st_ = BlockStructure.uniform(1, 3)
    phi = gaussian_matrix(3, st_, seed=2)
    coeffs = np.zeros(3)
    coeffs[1] = 2.0
    x = BlockSignal(coeffs, st_)
    assert subset_energy_difference_residual(phi, x, 2, 1) <= 1e-12


def test_energy_difference_random(rng):
    st_ = BlockStructure.uniform(2, 6)
    phi = gaussian_matrix(6, st_, seed=3)
    x = random_signal(rng, st_)
    assert subset_energy_difference_residual(phi, x, 3, 2) <= 1e-10


def test_disjoint_energy_zero_signal():
    st_ = BlockStructure.uniform(2, 4)
    phi = gaussian_matrix(4, st_, seed=4)
    assert disjoint_pair_energy_residual(phi, BlockSignal.zeros(st_), 1, 2) == 0.0


def test_disjoint_energy_two_blocks_identity(rng):
    st_ = BlockStructure.uniform(1, 2)
    phi = SensingMatrix(np.eye(2), st_)
    x = random_signal(rng, st_)
    assert disjoint_pair_energy_residual(phi, x, 1, 1) <= 1e-12


def test_disjoint_energy_random(rng):
    st_ = BlockStructure.uniform(2, 6)
    phi = gaussian_matrix(6, st_, seed=5)
    x = random_signal(rng, st_)
    assert disjoint_pair_energy_residual(phi, x, 2, 2) <= 1e-10


def test_disjoint_energy_requires_room():
    st_ = BlockStructure.uniform(2, 3)
    phi = gaussian_matrix(4, st_, seed=6)
    x = BlockSignal.zeros(st_)
    with pytest.raises(ValueError):
        disjoint_pair_energy_residual(phi, x, 2, 2)


def test_identity_battery_random_grid(rng):
    # identities hold across the parameter grid; residual is float noise
    for _ in range(50):
        s = int(rng.integers(2, 9))
        m = int(rng.integers(1, s + 1))
        vectors = [rng.standard_normal(4) for _ in range(s)]
        assert subset_sum_residual(vectors, m) <= 1e-10
        if m >= 2:
            assert subset_inner_product_residual(vectors, m) <= 1e-10
        l = int(rng.integers(2, 9))
        d = int(rng.integers(1, 3))
        st_ = BlockStructure.uniform(d, l)
        rows = int(rng.integers(2, 7))
        phi = SensingMatrix(rng.standard_normal((rows, st_.total_dim)) / np.sqrt(rows), st_)
        x = random_signal(rng, st_)
        mm = int(rng.integers(1, l + 1))
        nn = int(rng.integers(1, l + 1))
        assert subset_energy_difference_residual(phi, x, mm, nn) <= 1e-10
        if l >= mm + nn:
            assert disjoint_pair_energy_residual(phi, x, mm, nn) <= 1e-10


# --- block polytope decomposition ---

def check_decomposition(dec, x, alpha, s):
    lams = np.array([lam for lam, _ in dec.terms])
    assert abs(lams.sum() - 1.0) <= 1e-12
    assert np.all(lams >= -1e-15) and np.all(lams <= 1.0 + 1e-15)
    recon = sum(lam * u.coeffs for lam, u in dec.terms)
    np.testing.assert_allclose(recon, x.coeffs, atol=1e-10)
    src_norm = mixed_norm_2_1(x)
    src_support = set(np.nonzero(x.block_norms())[0])
    energy = 0.0
    for lam, u in dec.terms:
        assert mixed_norm_2_0(u) <= s
        assert set(np.nonzero(u.block_norms())[0]) <= src_support
        if src_norm > 0:
            assert abs(mixed_norm_2_1(u) - src_norm) <= 1e-10 * max(1.0, src_norm)
        assert mixed_norm_2_inf(u) <= alpha + 1e-12
        energy += lam * float(np.linalg.norm(u.coeffs) ** 2)
    assert energy <= s * alpha**2 + 1e-10


def _random_member(rng, structure, s, alpha):
    l = structure.num_blocks
    raw = rng.gamma(1.0, 1.0, l) * (rng.random(l) < 0.85)
    if raw.sum() == 0:
        raw[0] = 1.0
    a = raw / raw.sum() * (s * alpha * rng.uniform(0.2, 1.0))
    for _ in range(100):
        over = a > alpha
        if not over.any():
            break
        excess = float((a[over] - alpha).sum())
        a[over] = alpha
        under = ~over & (a > 0)
        if not under.any():
            break
        a[under] += excess * a[under] / a[under].sum()
    a = np.minimum(a, alpha)
    coeffs = np.zeros(structure.total_dim)
    for i in range(l):
        if a[i] > 0:
            sl = structure.block_slice(i)
            v = rng.standard_normal(sl.stop - sl.start)
            coeffs[sl] = v * (a[i] / np.linalg.norm(v))
    return BlockSignal(coeffs, structure)


def test_polytope_sparse_input_single_term(rng):
    st_ = BlockStructure.uniform(2, 6)
    coeffs = np.zeros(12)
    coeffs[0:2] = [0.3, 0.4]
    coeffs[6:8] = [0.0, 0.5]
    x = BlockSignal(coeffs, st_)
    dec = polytope_decompose(x, alpha=1.0, s=2)
    assert len(dec.terms) == 1
    lam, u = dec.terms[0]
    assert lam == pytest.approx(1.0)
    np.testing.assert_allclose(u.coeffs, x.coeffs, atol=1e-12)


def test_polytope_zero_input(rng):
    st_ = BlockStructure.uniform(2, 3)
    dec = polytope_decompose(BlockSignal.zeros(st_), alpha=1.0, s=2)
    assert len(dec.terms) == 1
    assert dec.terms[0][0] == 1.0
    np.testing.assert_array_equal(dec.terms[0][1].coeffs, np.zeros(6))


def test_polytope_membership_errors(rng):
    st_ = BlockStructure.uniform(2, 4)
    big = BlockSignal(np.full(8, 2.0), st_)
    with pytest.raises(ValueError, match="2,inf"):
        polytope_decompose(big, alpha=1.0, s=4)
    spread = BlockSignal(np.full(8, 0.7), st_)  # block norms ~0.99, mix ~3.96
    with pytest.raises(ValueError, match="2,I"):
        polytope_decompose(spread, alpha=1.0, s=2)


def test_polytope_random_members_all_invariants(rng):
    st_ = BlockStructure.uniform(2, 6)
    for _ in range(60):
        x = _random_member(rng, st_, 2, 1.0)
        dec = polytope_decompose(x, alpha=1.0, s=2)
        check_decomposition(dec, x, 1.0, 2)


def test_polytope_term_count_budget(rng):
    for _ in range(60):
        l = int(rng.integers(2, 9))
        d = int(rng.integers(1, 3))
        s = int(rng.integers(1, l + 1))
        alpha = float(rng.uniform(0.4, 2.0))
        st_ = BlockStructure.uniform(d, l)
        x = _random_member(rng, st_, s, alpha)
        dec = polytope_decompose(x, alpha, s)
        active = mixed_norm_2_0(x)
        assert len(dec.terms) <= 1 + active
        check_decomposition(dec, x, alpha, s)


def _phi_and_x():
    structure = BlockStructure.uniform(1, 4)
    return gaussian_matrix(3, structure, seed=1), BlockSignal(np.ones(4), structure)


_VECTORS = [np.ones(2), np.zeros(2), -np.ones(2)]
_MEMBER = BlockSignal([0.5, 0.5], BlockStructure((1, 1)))


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("subset_sum_residual", "m", lambda v: subset_sum_residual(_VECTORS, v), BAD_COUNTS),
    ("subset_inner_product_residual", "m",
     lambda v: subset_inner_product_residual(_VECTORS, v), BAD_COUNTS),
    ("subset_energy_difference_residual", "m",
     lambda v: subset_energy_difference_residual(*_phi_and_x(), v, 1), BAD_COUNTS),
    ("subset_energy_difference_residual", "n",
     lambda v: subset_energy_difference_residual(*_phi_and_x(), 1, v), BAD_COUNTS),
    ("disjoint_pair_energy_residual", "m",
     lambda v: disjoint_pair_energy_residual(*_phi_and_x(), v, 1), BAD_COUNTS),
    ("disjoint_pair_energy_residual", "n",
     lambda v: disjoint_pair_energy_residual(*_phi_and_x(), 1, v), BAD_COUNTS),
    ("polytope_decompose", "alpha", lambda v: polytope_decompose(_MEMBER, v, 2), BAD_REALS),
    ("polytope_decompose", "s", lambda v: polytope_decompose(_MEMBER, 1.0, v), BAD_COUNTS),
))
def test_rejects_bad_count_or_real(name, call, value):
    with rejects_argument(name, value):
        call(value)

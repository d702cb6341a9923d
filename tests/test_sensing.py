import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blockcs.sensing as sensing
from blockcs import (
    BlockSignal,
    BlockStructure,
    EnumerationCapError,
    apply,
    block_support,
    check_condition,
    exact_block_ric,
    gaussian_matrix,
    generator,
    mixed_norm_2_0,
    mixed_norm_2_1,
    sharpness_instance,
    spread_kernel_matrix,
    SensingMatrix,
    stream_key,
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


# (t, s, d, l) of the threshold instances with t*s >= 2 at the least l = 2s + 1: 51 cases
SHARP_GRID = [(t, s, d, 2 * s + 1) for t in (0.5, 2.0 / 3.0, 0.8, 1.0, 1.1, 1.2, 1.3)
              for s in (2, 3, 4) for d in (1, 2, 3) if t * s >= 2.0 - 1e-12]


def _positive_definite(A) -> bool:
    """Whether the symmetric matrix A of Fractions (a list of rows) is positive
    definite: every pivot of its LDL^T factorization, in exact arithmetic, is > 0."""
    A = [row[:] for row in A]
    for k, row_k in enumerate(A):
        if row_k[k] <= 0:
            return False
        for row in A[k + 1:]:
            f = row[k] / row_k[k]
            for j in range(k + 1, len(row)):
                row[j] -= f * row_k[j]
    return True


def _not_below(phi, t, order) -> bool:
    """Whether the block RIC of `phi` as stored, at `order`, is at least thr =
    t/(4-t), both exact: whether some support's Gram matrix G has
    G - (1 - thr) I or (1 + thr) I - G not positive definite.  Stops at the first
    such support."""
    thr = Fraction(t) / (4 - Fraction(t))
    cols = [[Fraction(v) for v in col] for col in phi.entries.T.tolist()]
    structure = phi.structure
    for sup in itertools.combinations(range(structure.num_blocks), order):
        sub = [cols[i] for i in structure.block_indices(sup).tolist()]
        G = [[sum(a * b for a, b in zip(ci, cj)) for cj in sub] for ci in sub]
        low = [[g - (1 - thr) * (i == j) for j, g in enumerate(row)] for i, row in enumerate(G)]
        high = [[(1 + thr) * (i == j) - g for j, g in enumerate(row)] for i, row in enumerate(G)]
        if not (_positive_definite(low) and _positive_definite(high)):
            return True
    return False


@pytest.mark.parametrize("t", sorted({case[0] for case in SHARP_GRID}))
def test_sharpness_instance_is_not_below_the_threshold_in_exact_arithmetic(t):
    # the matrix as stored, with c**2 >= 4/(4-t) exactly, is not below the threshold
    for _, s, d, l in (case for case in SHARP_GRID if case[0] == t):
        inst = sharpness_instance(t, s, d, l)
        assert _not_below(inst.phi, t, check_condition(0.0, t, s).effective_order), (s, d)


def test_sharpness_instance_fails_the_float_condition():
    assert len(SHARP_GRID) == 51
    ok = []
    for t, s, d, l in SHARP_GRID:
        order = check_condition(0.0, t, s).effective_order
        delta = exact_block_ric(sharpness_instance(t, s, d, l).phi, order).delta
        if check_condition(delta, t, s).ok:
            ok.append((t, s, d))
    assert not ok


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


def _no_flattening(monkeypatch):
    def flatten(V):
        raise AssertionError("a flattening pass ran before the argument checks")
    monkeypatch.setattr(sensing, "orthonormal", flatten)


def test_spread_kernel_rejects_one_block_naming_l(monkeypatch):
    # the kernel is balanced at order 2, before any flattening pass; a single column
    # leaves no m to name
    _no_flattening(monkeypatch)
    for d, m in [(4, 2), (1, 1)]:
        with pytest.raises(ValueError, match=r"^l must be an integer >= 2, got 1$"):
            spread_kernel_matrix(m, BlockStructure.uniform(d, 1), 1)


def test_spread_kernel_checks_the_enumeration_cap_before_building(monkeypatch):
    _no_flattening(monkeypatch)
    with pytest.raises(EnumerationCapError,
                       match=r"^C\(1415, 2\) = 1000405 block supports exceeds the enumeration cap 1000000$"):
        spread_kernel_matrix(10, BlockStructure.uniform(1, 1415), 1)


def _reference_spread_kernel(m, structure, seed):
    """spread_kernel_matrix as built through np.linalg.qr and np.linalg.norm."""
    n = structure.total_dim
    rng = generator(seed)
    k = n - m
    V = rng.standard_normal((n, k))
    target = np.sqrt(k / n)
    for _ in range(100):
        V, _ = np.linalg.qr(V)
        row_norms = np.linalg.norm(V, axis=1, keepdims=True)
        V = V * (target / np.maximum(row_norms, 1e-300)) ** 0.9
    V, _ = np.linalg.qr(V)
    proj = np.eye(n) - V @ V.T
    w, U = np.linalg.eigh(proj)
    basis = U[:, w > 0.5]
    cert = exact_block_ric(SensingMatrix(basis.T, structure), 2)
    c = 2.0 / (cert.max_eig + cert.min_eig)
    return SensingMatrix(np.sqrt(c) * basis.T, structure)


@st.composite
def _spread_cases(draw):
    """(m, structure, seed): uniform or ragged blocks, n - m in [1, n - 1]."""
    if draw(st.booleans()):
        lengths = tuple(draw(st.lists(st.integers(1, 4), min_size=2, max_size=8)))
    else:
        lengths = (draw(st.integers(1, 3)),) * draw(st.integers(2, 10))
    structure = BlockStructure(lengths)
    n = structure.total_dim
    m = n - draw(st.integers(1, n - 1))
    return m, structure, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=100, deadline=None)
@given(_spread_cases())
def test_spread_kernel_matches_the_np_linalg_qr_build_bit_for_bit(case):
    phi = spread_kernel_matrix(*case)
    assert phi.entries.tobytes() == _reference_spread_kernel(*case).entries.tobytes()


def test_spread_kernel_acceptance_instances_are_pinned():
    # the 20 certified instances of tests/test_acceptance.py at seed 20250810, as
    # np.linalg.qr built them: entries as float64 bytes, in the fixture's order
    digest, found = hashlib.sha256(), 0
    for l, d, m, count in [(12, 2, 21, 8), (12, 2, 20, 4), (8, 2, 14, 4), (6, 2, 11, 4)]:
        phis = (spread_kernel_matrix(m, BlockStructure.uniform(d, l), 20250810 + seed)
                for seed in range(20 * count))
        certified = (phi for phi in phis if check_condition(exact_block_ric(phi, 2).delta, 1.0, 2).ok)
        for phi in itertools.islice(certified, count):
            digest.update(phi.entries.tobytes())
            found += 1
    assert found == 20
    assert digest.hexdigest() == "fdba8c72a57cbb284e25f1e7fcebe24a4ab0b8b5de7eae78350267ab1f53282e"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_rejects_non_finite_entries(bad):
    with pytest.raises(ValueError, match="finite"):
        SensingMatrix([[1.0, bad]], BlockStructure.uniform(1, 2))


@pytest.mark.parametrize("entries", [[[2e154, 0.0]], [[1e154, 1e154]]], ids=["one", "sum"])
def test_matrix_rejects_entries_whose_squares_overflow(entries):
    with pytest.raises(ValueError, match=r"^entries must have a finite squared norm, got entries as"):
        SensingMatrix(entries, BlockStructure.uniform(1, 2))
    SensingMatrix(np.array(entries) / 2.0, BlockStructure.uniform(1, 2))


_BAD_SEEDS = (*BAD_COUNTS, "a", None)


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("gaussian_matrix", "m", lambda v: gaussian_matrix(v, BlockStructure.uniform(2, 4), 1),
     BAD_COUNTS),
    ("spread_kernel_matrix", "m",
     lambda v: spread_kernel_matrix(v, BlockStructure.uniform(2, 4), 1), BAD_COUNTS),
    ("sharpness_instance", "t", lambda v: sharpness_instance(v, 2, 2, 6), BAD_REALS),
    ("sharpness_instance", "s", lambda v: sharpness_instance(1.0, v, 2, 6), BAD_COUNTS),
    ("sharpness_instance", "d", lambda v: sharpness_instance(1.0, 2, v, 6), BAD_COUNTS),
    ("sharpness_instance", "l", lambda v: sharpness_instance(1.0, 2, 2, v), BAD_COUNTS),
    ("gaussian_matrix", "seed", lambda v: gaussian_matrix(4, BlockStructure.uniform(2, 4), v),
     _BAD_SEEDS),
    ("generator", "seed", generator, _BAD_SEEDS),
    ("generator", "indices[0]", lambda v: generator(1, v), _BAD_SEEDS),
    ("stream_key", "seed", stream_key, _BAD_SEEDS),
    ("stream_key", "indices[1]", lambda v: stream_key(1, 2, v), _BAD_SEEDS),
))
def test_rejects_bad_count_or_real(name, call, value):
    with rejects_argument(name, value):
        call(value)


def test_stream_keys_take_any_integer_modulo_2_to_the_64():
    assert stream_key(5) == stream_key(np.int64(5)) == 7134611160154358618
    assert stream_key(20250810, 1, 3) == stream_key(np.uint32(20250810), np.int8(1), np.uint64(3))
    assert stream_key(20250810, 1, 3) == 15350587033032687105
    assert stream_key(2**64 - 1, -7) == stream_key(-1, np.int32(-7)) == 3823921991345490766
    assert generator(np.int64(7), 2).random() == generator(7, 2).random()


@pytest.mark.parametrize("name, call, value", bad_arrays(
    ("SensingMatrix", "entries", lambda v: SensingMatrix(v, BlockStructure.uniform(1, 2)),
     [[1.0, 0.0], [0.0, 1.0]]),
))
def test_rejects_bad_array(name, call, value):
    with rejects_array(name):
        call(value)

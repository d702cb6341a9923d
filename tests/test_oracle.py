import gc
import itertools
import json
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockcs import (
    BlockSignal,
    BlockStructure,
    EnumerationCapError,
    HypothesisNotMetError,
    NoSparseFitError,
    OracleSolution,
    SensingMatrix,
    apply,
    block_support,
    brute_force_l20,
    brute_force_l20_batch,
    cone_constraint_check,
    gaussian_matrix,
    sharpness_instance,
    spread_kernel_matrix,
    tail_power_check,
)
from blockcs import oracle, ric
from conftest import (
    BAD_COUNTS,
    BAD_REALS,
    bad_arguments,
    bad_arrays,
    owns_its_bytes,
    random_block_sparse,
    rejects_argument,
    rejects_array,
)
from test_golden import GOLDEN, ORACLE_CASES, _oracle_case, _oracle_digest


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


def test_oracle_rejects_observations_whose_squares_overflow():
    phi = gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1)
    with pytest.raises(ValueError, match=r"^observation must have a finite squared norm"):
        brute_force_l20(phi, np.full(4, 1e308), s_max=1)
    B = np.column_stack([np.ones(4), np.full(4, 1e155)])
    with pytest.raises(ValueError, match=r"^observations must have a finite squared norm"):
        brute_force_l20_batch(phi, B, s_max=1)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_oracle_rejects_bad_residual_tol(tol):
    inst = sharpness_instance(1.0, 2, 2, 6)
    with pytest.raises(ValueError, match="residual_tol"):
        brute_force_l20(inst.phi, apply(inst.phi, inst.x0), s_max=2, residual_tol=tol)


# --- the screened batch kernel against the plain per-support loop ---

def _reference_l20(phi, b, s_max, residual_tol=1e-8):
    """One `lstsq` per support, in lexicographic order: what every column must reproduce."""
    structure = phi.structure
    searched, best_overall = 0, math.inf
    for k in range(s_max + 1):
        best_res, best = math.inf, None
        for sup in itertools.combinations(range(structure.num_blocks), k):
            sub = phi.entries[:, structure.block_indices(sup)]
            coef, *_ = np.linalg.lstsq(sub, b, rcond=1e-10)
            res = float(np.linalg.norm(sub @ coef - b))
            if res < best_res:
                best_res, best = res, (sup, coef)
        searched += math.comb(structure.num_blocks, k)
        best_overall = min(best_overall, best_res)
        if best_res <= residual_tol:
            x = np.zeros(structure.total_dim)
            x[structure.block_indices(best[0])] = best[1]
            return OracleSolution(BlockSignal(x, structure), best[0], k, best_res, searched)
    return NoSparseFitError(
        f"no block support of size <= {s_max} fits within residual_tol={residual_tol:g} "
        f"(best residual {best_overall:.3e})",
        best_overall,
    )


def _outcome_key(outcome):
    """Every output bit of a fit, or the best residual and message of a no-fit."""
    if isinstance(outcome, NoSparseFitError):
        return (np.float64(outcome.best_residual).tobytes(), str(outcome))
    return (outcome.estimate.coeffs.tobytes(), outcome.support, outcome.sparsity,
            np.float64(outcome.residual).tobytes(), outcome.supports_searched)


def _standalone(phi, b, s_max):
    try:
        return brute_force_l20(phi, b, s_max)
    except NoSparseFitError as err:
        return err


def _fuzz_matrix(kind, structure, m, rng):
    """Random entries of one kind; duplicated, rank-deficient and zero blocks make ties."""
    n, l = structure.total_dim, structure.num_blocks
    if kind == "integer":
        return rng.integers(-2, 3, size=(m, n)).astype(float)
    entries = rng.standard_normal((m, n)) / math.sqrt(m)
    first = structure.block_slice(int(rng.integers(l)))
    if kind == "duplicated" and l > 1:
        other = structure.block_slice(1 if first.start == 0 else 0)
        width = min(first.stop - first.start, other.stop - other.start)
        entries[:, other.start:other.start + width] = entries[:, first.start:first.start + width]
    elif kind == "rank_deficient" and first.stop - first.start > 1:
        entries[:, first.start + 1] = 3.0 * entries[:, first.start]
    elif kind == "zero_block":
        entries[:, first] = 0.0
    elif kind == "scaled":
        entries *= 10.0 ** rng.integers(-6, 7, size=n)
    return entries


@settings(max_examples=80, deadline=None)
@given(
    lengths=st.one_of(
        st.tuples(st.integers(1, 3), st.integers(1, 7)).map(lambda dl: (dl[0],) * dl[1]),
        st.lists(st.integers(1, 3), min_size=1, max_size=7).map(tuple),
    ),
    m=st.integers(1, 10),
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(["gaussian", "integer", "duplicated", "rank_deficient", "zero_block",
                          "scaled"]),
    chunk=st.sampled_from([1, 2, 5, ric._CHUNK]),
    data=st.data(),
)
def test_batch_matches_reference_loop(lengths, m, seed, kind, chunk, data):
    structure = BlockStructure(lengths)
    l = structure.num_blocks
    rng = np.random.default_rng(seed)
    phi = SensingMatrix(_fuzz_matrix(kind, structure, m, rng), structure)
    s_max = data.draw(st.integers(0, min(3, l)), label="s_max")
    columns = []
    for _ in range(data.draw(st.integers(1, 4), label="columns")):
        x = np.zeros(structure.total_dim)
        for i in rng.choice(l, size=int(rng.integers(0, min(l, s_max + 1) + 1)), replace=False):
            sl = structure.block_slice(int(i))
            width = sl.stop - sl.start
            x[sl] = rng.integers(-3, 4, width) if kind == "integer" else rng.standard_normal(width)
        # 5e-9 and 1e-8 reach the residual tolerance: the empty support's level and the fit/defer
        # boundary
        noise = data.draw(st.sampled_from([0.0, 1e-12, 1e-9, 5e-9, 1e-8, 1e-3, 1.0]), label="noise")
        columns.append(phi.entries @ x + noise * rng.standard_normal(m))
    B = np.column_stack(columns)
    with mock.patch.object(ric, "_CHUNK", chunk):
        batch = brute_force_l20_batch(phi, B, s_max)
        for j, outcome in enumerate(batch):
            expected = _outcome_key(_reference_l20(phi, B[:, j].copy(), s_max))
            assert _outcome_key(outcome) == expected
            assert _outcome_key(_standalone(phi, B[:, j], s_max)) == expected


def test_screen_sees_ill_conditioning_the_pivots_hide():
    # block 0 = [e0, 1e8 e0 + e1] has unit QR pivots but condition 1e16, so `lstsq` cuts it
    # to rank 1 (residual 1.118) where its QR residual is 0.5; block 1 fits to 1.0 exactly
    e = np.eye(3)
    entries = np.column_stack([e[0], 1e8 * e[0] + e[1], e[2], e[0]])
    phi = SensingMatrix(entries, BlockStructure((2, 2)))
    b = e[1] + 0.5 * e[2]
    (outcome,) = brute_force_l20_batch(phi, b[:, None], 1)
    assert isinstance(outcome, NoSparseFitError)
    assert outcome.best_residual == 1.0
    assert _outcome_key(outcome) == _outcome_key(_reference_l20(phi, b, 1))


def test_batch_returns_no_fit_errors_that_the_single_call_raises():
    inst = sharpness_instance(1.0, 2, 2, 6)
    exact = apply(inst.phi, inst.x0)
    noisy = exact + 1e-3 * np.random.default_rng(4).standard_normal(inst.phi.num_rows)
    fit, no_fit = brute_force_l20_batch(inst.phi, np.column_stack([exact, noisy]), s_max=2)
    assert isinstance(fit, OracleSolution) and fit.sparsity == 2
    assert isinstance(no_fit, NoSparseFitError)
    with pytest.raises(NoSparseFitError) as err:
        brute_force_l20(inst.phi, noisy, s_max=2)
    assert (str(err.value), err.value.best_residual) == (str(no_fit), no_fit.best_residual)


def _lstsq_calls():
    # every exact solve goes through the package's one least-squares entry point
    return mock.patch.object(oracle, "lstsq", wraps=oracle.lstsq)


def test_a_column_that_fits_costs_one_exact_solve():
    # every column is a generic 2-block-sparse signal: the levels below 2 fit nothing,
    # so only the true support's candidate is solved exactly
    structure = BlockStructure.uniform(2, 8)
    phi = spread_kernel_matrix(12, structure, seed=5)
    rng = np.random.default_rng(11)
    truths = [random_block_sparse(rng, structure, 2) for _ in range(12)]
    B = np.column_stack([apply(phi, x) for x in truths])
    with _lstsq_calls() as lstsq:
        batch = brute_force_l20_batch(phi, B, 2)
    assert lstsq.call_count == B.shape[1]
    with _lstsq_calls() as lstsq:
        single = [brute_force_l20(phi, B[:, j], 2) for j in range(B.shape[1])]
    assert lstsq.call_count == B.shape[1]
    for j, (x, a, b) in enumerate(zip(truths, batch, single)):
        assert a.sparsity == 2 and a.support == tuple(sorted(block_support(x)))
        expected = _outcome_key(_reference_l20(phi, B[:, j].copy(), 2))
        assert _outcome_key(a) == _outcome_key(b) == expected


def test_a_column_that_fits_nothing_reports_the_reference_best_residual():
    # random observations fit no support: the deferred candidates give the best residual
    phi = spread_kernel_matrix(21, BlockStructure.uniform(2, 12), seed=1)
    B = np.random.default_rng(7).standard_normal((21, 6))
    batch = brute_force_l20_batch(phi, B, 2)
    for j, outcome in enumerate(batch):
        expected = _outcome_key(_reference_l20(phi, B[:, j].copy(), 2))
        assert isinstance(outcome, NoSparseFitError)
        assert _outcome_key(outcome) == _outcome_key(_standalone(phi, B[:, j], 2)) == expected


def test_batch_rejects_bad_observations_and_accepts_an_empty_batch():
    phi = gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1)
    for bad in (np.zeros(4), np.zeros((5, 2)), np.zeros((4, 2, 1))):
        with pytest.raises(ValueError, match="shape"):
            brute_force_l20_batch(phi, bad, s_max=1)
    with pytest.raises(ValueError, match="finite"):
        brute_force_l20_batch(phi, np.full((4, 2), np.inf), s_max=1)
    assert brute_force_l20_batch(phi, np.zeros((4, 0)), s_max=2) == []


def _peak_bytes(phi, B, s_max):
    tracemalloc.start()
    try:
        brute_force_l20_batch(phi, B, s_max)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_support_count():
    # 1,177 supports at l = 48 against 301 at l = 24, none fitting the 40 random
    # observations: an array with one float per support and column would add 280 kB
    B = np.random.default_rng(2).standard_normal((8, 40))
    big = gaussian_matrix(8, BlockStructure.uniform(1, 48), seed=1)
    small = gaussian_matrix(8, BlockStructure.uniform(1, 24), seed=1)
    peak_big, peak_small = _peak_bytes(big, B, 2), _peak_bytes(small, B, 2)
    assert peak_big < 2_000_000
    assert peak_big - peak_small < 100_000


# --- screen factors kept between calls ---

def _forget_factors():
    oracle._levels.cache_clear()


def _kept_levels(phi):
    """The levels kept for `phi` at the current chunk size, which must be the store's key."""
    hits = oracle._levels.cache_info().hits
    levels = oracle._levels(phi.entries.tobytes(), phi.structure, ric._CHUNK)
    assert oracle._levels.cache_info().hits == hits + 1, "the store holds another matrix"
    return levels


def _without_qr():
    return mock.patch.object(np.linalg, "qr", side_effect=AssertionError("factored again"))


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_kept_factors_give_the_bits_of_a_batch_and_a_cold_call(name):
    phi, b, s_max = _oracle_case(name)
    rng = np.random.default_rng(len(name))
    B = np.column_stack([b, -2.0 * b, b + 1e-3 * rng.standard_normal(len(b))])
    _forget_factors()
    batch = [_outcome_key(outcome) for outcome in brute_force_l20_batch(phi, B, s_max)]
    with _without_qr():  # every level the batch needed is kept
        warm = [_outcome_key(_standalone(phi, B[:, j], s_max)) for j in range(B.shape[1])]
    cold = []
    for j in range(B.shape[1]):
        _forget_factors()
        cold.append(_outcome_key(_standalone(phi, B[:, j], s_max)))
    assert warm == batch == cold
    golden = json.loads((GOLDEN / "oracle_outputs.json").read_text())[name]
    assert _oracle_digest(_standalone(phi, b, s_max)) == golden


def test_kept_factors_follow_the_matrix_values():
    structure = BlockStructure((2, 1, 2, 3, 2))
    rng = np.random.default_rng(8)
    a = SensingMatrix(rng.standard_normal((7, 10)), structure)
    other = SensingMatrix(rng.standard_normal((7, 10)), structure)
    x = np.zeros(10)
    x[structure.block_slice(1)] = 1.5
    x[structure.block_slice(3)] = [1.0, -2.0, 0.5]

    def matches_reference(phi):
        b = phi.entries @ x
        assert _outcome_key(_standalone(phi, b, 2)) == _outcome_key(_reference_l20(phi, b, 2))

    _forget_factors()
    for phi in (a, other, a):
        matches_reference(phi)
    with _without_qr():  # an equal copy is served the kept factors
        matches_reference(SensingMatrix(a.entries.copy(), structure))
    a.entries.flags.writeable = True
    a.entries[3, 4] += 0.25  # changed in place: the kept factors are stale
    matches_reference(a)
    signed = a.entries.copy()
    signed[:, structure.block_slice(2)] = 0.0
    matches_reference(SensingMatrix(signed, structure))
    with pytest.raises(AssertionError, match="factored again"), _without_qr():
        matches_reference(SensingMatrix(np.where(signed == 0.0, -0.0, signed), structure))


def test_kept_factors_follow_the_chunk_size():
    phi = gaussian_matrix(6, BlockStructure.uniform(1, 7), seed=3)
    b = phi.entries[:, :2] @ np.array([1.0, -1.0])
    _forget_factors()
    expected = _outcome_key(_standalone(phi, b, 2))
    with mock.patch.object(ric, "_CHUNK", 2):
        assert _outcome_key(_standalone(phi, b, 2)) == expected
        assert max(len(sups) for sups, _ in _kept_levels(phi)[2][1]) == 2


def test_kept_factors_follow_the_block_structure():
    # equal entries under another structure are another matrix: its levels are factored again
    entries = np.random.default_rng(9).standard_normal((5, 6))
    b = entries[:, :3] @ np.array([1.0, -2.0, 0.5])  # blocks 0 and 1 of (2, 2, 2), block 0 of (3, 3)
    _forget_factors()
    for lengths in ((2, 2, 2), (3, 3), (2, 2, 2)):
        phi = SensingMatrix(entries, BlockStructure(lengths))
        with mock.patch.object(np.linalg, "qr", wraps=np.linalg.qr) as qr:
            got = _outcome_key(_standalone(phi, b, 2))
        assert qr.called, lengths
        assert got == _outcome_key(_reference_l20(phi, b, 2))


def test_kept_columns_own_their_bytes():
    # the store's budget counts each kept array's nbytes, so no `cols` may view a larger array
    phi = gaussian_matrix(6, BlockStructure((1, 3, 2, 1)), seed=3)
    _forget_factors()
    levels = oracle._levels(phi.entries.tobytes(), phi.structure, ric._CHUNK)
    for k in range(5):
        for _, factored in oracle._factored_level(phi, levels, k):
            assert all(owns_its_bytes(cols) for _, cols, _ in factored)
    assert sorted(_kept_levels(phi)) == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("l, d, m, kept_levels",
                         [(48, 1, 8, [0, 1]), (12, 2, 21, [0, 1, 2]), (48, 1, 200, None)])
def test_kept_memory_stays_within_the_budget(l, d, m, kept_levels):
    # at l = 48 the 1,128 two-block supports would need about 200 kB and are factored
    # on every call; at l = 12, d = 2 every level fits; at m = 200 the 76.8 kB of entries
    # exceed the budget, so the store keeps nothing, not even their bytes as its key
    phi = gaussian_matrix(m, BlockStructure.uniform(d, l), seed=1)
    B = np.random.default_rng(2).standard_normal((m, 40))
    _forget_factors()
    gc.collect()
    tracemalloc.start()
    try:
        brute_force_l20_batch(phi, B, 2)
        gc.collect()  # free lists hold memory that no object keeps
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    if kept_levels is None:
        assert oracle._levels.cache_info().currsize == 0
    else:
        assert sorted(_kept_levels(phi)) == kept_levels
    assert kept <= oracle._FACTOR_BUDGET


# --- single calls, cold and warm ---

@settings(max_examples=60, deadline=None)
@given(
    lengths=st.one_of(
        st.tuples(st.integers(1, 3), st.integers(1, 7)).map(lambda dl: (dl[0],) * dl[1]),
        st.lists(st.integers(1, 3), min_size=1, max_size=7).map(tuple),
    ),
    m=st.integers(1, 10),
    seed=st.integers(0, 2**32),
    chunk=st.sampled_from([1, 2, ric._CHUNK]),
    data=st.data(),
)
def test_single_calls_cold_and_warm_match_reference_loop(lengths, m, seed, chunk, data):
    # a cold call factors every level it reaches and keeps them; a warm call reuses them
    structure = BlockStructure(lengths)
    l = structure.num_blocks
    rng = np.random.default_rng(seed)
    phi = SensingMatrix(rng.standard_normal((m, structure.total_dim)) / math.sqrt(m), structure)
    s_max = data.draw(st.integers(0, min(3, l)), label="s_max")
    x = np.zeros(structure.total_dim)
    for i in rng.choice(l, size=int(rng.integers(0, s_max + 1)), replace=False):
        sl = structure.block_slice(int(i))
        x[sl] = rng.standard_normal(sl.stop - sl.start)
    fit = phi.entries @ x
    no_fit = fit + rng.standard_normal(m)  # fits only where a support of size <= s_max spans R^m
    with mock.patch.object(ric, "_CHUNK", chunk):
        for b in (fit, no_fit):
            expected = _outcome_key(_reference_l20(phi, b.copy(), s_max))
            _forget_factors()
            cold = _outcome_key(_standalone(phi, b, s_max))
            assert 0 in _kept_levels(phi)  # level 0 always fits at these sizes
            warm = _outcome_key(_standalone(phi, b, s_max))
            assert cold == warm == expected


# --- floating-point warnings (tests/test_linalg.py covers the least-squares entry point) ---

def test_oracle_lets_no_floating_point_warning_escape(gram_overflow_phi):
    # the QR pivots square past the largest double, and with b the matrix's own column so
    # does the empty support's residual; the support whose pivots overflow is forced and
    # solved exactly, so the outcomes are the reference loop's
    column = gram_overflow_phi.entries[:, 0]
    for b in (column * 1e-154, column):
        _forget_factors()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _outcome_key(_standalone(gram_overflow_phi, b, 1))
        with np.errstate(over="ignore"):
            assert got == _outcome_key(_reference_l20(gram_overflow_phi, b, 1))


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


def _oracle(**kwargs):
    phi = gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1)
    return brute_force_l20(phi, np.zeros(4), **{"s_max": 2, **kwargs})


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("brute_force_l20", "s_max", lambda v: _oracle(s_max=v), BAD_COUNTS),
    ("brute_force_l20", "residual_tol", lambda v: _oracle(residual_tol=v), BAD_REALS),
    ("brute_force_l20", "cap", lambda v: _oracle(cap=v), BAD_COUNTS),
    ("brute_force_l20_batch", "s_max", lambda v: brute_force_l20_batch(
        gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1), np.zeros((4, 2)), v),
     BAD_COUNTS),
    ("tail_power_check", "s", lambda v: tail_power_check([3.0, 2.0, 1.0], v, 2.0), BAD_COUNTS),
    ("tail_power_check", "alpha", lambda v: tail_power_check([3.0, 2.0, 1.0], 1, v), BAD_REALS),
    ("tail_power_check", "psi", lambda v: tail_power_check([3.0, 2.0, 1.0], 1, 2.0, v),
     BAD_REALS),
))
def test_rejects_bad_count_or_real(name, call, value):
    with rejects_argument(name, value):
        call(value)


@pytest.mark.parametrize("name, call, value", bad_arrays(
    ("brute_force_l20", "observation", lambda v: brute_force_l20(
        gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1), v, 1), np.ones(4)),
    ("brute_force_l20_batch", "observations", lambda v: brute_force_l20_batch(
        gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1), v, 1), np.ones((4, 2))),
    ("tail_power_check", "a", lambda v: tail_power_check(v, 1, 2.0), [3.0, 2.0, 1.0]),
))
def test_rejects_bad_array(name, call, value):
    with rejects_array(name):
        call(value)

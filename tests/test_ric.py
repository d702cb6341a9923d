import hashlib
import itertools
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, sqrt as msqrt

from blockcs import (
    BlockStructure,
    EnumerationCapError,
    RicCertificate,
    SensingMatrix,
    check_condition,
    condition_threshold,
    error_bound_loose,
    error_bound_tight,
    exact_block_ric,
    gaussian_matrix,
    ric_scaling_bound,
    sharpness_instance,
)
from blockcs import ric
from conftest import (
    BAD_COUNTS,
    BAD_REALS,
    bad_arguments,
    owns_its_bytes,
    random_block_sparse,
    rejects_argument,
)


def test_exact_ric_identity_is_isometry():
    st_ = BlockStructure.uniform(2, 4)
    phi = SensingMatrix(np.eye(8), st_)
    for s in (1, 2, 3):
        cert = exact_block_ric(phi, s)
        assert cert.delta == pytest.approx(0.0, abs=1e-14)
        assert cert.supports_enumerated == math.comb(4, s)


def test_exact_ric_scaled_identity():
    st_ = BlockStructure.uniform(2, 3)
    phi = SensingMatrix(2.0 * np.eye(6), st_)
    cert = exact_block_ric(phi, 2)
    assert cert.delta == pytest.approx(3.0, abs=1e-12)  # ||2x||^2 = 4 ||x||^2
    assert cert.min_eig == pytest.approx(4.0)
    assert cert.max_eig == pytest.approx(4.0)


def test_exact_ric_sharpness_value():
    inst = sharpness_instance(1.0, 2, 2, 6)
    cert = exact_block_ric(inst.phi, 2)
    assert abs(cert.delta - 1.0 / 3.0) <= 1e-10


def test_exact_ric_parameter_errors():
    phi = SensingMatrix(np.eye(4), BlockStructure((2, 2)))
    with pytest.raises(ValueError):
        exact_block_ric(phi, 0)
    with pytest.raises(ValueError):
        exact_block_ric(phi, 3)


def test_exact_ric_cap_error_names_count():
    st_ = BlockStructure.uniform(1, 20)
    phi = SensingMatrix(np.eye(20), st_)
    with pytest.raises(EnumerationCapError) as err:
        exact_block_ric(phi, 10, cap=1000)
    assert err.value.num_supports == math.comb(20, 10)
    assert str(math.comb(20, 10)) in str(err.value)


def test_exact_ric_can_exceed_one_unclamped():
    # more active columns than rows: the restricted Gram is singular,
    # so delta >= 1 and is reported verbatim
    st_ = BlockStructure.uniform(2, 4)
    phi = gaussian_matrix(3, st_, seed=9)
    cert = exact_block_ric(phi, 3)
    assert cert.min_eig == pytest.approx(0.0, abs=1e-12)
    assert cert.delta >= 1.0


def test_exact_ric_monotone_in_order(rng):
    st_ = BlockStructure.uniform(2, 6)
    for seed in range(5):
        phi = gaussian_matrix(8, st_, seed=seed)
        deltas = [exact_block_ric(phi, s).delta for s in (1, 2, 3, 4)]
        for lo, hi in zip(deltas, deltas[1:]):
            assert lo <= hi + 1e-14


def test_exact_ric_definition_consistency(rng):
    st_ = BlockStructure.uniform(2, 6)
    phi = gaussian_matrix(10, st_, seed=21)
    s = 2
    cert = exact_block_ric(phi, s)
    for _ in range(1000):
        x = random_block_sparse(rng, st_, s)
        unit = x.coeffs / np.linalg.norm(x.coeffs)
        ratio = float(np.linalg.norm(phi.entries @ unit) ** 2)
        assert 1.0 - cert.delta - 1e-10 <= ratio <= 1.0 + cert.delta + 1e-10


def test_exact_ric_worst_support_tightness():
    st_ = BlockStructure.uniform(2, 6)
    phi = gaussian_matrix(9, st_, seed=33)
    cert = exact_block_ric(phi, 2)
    cols = st_.block_indices(cert.worst_support)
    sub = phi.entries[:, cols]
    w = np.linalg.eigvalsh(sub.T @ sub)
    attained = max(w[-1] - 1.0, 1.0 - w[0])
    assert abs(attained - cert.delta) <= 1e-12


# --- the chunked kernel against the plain per-support loop ---

def _reference_ric(phi, s):
    """One eigvalsh per support, in lexicographic order: what the kernel must reproduce."""
    l = phi.structure.num_blocks
    delta, worst, min_eig, max_eig = -np.inf, (), np.inf, -np.inf
    for sup in itertools.combinations(range(l), s):
        sub = phi.entries[:, phi.structure.block_indices(sup)]
        w = np.linalg.eigvalsh(sub.T @ sub)
        min_eig, max_eig = min(min_eig, w[0]), max(max_eig, w[-1])
        deviation = max(w[-1] - 1.0, 1.0 - w[0])
        if deviation > delta:
            delta, worst = deviation, sup
    return RicCertificate(s, float(delta), worst, float(min_eig), float(max_eig), math.comb(l, s))


def _chunk_size(case, num_supports):
    """A chunk size for which C(l, s) is below, equal to or not a multiple of it."""
    return {"module": ric._CHUNK, "below": num_supports + 1, "equal": num_supports,
            "uneven": max(num_supports - 1, 2)}[case]


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.one_of(
        st.tuples(st.integers(1, 3), st.integers(1, 9)).map(lambda dl: (dl[0],) * dl[1]),
        st.lists(st.integers(1, 3), min_size=1, max_size=9).map(tuple),
    ),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32),
    data=st.data(),
    case=st.sampled_from(["module", "below", "equal", "uneven"]),
)
def test_kernel_matches_reference_loop(lengths, m, seed, data, case):
    structure = BlockStructure(lengths)
    s = data.draw(st.integers(1, structure.num_blocks), label="s")
    phi = gaussian_matrix(m, structure, seed=seed)
    with mock.patch.object(ric, "_CHUNK", _chunk_size(case, math.comb(structure.num_blocks, s))):
        assert exact_block_ric(phi, s) == _reference_ric(phi, s)


@pytest.mark.parametrize("chunk", [1, 7, ric._CHUNK])
@pytest.mark.parametrize("lengths", [(2,) * 7, (3, 1, 2, 1, 3, 2, 1)])
def test_kernel_ties_go_to_first_support(lengths, chunk):
    # a signed permutation is orthonormal: every restricted Gram is exactly I
    structure = BlockStructure(lengths)
    n = structure.total_dim
    entries = np.eye(n)[np.random.default_rng(3).permutation(n)] * np.where(np.arange(n) % 2, -1.0, 1.0)
    phi = SensingMatrix(entries, structure)
    with mock.patch.object(ric, "_CHUNK", chunk):
        for s in range(1, 5):
            cert = exact_block_ric(phi, s)
            assert (cert.delta, cert.min_eig, cert.max_eig) == (0.0, 1.0, 1.0)
            assert cert.worst_support == tuple(range(s))


def test_kernel_tie_across_width_groups():
    # blocks 1 and 2 are scaled by 2, so (0, 1) and (0, 2) tie at delta = 3; (0, 2) has
    # fewer columns, so its width group is evaluated first within the chunk
    structure = BlockStructure((1, 2, 1, 2, 1))
    scale = np.ones(structure.total_dim)
    scale[structure.block_indices((1, 2))] = 2.0
    cert = exact_block_ric(SensingMatrix(np.diag(scale), structure), 2)
    assert cert.delta == 3.0
    assert cert.worst_support == (0, 1)


# --- the support-chunk contract ---

@pytest.mark.parametrize("lengths", [(2,) * 6, (1, 3, 2, 1, 3, 1)])
def test_support_chunks_match_combinations_and_block_indices(lengths):
    # the widest block of the ragged structure is not the first
    structure = BlockStructure(lengths)
    l = structure.num_blocks
    for k in range(l + 1):
        count = math.comb(l, k)
        for chunk in sorted({1, 7, max(count - 1, 1), count, count + 1}):
            with mock.patch.object(ric, "_CHUNK", chunk):
                chunks = list(ric._support_chunks(structure, k))
            assert [len(sups) for sups, _ in chunks[:-1]] == [chunk] * (len(chunks) - 1)
            assert 1 <= len(chunks[-1][0]) <= chunk
            seen = []
            for sups, groups in chunks:
                assert sups.dtype == np.intp and sups.shape == (len(sups), k)
                seen += [tuple(sup) for sup in sups.tolist()]
                counts = [cols.shape[1] for _, cols in groups]
                assert counts == sorted(set(counts))  # one group per count, ascending
                rows_seen = []
                for rows, cols in groups:
                    assert list(rows) == sorted(rows)
                    assert cols.dtype == np.intp and cols.shape[0] == len(rows)
                    assert owns_its_bytes(cols)
                    for row, col in zip(rows.tolist(), cols):
                        np.testing.assert_array_equal(col, structure.block_indices(sups[row].tolist()))
                    rows_seen += rows.tolist()
                assert sorted(rows_seen) == list(range(len(sups)))
            assert seen == list(itertools.combinations(range(l), k))


# --- the eigenvalue error contract (tests/test_linalg.py covers the flagged errors) ---

@pytest.mark.parametrize("chunk", [1, 2, ric._CHUNK])
def test_exact_ric_raises_on_an_unflagged_nan(chunk):
    # one support's eigenvalues come back NaN with no flag raised, in the last chunk at chunk 1
    phi = gaussian_matrix(8, BlockStructure((1, 3, 2, 2)), seed=5)
    real = ric.eigvalsh
    calls = []

    def nan_in_last(G):
        w = real(G)
        calls.append(len(G))
        if sum(calls) == math.comb(4, 2):
            w[-1] = np.nan
        return w

    with mock.patch.object(ric, "_CHUNK", chunk), mock.patch.object(ric, "eigvalsh", nan_in_last):
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            exact_block_ric(phi, 2)


def test_exact_ric_lets_no_floating_point_warning_escape():
    # np.linalg.eigvalsh ignores overflow, division and underflow, and so does the kernel
    phi = gaussian_matrix(8, BlockStructure((1, 3, 2, 2)), seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e-160, 1e150):  # Grams near the subnormal range and the largest double
            scaled = SensingMatrix(scale * phi.entries, phi.structure)
            assert exact_block_ric(scaled, 2) == _reference_ric(scaled, 2)


def test_exact_ric_refuses_a_certificate_that_is_not_finite(gram_overflow_phi):
    # the Gram matrix rounds past the largest double, so its one eigenvalue is inf
    with pytest.raises(ValueError, match=r"^the sensing matrix's scale \(largest \|entry\| 1\.34e\+154\) "
                                         r"is out of the RIC enumeration's range: a restricted Gram "
                                         r"eigenvalue is not finite; rescale the matrix toward unit "
                                         r"entries$"):
        exact_block_ric(gram_overflow_phi, 1)


def _peak_bytes(phi, s):
    tracemalloc.start()
    try:
        exact_block_ric(phi, s)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_does_not_grow_with_support_count():
    # C(20, 6) = 38,760 supports against C(14, 6) = 3,003, each of 12 columns: an array
    # with one float per support would add 286 kB at l = 20
    big = gaussian_matrix(30, BlockStructure.uniform(2, 20), seed=1)
    small = gaussian_matrix(30, BlockStructure.uniform(2, 14), seed=1)
    peak_big, peak_small = _peak_bytes(big, 6), _peak_bytes(small, 6)
    assert peak_big < 2_000_000
    assert peak_big - peak_small < 100_000


# --- condition checker ---

def test_condition_threshold_values():
    assert condition_threshold(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert condition_threshold(0.5) == pytest.approx(1.0 / 7.0, abs=1e-15)
    with pytest.raises(ValueError):
        condition_threshold(4.0 / 3.0)


def _threshold_grid():
    """t near 0 (subnormal to 1e-3), around 1, and the last 200 doubles below 4/3."""
    below = [np.nextafter(4.0 / 3.0, 0.0)]
    for _ in range(199):
        below.append(np.nextafter(below[-1], 0.0))
    return [5e-324, 1e-320, 1e-300, 1e-100, 1e-10, 1e-3,
            np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), *below]


def test_condition_threshold_within_one_ulp_of_high_precision():
    mp.dps = 60
    for t in map(float, _threshold_grid()):
        exact = float(mpf(t) / (4 - mpf(t)))  # correctly rounded t/(4-t)
        got = condition_threshold(t)
        assert abs(got - exact) <= math.ulp(exact), (t, got, exact)


def test_check_condition_flips_exactly_at_the_threshold():
    # below t = 1e-308 no order s with t*s >= 2 is representable
    for t in (t for t in map(float, _threshold_grid()) if math.isfinite(2.0 / t)):
        s = max(2, math.ceil(2.0 / t))  # t*s >= 2
        threshold = condition_threshold(t)
        assert check_condition(float(np.nextafter(threshold, 0.0)), t, s).ok, t
        report = check_condition(threshold, t, s)
        assert (report.ok, report.reason) == (False, "delta_not_below_threshold"), t


def test_check_condition_strict_at_third():
    assert check_condition(0.33, 1.0, 2).ok
    report = check_condition(0.34, 1.0, 2)
    assert not report.ok
    assert report.reason == "delta_not_below_threshold"
    # strict inequality at the threshold itself
    assert not check_condition(1.0 / 3.0, 1.0, 2).ok


def test_check_condition_rejects_bad_t():
    for t in (4.0 / 3.0, 1.5, 0.0, -1.0):
        report = check_condition(0.1, t, 4)
        assert not report.ok
        assert report.reason == "t_out_of_range"
        assert report.threshold is None


def test_check_condition_reports_t_whose_order_overflows():
    # t * s overflows to inf: still a t_out_of_range report, its order exact
    for t in (1e308, -1e308):
        report = check_condition(0.1, t, 10)
        assert (report.ok, report.reason) == (False, "t_out_of_range")
        assert report.effective_order == int(t) * 10


def test_check_condition_rejects_small_order():
    report = check_condition(0.1, 1.0, 1)  # t*s = 1 < 2
    assert not report.ok
    assert report.reason == "ts_below_two"
    report = check_condition(0.0, 0.5, 3)  # t*s = 1.5 < 2
    assert not report.ok


@pytest.mark.parametrize("delta", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_check_condition_rejects_invalid_delta(delta):
    report = check_condition(delta, 1.0, 2)
    assert not report.ok
    assert report.reason == "invalid_delta"
    with pytest.raises(ValueError, match="invalid_delta"):
        error_bound_tight(1.0, 2, delta, 0.1, 0.0)


@pytest.mark.parametrize("delta", ["0.1", "abc", True, None, 0.1 + 0j],
                         ids=["str", "text", "bool", "None", "complex"])
def test_check_condition_refuses_a_delta_of_another_type(delta):
    with pytest.raises(ValueError, match=r"^delta must be a real number, got "):
        check_condition(delta, 1.0, 2)
    with pytest.raises(ValueError, match=r"^delta must be a real number, got "):
        error_bound_tight(1.0, 2, delta, 0.1, 0.0)


def test_check_condition_effective_order():
    report = check_condition(0.05, 0.9, 3)  # t*s = 2.7
    assert report.ok
    assert report.effective_order == 2
    report = check_condition(0.1, 2.0 / 3.0, 3)  # t*s = 2 up to rounding
    assert report.effective_order == 2
    assert report.ok


def test_check_condition_order_and_ts_test_share_one_tolerance():
    # t*s = 2 - 5e-10 is below two by the 1e-12 tolerance, so its order is 1, not 2
    report = check_condition(0.1, 0.99999999975, 2)
    assert (report.ok, report.reason, report.effective_order) == (False, "ts_below_two", 1)
    assert check_condition(0.1, 1.0 - 4e-13, 2).effective_order == 2  # t*s = 2 - 8e-13


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([(1.0, 2), (2.0 / 3.0, 3), (0.4, 5)]), st.integers(-6000, 6000))
def test_check_condition_order_is_two_exactly_where_the_ts_test_passes(base, ulps):
    # t*s within a few thousand ulps of 2, across the float nearest 2 - 1e-12
    t0, s = base
    t = t0 + ulps * math.ulp(t0)
    report = check_condition(0.1, t, s)
    assert (report.reason == "ts_below_two") is (t * s < 2.0 - 1e-12)
    assert (report.effective_order >= 2) is (report.reason != "ts_below_two")


def test_condition_and_bound_outcomes_are_pinned():
    # 36,321 outcomes of check_condition and both error bounds: each report's repr or
    # the exception's type and text, over valid and invalid delta, t, s, rho and tail
    deltas = [math.nan, math.inf, -math.inf, -0.5, -1e-300, 0.0, 1e-12, 0.01, 0.05, 0.1, 0.2,
              1 / 3, 0.3333333333, 0.5, 0.9, 1.0, 2.0, 1e300, 5e-324]
    ts = [0.0, 4 / 3, 1e308, -1e308, math.inf, -math.inf, math.nan, -1.0, 1e-300, 0.1, 0.25,
          0.5, 2 / 3, 0.7, 0.9, 1.0, 1.1, 1.2, 1.3, 4 / 3 - 1e-16, 1.5]
    pairs = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1), (1e-3, 2.5), (1.0, 1.0), (1e3, 1e-6)]
    bad = [(math.nan, 0.0), (math.inf, 0.0), (-1.0, 0.0), (0.0, math.nan), (0.0, math.inf),
           (0.0, -1.0), (-math.inf, 0.0), (0.0, -math.inf), (-1e-300, 0.0), (0.0, -1e-300),
           (math.nan, math.nan), (math.inf, -1.0)]
    digest, outcomes = hashlib.sha256(), 0

    def record(f, *args):
        nonlocal outcomes
        try:
            text = repr(f(*args))
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}"
        digest.update(text.encode() + b"\n")
        outcomes += 1

    for delta in deltas:
        for t in ts:
            for s in (0, 1, 2, 3, 5, 10, 20):
                record(check_condition, delta, t, s)
                for rho, tail in pairs:
                    record(error_bound_tight, t, s, delta, rho, tail)
                    record(error_bound_loose, t, s, delta, rho, tail)
    for i, (rho, tail) in enumerate(bad):
        record(error_bound_tight if i % 2 else error_bound_loose, 1.0, 2, 0.1, rho, tail)
    assert outcomes == 36321
    assert digest.hexdigest() == "ad770e2bef7c0e0ab8802c684d2e9caa370eb7d348893eae31a8dc0a6ae2d8e9"


# --- error bounds ---

def _hp_bound(t, s, delta, rho, tail, variant):
    # independent high-precision evaluation (50+ digits)
    mp.dps = 60
    t, delta, rho, tail = mpf(t), mpf(delta), mpf(rho), mpf(tail)
    tt = max(msqrt(t), t)
    denom = t + (t - 4) * delta
    noise = 2 * msqrt(2) * msqrt(1 + delta) * tt / denom
    if variant == "tight":
        tailc = mpf(1) / 2 * msqrt(mpf(2) / s) * ((8 * delta + 4 * msqrt(denom * delta)) / denom + 1)
    else:
        tailc = msqrt(mpf(2) / s) * ((4 * delta + 2 * msqrt(denom * delta)) / denom + msqrt(2))
    return noise * rho + tailc * tail


def test_bound_zero_inputs_give_zero():
    rep = error_bound_tight(1.0, 2, 0.0, 0.0, 0.0)
    assert rep.bound == 0.0
    assert rep.denom == pytest.approx(1.0)


def test_bound_noise_only_collapse():
    rep = error_bound_tight(1.0, 2, 0.0, 1.0, 0.0)
    assert rep.bound == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert rep.t_tilde == 1.0


def test_bound_loose_tail_only_collapse():
    rep = error_bound_loose(1.0, 2, 0.0, 0.0, 1.0)
    assert rep.bound == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_bound_tight_matches_high_precision_oracle():
    frozen = 3.563008102923631  # _hp_bound(1, 4, 1/4, 0.1, 0.5, "tight") to 16 digits
    oracle = float(_hp_bound(1, 4, mpf(1) / 4, mpf("0.1"), mpf("0.5"), "tight"))
    assert abs(oracle - frozen) <= 1e-12
    rep = error_bound_tight(1.0, 4, 0.25, 0.1, 0.5)
    assert abs(rep.bound - oracle) <= 1e-9


def test_bound_loose_matches_high_precision_oracle():
    frozen = 3.886231407626994  # _hp_bound(1, 4, 1/4, 0.1, 0.5, "loose") to 16 digits
    oracle = float(_hp_bound(1, 4, mpf(1) / 4, mpf("0.1"), mpf("0.5"), "loose"))
    assert abs(oracle - frozen) <= 1e-12
    rep = error_bound_loose(1.0, 4, 0.25, 0.1, 0.5)
    assert abs(rep.bound - oracle) <= 1e-9


def test_bound_requires_condition():
    with pytest.raises(ValueError):
        error_bound_tight(1.0, 2, 0.4, 0.1, 0.0)  # delta above 1/3
    with pytest.raises(ValueError):
        error_bound_tight(1.0, 1, 0.1, 0.1, 0.0)  # t*s < 2
    with pytest.raises(ValueError):
        error_bound_tight(1.0, 2, 0.1, -0.1, 0.0)


def test_bound_t_tilde_below_one():
    rep = error_bound_tight(0.8, 3, 0.05, 1.0, 0.0)
    assert rep.t_tilde == pytest.approx(math.sqrt(0.8))


def test_tail_coefficient_ordering():
    # the difference of tail coefficients is sqrt(2/s)*(1/2 - sqrt(2)) < 0
    for t in (0.7, 1.0, 1.25):
        for s in (2, 3, 8):
            if t * s < 2:
                continue
            for frac in (0.1, 0.5, 0.9):
                delta = frac * t / (4.0 - t)
                tight = error_bound_tight(t, s, delta, 0.0, 1.0)
                loose = error_bound_loose(t, s, delta, 0.0, 1.0)
                assert tight.tail_coeff < loose.tail_coeff
                gap = math.sqrt(2.0 / s) * (math.sqrt(2.0) - 0.5)
                assert loose.tail_coeff - tight.tail_coeff == pytest.approx(gap, rel=1e-9)


@pytest.mark.parametrize("bound", [error_bound_tight, error_bound_loose])
@pytest.mark.parametrize("rho, tail", [(math.nan, 0.0), (math.inf, 0.0), (0.1, math.nan), (0.0, math.inf)])
def test_bound_rejects_non_finite_inputs(bound, rho, tail):
    with pytest.raises(ValueError, match="finite"):
        bound(1.0, 2, 0.25, rho, tail)


@st.composite
def _bound_cases(draw):
    """(t, s, delta, rho pair, tail pair) with the recovery condition holding
    and each pair in increasing order."""
    t = draw(st.floats(min_value=0.1, max_value=1.3))
    s = draw(st.integers(min_value=math.ceil(2.0 / t), max_value=40))
    delta = draw(st.floats(min_value=0.0, max_value=0.999)) * t / (4.0 - t)
    pair = st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=2, max_size=2).map(sorted)
    return t, s, delta, draw(pair), draw(pair)


@settings(max_examples=200, deadline=None)
@given(_bound_cases())
def test_bounds_monotone_and_ordered(case):
    t, s, delta, (rho_lo, rho_hi), (tail_lo, tail_hi) = case
    for bound in (error_bound_tight, error_bound_loose):
        assert bound(t, s, delta, rho_lo, tail_lo).bound <= bound(t, s, delta, rho_hi, tail_lo).bound
        assert bound(t, s, delta, rho_lo, tail_lo).bound <= bound(t, s, delta, rho_lo, tail_hi).bound
    for rho, tail in ((rho_lo, tail_lo), (rho_hi, tail_hi)):
        assert error_bound_tight(t, s, delta, rho, tail).bound <= error_bound_loose(t, s, delta, rho, tail).bound


# --- order-scaling bound ---

def test_scaling_bound_values():
    assert ric_scaling_bound(0.0, 2.0) == 0.0
    assert ric_scaling_bound(0.1, 2.0) == pytest.approx(0.3, abs=1e-15)
    with pytest.raises(ValueError):
        ric_scaling_bound(0.1, 1.5)
    with pytest.raises(ValueError):
        ric_scaling_bound(-0.1, 2.0)


def test_scaling_bound_holds_by_enumeration():
    # delta at order 4 never exceeds 3x delta at order 2, on random 6x12
    st_ = BlockStructure.uniform(2, 6)
    for seed in range(10):
        phi = gaussian_matrix(6, st_, seed=seed)
        d2 = exact_block_ric(phi, 2).delta
        d4 = exact_block_ric(phi, 4).delta
        assert d4 <= ric_scaling_bound(d2, 2.0) + 1e-12


def _small_phi():
    return gaussian_matrix(4, BlockStructure.uniform(2, 4), seed=1)


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("exact_block_ric", "s", lambda v: exact_block_ric(_small_phi(), v), BAD_COUNTS),
    ("exact_block_ric", "cap", lambda v: exact_block_ric(_small_phi(), 2, cap=v), BAD_COUNTS),
    ("check_condition", "t", lambda v: check_condition(0.1, v, 2), BAD_REALS),
    ("check_condition", "s", lambda v: check_condition(0.1, 1.0, v), BAD_COUNTS),
    ("condition_threshold", "t", condition_threshold, BAD_REALS),
    ("error_bound_tight", "s", lambda v: error_bound_tight(1.0, v, 0.25, 0.1, 0.0), BAD_COUNTS),
    ("error_bound_tight", "rho", lambda v: error_bound_tight(1.0, 2, 0.25, v, 0.0), BAD_REALS),
    ("error_bound_loose", "tail_norm", lambda v: error_bound_loose(1.0, 2, 0.25, 0.1, v),
     BAD_REALS),
    ("ric_scaling_bound", "delta_s", lambda v: ric_scaling_bound(v, 2), BAD_REALS),
    ("ric_scaling_bound", "kappa", lambda v: ric_scaling_bound(0.1, v), BAD_REALS),
))
def test_rejects_bad_count_or_real(name, call, value):
    with rejects_argument(name, value):
        call(value)

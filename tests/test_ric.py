import math

import numpy as np
import pytest
from mpmath import mp, mpf, sqrt as msqrt

from blockcs import (
    BlockStructure,
    EnumerationCapError,
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
from conftest import random_block_sparse


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


# --- condition checker ---

def test_condition_threshold_values():
    assert condition_threshold(1.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert condition_threshold(0.5) == pytest.approx(1.0 / 7.0, abs=1e-15)
    with pytest.raises(ValueError):
        condition_threshold(4.0 / 3.0)


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


def test_check_condition_effective_order():
    report = check_condition(0.05, 0.9, 3)  # t*s = 2.7
    assert report.ok
    assert report.effective_order == 2
    report = check_condition(0.1, 2.0 / 3.0, 3)  # t*s = 2 up to rounding
    assert report.effective_order == 2
    assert report.ok


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

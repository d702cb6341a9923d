import itertools
import math
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, assume, find, given, settings
from hypothesis import strategies as st

from blockcs import (
    BlockSignal,
    BlockStructure,
    InfeasibleProblemError,
    SensingMatrix,
    SolverConfig,
    apply,
    block_soft_threshold,
    brute_force_l20,
    check_condition,
    cone_constraint_check,
    error_bound_tight,
    exact_block_ric,
    gaussian_matrix,
    mixed_norm_2_1,
    sharpness_instance,
    solve_noiseless,
    solve_noiseless_batch,
    solve_noisy,
    solve_noisy_batch,
    spread_kernel_matrix,
)
from blockcs import solvers
from blockcs.solvers import _ALPHA, _BALANCE_EVERY, _BALANCE_FACTOR, _BALANCE_RATIO, _column_norms
from conftest import (
    BAD_COUNTS,
    BAD_REALS,
    bad_arguments,
    bad_arrays,
    random_block_sparse,
    rejects_argument,
    rejects_array,
)


def _certified_instance(seed=5):
    st_ = BlockStructure.uniform(2, 12)
    phi = spread_kernel_matrix(21, st_, seed=seed)
    cert = exact_block_ric(phi, 2)
    assert check_condition(cert.delta, 1.0, 2).ok
    return phi, cert


# --- proximal map ---

def test_block_soft_threshold_identity_at_zero(rng):
    st_ = BlockStructure((2, 3, 1))
    x = BlockSignal(rng.standard_normal(6), st_)
    y = block_soft_threshold(x, 0.0)
    np.testing.assert_array_equal(y.coeffs, x.coeffs)


def test_block_soft_threshold_annihilates_at_norm():
    x = BlockSignal([3.0, 4.0], BlockStructure((2,)))
    y = block_soft_threshold(x, 5.0)
    np.testing.assert_array_equal(y.coeffs, np.zeros(2))


def test_block_soft_threshold_shrinks_345():
    x = BlockSignal([3.0, 4.0], BlockStructure((2,)))
    y = block_soft_threshold(x, 1.0)
    np.testing.assert_allclose(y.coeffs, [2.4, 3.2], atol=1e-15)
    assert np.linalg.norm(y.coeffs) == pytest.approx(4.0)


def test_block_soft_threshold_rejects_negative():
    x = BlockSignal([1.0], BlockStructure((1,)))
    with pytest.raises(ValueError):
        block_soft_threshold(x, -0.5)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_block_soft_threshold_rejects_non_finite(tau):
    x = BlockSignal([3.0, 4.0], BlockStructure((2,)))
    with pytest.raises(ValueError, match="finite"):
        block_soft_threshold(x, tau)


def test_block_soft_threshold_mixed_blocks(rng):
    st_ = BlockStructure((2, 2, 2))
    x = BlockSignal([3, 4, 0.1, 0.1, -6, 8], st_)
    y = block_soft_threshold(x, 1.0)
    norms = y.block_norms()
    assert norms[0] == pytest.approx(4.0)
    assert norms[1] == 0.0
    assert norms[2] == pytest.approx(9.0)


def test_block_soft_threshold_edge_cases_bitwise():
    # ragged blocks: an all-zero block (with a negative zero), a block of norm
    # exactly tau = 5, one of norm 10 and one of norm 2
    st_ = BlockStructure((2, 2, 3, 1))
    coeffs = np.array([0.0, -0.0, 3.0, 4.0, 6.0, -8.0, 0.0, -2.0])
    x = BlockSignal(coeffs, st_)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unchanged = block_soft_threshold(x, 0.0)
        shrunk = block_soft_threshold(x, 5.0)
    assert unchanged.coeffs.tobytes() == coeffs.tobytes()
    np.testing.assert_array_equal(shrunk.coeffs, [0.0, 0.0, 0.0, 0.0, 3.0, -4.0, 0.0, 0.0])


# --- noiseless program ---

def test_noiseless_identity_matrix(rng):
    st_ = BlockStructure((2, 2, 2))
    phi = SensingMatrix(np.eye(6), st_)
    b = rng.standard_normal(6)
    res = solve_noiseless(phi, b)
    assert res.converged
    np.testing.assert_allclose(res.estimate.coeffs, b, atol=1e-7)
    assert res.objective == pytest.approx(
        mixed_norm_2_1(BlockSignal(b, st_)), abs=1e-7
    )
    assert res.feasibility_gap <= 1e-8


def test_noiseless_sharpness_non_unique():
    inst = sharpness_instance(1.0, 2, 2, 6)
    b = apply(inst.phi, inst.x0)
    res = solve_noiseless(inst.phi, b)
    target = 2 * math.sqrt(2)
    assert res.converged
    assert res.objective <= target + 1e-6
    # two distinct feasible points share the optimal objective, so recovery
    # of x0 cannot be certified unique
    for witness in (inst.x0, inst.x_hat):
        assert np.linalg.norm(apply(inst.phi, witness) - b) <= 1e-10
        assert mixed_norm_2_1(witness) == pytest.approx(target, abs=1e-12)
    assert np.linalg.norm(inst.x0.coeffs - inst.x_hat.coeffs) > 1.0


def test_noiseless_certified_instance_recovers_and_matches_oracle(rng):
    phi, cert = _certified_instance()
    st_ = phi.structure
    x = random_block_sparse(rng, st_, 2)
    b = apply(phi, x)
    res = solve_noiseless(phi, b, truth=x)
    assert res.converged
    rel = np.linalg.norm(res.estimate.coeffs - x.coeffs) / np.linalg.norm(x.coeffs)
    assert rel <= 1e-5
    oracle = brute_force_l20(phi, b, s_max=2)
    rel_oracle = np.linalg.norm(res.estimate.coeffs - oracle.estimate.coeffs)
    assert rel_oracle <= 1e-5 * max(1.0, np.linalg.norm(x.coeffs))


def test_noiseless_optimality_vs_restricted_least_squares(rng):
    # no feasible support-restricted least-squares point beats the solver
    phi, _ = _certified_instance(seed=11)
    st_ = phi.structure
    x = random_block_sparse(rng, st_, 2)
    b = apply(phi, x)
    res = solve_noiseless(phi, b)
    for sup in itertools.combinations(range(st_.num_blocks), 2):
        cols = st_.block_indices(sup)
        sub = phi.entries[:, cols]
        coef, *_ = np.linalg.lstsq(sub, b, rcond=None)
        if np.linalg.norm(sub @ coef - b) > 1e-8:
            continue
        candidate = np.zeros(st_.total_dim)
        candidate[cols] = coef
        assert mixed_norm_2_1(BlockSignal(candidate, st_)) >= res.objective - 1e-6


def test_noiseless_nonconvergence_reported_not_raised(rng):
    phi, _ = _certified_instance(seed=7)
    x = random_block_sparse(rng, phi.structure, 2)
    b = apply(phi, x)
    res = solve_noiseless(phi, b, SolverConfig(max_iters=3))
    assert not res.converged
    assert res.iterations == 3


def test_noiseless_infeasible_detected():
    st_ = BlockStructure.uniform(2, 2)
    # rank-1 matrix: anything outside its range is infeasible
    phi = SensingMatrix(np.outer([1.0, 1.0], [1.0, 0.5, 0.25, 0.125]), st_)
    with pytest.raises(InfeasibleProblemError):
        solve_noiseless(phi, np.array([1.0, -1.0]))


def test_solvers_reject_non_finite_observation_and_radius():
    phi = SensingMatrix(np.eye(2), BlockStructure.uniform(1, 2))
    with pytest.raises(ValueError, match="finite"):
        solve_noiseless(phi, np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="finite"):
        solve_noisy(phi, np.array([1.0, 0.0]), np.inf)
    with pytest.raises(ValueError, match="finite"):
        solve_noiseless_batch(phi, np.array([[1.0, 0.0], [np.inf, 1.0]]))


def test_solvers_reject_observations_whose_squares_overflow():
    phi = SensingMatrix(np.eye(2), BlockStructure.uniform(1, 2))
    huge = np.array([1e308, 1.0])
    for call in (lambda: solve_noiseless(phi, huge), lambda: solve_noisy(phi, huge, 0.5)):
        with pytest.raises(ValueError, match=r"^observation must have a finite squared norm"):
            call()
    B = np.column_stack([[1.0, 0.0], huge])
    for call in (lambda: solve_noiseless_batch(phi, B), lambda: solve_noisy_batch(phi, B, 0.5)):
        with pytest.raises(ValueError, match=r"^observations must have a finite squared norm"):
            call()


def _scaled_problem(case):
    """(phi, b): a 2-block-sparse observation through a matrix far from unit scale."""
    if case == "nan_iterates":
        phi, scale = spread_kernel_matrix(21, BlockStructure.uniform(2, 12), seed=1), 1e8
    else:
        phi, scale = gaussian_matrix(4, BlockStructure.uniform(2, 3), seed=1), 1e100
    phi = SensingMatrix(phi.entries * scale, phi.structure)
    x = np.zeros(phi.num_cols)
    x[:2], x[-2:] = [1.0, 2.0], [-1.0, 0.5]
    return phi, phi.entries @ x


SCALE_ERRORS = [
    ("nan_iterates", r"^the sensing matrix's scale \(largest \|entry\| 9\.95e\+07\) is out of the "
                     r"solver's range: the iterates are not finite; rescale the matrix and the "
                     r"observations toward unit entries$"),
    ("cholesky", r"^the sensing matrix's scale \(largest \|entry\| 1\.38e\+100\) is out of the "
                 r"solver's range: I \+ Phi\^T Phi is not positive definite in floating point; "),
]


@pytest.mark.parametrize("case, message", SCALE_ERRORS, ids=[case for case, _ in SCALE_ERRORS])
def test_solves_name_a_matrix_scale_out_of_the_solvers_range(case, message):
    phi, b = _scaled_problem(case)
    cfg = SolverConfig(max_iters=1000)
    for call in (lambda: solve_noiseless(phi, b, cfg), lambda: solve_noisy(phi, b, 0.0, cfg),
                 lambda: solve_noisy_batch(phi, np.column_stack([b, b]), [0.0, 1e-3], cfg)):
        with pytest.raises(ValueError, match=message):
            call()


def test_solves_name_a_gram_matrix_that_overflows(gram_overflow_phi):
    # cho_factor's finiteness check, as a named error
    phi = gram_overflow_phi
    b = phi.entries[:, 0] * 1e-154
    message = (r"^the sensing matrix's scale \(largest \|entry\| 1\.34e\+154\) is out of the "
               r"solver's range: I \+ Phi\^T Phi is not finite; rescale ")
    for call in (lambda: solve_noiseless(phi, b), lambda: solve_noisy(phi, b, 1e-3),
                 lambda: solve_noiseless_batch(phi, np.column_stack([b, 2 * b]))):
        with pytest.raises(ValueError, match=message):
            call()


def test_noiseless_scaling_equivariance(rng):
    phi, _ = _certified_instance(seed=13)
    st_ = phi.structure
    x = random_block_sparse(rng, st_, 2)
    b = apply(phi, x)
    base = solve_noiseless(phi, b)
    for c in (0.5, 2.0):
        scaled = SensingMatrix(c * phi.entries, st_)
        res = solve_noiseless(scaled, c * b)
        assert res.converged
        np.testing.assert_allclose(res.estimate.coeffs, base.estimate.coeffs, atol=1e-6)
        assert res.objective == pytest.approx(base.objective, abs=1e-6)


# --- noise-ball program ---

def test_noisy_origin_optimal_when_ball_covers_b(rng):
    st_ = BlockStructure.uniform(2, 6)
    phi = spread_kernel_matrix(11, st_, seed=2)
    x = random_block_sparse(rng, st_, 2)
    b = apply(phi, x)
    res = solve_noisy(phi, b, rho=np.linalg.norm(b) * 1.01)
    assert res.converged
    assert res.objective <= 1e-7


def _result_bytes(res):
    """Every field of a RecoveryResult, floats as their bytes, so that -0.0 and NaN compare too."""
    floats = [res.objective, res.feasibility_gap, res.primal_residual, res.dual_residual]
    err = res.error_vector_norm
    return (res.estimate.coeffs.tobytes(), res.estimate.structure, np.array(floats).tobytes(),
            None if err is None else np.float64(err).tobytes(), res.iterations, res.converged)


def test_noisy_rho_zero_matches_noiseless(rng):
    phi, _ = _certified_instance(seed=17)
    x = random_block_sparse(rng, phi.structure, 2)
    b = apply(phi, x)
    res0 = solve_noiseless(phi, b, truth=x)
    res1 = solve_noisy(phi, b, rho=0.0, truth=x)
    assert _result_bytes(res1) == _result_bytes(res0)


def test_noisy_batch_rho_zero_matches_noiseless_batch(rng):
    phi, _ = _certified_instance(seed=17)
    truths = [random_block_sparse(rng, phi.structure, 2) for _ in range(12)]
    B = np.column_stack([apply(phi, x) for x in truths])
    res0 = solve_noiseless_batch(phi, B, truths=truths)
    res1 = solve_noisy_batch(phi, B, 0.0, truths=truths)
    assert [_result_bytes(r) for r in res1] == [_result_bytes(r) for r in res0]


def test_noisy_rho_zero_refuses_an_infeasible_observation_as_noiseless_does():
    phi = SensingMatrix(np.outer([1.0, 1.0], [1.0, 0.5, 0.25, 0.125]), BlockStructure.uniform(2, 2))
    b = np.array([1.0, -1.0])  # off the range of the rank-1 matrix
    for noiseless, noisy in ((lambda: solve_noiseless(phi, b), lambda: solve_noisy(phi, b, 0.0)),
                             (lambda: solve_noiseless_batch(phi, b[:, None]),
                              lambda: solve_noisy_batch(phi, b[:, None], 0.0))):
        with pytest.raises(InfeasibleProblemError) as e0:
            noiseless()
        with pytest.raises(InfeasibleProblemError) as e1:
            noisy()
        assert str(e1.value) == str(e0.value)
        assert "Phi x = b" in str(e0.value)


def test_noisy_identity_rho_zero(rng):
    st_ = BlockStructure((3, 3))
    phi = SensingMatrix(np.eye(6), st_)
    b = rng.standard_normal(6)
    res = solve_noisy(phi, b, rho=0.0)
    np.testing.assert_allclose(res.estimate.coeffs, b, atol=1e-7)


def test_noisy_error_within_bound(rng):
    phi, cert = _certified_instance(seed=19)
    st_ = phi.structure
    for rho in (1e-3, 1e-2, 1e-1):
        x = random_block_sparse(rng, st_, 2)
        xi = rng.standard_normal(phi.num_rows)
        xi *= rho / np.linalg.norm(xi)
        b = apply(phi, x) + xi
        res = solve_noisy(phi, b, rho, truth=x)
        assert res.converged
        bound = error_bound_tight(1.0, 2, cert.delta, rho, 0.0).bound
        assert res.error_vector_norm <= bound
        # feasibility contract on the error vector
        assert np.linalg.norm(phi.entries @ (res.estimate.coeffs - x.coeffs)) <= 2 * rho + 2e-8


def test_noisy_infeasible_ball_detected():
    st_ = BlockStructure.uniform(2, 2)
    phi = SensingMatrix(np.outer([1.0, 1.0], [1.0, 0.5, 0.25, 0.125]), st_)
    b = np.array([1.0, -1.0])  # distance to range is sqrt(2)
    with pytest.raises(InfeasibleProblemError):
        solve_noisy(phi, b, rho=0.5)
    res = solve_noisy(phi, b, rho=1.5)  # generous ball is feasible
    assert res.converged


def test_cone_constraint_diagnostic_on_solver_runs(rng):
    phi, _ = _certified_instance(seed=23)
    st_ = phi.structure
    for rho in (0.0, 1e-2):
        x = random_block_sparse(rng, st_, 2)
        b = apply(phi, x)
        if rho > 0:
            xi = rng.standard_normal(phi.num_rows)
            b = b + xi * (rho / np.linalg.norm(xi))
            res = solve_noisy(phi, b, rho, truth=x)
        else:
            res = solve_noiseless(phi, b, truth=x)
        assert res.converged
        h = res.estimate - x
        report = cone_constraint_check(h, x, 2)
        assert report.slack >= -1e-6


def test_batch_matches_single(rng):
    phi, _ = _certified_instance(seed=29)
    st_ = phi.structure
    xs = [random_block_sparse(rng, st_, 2) for _ in range(5)]
    B = np.column_stack([apply(phi, x) for x in xs])
    batch = solve_noiseless_batch(phi, B, truths=xs)
    for j, res in enumerate(batch):
        single = solve_noiseless(phi, B[:, j])
        assert res.converged and single.converged
        np.testing.assert_allclose(res.estimate.coeffs, single.estimate.coeffs, atol=1e-7)
        assert res.error_vector_norm <= 1e-6


def test_empty_batch_returns_no_results():
    # max_iters past a rebalancing check: an empty batch must not reach it
    phi = spread_kernel_matrix(6, BlockStructure.uniform(2, 4), seed=1)
    assert solve_noiseless_batch(phi, np.zeros((6, 0)), SolverConfig(max_iters=120)) == []


@pytest.mark.parametrize("solve", [
    lambda phi, B: solve_noiseless_batch(phi, B),
    lambda phi, B: solve_noisy_batch(phi, B, 0.1),
], ids=["noiseless", "noisy"])
def test_empty_batch_never_reaches_the_iteration(solve):
    phi = spread_kernel_matrix(6, BlockStructure.uniform(2, 4), seed=1)
    with mock.patch.object(solvers, "_admm", wraps=solvers._admm) as admm:
        assert solve(phi, np.zeros((6, 0))) == []
    admm.assert_not_called()


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(penalty=-1.0)


def test_solver_config_refuses_a_penalty_whose_reciprocal_overflows():
    with pytest.raises(ValueError, match=r"^penalty must be a finite real > 0.0 with a finite "
                                         r"reciprocal, got 1e-310$"):
        SolverConfig(penalty=1e-310)
    # a penalty just above the cut (1 / the largest float, about 5.56e-309) solves finitely
    phi = spread_kernel_matrix(6, BlockStructure.uniform(2, 4), seed=1)
    cfg = SolverConfig(penalty=5.6e-309, max_iters=60)
    assert np.isfinite(solve_noiseless(phi, phi.entries @ np.arange(8.0), cfg).estimate.coeffs).all()


def test_result_residuals_respect_tolerances(rng):
    phi, _ = _certified_instance(seed=31)
    x = random_block_sparse(rng, phi.structure, 2)
    cfg = SolverConfig()
    res = solve_noiseless(phi, apply(phi, x), cfg)
    assert res.converged
    assert res.primal_residual <= cfg.tol
    assert res.dual_residual <= cfg.tol


_EYE = SensingMatrix(np.eye(2), BlockStructure.uniform(1, 2))


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("SolverConfig", "max_iters", lambda v: SolverConfig(max_iters=v), BAD_COUNTS),
    *[("SolverConfig", field, lambda v, field=field: SolverConfig(**{field: v}), BAD_REALS)
      for field in ("tol", "penalty")],
    ("block_soft_threshold", "tau",
     lambda v: block_soft_threshold(BlockSignal([3.0, 4.0], BlockStructure((2,))), v),
     BAD_REALS),
    ("solve_noisy", "rho", lambda v: solve_noisy(_EYE, [1.0, 0.0], v), (*BAD_REALS, "0.1", -0.1)),
    ("solve_noisy_batch", "rhos", lambda v: solve_noisy_batch(_EYE, np.eye(2), v),
     (*BAD_REALS, "0.1", -0.1)),
))
def test_rejects_bad_count_or_real(name, call, value):
    with rejects_argument(name, value):
        call(value)


@pytest.mark.parametrize("name, call, value", bad_arrays(
    ("solve_noiseless", "observation", lambda v: solve_noiseless(_EYE, v), [1.0, 0.0]),
    ("solve_noisy", "observation", lambda v: solve_noisy(_EYE, v, 0.1), [1.0, 0.0]),
    ("solve_noiseless_batch", "observations", lambda v: solve_noiseless_batch(_EYE, v), np.eye(2)),
    ("solve_noisy_batch", "observations", lambda v: solve_noisy_batch(_EYE, v, 0.1), np.eye(2)),
    ("solve_noisy_batch", "rhos", lambda v: solve_noisy_batch(_EYE, np.eye(2), v), [0.1, 0.2]),
))
def test_rejects_bad_array(name, call, value):
    with rejects_array(name):
        call(value)


def test_noisy_batch_rejects_a_radius_per_column_that_is_negative_or_too_many():
    with pytest.raises(ValueError, match=r"rhos must hold reals >= 0.0, got -0.2"):
        solve_noisy_batch(_EYE, np.eye(2), [0.1, -0.2])
    with rejects_array("rhos"):
        solve_noisy_batch(_EYE, np.eye(2), [0.1, 0.2, 0.3])


def test_noisy_batch_takes_a_0d_radius_array_as_its_scalar():
    B = np.array([[1.0, 0.5], [0.0, 2.0]])
    assert solve_noisy_batch(_EYE, B, np.array(0.1)) == solve_noisy_batch(_EYE, B, 0.1)
    assert solve_noisy_batch(_EYE, B, np.array(1)) == solve_noisy_batch(_EYE, B, 1.0)


@pytest.mark.parametrize("value, shown", [
    (np.array(-0.1), "-0.1"), (np.array(math.nan), "nan"), (np.array(True), "True"),
    (np.array("0.1"), "'0.1'"),
], ids=["negative", "nan", "bool", "str"])
def test_noisy_batch_rejects_a_bad_0d_radius_array_by_name(value, shown):
    with pytest.raises(ValueError, match=rf"^rhos must be a finite real >= 0.0, got {shown}$"):
        solve_noisy_batch(_EYE, np.eye(2), value)


def test_noisy_batch_projects_without_floating_point_warnings():
    # pytest turns warnings into errors: a zero column at rho 0 makes 0/0 in the
    # z-update, and a huge rho over a tiny column overflows rho / ||z||
    B = np.array([[1e-160, 0.0, 1.0], [0.0, 0.0, 0.0]])
    results = solve_noisy_batch(_EYE, B, [1e300, 0.0, 0.0])
    assert all(r.converged for r in results)
    assert [r.estimate.coeffs.tolist() for r in results[:2]] == [[0.0, 0.0], [0.0, 0.0]]


def test_equal_solves_give_equal_results():
    truth = BlockSignal([1.0, 0.0], BlockStructure((1, 1)))
    result = solve_noisy(_EYE, [1.0, 0.0], 0.1, truth=truth)
    twin = SensingMatrix(_EYE.entries.copy(), _EYE.structure)
    assert result == solve_noisy(twin, np.array([1.0, 0.0]), 0.1, truth=truth)
    assert result != solve_noisy(_EYE, [1.0, 0.0], 0.2, truth=truth)
    assert result != solve_noisy(_EYE, [1.0, 0.0], 0.1)


_ON_THREE = BlockSignal([1.0, 2.0, 3.0], BlockStructure.uniform(1, 3))
_ONE_BLOCK = BlockSignal([1.0, 2.0], BlockStructure.uniform(2, 1))


@pytest.mark.parametrize("truth, got", [
    (_ON_THREE, r"BlockStructure\(block_lengths=\(1, 1, 1\)\)"),
    (_ONE_BLOCK, r"BlockStructure\(block_lengths=\(2,\)\)"),
    (np.array([1.0, 0.0]), "ndarray"),
], ids=["other_length", "other_blocks", "array"])
@pytest.mark.parametrize("solve", [
    lambda truth: solve_noiseless(_EYE, [1.0, 0.0], truth=truth),
    lambda truth: solve_noisy(_EYE, [1.0, 0.0], 0.1, truth=truth),
], ids=["noiseless", "noisy"])
def test_single_solves_refuse_a_truth_off_the_matrix_structure(solve, truth, got):
    with pytest.raises(ValueError, match=rf"^truth must be a BlockSignal on the matrix's "
                                         rf"BlockStructure\(block_lengths=\(1, 1\)\), got {got}$"):
        solve(truth)


@pytest.mark.parametrize("solve", [
    lambda truths: solve_noiseless_batch(_EYE, np.eye(2), truths=truths),
    lambda truths: solve_noisy_batch(_EYE, np.eye(2), 0.1, truths=truths),
], ids=["noiseless", "noisy"])
def test_batch_solves_name_the_truth_off_the_matrix_structure(solve):
    with pytest.raises(ValueError, match=r"^truths\[1\] must be a BlockSignal on the matrix's "):
        solve([None, _ONE_BLOCK])
    truth = BlockSignal([1.0, 0.0], BlockStructure((1, 1)))
    assert [r.error_vector_norm is None for r in solve([None, truth])] == [True, False]


# --- the loop against its reference ---

def _block_shrink(V, starts, lengths, tau):
    norms = np.sqrt(np.add.reduceat(V * V, starts, axis=0))
    return np.repeat(1.0 - tau / np.maximum(norms, tau), lengths, axis=0) * V


def _reference_admm(phi: SensingMatrix, B: np.ndarray, rhos: np.ndarray, cfg: SolverConfig,
                    rebalances: list | None = None):
    """The splitting iteration with every residual evaluated on every
    iteration and one penalty shared by the batch: the reference that
    `solvers._admm` must match bit for bit on a batch of one.  Each
    rebalance appends "up" or "down" to `rebalances`, when given."""
    entries = phi.entries
    entries_t = entries.T
    starts = phi.structure._edges[:-1]
    lengths = np.asarray(phi.structure.block_lengths)
    m, n = entries.shape
    batch = B.shape[1]

    # the caller checked B and rhos finite, so LAPACK's solve runs unchecked
    chol, lower = scipy.linalg.cho_factor(np.eye(n) + entries_t @ entries)
    (potrs,) = scipy.linalg.get_lapack_funcs(("potrs",), (chol,))

    w = np.zeros((n, batch))
    u = np.zeros((n, batch))
    z = np.zeros((m, batch))
    v = np.zeros((m, batch))
    zb = z + B
    beta = cfg.penalty
    alpha = _ALPHA.item()
    alpha_c = 1.0 - alpha
    noiseless = np.all(rhos == 0.0)

    est = np.zeros((n, batch))
    iters = np.full(batch, cfg.max_iters, dtype=int)
    prim = np.full(batch, np.inf)
    dual = np.full(batch, np.inf)
    done = np.zeros(batch, dtype=bool)
    any_done = False

    for it in range(1, cfg.max_iters + 1):
        x, _ = potrs(chol, (w - u) + entries_t @ (zb - v), lower=lower, overwrite_b=True)
        px = entries @ x
        xr = alpha * x + alpha_c * w
        pxr = alpha * px + alpha_c * zb

        w_old = w
        xu = xr + u
        w = _block_shrink(xu, starts, lengths, 1.0 / beta)
        u = xu - w
        dw = w - w_old
        v_next = v + pxr - B
        rz = px - B
        # every rho 0 keeps z at 0: dropping z's terms can flip only a zero's sign in dw
        if not noiseless:
            zin = pxr - B + v
            nz = _column_norms(zin)
            z_old, z = z, zin * np.where(nz > rhos, rhos / np.where(nz > 0, nz, 1.0), 1.0)
            v_next, rz, zb = v_next - z, rz - z, z + B
            dw = dw + entries_t @ (z - z_old)
        v = v_next
        rp = np.sqrt(_column_norms(x - w) ** 2 + _column_norms(rz) ** 2)
        rd = beta * _column_norms(dw)

        hit = (rp <= cfg.tol) & (rd <= cfg.tol)
        if any_done:
            hit &= ~done
        if hit.any():
            est[:, hit] = w[:, hit]
            iters[hit] = it
            prim[hit] = rp[hit]
            dual[hit] = rd[hit]
            done |= hit
            any_done = True
            if done.all():
                break

        if it % _BALANCE_EVERY == 0:
            rp_max, rd_max = rp[~done].max(), rd[~done].max()
            if rp_max > _BALANCE_RATIO * rd_max:
                beta *= _BALANCE_FACTOR
                u /= _BALANCE_FACTOR
                v /= _BALANCE_FACTOR
                if rebalances is not None:
                    rebalances.append("up")
            elif rd_max > _BALANCE_RATIO * rp_max:
                beta /= _BALANCE_FACTOR
                u *= _BALANCE_FACTOR
                v *= _BALANCE_FACTOR
                if rebalances is not None:
                    rebalances.append("down")

    return np.where(done, est, w), iters, np.where(done, prim, rp), np.where(done, dual, rd), done


@st.composite
def _batch_problems(draw, max_columns, min_columns=1,
                    max_iters=(1, 49, 50, 51, 99, 100, 101, 400, None)):
    """(phi, B, rhos, cfg): `min_columns` to `max_columns` observations of
    1-block-sparse signals, each moved off its exact value by noise of its
    radius, some zeroed; cfg has one of `max_iters` (None: the default)."""
    lengths = draw(st.one_of(
        st.tuples(st.integers(1, 3), st.integers(2, 8)).map(lambda dl: (dl[0],) * dl[1]),
        st.lists(st.integers(1, 3), min_size=2, max_size=8).map(tuple),
    ), label="lengths")
    rhos = draw(st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 1e-1]), min_size=min_columns,
                         max_size=max_columns), label="rhos")
    max_iters = draw(st.sampled_from(max_iters), label="max_iters")
    structure = BlockStructure(lengths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32), label="seed"))
    n = structure.total_dim
    phi = SensingMatrix(rng.standard_normal((draw(st.integers(1, n), label="m"), n)), structure)
    B = np.column_stack([
        apply(phi, random_block_sparse(rng, structure, 1)) + rho * rng.standard_normal(phi.num_rows)
        for rho in rhos
    ])
    zero = draw(st.lists(st.booleans(), min_size=len(rhos), max_size=len(rhos)), label="zero")
    B[:, np.array(zero)] = 0.0
    cfg = SolverConfig() if max_iters is None else SolverConfig(max_iters=max_iters)
    return phi, B, np.array(rhos), cfg


@settings(max_examples=60, deadline=None)
@given(problem=_batch_problems(max_columns=1))
def test_admm_matches_reference_loop_bit_for_bit(problem):
    # a batch of one: the only width at which the per-column loop and the reference agree bit for bit
    est, iters, prim, dual, done = solvers._admm(*problem)
    ref_est, ref_iters, ref_prim, ref_dual, ref_done = _reference_admm(*problem)
    assert est.tobytes() == ref_est.tobytes()
    assert iters.tolist() == ref_iters.tolist()
    assert prim.tobytes() == ref_prim.tobytes()
    assert dual.tobytes() == ref_dual.tobytes()
    assert done.tolist() == ref_done.tolist()


@settings(max_examples=60, deadline=None)
@given(problem=_batch_problems(max_columns=12))
def test_admm_batch_columns_match_their_standalone_solves(problem):
    # not bit for bit: BLAS may round column j of a product differently at another batch width
    phi, B, rhos, cfg = problem
    est, iters, _, _, done = solvers._admm(phi, B, rhos, cfg)
    for j in range(B.shape[1]):
        one_est, one_iters, _, _, one_done = solvers._admm(phi, B[:, [j]], rhos[[j]], cfg)
        assert (iters[j], done[j]) == (one_iters[0], one_done[0])
        scale = max(1.0, np.linalg.norm(one_est[:, 0]))
        assert np.linalg.norm(est[:, j] - one_est[:, 0]) <= 1e-12 * scale


def _failing_noiseless_problem(seed, d, k, s, m, penalty, max_iters, tol):
    """(phi, B, rhos, cfg): one noiseless observation of an s-block-sparse signal, s >= 2,
    through m < s*d rows, so the truth is not recovered and the iteration runs long."""
    structure = BlockStructure.uniform(d, k)
    rng = np.random.default_rng(seed)
    phi = SensingMatrix(rng.standard_normal((m, d * k)), structure)
    B = apply(phi, random_block_sparse(rng, structure, s))[:, None]
    return phi, B, np.zeros(1), SolverConfig(max_iters=max_iters, penalty=penalty, tol=tol)


@st.composite
def _failing_noiseless_problems(draw):
    d, k = draw(st.integers(1, 3), label="d"), draw(st.integers(4, 8), label="k")
    s = draw(st.integers(2, k // 2 + 1), label="s")
    return _failing_noiseless_problem(
        draw(st.integers(0, 2**32), label="seed"), d, k, s, draw(st.integers(1, s * d - 1), label="m"),
        # a small penalty rebalances up, a large one down
        draw(st.sampled_from([1e-2, 1.0, 1e2]), label="penalty"),
        draw(st.sampled_from([137, 1001]), label="max_iters"),
        draw(st.sampled_from([1e-9, 1e-13]), label="tol"),
    )


@settings(max_examples=40, deadline=None)
@given(problem=_failing_noiseless_problems())
def test_admm_lone_noiseless_column_that_fails_recovery_matches_reference_bit_for_bit(problem):
    # the lone noiseless column skips its dual residual where one coordinate fails the test
    outputs = solvers._admm(*problem)
    for got, want in zip(outputs, _reference_admm(*problem)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("max_iters", [137, 1001])
def test_failing_noiseless_problems_run_long_and_rebalance(max_iters):
    # what the bit-for-bit test above draws: hundreds of iterations, rebalancing either way
    runs = []
    for penalty, direction in [(1e-2, "up"), (1e2, "down")]:
        for seed in range(3):
            problem = _failing_noiseless_problem(seed, 2, 6, 3, 4, penalty, max_iters, 1e-13)
            rebalances = []
            _, iters, _, _, done = _reference_admm(*problem, rebalances)
            assert rebalances and set(rebalances) == {direction}
            runs.append((int(iters[0]), bool(done[0])))
    assert min(it for it, _ in runs) >= 137 and (max_iters, False) in runs


@settings(max_examples=30, deadline=None)
@given(problem=_failing_noiseless_problems(), zero_first=st.booleans())
def test_admm_noiseless_batch_compacted_to_one_column_skips_no_outcome(problem, zero_first):
    # a zero observation converges on the first iteration and leaves the other column alone;
    # the same batch, with the one-coordinate probe never deciding, gives the same bits
    phi, b, _, cfg = problem
    B = np.column_stack([np.zeros_like(b[:, 0]), b[:, 0]][:: 1 if zero_first else -1])
    probes = []

    def sqrt(value):
        probes.append(value)
        return math.sqrt(value)

    with mock.patch.object(solvers, "math", mock.Mock(sqrt=sqrt)):
        outputs = solvers._admm(phi, B, np.zeros(2), cfg)
    with mock.patch.object(solvers, "math", mock.Mock(sqrt=lambda value: 0.0)):
        full = solvers._admm(phi, B, np.zeros(2), cfg)
    assert outputs[1][1 - zero_first] == 1 and probes
    for got, want in zip(outputs, full):
        assert got.tobytes() == want.tobytes()


@st.composite
def _noisy_batch_problems(draw):
    """(phi, B, rhos, cfg): 2 to 12 columns, column j noisy, the others of any radius;
    when `compact` is drawn, every other column is zero, converges on the first
    iteration and leaves column j to run alone."""
    phi, B, rhos, cfg = draw(_batch_problems(max_columns=12, min_columns=2,
                                             max_iters=(49, 50, 51, 400, None)))
    j = draw(st.integers(0, len(rhos) - 1), label="j")
    rhos[j] = draw(st.sampled_from([1e-3, 1e-2, 1e-1]), label="rho_j")
    if draw(st.booleans(), label="compact"):
        assume(B[:, j].any())
        B[:, np.arange(len(rhos)) != j] = 0.0
    return phi, B, rhos, cfg


@settings(max_examples=60, deadline=None)
@given(problem=_noisy_batch_problems())
def test_admm_noisy_batch_skips_no_outcome(problem):
    # a step on which ||x - w|| alone fails every running column's primal test skips the
    # residuals; the same loop, with that bound never deciding, gives the same bits
    outputs = solvers._admm(*problem)
    with mock.patch.object(solvers, "_rules_out", lambda xw2, tol: False):
        full = solvers._admm(*problem)
    for got, want in zip(outputs, full):
        assert got.tobytes() == want.tobytes()


def _skip_widths(problem):
    """The number of running columns at each step on which `_admm` skips the residuals."""
    widths, rules_out = [], solvers._rules_out

    def recording(xw2, tol):
        skip = rules_out(xw2, tol)
        if skip:
            widths.append(xw2.size)
        return skip

    with mock.patch.object(solvers, "_rules_out", recording):
        solvers._admm(*problem)
    return widths


@pytest.mark.parametrize("alone", [False, True], ids=["batch", "compacted"])
def test_noisy_batch_problems_skip_steps(alone):
    # what the bit-for-bit test above draws: steps skipped with several columns running, and
    # by a noisy column left alone once the zero columns leave after the first iteration
    def skips(problem):
        widths = _skip_widths(problem)
        if alone:
            return np.count_nonzero(problem[1].any(axis=0)) == 1 and 1 in widths
        return max(widths, default=0) >= 2

    find(_noisy_batch_problems(), skips,
         settings=settings(database=None, max_examples=200, phases=[Phase.generate], deadline=None))


# --- block sums and the skip rule ---

@st.composite
def _shrink_inputs(draw):
    """(structure, V, beta): uniform blocks of 1 to 9 coefficients or ragged ones, 1 to 200
    columns, entries of magnitude 1e-150 to 1e150 (within a factor of 100 of one another or
    spread over the whole range) with zeros, and for each column a penalty whose threshold
    lies between the column's block norms, so that the shrink keeps the norms' last bits."""
    lengths = draw(st.one_of(
        st.tuples(st.integers(1, 9), st.integers(1, 12)).map(lambda dl: (dl[0],) * dl[1]),
        st.lists(st.integers(1, 9), min_size=2, max_size=12).map(tuple),
    ), label="lengths")
    width = draw(st.integers(1, 200), label="width")
    exponent = draw(st.integers(-149, 149), label="exponent")
    spread = draw(st.sampled_from([1, 150]), label="spread")
    zeros = draw(st.sampled_from([0.0, 0.3, 1.0]), label="zeros")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = sum(lengths)
    powers = np.clip(exponent + rng.uniform(-spread, spread, (n, width)), -150, 150)
    V = rng.choice([-1.0, 1.0], (n, width)) * 10.0 ** powers
    V[rng.random((n, width)) < zeros] = 0.0
    norms = np.sqrt(np.add.reduceat(V * V, BlockStructure(lengths)._edges[:-1], 0))
    tau = norms[rng.integers(len(lengths), size=width), np.arange(width)] * rng.uniform(0.3, 0.9, width)
    tau[tau == 0.0] = 1.0
    return BlockStructure(lengths), V, 1.0 / tau


@settings(max_examples=200, deadline=None)
@given(inputs=_shrink_inputs())
def test_block_shrink_gives_the_bits_of_a_reduceat_shrink(inputs):
    # the block sums as `_admm` picks them, and as strided views at every width the views allow
    structure, V, beta = inputs
    starts, lengths = structure._edges[:-1], np.asarray(structure.block_lengths)
    d = lengths[0]
    picks = [(np.add.reduceat, starts), solvers._block_summation(structure, V.shape[1])]
    if d <= 8 and (lengths == d).all():
        picks.append((solvers._block_sums, d))
    tau = solvers._thresholds(beta, len(starts))
    want = _block_shrink(V, starts, lengths, 1.0 / beta).tobytes()
    for add_blocks, at in picks:
        assert solvers._block_shrink(V, add_blocks, at, lengths, tau).tobytes() == want, add_blocks


def _views(structure, width):
    """The block length whose views `_block_summation` picks, or 0 for reduceat."""
    add_blocks, at = solvers._block_summation(structure, width)
    return at if add_blocks is solvers._block_sums else 0


def test_block_sums_take_views_on_wide_uniform_batches_only():
    # 12 blocks of 2 take views from `_VIEW_SUMS` block sums on; a lone column keeps reduceat
    uniform = BlockStructure.uniform(2, 12)
    wide = -(-solvers._VIEW_SUMS // 12)
    assert [_views(uniform, k) for k in (1, wide - 1, wide, 198)] == [0, 0, 2, 2]
    assert _views(BlockStructure.uniform(8, 12), 1000) == 8
    assert _views(BlockStructure.uniform(9, 12), 1000) == 0
    assert _views(BlockStructure((2, 2, 2, 3)), 1000) == 0
    assert _views(BlockStructure.uniform(1, 3), 1) == 1  # the rows themselves
    add_blocks, at = solvers._block_summation(BlockStructure((2, 2, 2, 3)), 1000)
    assert add_blocks == np.add.reduceat and at.tolist() == [0, 2, 4, 6]


@settings(max_examples=40, deadline=None)
@given(problem=_batch_problems(max_columns=12))
def test_admm_gives_the_bits_of_reduceat_with_views_at_every_width(problem):
    def everywhere(structure, width):
        lengths = structure.block_lengths
        if lengths[0] <= 8 and len(set(lengths)) == 1:
            return solvers._block_sums, lengths[0]
        return np.add.reduceat, structure._edges[:-1]

    with mock.patch.object(solvers, "_block_summation", everywhere):
        views = solvers._admm(*problem)
    with mock.patch.object(solvers, "_block_summation",
                           lambda structure, width: (np.add.reduceat, structure._edges[:-1])):
        reduceat = solvers._admm(*problem)
    for got, want in zip(views, reduceat):
        assert got.tobytes() == want.tobytes()


_SUMS = st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e308, math.inf, math.nan]),
                           st.floats(min_value=0.0)), min_size=1, max_size=12)


@settings(max_examples=500, deadline=None)
@given(sums=_SUMS, tol=st.floats(5e-324, 1e300))
def test_rules_out_decides_as_the_squared_norms_do(sums, tol):
    # the squared sums' smallest entry alone decides what every column's sqrt(sums) ** 2 decides
    sums = np.array(sums)
    with np.errstate(over="ignore"):
        want = math.sqrt(np.minimum.reduce(np.sqrt(sums) ** 2)) > tol
    assert solvers._rules_out(sums, tol) == want


# --- one memory layout through the loop ---

@pytest.mark.parametrize("kind", ["noiseless", "noisy", "mixed"])
@settings(max_examples=20, deadline=None)
@given(problem=_batch_problems(max_columns=12, min_columns=2))
def test_fortran_ordered_inputs_give_the_bits_of_c_ordered_ones(kind, problem):
    # the matrix and the observations enter in C order, whatever the caller's layout
    phi, B, rhos, cfg = problem
    if kind == "noiseless":
        rhos[:] = 0.0
    elif kind == "noisy":
        rhos[rhos == 0.0] = 1e-2
    else:
        rhos[0], rhos[-1] = 0.0, 1e-2
    phi_f = SensingMatrix(np.asfortranarray(phi.entries), phi.structure)
    c_order = [_result_bytes(res) for res in solve_noisy_batch(phi, B, rhos, cfg)]
    assert [_result_bytes(res) for res in solve_noisy_batch(phi, np.asfortranarray(B), rhos, cfg)] == c_order
    assert [_result_bytes(res) for res in solve_noisy_batch(phi_f, B, rhos, cfg)] == c_order
    assert [_result_bytes(res) for res in solve_noisy_batch(phi_f, np.asfortranarray(B), rhos, cfg)] == c_order


def test_a_fortran_ordered_matrix_gives_the_bits_of_a_c_ordered_one():
    # six 2-block-sparse observations, on which a solve that kept the matrix's Fortran order gives
    # column 3 other bits at rho = 0 and column 0 at rho = 1e-2; the oracle and the RIC certificate too
    E = np.random.default_rng(0).standard_normal((13, 24))
    structure = BlockStructure.uniform(2, 12)
    phi, phi_f = SensingMatrix(E, structure), SensingMatrix(np.asfortranarray(E), structure)
    assert phi_f.entries.flags.c_contiguous
    rng = np.random.default_rng(1)
    B = np.column_stack([apply(phi, random_block_sparse(rng, structure, 2)) for _ in range(6)])
    for rho in (0.0, 1e-2):
        assert ([_result_bytes(res) for res in solve_noisy_batch(phi_f, B, rho)]
                == [_result_bytes(res) for res in solve_noisy_batch(phi, B, rho)])
    sol, sol_f = brute_force_l20(phi, B[:, 0], s_max=2), brute_force_l20(phi_f, B[:, 0], s_max=2)
    assert sol_f.estimate.coeffs.tobytes() == sol.estimate.coeffs.tobytes()
    assert (sol_f.residual, sol_f.support, sol_f.supports_searched) == (sol.residual, sol.support,
                                                                       sol.supports_searched)
    cert, cert_f = exact_block_ric(phi, 2), exact_block_ric(phi_f, 2)
    assert (np.array([cert_f.delta, cert_f.min_eig, cert_f.max_eig]).tobytes(), cert_f.worst_support) == (
        np.array([cert.delta, cert.min_eig, cert.max_eig]).tobytes(), cert.worst_support)


def _record_potrs(monkeypatch):
    """(columns, C-contiguous) of every right-hand side that `_admm` hands LAPACK's dpotrs,
    and the Fortran-contiguity of each x it returns, at each product taken from that x."""
    lapack, seen, products = solvers.flapack(), [], []

    class Solution(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                products.append(self.flags.f_contiguous)
            return getattr(ufunc, method)(*map(np.asarray, inputs), **kwargs)

    def dpotrs(chol, rhs, *args):
        seen.append((rhs.shape[1], rhs.flags.c_contiguous))
        x, info = lapack.dpotrs(chol, rhs, *args)
        return x.view(Solution), info

    monkeypatch.setattr(solvers, "flapack", lambda: SimpleNamespace(dpotrf=lapack.dpotrf, dpotrs=dpotrs))
    return seen, products


# (structure, rows, radius of each column, which columns observe zero)
LAYOUT_CASES = {
    "noisy_12": (BlockStructure.uniform(2, 8), 11, [1e-3, 1e-2, 1e-1] * 4, []),
    "ragged": (BlockStructure((1, 3, 2, 2, 1, 3)), 7, [0.0, 1e-2, 0.0, 1e-3, 1e-1, 0.0], [0, 2]),
}


@pytest.mark.parametrize("case", LAYOUT_CASES)
def test_admm_hands_dpotrs_one_c_ordered_column_per_running_column(monkeypatch, case):
    # a Fortran-ordered iterate, or one left by dropping converged columns, would show here;
    # Phi x is taken from dpotrs's Fortran-ordered x, whose C copy gives other bits
    structure, m, rhos, zero = LAYOUT_CASES[case]
    rng = np.random.default_rng(1)
    phi = SensingMatrix(rng.standard_normal((m, structure.total_dim)), structure)
    B = np.column_stack([apply(phi, random_block_sparse(rng, structure, 1)) + rho * rng.standard_normal(m)
                         for rho in rhos])
    B[:, zero] = 0.0
    seen, products = _record_potrs(monkeypatch)
    iters = solvers._admm(phi, B, np.array(rhos), SolverConfig(max_iters=2000))[1]
    # column j runs on steps 1 to iters[j]
    running = [int(np.count_nonzero(iters >= it)) for it in range(1, iters.max() + 1)]
    assert [columns for columns, _ in seen] == running
    assert all(c_order for _, c_order in seen)
    assert len(products) == len(seen) and all(products)
    assert running[0] == len(rhos) and 1 < len(set(running))


def test_batch_returns_an_unconverged_column_in_its_place():
    # the noisy middle column runs to max_iters after the noiseless ones leave the loop, one at a time
    phi = gaussian_matrix(11, BlockStructure.uniform(2, 8), 2)
    rng = np.random.default_rng(0)
    B = np.column_stack([apply(phi, random_block_sparse(rng, phi.structure, 2)) for _ in range(3)])
    rhos, cfg = [0.0, 1e-3, 0.0], SolverConfig(max_iters=400)
    batch = solve_noisy_batch(phi, B, rhos, cfg)
    assert [(r.iterations, r.converged) for r in batch] == [(157, True), (400, False), (113, True)]
    for j, res in enumerate(batch):
        alone = solve_noisy(phi, B[:, j], rhos[j], cfg)
        assert (res.iterations, res.converged) == (alone.iterations, alone.converged)
        np.testing.assert_allclose(res.estimate.coeffs, alone.estimate.coeffs, rtol=0, atol=1e-12)
        assert res.primal_residual == pytest.approx(alone.primal_residual, rel=1e-9)
        assert res.dual_residual == pytest.approx(alone.dual_residual, rel=1e-9)

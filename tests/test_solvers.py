import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
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
    mixed_norm_2_1,
    sharpness_instance,
    solve_noiseless,
    solve_noiseless_batch,
    solve_noisy,
    solve_noisy_batch,
    spread_kernel_matrix,
)
from blockcs import solvers
from blockcs.solvers import _BALANCE_EVERY, _BALANCE_FACTOR, _BALANCE_RATIO, _column_norms
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


def test_noisy_rho_zero_matches_noiseless(rng):
    phi, _ = _certified_instance(seed=17)
    x = random_block_sparse(rng, phi.structure, 2)
    b = apply(phi, x)
    res0 = solve_noiseless(phi, b)
    res1 = solve_noisy(phi, b, rho=0.0)
    np.testing.assert_allclose(res1.estimate.coeffs, res0.estimate.coeffs, atol=1e-7)


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
        SolverConfig(primal_tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(over_relaxation=2.5)
    with pytest.raises(ValueError):
        SolverConfig(penalty=-1.0)


def test_result_residuals_respect_tolerances(rng):
    phi, _ = _certified_instance(seed=31)
    x = random_block_sparse(rng, phi.structure, 2)
    cfg = SolverConfig()
    res = solve_noiseless(phi, apply(phi, x), cfg)
    assert res.converged
    assert res.primal_residual <= cfg.primal_tol
    assert res.dual_residual <= cfg.dual_tol


_EYE = SensingMatrix(np.eye(2), BlockStructure.uniform(1, 2))


@pytest.mark.parametrize("name, call, value", bad_arguments(
    ("SolverConfig", "max_iters", lambda v: SolverConfig(max_iters=v), BAD_COUNTS),
    *[("SolverConfig", field, lambda v, field=field: SolverConfig(**{field: v}), BAD_REALS)
      for field in ("primal_tol", "dual_tol", "penalty", "over_relaxation", "feasibility_tol")],
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


def _reference_admm(phi: SensingMatrix, B: np.ndarray, rhos: np.ndarray, cfg: SolverConfig):
    """The splitting iteration with every residual evaluated on every
    iteration: the reference that `solvers._admm` must match bit for bit."""
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
    alpha = cfg.over_relaxation
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

        hit = (rp <= cfg.primal_tol) & (rd <= cfg.dual_tol)
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
            elif rd_max > _BALANCE_RATIO * rp_max:
                beta /= _BALANCE_FACTOR
                u *= _BALANCE_FACTOR
                v *= _BALANCE_FACTOR

    return np.where(done, est, w), iters, np.where(done, prim, rp), np.where(done, dual, rd), done


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.one_of(
        st.tuples(st.integers(1, 3), st.integers(2, 8)).map(lambda dl: (dl[0],) * dl[1]),
        st.lists(st.integers(1, 3), min_size=2, max_size=8).map(tuple),
    ),
    seed=st.integers(0, 2**32),
    rhos=st.lists(st.sampled_from([0.0, 1e-3, 1e-2, 1e-1]), min_size=1, max_size=12),
    max_iters=st.sampled_from([1, 49, 50, 51, 400, None]),
    data=st.data(),
)
def test_admm_matches_reference_loop_bit_for_bit(lengths, seed, rhos, max_iters, data):
    structure = BlockStructure(lengths)
    rng = np.random.default_rng(seed)
    n = structure.total_dim
    m = data.draw(st.integers(1, n), label="m")
    phi = SensingMatrix(rng.standard_normal((m, n)), structure)
    B = np.column_stack([
        apply(phi, random_block_sparse(rng, structure, 1)) + rho * rng.standard_normal(m)
        for rho in rhos
    ])
    zero = data.draw(st.lists(st.booleans(), min_size=len(rhos), max_size=len(rhos)), label="zero")
    B[:, np.array(zero)] = 0.0
    rhos = np.array(rhos)
    cfg = SolverConfig() if max_iters is None else SolverConfig(max_iters=max_iters)

    est, iters, prim, dual, done = solvers._admm(phi, B, rhos, cfg)
    ref_est, ref_iters, ref_prim, ref_dual, ref_done = _reference_admm(phi, B, rhos, cfg)
    assert est.tobytes() == ref_est.tobytes()
    assert iters.tolist() == ref_iters.tolist()
    assert prim.tobytes() == ref_prim.tobytes()
    assert dual.tobytes() == ref_dual.tobytes()
    assert done.tolist() == ref_done.tolist()

"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible with `pytest -s` or in captured output).  Heavy shared work
(certified instance generation, the exhaustive recovery sweeps) lives in
module-scoped fixtures so criteria 2, 3, and 7 share one set of runs.
"""

import itertools
import math
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest

from blockcs import (
    BlockSignal,
    BlockStructure,
    apply,
    best_block_approx,
    brute_force_l20_batch,
    check_condition,
    cone_constraint_check,
    error_bound_loose,
    error_bound_tight,
    exact_block_ric,
    gaussian_matrix,
    generator,
    mixed_norm_2_0,
    mixed_norm_2_1,
    mixed_norm_2_inf,
    polytope_decompose,
    ric_scaling_bound,
    sharpness_instance,
    solve_noiseless_batch,
    solve_noisy_batch,
    spread_kernel_matrix,
    tail_power_check,
)

ACC_SEED = 20250810
T, S = 1.0, 2  # recovery regime for criteria 2, 3, 7: order t*s = 2
THRESHOLD = T / (4.0 - T)

# instance families (block count, block length, rows, how many to certify)
FAMILIES = [
    (12, 2, 21, 8),
    (12, 2, 20, 4),
    (8, 2, 14, 4),
    (6, 2, 11, 4),
]


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True)
def _console(request):
    # lets _report write past pytest's fd-level capture, so the per-criterion
    # pass/fail lines land in the terminal log even without -s
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num, name, passed, detail=""):
    tail = f"  ({detail})" if detail else ""
    line = f"[ACCEPTANCE {num}] {name}: {'PASS' if passed else 'FAIL'}{tail}"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            print(f"\n{line}", file=sys.stderr, flush=True)
    else:
        print(f"\n{line}", flush=True)


def _checked(num, name, body):
    try:
        detail = body() or ""
    except BaseException:
        _report(num, name, False)
        raise
    _report(num, name, True, detail)


# --------------------------------------------------------------------------
# shared fixtures: certified instances and the solver sweeps over them
# --------------------------------------------------------------------------

@dataclass
class _Instance:
    phi: object
    delta: float
    family: tuple
    seed: int


@dataclass
class _Run:
    truth: BlockSignal
    estimate: BlockSignal
    rel_err: float
    converged: bool
    rho: float
    abs_err: float
    bound: float | None


@pytest.fixture(scope="module")
def certified_instances():
    instances = []
    for l, d, m, count in FAMILIES:
        structure = BlockStructure.uniform(d, l)
        found = 0
        for seed in range(20 * count):
            phi = spread_kernel_matrix(m, structure, seed=ACC_SEED + seed)
            cert = exact_block_ric(phi, int(round(T * S)))
            if check_condition(cert.delta, T, S).ok:
                instances.append(_Instance(phi, cert.delta, (l, d, m), ACC_SEED + seed))
                found += 1
                if found == count:
                    break
        assert found == count, f"could not certify {count} instances for family {(l, d, m)}"
    assert len(instances) >= 20
    for inst in instances:
        assert inst.phi.structure.total_dim <= 24
        assert inst.phi.structure.num_blocks <= 12
    return instances


@pytest.fixture(scope="module")
def noiseless_runs(certified_instances):
    """Criterion 2 workload: exhaustive supports x 3 coefficient draws each."""
    start = time.perf_counter()
    runs = []
    oracle_mismatches = 0
    for idx, inst in enumerate(certified_instances):
        st_ = inst.phi.structure
        l = st_.num_blocks
        rng = generator(ACC_SEED, 1, idx)
        truths = []
        for sup in itertools.combinations(range(l), S):
            for _ in range(3):
                coeffs = np.zeros(st_.total_dim)
                for i in sup:
                    sl = st_.block_slice(i)
                    coeffs[sl] = rng.standard_normal(sl.stop - sl.start)
                truths.append(BlockSignal(coeffs, st_))
        B = np.column_stack([apply(inst.phi, x) for x in truths])
        results = solve_noiseless_batch(inst.phi, B, truths=truths)
        oracles = brute_force_l20_batch(inst.phi, B, s_max=S)
        for x, res, oracle in zip(truths, results, oracles):
            rel = res.error_vector_norm / np.linalg.norm(x.coeffs)
            gap = np.linalg.norm(res.estimate.coeffs - oracle.estimate.coeffs)
            if gap > 1e-5 * max(1.0, np.linalg.norm(x.coeffs)):
                oracle_mismatches += 1
            runs.append(_Run(x, res.estimate, rel, res.converged, 0.0,
                             res.error_vector_norm, None))
    elapsed = time.perf_counter() - start
    return runs, oracle_mismatches, elapsed


@pytest.fixture(scope="module")
def noisy_runs(certified_instances):
    """Criterion 3 workload: ||xi||_2 = rho in {1e-3, 1e-2, 1e-1}, 4 draws."""
    start = time.perf_counter()
    runs = []
    for idx, inst in enumerate(certified_instances):
        st_ = inst.phi.structure
        l = st_.num_blocks
        m = inst.phi.num_rows
        rng = generator(ACC_SEED, 2, idx)
        truths, obs, rhos, bounds = [], [], [], []
        for rho in (1e-3, 1e-2, 1e-1):
            bound = error_bound_tight(T, S, inst.delta, rho, 0.0).bound
            for _ in range(4):
                support = sorted(rng.choice(l, size=S, replace=False).tolist())
                coeffs = np.zeros(st_.total_dim)
                for i in support:
                    sl = st_.block_slice(i)
                    coeffs[sl] = rng.standard_normal(sl.stop - sl.start)
                x = BlockSignal(coeffs, st_)
                xi = rng.standard_normal(m)
                xi *= rho / np.linalg.norm(xi)
                truths.append(x)
                obs.append(apply(inst.phi, x) + xi)
                rhos.append(rho)
                bounds.append(bound)
        results = solve_noisy_batch(inst.phi, np.column_stack(obs), rhos, truths=truths)
        for x, res, rho, bound in zip(truths, results, rhos, bounds):
            runs.append(_Run(x, res.estimate, res.error_vector_norm / np.linalg.norm(x.coeffs),
                             res.converged, rho, res.error_vector_norm, bound))
    elapsed = time.perf_counter() - start
    return runs, elapsed


# --------------------------------------------------------------------------
# criterion 1: sharpness reproduction
# --------------------------------------------------------------------------

def test_criterion_1_sharpness_reproduction():
    def body():
        start = time.perf_counter()
        for t, s, d, l in ((1.0, 2, 2, 6), (1.0, 2, 1, 5), (2.0 / 3.0, 3, 1, 8)):
            ts = round(t * s)
            inst = sharpness_instance(t, s, d, l)
            cert = exact_block_ric(inst.phi, ts)
            assert abs(cert.delta - t / (4.0 - t)) <= 1e-10
            np.testing.assert_allclose(
                apply(inst.phi, inst.x0), apply(inst.phi, inst.x_hat), atol=1e-12
            )
            target = s * math.sqrt(d)
            assert abs(mixed_norm_2_1(inst.x0) - target) <= 1e-10
            assert abs(mixed_norm_2_1(inst.x_hat) - target) <= 1e-10
            assert np.linalg.norm(inst.x0.coeffs - inst.x_hat.coeffs) > 1e-6
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0
        return f"3 instances, {elapsed:.2f}s"

    _checked(1, "sharpness reproduction", body)


# --------------------------------------------------------------------------
# criterion 2: exact recovery under the condition
# --------------------------------------------------------------------------

def test_criterion_2_exact_recovery(certified_instances, noiseless_runs):
    def body():
        runs, oracle_mismatches, elapsed = noiseless_runs
        assert len(certified_instances) >= 20
        for inst in certified_instances:
            assert inst.delta < THRESHOLD
        assert all(r.converged for r in runs)
        worst = max(r.rel_err for r in runs)
        assert worst <= 1e-5
        assert oracle_mismatches == 0
        assert elapsed < 120.0
        return (f"{len(certified_instances)} instances, {len(runs)} solves, "
                f"worst rel err {worst:.2e}, {elapsed:.1f}s")

    _checked(2, "exact recovery under the condition", body)


# --------------------------------------------------------------------------
# criterion 3: noisy recovery within the tight bound
# --------------------------------------------------------------------------

def test_criterion_3_noisy_bound(noisy_runs):
    def body():
        runs, elapsed = noisy_runs
        assert len(runs) >= 200
        assert all(r.converged for r in runs)
        # zero tolerance beyond the solvers' feasibility tolerance
        feas_tol = 1e-8
        violations = [r for r in runs if r.abs_err > r.bound + 2 * feas_tol]
        assert not violations
        margin = min(r.bound / r.abs_err for r in runs)
        assert elapsed < 300.0
        return f"{len(runs)} trials, min bound/error margin {margin:.1f}x, {elapsed:.1f}s"

    _checked(3, "noisy bound holds on every trial", body)


# --------------------------------------------------------------------------
# criterion 4: tight bound never exceeds the loose bound
# --------------------------------------------------------------------------

def test_criterion_4_bound_comparison():
    def body():
        start = time.perf_counter()
        t_values = np.linspace(0.67, 1.32, 10)
        s_values = range(3, 13)
        fracs = np.linspace(0.05, 0.95, 10)
        cells = 0
        for t in t_values:
            for s in s_values:
                assert t * s >= 2.0
                for frac in fracs:
                    delta = float(frac * t / (4.0 - t))
                    for tail in (0.0, 0.5):
                        tight = error_bound_tight(t, s, delta, 0.07, tail)
                        loose = error_bound_loose(t, s, delta, 0.07, tail)
                        assert tight.bound <= loose.bound
                        if tail == 0.0:
                            assert tight.bound == loose.bound
                        else:
                            assert tight.bound < loose.bound
                    cells += 1
        elapsed = time.perf_counter() - start
        assert cells == 1000
        assert elapsed < 1.0
        return f"1000 grid cells, {elapsed:.2f}s"

    _checked(4, "tight bound below loose bound on the grid", body)


# --------------------------------------------------------------------------
# criterion 5: identity suite
# --------------------------------------------------------------------------

def test_criterion_5_identity_suite():
    from blockcs import (
        disjoint_pair_energy_residual,
        subset_energy_difference_residual,
        subset_inner_product_residual,
        subset_sum_residual,
        SensingMatrix,
    )

    def body():
        start = time.perf_counter()
        rng = generator(ACC_SEED, 5)

        worst = 0.0
        for _ in range(200):
            s = int(rng.integers(2, 9))
            m = int(rng.integers(1, s + 1))
            vectors = [rng.standard_normal(4) for _ in range(s)]
            worst = max(worst, subset_sum_residual(vectors, m))
            if m >= 2:
                worst = max(worst, subset_inner_product_residual(vectors, m))
        for _ in range(200):
            l = int(rng.integers(2, 9))
            d = int(rng.integers(1, 3))
            st_ = BlockStructure.uniform(d, l)
            rows = int(rng.integers(2, 7))
            phi = SensingMatrix(rng.standard_normal((rows, st_.total_dim)) / np.sqrt(rows), st_)
            x = BlockSignal(rng.standard_normal(st_.total_dim), st_)
            mm = int(rng.integers(1, l + 1))
            nn = int(rng.integers(1, l + 1))
            worst = max(worst, subset_energy_difference_residual(phi, x, mm, nn))
            if l >= mm + nn:
                worst = max(worst, disjoint_pair_energy_residual(phi, x, mm, nn))
        assert worst <= 1e-10

        # order-scaling bound with exact enumeration on 50 random 6x12 matrices
        st6 = BlockStructure.uniform(2, 6)
        for k in range(50):
            phi = gaussian_matrix(6, st6, seed=ACC_SEED + k)
            d2 = exact_block_ric(phi, 2).delta
            d4 = exact_block_ric(phi, 4).delta
            assert d4 <= ric_scaling_bound(d2, 2.0) + 1e-12

        # tail power-sum inequality on 1000 random valid inputs
        for _ in range(1000):
            l = int(rng.integers(2, 12))
            a = np.sort(rng.gamma(1.0, 1.0, l))[::-1]
            s = int(rng.integers(1, l + 1))
            alpha = float(rng.uniform(1.0, 3.0))
            head, tail = a[:s].sum(), a[s:].sum()
            psi = float(max(0.0, tail - head) + rng.uniform(0.0, 1.0) * (rng.random() < 0.7))
            if head < tail and psi < tail - head:
                psi = float(tail - head)
            rep = tail_power_check(a, s=s, alpha=alpha, psi=psi)
            assert rep.holds

        # polytope decomposition invariants on 200 random members
        for _ in range(200):
            l = int(rng.integers(2, 9))
            d = int(rng.integers(1, 3))
            s = int(rng.integers(1, l + 1))
            alpha = float(rng.uniform(0.4, 2.0))
            st_ = BlockStructure.uniform(d, l)
            x = _random_polytope_member(rng, st_, s, alpha)
            dec = polytope_decompose(x, alpha, s)
            _assert_decomposition(dec, x, alpha, s)

        elapsed = time.perf_counter() - start
        assert elapsed < 120.0
        return f"max identity residual {worst:.2e}, {elapsed:.1f}s"

    _checked(5, "identity suite", body)


def _random_polytope_member(rng, structure, s, alpha):
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


def _assert_decomposition(dec, x, alpha, s):
    lams = np.array([lam for lam, _ in dec.terms])
    assert abs(lams.sum() - 1.0) <= 1e-12
    recon = sum(lam * u.coeffs for lam, u in dec.terms)
    np.testing.assert_allclose(recon, x.coeffs, atol=1e-10)
    src_norm = mixed_norm_2_1(x)
    energy = 0.0
    for lam, u in dec.terms:
        assert mixed_norm_2_0(u) <= s
        if src_norm > 0:
            assert abs(mixed_norm_2_1(u) - src_norm) <= 1e-10 * max(1.0, src_norm)
        assert mixed_norm_2_inf(u) <= alpha + 1e-12
        energy += lam * float(np.linalg.norm(u.coeffs) ** 2)
    assert energy <= s * alpha**2 + 1e-10
    assert len(dec.terms) <= 1 + mixed_norm_2_0(x)


# --------------------------------------------------------------------------
# criterion 6: threshold constants
# --------------------------------------------------------------------------

def test_criterion_6_threshold_constants():
    def body():
        report = check_condition(0.1, 1.0, 2)
        assert report.ok
        assert report.threshold == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert not check_condition(0.1, 4.0 / 3.0, 4).ok
        assert not check_condition(0.1, 1.35, 4).ok
        assert not check_condition(0.1, 1.0, 1).ok      # t*s = 1 < 2
        assert not check_condition(0.0, 0.6, 3).ok       # t*s = 1.8 < 2
        return "threshold 1/3 at t=1; t >= 4/3 and t*s < 2 rejected"

    _checked(6, "threshold constants", body)


# --------------------------------------------------------------------------
# criterion 7: cone-constraint diagnostic over criteria 2-3 runs
# --------------------------------------------------------------------------

def test_criterion_7_cone_diagnostic(noiseless_runs, noisy_runs):
    def body():
        runs2, _, _ = noiseless_runs
        runs3, _ = noisy_runs
        checked = 0
        worst_slack = np.inf
        for run in itertools.chain(runs2, runs3):
            if not run.converged:
                continue
            h = run.estimate - run.truth
            rep = cone_constraint_check(h, run.truth, S)
            worst_slack = min(worst_slack, rep.slack)
            assert rep.slack >= -1e-6
            checked += 1
        assert checked == len(runs2) + len(runs3)
        return f"{checked} converged runs, worst slack {worst_slack:.2e}"

    _checked(7, "cone-constraint diagnostic", body)


# --------------------------------------------------------------------------
# criterion 8: both error bounds on compressible signals
# --------------------------------------------------------------------------

# one tail scale eps per instance, in turn; each truth's tail blocks have norms eps * U(0, 1)
TAIL_SCALES = (1e-3, 1e-2, 0.1, 0.3, 1.0)


def test_criterion_8_compressible_bounds(certified_instances):
    def body():
        start = time.perf_counter()
        ratios = []
        for idx, inst in enumerate(certified_instances):
            st_ = inst.phi.structure
            eps = TAIL_SCALES[idx % len(TAIL_SCALES)]
            rng = generator(ACC_SEED, 8, idx)
            truths, obs, rhos = [], [], []
            for rho in (0.0, 1e-2):
                for _ in range(4):
                    head = rng.choice(st_.num_blocks, size=S, replace=False)
                    coeffs = np.zeros(st_.total_dim)
                    for i in range(st_.num_blocks):
                        sl = st_.block_slice(i)
                        v = rng.standard_normal(sl.stop - sl.start)
                        coeffs[sl] = v if i in head else v * (eps * rng.uniform() / np.linalg.norm(v))
                    xi = rng.standard_normal(inst.phi.num_rows)
                    xi *= rho / np.linalg.norm(xi)
                    truths.append(BlockSignal(coeffs, st_))
                    obs.append(apply(inst.phi, truths[-1]) + xi)
                    rhos.append(rho)
            results = solve_noisy_batch(inst.phi, np.column_stack(obs), rhos, truths=truths)
            for x, res, rho in zip(truths, results, rhos):
                assert res.converged
                tail = mixed_norm_2_1(best_block_approx(x, S).tail)
                tight = error_bound_tight(T, S, inst.delta, rho, tail).bound
                loose = error_bound_loose(T, S, inst.delta, rho, tail).bound
                assert res.error_vector_norm <= tight <= loose
                ratios.append(tight / res.error_vector_norm)
        elapsed = time.perf_counter() - start
        assert len(ratios) == 8 * len(certified_instances)
        assert elapsed < 60.0
        return f"{len(ratios)} solves, min tight bound/error {min(ratios):.1f}x, {elapsed:.1f}s"

    _checked(8, "both bounds hold on compressible signals", body)

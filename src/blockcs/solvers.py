"""Convex recovery solvers for mixed l2/l1 minimization.

Solves

    minimize ||x||_{2,I}  subject to  Phi x = b            (noiseless)
    minimize ||x||_{2,I}  subject to  ||Phi x - b||_2 <= rho  (noise ball)

by operator splitting: auxiliary variables w = x and z = Phi x - b, an
x-update through a cached Cholesky factorization of (I + Phi^T Phi), a
block soft-thresholding w-update, and a z-update that projects onto the
rho-ball (the origin when rho = 0).  Every proximal piece is closed form.

A batch entry point runs many right-hand sides against one matrix in a
single vectorized iteration.  The columns share one penalty, rebalanced on
the columns still running, so a column's iteration count and estimate can
differ from those of its one-at-a-time solve.

The dual residual is evaluated on every iteration.  A column converges only
when it also passes the dual test, so the primal residual is evaluated only
when some running column passes it, on every rebalancing iteration (each
50th) and on the last iteration; skipping it elsewhere changes no output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import _checks
from .blocks import BlockSignal, _check_signal, mixed_norm_2_1
from .sensing import SensingMatrix

__all__ = [
    "SolverConfig",
    "RecoveryResult",
    "InfeasibleProblemError",
    "block_soft_threshold",
    "solve_noiseless",
    "solve_noisy",
    "solve_noiseless_batch",
    "solve_noisy_batch",
]

# residual balancing (factor 2, checked every 50 iterations)
_BALANCE_EVERY = 50
_BALANCE_FACTOR = 2.0
_BALANCE_RATIO = 10.0


class InfeasibleProblemError(RuntimeError):
    """Raised when no point satisfies the measurement constraint."""


@dataclass(frozen=True)
class SolverConfig:
    """Operator-splitting solver parameters."""

    max_iters: int = 50_000
    primal_tol: float = 1e-9
    dual_tol: float = 1e-9
    penalty: float = 1.0
    over_relaxation: float = 1.6
    feasibility_tol: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _checks.count("max_iters", self.max_iters, 1))
        for name in ("primal_tol", "dual_tol", "penalty", "feasibility_tol"):
            object.__setattr__(self, name, _checks.real(name, getattr(self, name), 0.0, strict=True))
        relaxation = _checks.real("over_relaxation", self.over_relaxation, 1.0, 1.9)
        object.__setattr__(self, "over_relaxation", relaxation)


@dataclass(frozen=True)
class RecoveryResult:
    """Solver output.

    `feasibility_gap` is ||Phi x* - b||_2 for the noiseless program and the
    distance to the rho-ball for the noisy one.  `error_vector_norm` is
    ||x* - x_true||_2 when the caller supplied the truth.
    """

    estimate: BlockSignal
    objective: float
    feasibility_gap: float
    iterations: int
    primal_residual: float
    dual_residual: float
    converged: bool
    error_vector_norm: float | None = None


def block_soft_threshold(x: BlockSignal, tau: float) -> BlockSignal:
    """Proximal map of the mixed l2/l1 norm: shrink each block's norm by tau.

    Blocks with norm <= tau are set exactly to zero; others are rescaled by
    (1 - tau/||x[i]||_2).  With tau = 0 the input is returned unchanged.
    """
    x = _check_signal("x", x)
    tau = _checks.real("tau", tau, 0.0)
    if tau == 0:
        return BlockSignal(x.coeffs, x.structure)
    st = x.structure
    coeffs = _block_shrink(x.coeffs[:, None], st._edges[:-1], st.block_lengths, tau)
    return BlockSignal(coeffs[:, 0], st)


def _block_shrink(V: np.ndarray, starts, lengths, tau: float) -> np.ndarray:
    """Columnwise block soft threshold of an (N, batch) array, for tau > 0
    (a block whose norm is at most tau gets scale 1 - tau/tau = 0)."""
    norms = np.sqrt(np.add.reduceat(V * V, starts, axis=0))
    return (1.0 - tau / np.maximum(norms, tau)).repeat(lengths, axis=0) * V


def _column_norms(A: np.ndarray) -> np.ndarray:
    """np.linalg.norm(A, axis=0), bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce(A * A, axis=0))


def _admm(phi: SensingMatrix, B: np.ndarray, rhos: np.ndarray, cfg: SolverConfig):
    """Run the splitting iteration on a batch of right-hand sides.

    Returns per-column (estimate columns, iterations, primal residual,
    dual residual, converged).  Each column's result is snapshotted the
    first time both residuals pass their tolerances, so reported residuals
    always satisfy the convergence contract.
    """
    entries = phi.entries
    entries_t = entries.T
    starts = phi.structure._edges[:-1]
    lengths = np.asarray(phi.structure.block_lengths)
    m, n = entries.shape
    batch = B.shape[1]

    # the caller checked B and rhos finite, so LAPACK's solve runs unchecked
    chol, lower = scipy.linalg.cho_factor(np.eye(n) + entries_t @ entries)
    (potrs,) = scipy.linalg.get_lapack_funcs(("potrs",), (chol,))

    w, u = np.zeros((n, batch)), np.zeros((n, batch))
    z, v = np.zeros((m, batch)), np.zeros((m, batch))
    zb = z + B
    alpha, beta = cfg.over_relaxation, cfg.penalty
    alpha_c = 1.0 - alpha
    czb = alpha_c * zb  # constant when every rho is 0, as z then stays 0
    noiseless = np.all(rhos == 0.0)

    est = np.zeros((n, batch))
    iters = np.full(batch, cfg.max_iters, dtype=int)
    prim, dual = np.full(batch, np.inf), np.full(batch, np.inf)
    done = np.zeros(batch, dtype=bool)
    dual_tol = np.full(batch, cfg.dual_tol)  # -inf once a column is done, so it is hit once

    # z-update: rhos / nz is 0/0, rho/0 or an overflow where nz is 0 or tiny; fmin takes 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, cfg.max_iters + 1):
            x, _ = potrs(chol, (w - u) + entries_t @ (zb - v), lower=lower, overwrite_b=True)
            px = entries @ x
            xr = alpha * x + alpha_c * w
            pxr = alpha * px + (czb if noiseless else alpha_c * zb)
            w_old = w
            xu = xr + u
            w = _block_shrink(xu, starts, lengths, 1.0 / beta)
            u = xu - w
            dw = w - w_old
            v_next = v + pxr - B
            # every rho 0 keeps z at 0: dropping z's terms can flip only a zero's sign in dw
            if not noiseless:
                zin = pxr - B + v
                z_old, z = z, zin * np.fmin(1.0, rhos / _column_norms(zin))
                v_next, zb = v_next - z, z + B
                dw = dw + entries_t @ (z - z_old)
            v = v_next
            rd = beta * _column_norms(dw)

            # only a column that passes the dual test can be hit: rp waits for one
            hit = rd <= dual_tol
            balance = it % _BALANCE_EVERY == 0
            if not (balance or it == cfg.max_iters or np.logical_or.reduce(hit)):
                continue
            rz = px - B if noiseless else px - B - z
            rp = np.sqrt(_column_norms(x - w) ** 2 + _column_norms(rz) ** 2)
            hit &= rp <= cfg.primal_tol
            if np.logical_or.reduce(hit):
                est[:, hit] = w[:, hit]
                iters[hit] = it
                prim[hit] = rp[hit]
                dual[hit] = rd[hit]
                done |= hit
                dual_tol[hit] = -np.inf
                if done.all():
                    break

            if balance:
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


def _build_results(phi, B, rhos, outputs, truths):
    est, iters, prim, dual, done = outputs
    results = []
    for j in range(B.shape[1]):
        sig = BlockSignal(est[:, j], phi.structure)
        resid = float(np.linalg.norm(phi.entries @ est[:, j] - B[:, j]))
        gap = resid if rhos[j] == 0.0 else max(0.0, resid - float(rhos[j]))
        err = None
        if truths is not None and truths[j] is not None:
            err = float(np.linalg.norm(est[:, j] - truths[j].coeffs))
        results.append(
            RecoveryResult(
                estimate=sig,
                objective=mixed_norm_2_1(sig),
                feasibility_gap=gap,
                iterations=int(iters[j]),
                primal_residual=float(prim[j]),
                dual_residual=float(dual[j]),
                converged=bool(done[j]),
                error_vector_norm=err,
            )
        )
    return results


def _truth(phi, name, truth):
    """`truth`, when it is None or a BlockSignal on phi's block structure."""
    return truth if truth is None else _check_signal(name, truth, phi.structure, "the matrix's")


def _solve_batch(phi, B, rhos, config, truths):
    """Solve column j of the checked (m, n) `B` with the checked radius rhos[j] >= 0;
    a truth that is not None must be a BlockSignal on phi's block structure."""
    cfg = config if config is not None else SolverConfig()
    batch = B.shape[1]
    if truths is not None:
        if len(truths) != batch:
            raise ValueError("one truth signal per right-hand side is required")
        truths = [_truth(phi, f"truths[{j}]", truth) for j, truth in enumerate(truths)]
    if batch == 0:
        return []

    scale = np.maximum(1.0, np.linalg.norm(B, axis=0))
    sol, *_ = np.linalg.lstsq(phi.entries, B, rcond=None)
    dist = np.linalg.norm(phi.entries @ sol - B, axis=0)  # to the range of Phi
    bad = dist > rhos + cfg.feasibility_tol * scale
    if np.any(bad):
        j = int(np.nonzero(bad)[0][0])
        target = "Phi x = b" if rhos[j] == 0 else f"||Phi x - b|| <= {rhos[j]:g}"
        raise InfeasibleProblemError(
            f"column {j}: no feasible point for {target} "
            f"(distance of b to the range of Phi is {dist[j]:.3e})"
        )

    outputs = _admm(phi, B, rhos, cfg)
    return _build_results(phi, B, rhos, outputs, truths)


def solve_noiseless(
    phi: SensingMatrix,
    b,
    config: SolverConfig | None = None,
    truth: BlockSignal | None = None,
) -> RecoveryResult:
    """Minimize the mixed l2/l1 norm subject to Phi x = b, for one observation
    `b` of shape (m,).

    Deterministic given (phi, b, config).  Non-convergence within
    `max_iters` returns a result with converged=False; an observation
    outside the range of Phi raises InfeasibleProblemError, and one that is
    not a finite real array of shape (m,) raises ValueError.
    """
    b = _checks.array("observation", b, (phi.num_rows,))
    return _solve_batch(phi, b[:, None], np.zeros(1), config, [_truth(phi, "truth", truth)])[0]


def solve_noisy(
    phi: SensingMatrix,
    b,
    rho: float,
    config: SolverConfig | None = None,
    truth: BlockSignal | None = None,
) -> RecoveryResult:
    """Minimize the mixed l2/l1 norm subject to ||Phi x - b||_2 <= rho, for one
    observation `b` of shape (m,) and a finite real rho >= 0.

    With rho = 0 this coincides with `solve_noiseless` up to tolerances.
    """
    b = _checks.array("observation", b, (phi.num_rows,))
    rho = _checks.real("rho", rho, 0.0)
    return _solve_batch(phi, b[:, None], np.full(1, rho), config, [_truth(phi, "truth", truth)])[0]


def solve_noiseless_batch(
    phi: SensingMatrix,
    bs,
    config: SolverConfig | None = None,
    truths=None,
) -> list[RecoveryResult]:
    """Solve the noiseless program for every column of the (m, n) observations
    `bs` against one matrix."""
    B = _checks.array("observations", bs, (phi.num_rows, None))
    return _solve_batch(phi, B, np.zeros(B.shape[1]), config, truths)


def solve_noisy_batch(
    phi: SensingMatrix,
    bs,
    rhos,
    config: SolverConfig | None = None,
    truths=None,
) -> list[RecoveryResult]:
    """Solve the noise-ball program for every column of the (m, n) observations
    `bs`; `rhos` may be a scalar or one radius per column, each a finite
    real >= 0."""
    B = _checks.array("observations", bs, (phi.num_rows, None))
    if np.isscalar(rhos):
        rhos = [_checks.real("rhos", rhos, 0.0)] * B.shape[1]
    rhos = _checks.array("rhos", rhos, (B.shape[1],))
    if (rhos < 0).any():
        raise ValueError(f"rhos must hold reals >= 0.0, got {rhos.min():g}")
    return _solve_batch(phi, B, rhos, config, truths)

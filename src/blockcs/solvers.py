"""Convex recovery solvers for mixed l2/l1 minimization.

Solves

    minimize ||x||_{2,I}  subject to  Phi x = b            (noiseless)
    minimize ||x||_{2,I}  subject to  ||Phi x - b||_2 <= rho  (noise ball)

by operator splitting: auxiliary variables w = x and z = Phi x - b, an
x-update through a cached Cholesky factorization of (I + Phi^T Phi), a
block soft-thresholding w-update, and a z-update that projects onto the
rho-ball (the origin when rho = 0).  Every proximal piece is closed form.

A batch entry point runs many right-hand sides against one matrix in a
single vectorized iteration; columns are independent, so results match
one-at-a-time solves up to solver tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .blocks import BlockSignal, mixed_norm_2_1
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
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if min(self.primal_tol, self.dual_tol, self.feasibility_tol) <= 0:
            raise ValueError("tolerances must be positive")
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")
        if not 1.0 <= self.over_relaxation <= 1.9:
            raise ValueError("over_relaxation must lie in [1, 1.9]")


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
    (1 - tau/||x[i]||_2).
    """
    if tau < 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    coeffs = _block_shrink(x.coeffs[:, None], x.structure, float(tau))[:, 0]
    return BlockSignal(coeffs, x.structure)


def _block_shrink(V: np.ndarray, structure, tau: float) -> np.ndarray:
    """Columnwise block soft threshold of an (N, batch) array."""
    starts = structure._edges[:-1]
    lengths = np.asarray(structure.block_lengths)
    sq = np.add.reduceat(V * V, starts, axis=0)
    norms = np.sqrt(sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(norms > tau, 1.0 - tau / norms, 0.0)
    return np.repeat(scale, lengths, axis=0) * V


def _range_distance(entries: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Distance of each column of B to the range of the matrix."""
    sol, *_ = np.linalg.lstsq(entries, B, rcond=None)
    return np.linalg.norm(entries @ sol - B, axis=0)


def _admm(phi: SensingMatrix, B: np.ndarray, rhos: np.ndarray, cfg: SolverConfig):
    """Run the splitting iteration on a batch of right-hand sides.

    Returns per-column (estimate columns, iterations, primal residual,
    dual residual, converged).  Each column's result is snapshotted the
    first time both residuals pass their tolerances, so reported residuals
    always satisfy the convergence contract.
    """
    entries = phi.entries
    structure = phi.structure
    m, n = entries.shape
    batch = B.shape[1]

    gram = np.eye(n) + entries.T @ entries
    cho = scipy.linalg.cho_factor(gram)

    x = np.zeros((n, batch))
    w = np.zeros((n, batch))
    u = np.zeros((n, batch))
    z = np.zeros((m, batch))
    v = np.zeros((m, batch))
    beta = cfg.penalty
    alpha = cfg.over_relaxation
    noiseless = np.all(rhos == 0.0)

    est = np.zeros((n, batch))
    iters = np.full(batch, cfg.max_iters, dtype=int)
    prim = np.full(batch, np.inf)
    dual = np.full(batch, np.inf)
    done = np.zeros(batch, dtype=bool)

    for it in range(1, cfg.max_iters + 1):
        rhs = (w - u) + entries.T @ (B + z - v)
        x = scipy.linalg.cho_solve(cho, rhs)
        px = entries @ x
        xr = alpha * x + (1.0 - alpha) * w
        pxr = alpha * px + (1.0 - alpha) * (z + B)

        w_old = w
        z_old = z
        w = _block_shrink(xr + u, structure, 1.0 / beta)
        if noiseless:
            z = np.zeros((m, batch))
        else:
            zin = pxr - B + v
            nz = np.linalg.norm(zin, axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                shrink = np.where(nz > rhos, rhos / np.where(nz > 0, nz, 1.0), 1.0)
            z = zin * shrink
        u = u + xr - w
        v = v + pxr - B - z

        rp = np.sqrt(
            np.linalg.norm(x - w, axis=0) ** 2 + np.linalg.norm(px - B - z, axis=0) ** 2
        )
        rd = beta * np.linalg.norm((w - w_old) + entries.T @ (z - z_old), axis=0)

        hit = (~done) & (rp <= cfg.primal_tol) & (rd <= cfg.dual_tol)
        if np.any(hit):
            est[:, hit] = w[:, hit]
            iters[hit] = it
            prim[hit] = rp[hit]
            dual[hit] = rd[hit]
            done |= hit
            if done.all():
                break

        if it % _BALANCE_EVERY == 0 and not done.all():
            live = ~done
            rp_max = rp[live].max()
            rd_max = rd[live].max()
            if rp_max > _BALANCE_RATIO * rd_max:
                beta *= _BALANCE_FACTOR
                u /= _BALANCE_FACTOR
                v /= _BALANCE_FACTOR
            elif rd_max > _BALANCE_RATIO * rp_max:
                beta /= _BALANCE_FACTOR
                u *= _BALANCE_FACTOR
                v *= _BALANCE_FACTOR

    live = ~done
    est[:, live] = w[:, live]
    prim[live] = rp[live]
    dual[live] = rd[live]
    return est, iters, prim, dual, done


def _as_columns(b) -> np.ndarray:
    arr = np.asarray(b, dtype=float)
    if arr.ndim == 1:
        return arr[:, None]
    if arr.ndim == 2:
        return arr
    raise ValueError(f"expected a vector or a matrix of columns, got shape {arr.shape}")


def _build_results(phi, B, rhos, cfg, outputs, truths):
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


def _solve_batch(phi, b, rhos, config, truths):
    cfg = config if config is not None else SolverConfig()
    B = _as_columns(b)
    if B.shape[0] != phi.num_rows:
        raise ValueError(
            f"observation length {B.shape[0]} does not match matrix rows {phi.num_rows}"
        )
    batch = B.shape[1]
    rhos = np.broadcast_to(np.asarray(rhos, dtype=float), (batch,)).copy()
    if not (np.isfinite(B).all() and np.isfinite(rhos).all()):
        raise ValueError("observations and noise radii must be finite (no NaN or inf)")
    if np.any(rhos < 0):
        raise ValueError("noise radius rho must be nonnegative")
    if truths is not None and len(truths) != batch:
        raise ValueError("one truth signal per right-hand side is required")

    scale = np.maximum(1.0, np.linalg.norm(B, axis=0))
    dist = _range_distance(phi.entries, B)
    bad = dist > rhos + cfg.feasibility_tol * scale
    if np.any(bad):
        j = int(np.nonzero(bad)[0][0])
        target = "Phi x = b" if rhos[j] == 0 else f"||Phi x - b|| <= {rhos[j]:g}"
        raise InfeasibleProblemError(
            f"column {j}: no feasible point for {target} "
            f"(distance of b to the range of Phi is {dist[j]:.3e})"
        )

    outputs = _admm(phi, B, rhos, cfg)
    return _build_results(phi, B, rhos, cfg, outputs, truths)


def solve_noiseless(
    phi: SensingMatrix,
    b,
    config: SolverConfig | None = None,
    truth: BlockSignal | None = None,
) -> RecoveryResult:
    """Minimize the mixed l2/l1 norm subject to Phi x = b.

    Deterministic given (phi, b, config).  Non-convergence within
    `max_iters` returns a result with converged=False; an observation
    outside the range of Phi raises InfeasibleProblemError.
    """
    return _solve_batch(phi, b, 0.0, config, [truth])[0]


def solve_noisy(
    phi: SensingMatrix,
    b,
    rho: float,
    config: SolverConfig | None = None,
    truth: BlockSignal | None = None,
) -> RecoveryResult:
    """Minimize the mixed l2/l1 norm subject to ||Phi x - b||_2 <= rho.

    With rho = 0 this coincides with `solve_noiseless` up to tolerances.
    """
    return _solve_batch(phi, b, float(rho), config, [truth])[0]


def solve_noiseless_batch(
    phi: SensingMatrix,
    bs,
    config: SolverConfig | None = None,
    truths=None,
) -> list[RecoveryResult]:
    """Solve the noiseless program for every column of `bs` against one matrix."""
    return _solve_batch(phi, bs, 0.0, config, truths)


def solve_noisy_batch(
    phi: SensingMatrix,
    bs,
    rhos,
    config: SolverConfig | None = None,
    truths=None,
) -> list[RecoveryResult]:
    """Solve the noise-ball program for every column of `bs`; `rhos` may be
    a scalar or one radius per column."""
    return _solve_batch(phi, bs, rhos, config, truths)

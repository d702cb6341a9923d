"""Convex recovery solvers for mixed l2/l1 minimization.

Solves

    minimize ||x||_{2,I}  subject to  Phi x = b            (noiseless)
    minimize ||x||_{2,I}  subject to  ||Phi x - b||_2 <= rho  (noise ball)

by operator splitting: auxiliary variables w = x and z = Phi x - b, an
x-update through a cached Cholesky factorization of (I + Phi^T Phi), a
block soft-thresholding w-update, and a z-update that projects onto the
rho-ball (the origin when rho = 0).  Every proximal piece is closed form.
A column converges once both residuals are at most `SolverConfig.tol`; the
over-relaxation 1.6 and the feasibility tolerance 1e-8 * max(1, ||b||) are fixed.

A batch entry point runs many right-hand sides against one matrix in a
single vectorized iteration.  Each column keeps its own penalty, rebalanced
every 50th iteration on its own residuals, and leaves the iteration when it
converges.  So a column gets the result of its one-at-a-time solve: the same
iteration count, and an estimate that differs only by BLAS rounding, which
can depend on the batch width.  A batch of one runs the one-at-a-time
iteration itself.

The residuals are evaluated only where a column can converge, on every
rebalancing iteration (each 50th), which needs them, and on the last one,
which reports them.  The two skips below happen only on the other
iterations, and change no output.

- A lone noiseless column (a batch of one with rho = 0, from the start or
  once the other columns have left) first takes one probe coordinate p, the
  largest |dw| entry at its last full dual test, and skips both residuals
  when beta * sqrt(dw_p * dw_p) already exceeds the tolerance.  The
  computed residual fl(beta * sqrt(sum fl(dw_i^2))) is at least that
  one-coordinate value, since each rounded partial sum of non-negative terms
  is at least every term it holds and sqrt and the product round
  monotonically, so the skipped test would have failed.
- A noisy batch (some rho > 0) first sums the squares of x - w down each
  running column, s, and skips both residuals when fl(sqrt(xw2)) exceeds the
  tolerance for every one of them, xw2 = fl(fl(sqrt(s))^2) being the
  column's squared ||x - w||.  The primal residual is
  rp = fl(sqrt(fl(xw2 + fl(nz^2)))), with nz = ||Phi x - b - z||, computed
  from that very xw2; as fl(nz^2) >= 0 and the sum and sqrt round
  monotonically, rp >= fl(sqrt(xw2)), so no column could converge there (a
  NaN rp fails the test as well).  Since sqrt and squaring round
  monotonically too, the test takes the smallest s alone and squares a
  Python float; xw2 itself is computed only where the residuals are.  A NaN
  s never skips.

Otherwise the dual residual is evaluated, and since a column converges only
when it passes both tests, the primal residual waits for a running column to
pass the dual one.

Every array of the iteration is C-ordered and has its full shape (rows by
running columns), so that each elementwise ufunc call takes numpy's fast path
for operands of one layout and shape, at about half the cost of a call that
mixes C and Fortran order or broadcasts a per-column vector.  The matrix and
the observations enter in C order whatever the caller's layout (as
`_checks.array` returns every array argument), dropping the converged columns
takes the others with `take` (a boolean mask along axis 1 would give Fortran
order), and the shrink thresholds fill a (blocks, columns) array, a lone
column's too.  LAPACK's dpotrs returns x in Fortran order, so a batch of
several columns copies x to C order, but only after taking Phi x from it: the
product's BLAS call, and so its bits, can follow the operand's layout (a lone
column is both C- and Fortran-ordered and is never copied).  Elementwise
results do not depend on the layout, but the reductions over axis 0 do: numpy
sums the columns of a Fortran-ordered array pairwise, so each of them must
keep seeing C order.

The shrink's block norms are square roots of sums of squares over each
block, `np.add.reduceat`'s sums.  Reduceat runs numpy's inner loop once per
block and column, which is the one cost of the step that grows with the
batch width, so a wide batch on uniform blocks adds strided row views
instead, in reduceat's own order: it sums a block's tail a1, ..., a(d-1)
from zero in order, as numpy's pairwise sum does below 8 terms, and adds
that to a0, so the views give a0 + ((a1 + a2) + ...) and the same bits.
Blocks of more than 8 coefficients would take the pairwise sum's unrolled
order, and ragged blocks have no views, so they keep reduceat.  Each added
view costs one ufunc call, about as much as reduceat spends on 70 to 150
block sums (measured on 3 to 24 blocks of 2 to 8 coefficients), so a batch
takes the views from `_VIEW_SUMS` = 128 block sums per added view on, which
is 11 columns for 12 blocks of 2.  A lone column has too few block sums and keeps
reduceat, which a view addition would cost more than (blocks of one
coefficient are their own sums at any width).  `_block_summation` makes the
choice where the batch changes width, at the start and where columns leave.

A matrix whose scale the unit penalty cannot take (I + Phi^T Phi not finite
or not positive definite in floating point, or iterates that turn
non-finite) is refused with a ValueError that names the matrix's largest
entry.

The Cholesky factor and its solves are LAPACK's dpotrf and dpotrs from
`_linalg.flapack()`, and the feasibility check before the iteration is one
`_linalg.lstsq` at `np.linalg.lstsq`'s default cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from ._linalg import LSTSQ_FAILED, errstate, flapack, lstsq
from .blocks import BlockSignal, SensingMatrix, _check_signal

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
_ONE = np.array(1.0)
# over-relaxation alpha = 1.6 and 1 - alpha, 0-d: numpy converts a Python float on every call
_ALPHA, _ALPHA_C = np.array(1.6), np.array(1.0 - 1.6)
# b is feasible when its distance to the range of Phi is at most rho + this * max(1, ||b||)
_FEASIBILITY_TOL = 1e-8
# block sums per added view (d - 1 of them for blocks of d) from which views beat reduceat
_VIEW_SUMS = 128


class InfeasibleProblemError(RuntimeError):
    """Raised when no point satisfies the measurement constraint."""


@dataclass(frozen=True)
class SolverConfig:
    """Operator-splitting solver parameters: at most `max_iters` iterations, a
    column converging once its primal and dual residuals are both at most
    `tol`, and `penalty` the starting penalty of every column."""

    max_iters: int = 50_000
    tol: float = 1e-9
    penalty: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "max_iters", _checks.count("max_iters", self.max_iters, 1))
        for name in ("tol", "penalty"):
            object.__setattr__(self, name, _checks.real(name, getattr(self, name), 0.0, strict=True))
        if 1.0 / self.penalty == np.inf:  # the shrink threshold would be inf and the estimate NaN
            raise ValueError(f"penalty must be a finite real > 0.0 with a finite reciprocal, "
                             f"got {self.penalty!r}")


@dataclass(frozen=True)
class RecoveryResult:
    """Solver output.

    `feasibility_gap` is the distance of Phi x* to the rho-ball around b, which
    is ||Phi x* - b||_2 at rho = 0 (the noiseless program).  `error_vector_norm` is
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
    coeffs = _block_shrink(x.coeffs[:, None], *_block_summation(st, 1), st.block_lengths, tau)
    return BlockSignal(coeffs[:, 0], st)


def _block_shrink(V: np.ndarray, sums, at, lengths, tau) -> np.ndarray:
    """Columnwise block soft threshold of an (N, batch) array, for tau > 0 given
    as one float or as `_thresholds` lays it out: each block is scaled by
    1 - tau/max(||block||, tau), which is 0 for a block whose norm is at most tau.
    The block norms are the square roots of `sums(V * V, at)`, the blocks' sums
    of squares by the method `_block_summation` picks.  The method comes in as
    a callable, not a flag, so that a step on reduceat makes the one C call and
    tests nothing."""
    scale = sums(V * V, at)
    np.sqrt(scale, scale)  # the block norms
    np.maximum(scale, tau, out=scale)
    np.divide(tau, scale, scale)
    np.subtract(_ONE, scale, scale)
    scale = scale.repeat(lengths, 0)
    scale *= V
    return scale


def _block_sums(sq: np.ndarray, d: int) -> np.ndarray:
    """np.add.reduceat(sq, starts), bit for bit, for the C-ordered (N, batch) `sq`
    on blocks of d <= 8 rows each (starts = 0, d, 2d, ...), from strided row
    views: reduceat adds the tail a1, ..., a(d-1) of a block from zero in order
    (numpy's pairwise sum adds fewer than 8 terms so), then adds a0 to it.  So
    the sum is a0 + (((a1 + a2) + a3) + ...), and at d = 1 the row itself: `sq`,
    not a copy."""
    if d < 3:
        return sq if d == 1 else sq[0::2] + sq[1::2]
    tail = sq[1::d] + sq[2::d]
    for i in range(3, d):
        tail += sq[i::d]
    return np.add(sq[0::d], tail, tail)


def _block_summation(structure, width: int):
    """How `_block_shrink` sums a batch of `width` columns on `structure` over
    its blocks, as (sums, at) for `sums(sq, at)`: `_block_sums` and the block
    length d when the blocks are uniform with d <= 8 and there are at least
    `_VIEW_SUMS` * (d - 1) block sums to take, otherwise np.add.reduceat and the
    blocks' starts."""
    lengths = structure.block_lengths
    d = lengths[0]
    if d > 8 or lengths.count(d) != len(lengths) or len(lengths) * width < _VIEW_SUMS * (d - 1):
        return np.add.reduceat, structure._edges[:-1]
    return _block_sums, d


def _thresholds(beta: np.ndarray, blocks: int) -> np.ndarray:
    """The shrink threshold 1/beta of each column, laid out as `_block_shrink`'s
    (blocks, columns) block norms are: a C-ordered (blocks, columns) array
    holding column j's threshold in all of column j, a lone column included.
    So each ufunc call in the shrink takes numpy's fast path for operands of one
    layout and shape (a per-column vector would be broadcast), with the bits of
    the broadcast.  Dropping columns takes their thresholds along (`take` on
    axis 1); they are rebuilt only when beta changes."""
    return np.broadcast_to(1.0 / beta, (blocks, beta.size)).copy()


def _column_norms(A: np.ndarray) -> np.ndarray:
    """np.linalg.norm(A, axis=0), bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce(A * A, axis=0))


def _rules_out(sums: np.ndarray, tol: float) -> bool:
    """Whether fl(sqrt(fl(fl(sqrt(s)) ** 2))) > tol for every entry s of `sums`,
    each running column's squared sum over x - w, so that no primal residual can
    pass tol.  It takes the sqrt, square and sqrt of the smallest entry alone:
    each step rounds monotonically, so the smallest entry gives the smallest
    result.  A NaN entry makes the minimum NaN and the answer False."""
    r = math.sqrt(np.minimum.reduce(sums))
    return math.sqrt(r * r) > tol


def _admm(phi: SensingMatrix, B: np.ndarray, rhos: np.ndarray, cfg: SolverConfig):
    """Run the splitting iteration on a batch of right-hand sides.

    Returns per-column (estimate columns, iterations, primal residual,
    dual residual, converged).  Each column's result is snapshotted the
    first time both residuals are at most `cfg.tol`, so reported residuals
    always satisfy the convergence contract.
    """
    entries = phi.entries
    entries_t = entries.T
    lengths = np.asarray(phi.structure.block_lengths)
    m, n = entries.shape
    blocks, batch = len(lengths), B.shape[1]

    # scipy.linalg.cho_factor, with its checks, and the potrs get_lapack_funcs returns for it
    lapack = flapack()
    with np.errstate(over="ignore"):  # an overflow is refused just below
        gram = np.eye(n) + entries_t @ entries
    if not np.isfinite(gram).all():
        raise _checks.scale_error(entries, "I + Phi^T Phi is not finite")
    chol, info = lapack.dpotrf(gram, lower=0, clean=0)
    if info > 0:
        raise _checks.scale_error(entries, "I + Phi^T Phi is not positive definite in floating point")
    if info < 0:
        raise RuntimeError(f"LAPACK's dpotrf reported an illegal value in its argument {-info}")
    potrs = lapack.dpotrs  # the caller checked B and rhos finite, so it runs unchecked

    w, u = np.zeros((n, batch)), np.zeros((n, batch))
    z, v = np.zeros((m, batch)), np.zeros((m, batch))
    zb = z + B
    max_iters, tol = cfg.max_iters, cfg.tol
    beta = np.full(batch, cfg.penalty)
    tau = _thresholds(beta, blocks)  # recomputed only when beta changes
    czb = zb * _ALPHA_C  # constant when every rho is 0, as z then stays 0
    noiseless = bool(np.all(rhos == 0.0))
    # a lone noiseless column first tests its dual residual on one coordinate, `probe`
    lone, probe = noiseless and batch == 1, 0
    wide = batch > 1  # potrs's Fortran-ordered x needs a C copy (one column is both)
    add_blocks, at = _block_summation(phi.structure, batch)

    est = np.zeros((n, batch))
    iters = np.full(batch, max_iters, dtype=int)
    prim, dual = np.full(batch, np.inf), np.full(batch, np.inf)
    done = np.zeros(batch, dtype=bool)
    cols = np.arange(batch)  # the original index of each column still running

    # z-update: rhos / nz is 0/0, rho/0 or an overflow where nz is 0 or tiny; fmin takes 1.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(1, max_iters + 1):
            rhs = w - u
            rhs += entries_t @ (zb - v)
            x, _ = potrs(chol, rhs, 0, 1)  # the upper factor; overwrites rhs
            px = entries @ x  # before the copy: BLAS's bits can follow x's layout
            if wide:
                x = np.ascontiguousarray(x)
            xu = x * _ALPHA
            xu += w * _ALPHA_C
            pxr = px * _ALPHA
            pxr += czb if noiseless else zb * _ALPHA_C
            w_old = w
            xu += u
            w = _block_shrink(xu, add_blocks, at, lengths, tau)
            xu -= w
            u = xu
            balance = it % _BALANCE_EVERY == 0
            last = balance or it == max_iters
            # every rho 0 keeps z at 0: dropping z's terms can flip only a zero's sign in dw
            if noiseless:
                pxr += v
                pxr -= B
                v = pxr  # (v + pxr) - B
                if lone and not last:
                    # one coordinate's share is a lower bound on the computed rd
                    d = w.item(probe) - w_old.item(probe)
                    if beta.item() * math.sqrt(d * d) > tol:
                        continue
                dw = w - w_old
            else:
                zin = pxr - B
                zin += v  # (pxr - B) + v
                # z = zin * fmin(1, rhos / ||zin||), in place
                factor = _column_norms(zin)
                np.divide(rhos, factor, factor)
                np.fmin(_ONE, factor, factor)
                zin *= factor
                z_old, z = z, zin
                pxr += v
                pxr -= B
                pxr -= z
                v, zb = pxr, z + B  # ((v + pxr) - B) - z
                # rp is at least sqrt(xw2), xw2 = sqrt(sums) ** 2: where that fails every
                # column, none can converge
                xw = x - w
                sums = np.add.reduce(xw * xw, 0)
                if not last and _rules_out(sums, tol):
                    continue
                dw = (w - w_old) + entries_t @ (z - z_old)
            sq = dw * dw
            rd = np.add.reduce(sq, 0)
            np.sqrt(rd, rd)
            rd *= beta  # beta * _column_norms(dw)

            # only a column that passes the dual test can be hit: rp waits for one
            if lone:
                probe = int(sq.argmax())
                hit = rd.item() <= tol
                if not (last or hit):
                    continue
            else:
                hit = rd <= tol
                if not (last or np.logical_or.reduce(hit)):
                    continue
            if noiseless:
                rz, xw2 = px - B, _column_norms(x - w) ** 2
            else:
                rz, xw2 = px - B - z, np.sqrt(sums) ** 2
            rp = np.sqrt(xw2 + _column_norms(rz) ** 2)
            hit &= rp <= tol
            if np.logical_or.reduce(hit):
                # snapshot the converged columns, then drop them from the loop's arrays
                hit_cols = cols[hit]
                est[:, hit_cols] = w[:, hit]
                iters[hit_cols] = it
                prim[hit_cols] = rp[hit]
                dual[hit_cols] = rd[hit]
                done[hit_cols] = True
                keep = np.flatnonzero(~hit)
                cols, rp, rd, beta, rhos = (a.take(keep) for a in (cols, rp, rd, beta, rhos))
                # take keeps them C-ordered, where a mask along axis 1 would give Fortran order
                w, u, z, v, zb, czb, B, tau = (a.take(keep, 1) for a in (w, u, z, v, zb, czb, B, tau))
                if not cols.size:
                    break
                lone, wide = noiseless and cols.size == 1, cols.size > 1
                add_blocks, at = _block_summation(phi.structure, cols.size)

            if balance:
                # each column balances its own residuals and rescales its own duals
                up = rp > _BALANCE_RATIO * rd
                down = rd > _BALANCE_RATIO * rp
                if np.logical_or.reduce(up | down):
                    scale = np.where(up, _BALANCE_FACTOR, np.where(down, 1.0 / _BALANCE_FACTOR, 1.0))
                    beta = beta * scale
                    tau = _thresholds(beta, blocks)
                    u /= scale
                    v /= scale

    est[:, cols] = w  # the last iterate of every column still running
    if not np.isfinite(est).all():
        raise _checks.scale_error(entries, "the iterates are not finite")
    prim[cols], dual[cols] = rp, rd
    return est, iters, prim, dual, done


def _build_results(phi, B, rhos, outputs, truths):
    est, iters, prim, dual, done = outputs
    structure, entries = phi.structure, phi.entries
    results = []
    for j, (rho, it, rp, rd, ok) in enumerate(zip(rhos.tolist(), iters.tolist(), prim.tolist(),
                                                   dual.tolist(), done.tolist())):
        sig = BlockSignal(est[:, j], structure)
        diff = entries @ est[:, j] - B[:, j]
        resid = math.sqrt(diff.dot(diff))  # np.linalg.norm(diff), bit for bit
        gap = max(0.0, resid - rho)  # resid at rho = 0, as resid >= +0.0
        err = None
        if truths is not None and truths[j] is not None:
            diff = est[:, j] - truths[j].coeffs
            err = math.sqrt(diff.dot(diff))
        results.append(
            RecoveryResult(
                estimate=sig,
                objective=float(sig.block_norms().sum()),  # mixed_norm_2_1(sig)
                feasibility_gap=gap,
                iterations=it,
                primal_residual=rp,
                dual_residual=rd,
                converged=ok,
                error_vector_norm=err,
            )
        )
    return results


def _truth(phi, name, truth):
    """`truth`, when it is None or a BlockSignal on phi's block structure."""
    return truth if truth is None else _check_signal(name, truth, phi.structure, "the matrix's")


def _truths(phi, truths, batch: int):
    """`truths`, when it is None or a sequence of `batch` entries that `_truth` takes, as a list."""
    if truths is None:
        return None
    try:
        truths = list(truths)
    except TypeError:
        raise ValueError(f"truths must be a sequence of BlockSignal or None entries, "
                         f"got {type(truths).__name__}") from None
    if len(truths) != batch:
        raise ValueError("one truth signal per right-hand side is required")
    return [_truth(phi, f"truths[{j}]", truth) for j, truth in enumerate(truths)]


def _solve_batch(phi, name, B, rhos, config, truths):
    """Solve column j of the checked (m, n) `B`, the argument `name`, with the checked
    radius rhos[j] >= 0 and the checked truths[j] (truths may be None), once every
    column of B has a finite squared norm."""
    cfg = SolverConfig() if config is None else _checks.instance("config", config, SolverConfig)
    if B.shape[1] == 0:
        return []

    scale = np.maximum(1.0, np.sqrt(_checks.squares(name, B, axis=0)))  # np.linalg.norm(B, axis=0)
    with errstate(LSTSQ_FAILED):  # np.linalg.lstsq(phi.entries, B)[0], at its default cutoff eps * max(m, n)
        sol = lstsq(phi.entries, B, np.finfo(np.float64).eps * max(phi.entries.shape))
    dist = np.linalg.norm(phi.entries @ sol - B, axis=0)  # to the range of Phi
    bad = dist > rhos + _FEASIBILITY_TOL * scale
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

    This is `solve_noisy` at rho = 0, the same computation bit for bit.
    Deterministic given (phi, b, config).  Non-convergence within
    `max_iters` returns a result with converged=False; an observation
    outside the range of Phi raises InfeasibleProblemError, and one that is
    not a finite real array of shape (m,) raises ValueError.
    """
    return solve_noisy(phi, b, 0.0, config, truth)


def solve_noisy(
    phi: SensingMatrix,
    b,
    rho: float,
    config: SolverConfig | None = None,
    truth: BlockSignal | None = None,
) -> RecoveryResult:
    """Minimize the mixed l2/l1 norm subject to ||Phi x - b||_2 <= rho, for one
    observation `b` of shape (m,) and a finite real rho >= 0.

    `solve_noiseless` is this at rho = 0, the same computation bit for bit.
    """
    phi = _checks.instance("phi", phi, SensingMatrix)
    b = _checks.array("observation", b, (phi.num_rows,))
    rho = _checks.real("rho", rho, 0.0)
    return _solve_batch(phi, "observation", b[:, None], np.full(1, rho), config,
                        [_truth(phi, "truth", truth)])[0]


def solve_noiseless_batch(
    phi: SensingMatrix,
    bs,
    config: SolverConfig | None = None,
    truths=None,
) -> list[RecoveryResult]:
    """Solve the noiseless program for every column of the (m, n) observations
    `bs` against one matrix: `solve_noisy_batch` at rho = 0, the same
    computation bit for bit.

    Each column runs with its own penalty and leaves the iteration when it
    converges, so its result is that of `solve_noiseless` on the column: the
    same iterations, and an estimate equal up to BLAS rounding.
    """
    return solve_noisy_batch(phi, bs, 0.0, config, truths)


def solve_noisy_batch(
    phi: SensingMatrix,
    bs,
    rhos,
    config: SolverConfig | None = None,
    truths=None,
) -> list[RecoveryResult]:
    """Solve the noise-ball program for every column of the (m, n) observations
    `bs`; `rhos` may be a scalar or one radius per column, each a finite
    real >= 0.

    Each column runs with its own penalty and leaves the iteration when it
    converges, so its result is that of `solve_noisy` on the column and its
    radius: the same iterations, and an estimate equal up to BLAS rounding.
    """
    phi = _checks.instance("phi", phi, SensingMatrix)
    B = _checks.array("observations", bs, (phi.num_rows, None))
    if isinstance(rhos, np.ndarray) and rhos.ndim == 0:
        rhos = rhos.item()  # a 0-d array is the scalar it holds
    if np.isscalar(rhos):
        rhos = [_checks.real("rhos", rhos, 0.0)] * B.shape[1]
    rhos = _checks.array("rhos", rhos, (B.shape[1],))
    if (rhos < 0).any():
        raise ValueError(f"rhos must hold reals >= 0.0, got {rhos.min():g}")
    return _solve_batch(phi, "observations", B, rhos, config, _truths(phi, truths, B.shape[1]))

"""Ground-truth references: brute-force block-sparse recovery by support
enumeration, the sorted tail power-sum inequality, and the cone-constraint
diagnostic used to audit solver runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from . import ric as _ric
from .blocks import BlockSignal, _check_signal, best_block_approx, mixed_norm_2_1
from .ric import DEFAULT_ENUMERATION_CAP, _check_cap, _support_chunks
from .sensing import SensingMatrix

__all__ = [
    "OracleSolution",
    "NoSparseFitError",
    "HypothesisNotMetError",
    "TailPowerReport",
    "ConeCheckReport",
    "brute_force_l20",
    "brute_force_l20_batch",
    "tail_power_check",
    "cone_constraint_check",
]

DEFAULT_RESIDUAL_TOL = 1e-8
_SVD_CUTOFF = 1e-10  # relative singular-value cutoff for restricted least squares
# The oracle's screen trusts a screened residual to _SCREEN_MARGIN * m * eps * ||b|| * cond,
# and solves a support with cond >= 1 / (_RANK_GUARD * _SVD_CUTOFF) exactly.
_SCREEN_MARGIN = 64.0
_RANK_GUARD = 1e4
_FACTOR_BUDGET = 64 * 1024  # bytes kept between calls: one matrix's entries and screen factors
_ARRAY_OVERHEAD = 256  # bytes a kept array costs beyond its data: its object and containers
_kept: tuple = (b"", None, 0, {})  # the one matrix whose factors are kept: see _factored_level


class NoSparseFitError(RuntimeError):
    """No block support within the sparsity budget fits the observation."""

    def __init__(self, message: str, best_residual: float):
        super().__init__(message)
        self.best_residual = best_residual


@dataclass(frozen=True)
class OracleSolution:
    """Sparsest block-supported least-squares fit found by enumeration."""

    estimate: BlockSignal
    support: tuple[int, ...]
    sparsity: int
    residual: float
    supports_searched: int


def brute_force_l20(
    phi: SensingMatrix,
    b,
    s_max: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> OracleSolution:
    """Exhaustive search for the sparsest block vector fitting `b` of shape (m,).

    For k = 0, 1, ..., s_max enumerates every block support of size k,
    solves the support-restricted least-squares problem (minimum-norm on
    rank-deficient submatrices), and returns the first k admitting residual
    <= residual_tol.  Among equal-residual supports of that k the
    lexicographically smallest wins.  A batch of one of `brute_force_l20_batch`.

    Raises
    ------
    ValueError
        If `s_max` is outside [0, l], `residual_tol` is negative or non-finite,
        or the observation is not a finite real array of shape (m,).
    EnumerationCapError
        If the total number of supports up to s_max exceeds `cap`.
    NoSparseFitError
        If no support within s_max fits; carries the best residual seen.
    """
    b = _checks.array("observation", b, (phi.num_rows,))
    outcome = brute_force_l20_batch(phi, b[:, None], s_max, residual_tol, cap)[0]
    if isinstance(outcome, NoSparseFitError):
        raise outcome
    return outcome


def brute_force_l20_batch(
    phi: SensingMatrix,
    B,
    s_max: int,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[OracleSolution | NoSparseFitError]:
    """`brute_force_l20` on each column of the (m, n) observations `B`: one
    OracleSolution per column, or the NoSparseFitError (returned, not raised)
    for a column that no support fits.  Raises as `brute_force_l20` does.
    One stacked QR per chunk and column count screens the supports; only those
    that can reach a column's smallest residual are solved exactly, so every
    outcome is bit-identical to solving each support exactly.  The QR factors
    are kept for the next call on an equal matrix, within _FACTOR_BUDGET bytes."""
    structure = phi.structure
    l = structure.num_blocks
    s_max = _checks.count("s_max", s_max, 0, l)
    residual_tol = _checks.real("residual_tol", residual_tol, 0.0)
    _check_cap(sum(math.comb(l, k) for k in range(s_max + 1)), cap,
               f"sum of C({l}, k) for k <= {s_max}")
    B = _checks.array("observations", B, (phi.num_rows, None))

    columns = np.ascontiguousarray(B.T)  # observation j as its own contiguous vector
    column_norms = np.linalg.norm(columns, axis=1)
    outcomes: list = [None] * len(columns)
    best_overall = [math.inf] * len(columns)
    unresolved = list(range(len(columns)))
    searched = 0
    for k in range(s_max + 1):
        obs, norms = columns[unresolved].T, column_norms[unresolved]
        bound = np.full(len(unresolved), np.inf)  # running upper bound on each best exact residual
        best = [(math.inf, 0, None)] * len(unresolved)
        for sups, groups in _factored_level(phi, k):
            for rows, cols, (q, kappa, forced) in groups:
                res, margin = _screen(q, kappa, obs, norms)
                upper = np.where(forced[:, None], np.inf, res + margin)  # forced: bounds nothing
                bound = np.minimum(bound, upper.min(axis=0))
                for i, j in zip(*np.nonzero((res - margin <= bound) | forced[:, None])):
                    sub, b = phi.entries[:, cols[i]], columns[unresolved[j]]
                    coef, *_ = np.linalg.lstsq(sub, b, rcond=_SVD_CUTOFF)
                    res_ij = float(np.linalg.norm(sub @ coef - b))
                    # groups split a chunk out of order: ties keep the lexicographically first
                    if (res_ij, searched + rows[i]) < best[j][:2]:
                        best[j] = (res_ij, searched + rows[i], (sups[rows[i]], cols[i], coef))
            searched += len(sups)
        for j, (best_res, _, (sup, cols, coef)) in zip(unresolved, best):
            best_overall[j] = min(best_overall[j], best_res)
            if best_res <= residual_tol:
                x = np.zeros(structure.total_dim)
                x[cols] = coef
                outcomes[j] = OracleSolution(BlockSignal(x, structure), tuple(sup.tolist()), k,
                                             best_res, searched)
        unresolved = [j for j in unresolved if outcomes[j] is None]
        if not unresolved:
            break
    for j in unresolved:
        message = (f"no block support of size <= {s_max} fits within residual_tol={residual_tol:g} "
                   f"(best residual {best_overall[j]:.3e})")
        outcomes[j] = NoSparseFitError(message, best_overall[j])
    return outcomes


def _factored_level(phi: SensingMatrix, k: int):
    """The chunks of `_support_chunks(phi.structure, k)` with each group's screen factors,
    as (sups, [(rows, cols, (q, kappa, forced)), ...]).

    The factors depend on the matrix alone, so the last matrix's levels are kept between
    calls in one slot, (entries bytes, structure, chunk size, {k: (bytes, chunks)}),
    matched bit for bit (-0.0 is not 0.0).  A level is kept once consumed to the end if
    the slot's array bytes stay within _FACTOR_BUDGET; a level that does not fit is
    factored chunk by chunk on every call.  The slot is only ever replaced whole, so a
    reader never pairs one matrix's entries with another's factors."""
    global _kept
    key = phi.entries.tobytes()
    slot = _kept
    if slot[:3] != (key, phi.structure, _ric._CHUNK):
        slot = (key, phi.structure, _ric._CHUNK, {})
    levels = slot[3]
    if k in levels:
        yield from levels[k][1]
        return
    room = _FACTOR_BUDGET - len(key) - sum(size for size, _ in levels.values())
    chunks, size = [], 0
    for sups, groups in _support_chunks(phi.structure, k):
        # a copy: `cols` views an index array twice its size
        factored = [(rows, cols.copy(), _factor(phi.entries, cols)) for rows, cols in groups]
        if chunks is not None:
            arrays = [sups, *(a for rows, cols, factors in factored for a in (rows, cols, *factors))]
            size += sum(a.nbytes + _ARRAY_OVERHEAD for a in arrays if a is not None)
            if size <= room:
                chunks.append((sups, factored))
            else:
                chunks = None
        yield sups, factored
    if chunks is not None:
        _kept = (*slot[:3], {**levels, k: (size, chunks)})


def _factor(entries: np.ndarray, cols: np.ndarray):
    """(q, kappa, forced) of the supports with columns `cols` (g, c), which need no
    observation: q stacks their Q factors, kappa[i] bounds the condition number of
    support i unless forced[i], a support that may be rank-deficient under the cutoff.
    q is None for the empty support and for supports with more columns than rows."""
    g, c = cols.shape
    if c == 0:  # the empty support: its residual is ||b||
        return None, np.zeros(g), np.zeros(g, dtype=bool)
    if c > entries.shape[0]:  # more columns than rows
        return None, np.zeros(g), np.ones(g, dtype=bool)
    q, r = np.linalg.qr(entries[:, cols].transpose(1, 0, 2))
    rows2 = np.add.reduce(r * r, axis=2)
    pivots2 = np.diagonal(r, axis1=1, axis2=2) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # R = D (I + N), D its diagonal: cond(R)^2 <= scale2 / min R_ii^2 even where the
        # unpivoted diagonal hides a near-rank deficiency; a zero pivot makes scale2 NaN or inf
        growth = 1.0 + np.sqrt(np.add.reduce(rows2 / pivots2, axis=1) - c)  # 1 + ||N||_F
        scale2 = rows2.sum(axis=1) * growth ** (2 * c - 2)
        smallest2 = pivots2.min(axis=1)
        forced = ~(smallest2 > (_RANK_GUARD * _SVD_CUTOFF) ** 2 * scale2)
        kappa = np.sqrt(np.where(forced, 0.0, scale2 / smallest2))
    return q, kappa, forced


def _screen(q, kappa: np.ndarray, obs: np.ndarray, norms: np.ndarray):
    """(res, margin) of the supports factored as (q, kappa) against `obs` (m, n):
    res[i, j] = ||b_j - Q_i Q_i^T b_j|| is within margin[i, j] of the exact residual
    unless the support is forced.  Without q, res is ||b_j||: exact for the empty
    support, and a support with more columns than rows is forced."""
    if q is None:
        res = np.broadcast_to(norms, (len(kappa), len(norms)))
    else:
        diff = obs - q @ (np.swapaxes(q, 1, 2) @ obs)
        res = np.sqrt(np.add.reduce(diff * diff, axis=1))
    margin = (_SCREEN_MARGIN * obs.shape[0] * np.finfo(float).eps) * kappa[:, None] * norms
    return res, margin


class HypothesisNotMetError(ValueError):
    """The inequality's hypothesis fails, so no verdict is possible."""


@dataclass(frozen=True)
class TailPowerReport:
    """Both sides of the tail power-sum inequality, plus the verdict.

    For a nonincreasing nonnegative sequence with head sum + psi dominating
    the tail sum, the tail's alpha-power sum is bounded by
    s * ((head alpha-power mean)^(1/alpha) + psi/s)^alpha.  With psi = 0 the
    right side reduces to the head's alpha-power sum.
    """

    lhs: float
    rhs: float
    alpha: float
    psi: float
    s: int
    holds: bool


def tail_power_check(a, s: int, alpha: float, psi: float = 0.0) -> TailPowerReport:
    """Evaluate the tail power-sum inequality on a sorted sequence.

    Raises
    ------
    ValueError
        If the sequence is not a nonempty finite real 1-D array, is not
        nonincreasing and nonnegative, or the parameters are out of range.
    HypothesisNotMetError
        If sum(head) + psi < sum(tail).
    """
    a = _checks.array("a", a, (None,))
    if a.size == 0:
        raise ValueError("expected a nonempty sequence")
    if np.any(a < 0):
        raise ValueError("sequence entries must be nonnegative")
    if np.any(np.diff(a) > 0):
        raise ValueError("sequence must be sorted nonincreasing")
    s = _checks.count("s", s, 1, a.size)
    alpha = _checks.real("alpha", alpha, 1.0)
    psi = _checks.real("psi", psi, 0.0)

    head, tail = a[:s], a[s:]
    if head.sum() + psi < tail.sum() - 1e-12 * max(1.0, a.sum()):
        raise HypothesisNotMetError(
            f"hypothesis sum(head) + psi >= sum(tail) fails: "
            f"{head.sum():g} + {psi:g} < {tail.sum():g}"
        )
    lhs = float(np.sum(tail**alpha))
    head_pow = float(np.sum(head**alpha))
    rhs = float(s * ((head_pow / s) ** (1.0 / alpha) + psi / s) ** alpha)
    holds = lhs <= rhs + 1e-12 * max(abs(lhs), abs(rhs), 1.0)
    return TailPowerReport(lhs=lhs, rhs=rhs, alpha=alpha, psi=psi, s=s, holds=holds)


@dataclass(frozen=True)
class ConeCheckReport:
    """Sides of the cone constraint on a recovery error vector.

    For the error h of a converged mixed-norm minimizer against a feasible
    truth x, the tail of h is controlled by its head plus twice the truth's
    tail:  lhs = ||h_tail||_{2,I},  rhs = ||h_head||_{2,I} + 2*||x_tail||_{2,I},
    slack = rhs - lhs.
    """

    lhs: float
    rhs: float
    slack: float


def cone_constraint_check(h: BlockSignal, x: BlockSignal, s: int) -> ConeCheckReport:
    """Evaluate the cone constraint for error `h` against truth `x` at order `s`."""
    h = _check_signal("h", h)
    x = _check_signal("x", x, h.structure, "h's")
    h_split = best_block_approx(h, s)
    x_split = best_block_approx(x, s)
    lhs = mixed_norm_2_1(h_split.tail)
    rhs = mixed_norm_2_1(h_split.head) + 2.0 * mixed_norm_2_1(x_split.tail)
    return ConeCheckReport(lhs=lhs, rhs=rhs, slack=rhs - lhs)

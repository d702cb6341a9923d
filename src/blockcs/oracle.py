"""Ground-truth references: brute-force block-sparse recovery by support
enumeration, the sorted tail power-sum inequality, and the cone-constraint
diagnostic used to audit solver runs.

Each exact solve of the oracle is one `_linalg.lstsq`.  An oracle call enters
its errstate once, around the screens too, so a matrix whose QR pivots square
past the largest double prints no warning.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from . import ric as _ric
from ._linalg import LSTSQ_FAILED, errstate, lstsq
from .blocks import BlockSignal, SensingMatrix, _check_signal, best_block_approx, mixed_norm_2_1
from .ric import DEFAULT_ENUMERATION_CAP, _check_cap, _support_chunks

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
_EPS = float(np.finfo(float).eps)
_FACTOR_BUDGET = 64 * 1024  # bytes kept between calls: one matrix's entries and screen factors
_ARRAY_OVERHEAD = 256  # bytes a kept array costs beyond its data: its object and containers


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


def brute_force_l20(phi: SensingMatrix, b, s_max: int,
                    residual_tol: float = DEFAULT_RESIDUAL_TOL) -> OracleSolution:
    """Exhaustive search for the sparsest block vector fitting `b` of shape (m,).

    For k = 0, 1, ..., s_max enumerates every block support of size k,
    solves the support-restricted least-squares problem (minimum-norm on
    rank-deficient submatrices), and returns the first k admitting residual
    <= residual_tol.  Among equal-residual supports of that k the
    lexicographically smallest wins.  A batch of one of `brute_force_l20_batch`.

    Raises
    ------
    ValueError
        If `phi` is not a SensingMatrix, `s_max` is outside [0, l],
        `residual_tol` is negative or non-finite, or the observation is not a
        finite real array of shape (m,).
    EnumerationCapError
        If the total number of supports up to s_max exceeds the default
        enumeration cap, before any solve.
    NoSparseFitError
        If no support within s_max fits; carries the best residual seen.
    numpy.linalg.LinAlgError
        If an exact solve does not converge, as `np.linalg.lstsq`.
    """
    phi = _checks.instance("phi", phi, SensingMatrix)
    b = _checks.array("observation", b, (phi.num_rows,))
    outcome = _l20(phi, "observation", b[None], *_limits(phi, s_max, residual_tol))[0]
    if isinstance(outcome, NoSparseFitError):
        raise outcome
    return outcome


def brute_force_l20_batch(phi: SensingMatrix, B, s_max: int,
                          residual_tol: float = DEFAULT_RESIDUAL_TOL) -> list[OracleSolution | NoSparseFitError]:
    """`brute_force_l20` on each column of the (m, n) observations `B`: one
    OracleSolution per column, or the NoSparseFitError (returned, not raised)
    for a column that no support fits.  Raises as `brute_force_l20` does.
    One stacked QR per chunk and column count screens the supports; only those
    that can reach a column's smallest residual are candidates.  A candidate is
    solved exactly only where a fit is possible: when the screen cannot bound it
    (forced) or its certified lower bound, screened residual minus margin, is
    <= residual_tol.  The other candidates are deferred, and solved only for the
    best residual of a column that no support fits.  So every outcome is
    bit-identical to solving each support exactly.  The QR factors are kept in
    `_levels` for the next call on an equal matrix, within _FACTOR_BUDGET bytes."""
    phi = _checks.instance("phi", phi, SensingMatrix)
    s_max, residual_tol = _limits(phi, s_max, residual_tol)
    B = _checks.array("observations", B, (phi.num_rows, None))
    return _l20(phi, "observations", np.ascontiguousarray(B.T), s_max, residual_tol)


def _limits(phi: SensingMatrix, s_max, residual_tol) -> tuple[int, float]:
    """The checked (s_max, residual_tol), once the supports up to s_max are within the
    default enumeration cap."""
    l = phi.structure.num_blocks
    s_max = _checks.count("s_max", s_max, 0, l)
    residual_tol = _checks.real("residual_tol", residual_tol, 0.0)
    _check_cap(sum(math.comb(l, k) for k in range(s_max + 1)), DEFAULT_ENUMERATION_CAP,
               f"sum of C({l}, k) for k <= {s_max}")
    return s_max, residual_tol


def _l20(phi: SensingMatrix, name: str, columns: np.ndarray, s_max: int, residual_tol: float) -> list:
    """`brute_force_l20_batch` on checked arguments, the observations given as the rows
    of the contiguous (n, m) `columns`, once they have finite squared norms (they are
    the argument `name`)."""
    structure = phi.structure
    outcomes: list = [None] * len(columns)
    best_overall = [math.inf] * len(columns)
    deferred = [[] for _ in outcomes]  # per column: the support columns of candidates that cannot fit
    unresolved = list(range(len(columns)))
    searched = 0
    column_norms = np.sqrt(_checks.squares(name, columns, axis=1))
    # one errstate per call: lstsq's contract, which also keeps the screen's overflows quiet
    with errstate(LSTSQ_FAILED):
        fits = phi.entries.nbytes < _FACTOR_BUDGET  # larger entries keep nothing, not even as the key
        levels = _levels(phi.entries.tobytes(), structure, _ric._CHUNK) if fits else {}
        obs, norms = columns.T, column_norms
        for k in range(s_max + 1):
            bound = None  # running upper bound on each best exact residual
            best = [(math.inf, 0, None)] * len(unresolved)
            level = levels.get(k)
            for sups, groups in (_factored_level(phi, levels, k) if level is None else level[1]):
                for rows, cols, (qt, kappa, forced) in groups:
                    if qt is None:
                        # the empty support, alone in level 0 and screened exactly by ||b_j||, or
                        # supports with more columns than rows, all forced: every pair is a candidate
                        lows = norms.tolist()
                        hits = [(i, j, low) for i in range(len(rows)) for j, low in enumerate(lows)]
                    else:
                        # res[i, j] = ||b_j - Q_i Q_i^T b_j|| is within margin[i, j] of the exact
                        # residual unless support i is forced, whatever order BLAS sums in
                        g, c = cols.shape  # qt is Q_0^T over Q_1^T over ...: one product for all
                        qtb = (qt @ obs).reshape(g, c, len(norms))
                        diff = obs - qt.reshape(g, c, -1).transpose(0, 2, 1) @ qtb
                        res = np.sqrt(np.add.reduce(diff * diff, axis=1))
                        margin = kappa * norms
                        upper = res + margin
                        if forced is not None:
                            upper = np.where(forced, np.inf, upper)  # forced: bounds nothing
                        least = np.minimum.reduce(upper, axis=0)
                        bound = least if bound is None else np.minimum(bound, least)
                        lower = res - margin
                        at = lower <= bound
                        if forced is not None:
                            at |= forced
                        at_i, at_j = at.nonzero()
                        hits = [(i, j, lower.item(i, j)) for i, j in zip(at_i.tolist(), at_j.tolist())]
                    for i, j, low in hits:
                        if low > residual_tol and (forced is None or not forced[i, 0]):
                            # only a no-fit report needs it
                            deferred[unresolved[j]].append(cols[i])
                            continue
                        res_ij, coef = _solve(phi.entries[:, cols[i]], columns[unresolved[j]])
                        # groups split a chunk out of order: ties keep the lexicographically first
                        position = searched + int(rows[i])
                        if (res_ij, position) < best[j][:2]:
                            best[j] = (res_ij, position, (sups[rows[i]], cols[i], coef))
                searched += len(sups)
            for j, (best_res, _, found) in zip(unresolved, best):
                best_overall[j] = min(best_overall[j], best_res)
                if best_res <= residual_tol:
                    sup, cols, coef = found
                    x = np.zeros(structure.total_dim)
                    x[cols] = coef
                    outcomes[j] = OracleSolution(BlockSignal(x, structure), tuple(sup.tolist()), k,
                                                 best_res, searched)
            unresolved, before = [j for j in unresolved if outcomes[j] is None], len(unresolved)
            if not unresolved:
                break
            if len(unresolved) < before:
                obs, norms = columns[unresolved].T, column_norms[unresolved]
        for j in unresolved:
            for cols in deferred[j]:
                best_overall[j] = min(best_overall[j], _solve(phi.entries[:, cols], columns[j])[0])
            message = (f"no block support of size <= {s_max} fits within residual_tol={residual_tol:g} "
                       f"(best residual {best_overall[j]:.3e})")
            outcomes[j] = NoSparseFitError(message, best_overall[j])
    return outcomes


def _solve(sub: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray]:
    """(residual, coefficients) of the exact least-squares fit of `b` on the columns `sub`."""
    coef = lstsq(sub, b[:, None], _SVD_CUTOFF)[:, 0]
    diff = sub @ coef - b
    return math.sqrt(diff.dot(diff)), coef  # np.linalg.norm(diff), bit for bit


@functools.lru_cache(maxsize=1)
def _levels(key: bytes, structure, chunk: int) -> dict:
    """The kept levels {k: (bytes, chunks)} of one matrix: see `_factored_level`."""
    return {}


def _factored_level(phi: SensingMatrix, levels: dict, k: int):
    """The chunks of `_support_chunks(phi.structure, k)` with each group's screen factors,
    as (sups, [(rows, cols, (qt, kappa, forced)), ...]), for a level that `levels` lacks.

    The factors depend on the matrix alone, so `_levels` keeps them for the last matrix under
    _FACTOR_BUDGET bytes, keyed bit for bit (-0.0 is not 0.0) on its entries' bytes, structure and
    chunk size.  A level consumed to the end is stored in `levels` if the entries and every kept
    array stay within the budget; a level that does not fit is factored chunk by chunk on every call."""
    room = _FACTOR_BUDGET - phi.entries.nbytes - sum(size for size, _ in levels.values())
    chunks, size = [], 0
    for sups, groups in _support_chunks(phi.structure, k):
        factored = [(rows, cols, _factor(phi.entries, cols)) for rows, cols in groups]
        if chunks is not None:
            arrays = [sups, *(a for rows, cols, factors in factored for a in (rows, cols, *factors))]
            size += sum(a.nbytes + _ARRAY_OVERHEAD for a in arrays if a is not None)
            if size <= room:
                chunks.append((sups, factored))
            else:
                chunks = None
        yield sups, factored
    if chunks is not None:
        levels[k] = (size, chunks)


def _factor(entries: np.ndarray, cols: np.ndarray):
    """(qt, kappa, forced) of the supports with columns `cols` (g, c), which need no
    observation: qt stacks their transposed Q factors as one (g c, m) array, Q_0^T over
    Q_1^T over ..., and kappa[i, 0] is the screen's margin factor _SCREEN_MARGIN * m * eps
    times a bound on the condition number of support i unless forced[i, 0], a support
    that may be rank-deficient under the cutoff.  qt and kappa are None for the empty
    support and for supports with more columns than rows, which are all forced; forced
    is None when no support is forced."""
    g, c = cols.shape
    m = entries.shape[0]
    if c == 0:  # the empty support: its residual is ||b||
        return None, None, None
    if c > m:  # more columns than rows
        return None, None, np.ones((g, 1), dtype=bool)
    q, r = np.linalg.qr(entries[:, cols].transpose(1, 0, 2))
    rows2 = np.add.reduce(r * r, axis=2)
    pivots2 = np.diagonal(r, axis1=1, axis2=2) ** 2  # r * r and these may overflow: forced
    # the 0/0 of a zero pivot is ignored here, where the call's errstate would raise it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # R = D (I + N), D its diagonal: cond(R)^2 <= scale2 / min R_ii^2 even where the
        # unpivoted diagonal hides a near-rank deficiency; a zero pivot makes scale2 NaN or inf
        growth = 1.0 + np.sqrt(np.add.reduce(rows2 / pivots2, axis=1, keepdims=True) - c)
        scale2 = rows2.sum(axis=1, keepdims=True) * growth ** (2 * c - 2)
        smallest2 = pivots2.min(axis=1, keepdims=True)
        forced = ~(smallest2 > (_RANK_GUARD * _SVD_CUTOFF) ** 2 * scale2)
        kappa = (_SCREEN_MARGIN * m * _EPS) * np.sqrt(np.where(forced, 0.0, scale2 / smallest2))
    return q.transpose(0, 2, 1).reshape(g * c, m), kappa, (forced if forced.any() else None)


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

"""Exact block restricted-isometry constants and the sharp recovery condition.

The constant of order s is computed by enumerating every block support of
size s and taking extremal eigenvalues of the corresponding Gram submatrix;
this is exact but exponential, so enumeration is capped.  This module owns
block-support enumeration and its cap for the whole package, the brute-force
oracle and the spread-kernel rescaling included.  The condition checker and
the two error-bound evaluators implement the recovery guarantee
delta < t/(4-t) for 0 < t < 4/3, t*s >= 2, together with its noisy-recovery
error estimates.

The enumeration kernel spends most of its time in LAPACK's symmetric
eigenvalue solver, so the rest of it is kept thin.  Each chunk's column
indices are one gather from a per-call table of each block's columns, and
the eigenvalues come from `_linalg.eigvalsh`, under its errstate once per
certificate.  A NaN eigenvalue that no flag reported (a Gram matrix that
rounds past the largest double can give one) raises the same
`numpy.linalg.LinAlgError`, so no NaN reaches a certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from ._linalg import EIGVALSH_FAILED, eigvalsh, errstate
from .blocks import BlockStructure, SensingMatrix

__all__ = [
    "RicCertificate",
    "ConditionReport",
    "BoundReport",
    "EnumerationCapError",
    "exact_block_ric",
    "condition_threshold",
    "check_condition",
    "error_bound_tight",
    "error_bound_loose",
    "ric_scaling_bound",
]

DEFAULT_ENUMERATION_CAP = 10**6


class EnumerationCapError(RuntimeError):
    """Raised when a support enumeration would exceed the configured cap."""

    def __init__(self, message: str, num_supports: int):
        super().__init__(message)
        self.num_supports = num_supports


@dataclass(frozen=True)
class RicCertificate:
    """Exact block restricted-isometry constant with its witnesses.

    `delta` is the largest deviation of a restricted Gram eigenvalue from 1;
    `worst_support` attains it.  `min_eig` / `max_eig` are the extremal
    eigenvalues over all enumerated supports.
    """

    order_s: int
    delta: float
    worst_support: tuple[int, ...]
    min_eig: float
    max_eig: float
    supports_enumerated: int


def _check_cap(count: int, cap: int, what: str) -> None:
    """Raise EnumerationCapError when `count` supports (named by `what`) exceed `cap`;
    a count of more digits than Python converts to text is named by its digits."""
    cap = _checks.count("cap", cap, 0)
    if count > cap:
        raise EnumerationCapError(
            f"{what} = {_checks._shown(count)} block supports exceeds the enumeration cap {cap}", count
        )


def _check_order(l: int, k: int) -> None:
    """_check_cap at the default cap on the C(l, k) k-subsets of l blocks (or vectors),
    0 <= k <= l.  Where min(k, l - k) > 64 the count, at least 2**64, is refused
    uncounted: C(10**6, 5 * 10**5) alone takes seconds to compute."""
    what = f"C({_checks._shown(l)}, {_checks._shown(k)})"
    if min(k, l - k) > 64:
        raise EnumerationCapError(f"{what} > 2**64 block supports exceeds the enumeration cap "
                                  f"{DEFAULT_ENUMERATION_CAP}", 2**64)
    _check_cap(math.comb(l, k), DEFAULT_ENUMERATION_CAP, what)


_CHUNK = 128  # block supports per chunk of the enumeration kernel


def _support_chunks(structure: BlockStructure, k: int):
    """Yield every block support of size `k` in lexicographic chunks of at
    most _CHUNK, as (sups, groups).

    `sups` is the chunk's (c, k) array of block indices.  `groups` splits the
    chunk by column count: one (rows, cols) pair per count, where `rows` are
    the chunk rows with that many columns and `cols` their (len(rows), count)
    intp column indices in ascending order, an array that owns exactly its
    bytes.  The empty support has no columns.

    One (l, widest block) table maps each block to its columns, shorter
    blocks padded with -1, so a chunk's padded columns are one gather,
    `table[sups]`, and a group's are those rows without the padding; uniform
    and ragged structures take the same path.
    """
    edges = structure._edges
    widths = np.diff(edges)
    offsets = np.arange(widths.max())
    table = np.where(offsets < widths[:, None], edges[:-1, None] + offsets, -1)
    combos = itertools.combinations(range(structure.num_blocks), k)
    while chunk := list(itertools.islice(combos, _CHUNK)):
        c = len(chunk)
        sups = np.fromiter(itertools.chain.from_iterable(chunk), np.intp, c * k).reshape(c, k)
        cols = table[sups].reshape(c, k * len(offsets))
        counts = widths[sups].sum(axis=1)
        groups = []
        for count in sorted(set(counts.tolist())):
            rows = np.flatnonzero(counts == count)
            sel = cols[rows]
            groups.append((rows, sel[sel >= 0].reshape(len(rows), count)))
        yield sups, groups


def exact_block_ric(
    phi: SensingMatrix, s: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> RicCertificate:
    """Exact block restricted-isometry constant of order `s` by full enumeration.

    Enumerates all C(l, s) block supports in lexicographic chunks and, for
    each chunk, the extremal eigenvalues of the symmetric Gram submatrices of
    the selected columns with one stacked product and one batched
    `eigvalsh` per column count.  Deterministic; ties on the worst support
    resolve to the lexicographically first.

    Raises
    ------
    ValueError
        If `phi` is not a SensingMatrix or `s` is outside [1, l], or if a
        restricted Gram eigenvalue is not finite: the matrix's scale is out
        of range, and the error names its largest entry.
    EnumerationCapError
        If C(l, s) exceeds `cap`.
    numpy.linalg.LinAlgError
        If an eigenvalue problem does not converge, as `np.linalg.eigvalsh`.
    """
    phi = _checks.instance("phi", phi, SensingMatrix)
    structure = phi.structure
    l = structure.num_blocks
    s = _checks.count("s", s, 1, l)
    num_supports = math.comb(l, s)
    _check_cap(num_supports, cap, f"C({l}, {s})")
    delta = -np.inf
    worst: tuple[int, ...] = ()
    min_eig, max_eig = np.inf, -np.inf
    with errstate(EIGVALSH_FAILED):
        for sups, groups in _support_chunks(structure, s):
            lo, hi = np.empty(len(sups)), np.empty(len(sups))
            for rows, cols in groups:
                # (c, m, k): each (m, k) slice is laid out as one support's own phi.entries[:, cols],
                # so the stacked product rounds exactly as that support's 2-D sub.T @ sub
                sub = phi.entries[:, cols].transpose(1, 0, 2)
                w = eigvalsh(np.swapaxes(sub, 1, 2) @ sub)
                lo[rows], hi[rows] = w[:, 0], w[:, -1]
            min_eig = min(min_eig, lo.min())
            max_eig = max(max_eig, hi.max())
            deviation = np.maximum(hi - 1.0, 1.0 - lo)
            # the first of equal deviations in lexicographic order, or the first NaN
            i = int(np.argmax(deviation))
            if not deviation[i] <= delta:
                if np.isnan(deviation[i]):  # a NaN eigenvalue the gufunc did not flag
                    raise np.linalg.LinAlgError(EIGVALSH_FAILED)
                delta = deviation[i]
                worst = tuple(sups[i].tolist())
    if not (math.isfinite(min_eig) and math.isfinite(max_eig)):  # so is every deviation
        raise _checks.scale_error(phi.entries, "a restricted Gram eigenvalue is not finite",
                                  "the RIC enumeration's", "the matrix")
    return RicCertificate(
        order_s=s,
        delta=float(delta),
        worst_support=worst,
        min_eig=float(min_eig),
        max_eig=float(max_eig),
        supports_enumerated=num_supports,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the recovery-condition check.

    `threshold` is t/(4-t) when t is admissible, else None.
    `effective_order` is the integer order floor(t*s) at which the constant
    is measured when t*s is not an integer; a t*s within 1e-12 of an integer
    counts as that integer, the tolerance of the t*s >= 2 test, so the order
    is 2 or more exactly when that test passes.  The threshold construction
    (`sharpness_instance`) is sharp only at floor(t*s): its constant exceeds
    t/(4-t) at ceil(t*s).  This convention is unchecked against the paper's
    full text, of which only the abstract is at hand; the order may be meant
    as ceil(t*s).  `reason` is None when the
    condition holds, else one of "t_out_of_range", "invalid_delta" (delta
    negative or not finite), "ts_below_two", "delta_not_below_threshold".
    """

    ok: bool
    t: float
    s: int
    delta: float
    threshold: float | None
    effective_order: int
    reason: str | None


def condition_threshold(t: float) -> float:
    """The recovery threshold t/(4-t) for admissible t in (0, 4/3)."""
    t = _checks.real("t", t, 0.0, 4.0 / 3.0, strict=True)
    return t / (4.0 - t)


_TS_TOL = 1e-12  # t*s this close to an integer counts as that integer


def _effective_order(t: float, s: int) -> int:
    """floor(t*s), or the integer within _TS_TOL of t*s, for the exact product
    t*s of the float t and any integer s, in integers: with t = num/den, t*s is
    floor + rest/den, 0 <= rest < den, and only floor + 1 can lie within
    _TS_TOL above it.  So the order is 2 or more exactly where t*s >= 2 - _TS_TOL,
    check_condition's t*s >= 2 test."""
    num, den = t.as_integer_ratio()
    floor, rest = divmod(num * s, den)
    tol_num, tol_den = _TS_TOL.as_integer_ratio()
    return floor + 1 if (den - rest) * tol_den <= tol_num * den else floor


def check_condition(delta: float, t: float, s: int) -> ConditionReport:
    """Check the sharp recovery condition delta < t/(4-t).

    Valid parameters require 0 < t < 4/3 and t*s >= 2.  A t out of that range
    or a NaN, infinite or negative delta yields ok=False with a reason code
    rather than an exception; a t that is no finite real, an `s` that is no
    integer >= 0 or a delta that is no real number (a str, bool, None or
    complex) raises ValueError.
    """
    t = _checks.real("t", t)
    s = _checks.count("s", s, 0)
    delta = _checks.number("delta", delta)
    threshold = t / (4.0 - t) if 0.0 < t < 4.0 / 3.0 else None
    order = _effective_order(t, s)
    if threshold is None:
        reason = "t_out_of_range"
    elif not 0.0 <= delta < math.inf:
        reason = "invalid_delta"
    elif order < 2:  # t*s < 2 - _TS_TOL
        reason = "ts_below_two"
    elif not delta < threshold:
        reason = "delta_not_below_threshold"
    else:
        reason = None
    return ConditionReport(reason is None, t, s, delta, threshold, order, reason)


@dataclass(frozen=True)
class BoundReport:
    """Evaluated recovery-error bound: bound = noise_coeff*rho + tail_coeff*tail_norm."""

    t: float
    s: int
    delta: float
    rho: float
    tail_norm: float
    t_tilde: float
    denom: float
    noise_coeff: float
    tail_coeff: float
    bound: float
    variant: str


def _error_bound(variant: str, t, s, delta, rho, tail_norm) -> BoundReport:
    """The "tight" or "loose" bound; the two differ only in the tail coefficient."""
    report = check_condition(delta, t, s)
    if not report.ok:
        raise ValueError(f"error bound requires the recovery condition to hold "
                         f"({report.reason}: t={t}, s={s}, delta={delta})")
    rho = _checks.real("rho", rho, 0.0)
    tail_norm = _checks.real("tail_norm", tail_norm, 0.0)
    t, s, delta = report.t, report.s, report.delta
    t_tilde = max(math.sqrt(t), t)
    denom = t + (t - 4.0) * delta
    noise_coeff = 2.0 * math.sqrt(2.0) * math.sqrt(1.0 + delta) * t_tilde / denom
    if variant == "tight":
        tail_coeff = 0.5 * math.sqrt(2 / s) * ((8.0 * delta + 4.0 * math.sqrt(denom * delta)) / denom + 1.0)
    else:
        tail_coeff = math.sqrt(2 / s) * ((4.0 * delta + 2.0 * math.sqrt(denom * delta)) / denom + math.sqrt(2.0))
    bound = noise_coeff * rho + tail_coeff * tail_norm
    return BoundReport(t, s, delta, rho, tail_norm, t_tilde, denom, noise_coeff, tail_coeff, bound, variant)


def error_bound_tight(t: float, s: int, delta: float, rho: float, tail_norm: float) -> BoundReport:
    """Sharper of the two recovery-error bounds.

    For a solution of the noise-ball program with noise radius `rho` and
    best-s-term tail `tail_norm`, the l2 recovery error is at most
    noise_coeff*rho + tail_coeff*tail_norm with

        noise_coeff = 2*sqrt(2)*sqrt(1+delta)*max(sqrt(t), t) / denom
        tail_coeff  = (1/2)*sqrt(2/s)*((8*delta + 4*sqrt(denom*delta))/denom + 1)

    where denom = t + (t-4)*delta > 0 under the recovery condition.
    """
    return _error_bound("tight", t, s, delta, rho, tail_norm)


def error_bound_loose(t: float, s: int, delta: float, rho: float, tail_norm: float) -> BoundReport:
    """Alternative error bound with the same noise coefficient but

        tail_coeff = sqrt(2/s)*((4*delta + 2*sqrt(denom*delta))/denom + sqrt(2))

    which always dominates the tight variant's tail coefficient.
    """
    return _error_bound("loose", t, s, delta, rho, tail_norm)


def ric_scaling_bound(delta_s: float, kappa: float) -> float:
    """Upper bound (2*kappa - 1)*delta_s on the constant at order kappa*s.

    Raises
    ------
    ValueError
        If kappa < 2 or delta_s < 0.
    """
    kappa = _checks.real("kappa", kappa, 2.0)
    delta_s = _checks.real("delta_s", delta_s, 0.0)
    return (2.0 * kappa - 1.0) * delta_s

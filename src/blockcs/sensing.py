"""Sensing matrices: random ensembles, engineered well-conditioned instances,
and the explicit square operator that sits exactly at the recovery threshold.
The `SensingMatrix` type is defined in `blocks`, so that `ric`, which this
module imports, can check its matrix arguments too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from ._linalg import orthonormal
from .blocks import BlockSignal, BlockStructure, SensingMatrix, _check_signal
from .ric import DEFAULT_ENUMERATION_CAP, _check_cap, condition_threshold, exact_block_ric
from .seeding import generator

__all__ = [
    "SharpnessInstance",
    "gaussian_matrix",
    "spread_kernel_matrix",
    "sharpness_instance",
    "apply",
]

_FLATTEN_ITERS = 100  # row-energy flattening passes of the spread-kernel construction


def apply(phi: SensingMatrix, x: BlockSignal) -> np.ndarray:
    """Matrix-vector product Phi x.

    Raises
    ------
    ValueError
        If `phi` is not a SensingMatrix or `x` is not a BlockSignal on its
        structure.
    """
    phi = _checks.instance("phi", phi, SensingMatrix)
    return phi.entries @ _check_signal("x", x, phi.structure, "the matrix's").coeffs


def gaussian_matrix(m: int, structure: BlockStructure, seed: int) -> SensingMatrix:
    """Random matrix with independent N(0, 1/M) entries.

    The normalization makes column norms concentrate around 1.  Identical
    (m, structure, seed) yields a bit-identical matrix.
    """
    m = _checks.count("m", m, 1)
    structure = _checks.instance("structure", structure, BlockStructure)
    rng = generator(seed)
    entries = rng.standard_normal((m, structure.total_dim)) / np.sqrt(m)
    return SensingMatrix(entries, structure)


def spread_kernel_matrix(
    m: int,
    structure: BlockStructure,
    seed: int,
    balance_order: int = 2,
) -> SensingMatrix:
    """Underdetermined matrix engineered for a small block restricted-isometry
    constant at the given order.

    Construction: draw an (N - m)-dimensional kernel subspace, iteratively
    flatten its row energies so no small group of coordinates captures much
    kernel mass, take Phi as an orthonormal basis of the orthogonal
    complement, and rescale so the extremal restricted eigenvalues at
    `balance_order` straddle 1 symmetrically.  The result is random but far
    better conditioned on block supports than a plain Gaussian ensemble;
    instances should still be certified exactly before use.

    Raises
    ------
    ValueError
        If `m` is outside [1, N) or `balance_order` is outside [1, l].
    EnumerationCapError
        If C(l, balance_order) exceeds the default enumeration cap.  Both are
        checked before any construction work.
    """
    n = _checks.instance("structure", structure, BlockStructure).total_dim
    m = _checks.count("m", m, 1, n - 1)
    balance_order = _check_balance_order(structure.num_blocks, balance_order)
    rng = generator(seed)
    k = n - m
    V = rng.standard_normal((n, k))
    target = np.sqrt(k / n)
    for _ in range(_FLATTEN_ITERS):
        V = orthonormal(V)
        row_norms = np.sqrt(np.add.reduce(V * V, axis=1, keepdims=True))  # np.linalg.norm's formula
        V = V * (target / np.maximum(row_norms, 1e-300)) ** 0.9
    V = orthonormal(V)
    proj = np.eye(n) - V @ V.T
    w, U = np.linalg.eigh(proj)
    basis = U[:, w > 0.5]  # orthonormal basis of the complement, n x m
    cert = exact_block_ric(SensingMatrix(basis.T, structure), balance_order)
    c = 2.0 / (cert.max_eig + cert.min_eig)
    return SensingMatrix(np.sqrt(c) * basis.T, structure)


def _check_balance_order(l: int, balance_order=2) -> int:
    """`spread_kernel_matrix`'s `balance_order` on l blocks, checked: an integer in [1, l]
    whose C(l, balance_order) supports are within the default enumeration cap."""
    balance_order = _checks.count("balance_order", balance_order, 1, l)
    _check_cap(math.comb(l, balance_order), DEFAULT_ENUMERATION_CAP, f"C({l}, {balance_order})")
    return balance_order


@dataclass(frozen=True)
class SharpnessInstance:
    """Square operator at the exact recovery threshold, with witness signals.

    `phi` annihilates the unit direction `x1`; `x0` and `x_hat` are distinct
    block s-sparse signals with identical measurements and identical mixed
    l2/l1 norm s*sqrt(d), so neither can be singled out by mixed-norm
    minimization.
    """

    phi: SensingMatrix
    x1: BlockSignal
    x0: BlockSignal
    x_hat: BlockSignal
    t: float
    s: int
    d: int
    l: int


def sharpness_instance(t: float, s: int, d: int, l: int) -> SharpnessInstance:
    """Build the threshold-attaining instance for parameters (t, s, d, l).

    All `l` blocks have uniform length `d`; the first 2s blocks carry the
    construction.  For integer t*s >= 2 the block restricted-isometry
    constant of `phi` at order t*s equals t/(4-t) exactly.

    Raises
    ------
    ValueError
        If t is outside (0, 4/3), s < 1, d < 1, or l <= 2s.
    """
    condition_threshold(t)  # raises unless 0 < t < 4/3
    t = float(t)
    s = _checks.count("s", s, 1)
    d = _checks.count("d", d, 1)
    l = _checks.count("l", l, 1)
    if l <= 2 * s:
        raise ValueError(f"need 2s < l, got s={s}, l={l}")
    structure = BlockStructure.uniform(d, l)
    n = structure.total_dim

    x1 = np.zeros(n)
    x1[: 2 * s * d] = 1.0 / np.sqrt(2 * s * d)
    scale = 1.0 / np.sqrt(1.0 - t / 4.0)
    entries = scale * (np.eye(n) - np.outer(x1, x1))

    x0 = np.zeros(n)
    x0[: s * d] = 1.0
    x_hat = np.zeros(n)
    x_hat[s * d : 2 * s * d] = -1.0

    return SharpnessInstance(
        phi=SensingMatrix(entries, structure),
        x1=BlockSignal(x1, structure),
        x0=BlockSignal(x0, structure),
        x_hat=BlockSignal(x_hat, structure),
        t=t,
        s=s,
        d=d,
        l=l,
    )

"""Numerical embodiments of the combinatorial machinery behind the recovery
analysis: subset-sum identities over index families, column-block energy
identities of a sensing matrix, and the constructive decomposition of the
block polytope into convex combinations of block-sparse extreme vectors.

The identity verifiers return residuals, not booleans; acceptable
thresholds live with the callers so failures stay diagnosable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .blocks import BlockSignal, SensingMatrix, _check_signal, mixed_norm_2_1, mixed_norm_2_inf

__all__ = [
    "PolytopeDecomposition",
    "subset_sum_residual",
    "subset_inner_product_residual",
    "subset_energy_difference_residual",
    "disjoint_pair_energy_residual",
    "polytope_decompose",
]


def _as_vector_family(vectors) -> np.ndarray:
    """The family as an (s, dim) array, one vector per row, for s >= 1."""
    fam = _checks.array("vectors", vectors, (None, None))
    if len(fam) == 0:
        raise ValueError("expected at least one vector")
    return fam


def subset_sum_residual(vectors, m: int) -> float:
    """Residual of the subset-sum identity.

    Summing each vector over every m-subset of an s-element family counts
    each vector C(s-1, m-1) times:

        sum over |J|=m subsets of sum_{j in J} x_j
            = C(s-1, m-1) * sum_i x_i.

    Returns the max-norm of the difference between the two sides.
    """
    fam = _as_vector_family(vectors)
    s = len(fam)
    m = _checks.count("m", m, 1, s)
    lhs = np.zeros_like(fam[0])
    for sub in itertools.combinations(range(s), m):
        for j in sub:
            lhs = lhs + fam[j]
    rhs = math.comb(s - 1, m - 1) * np.sum(fam, axis=0)
    return float(np.max(np.abs(lhs - rhs)))


def subset_inner_product_residual(vectors, m: int) -> float:
    """Residual of the pairwise inner-product identity.

    Each ordered pair j != k appears in C(s-2, m-2) of the m-subsets:

        sum over |J|=m subsets of sum_{j != k in J} <x_j, x_k>
            = C(s-2, m-2) * sum_{j != k} <x_j, x_k>.

    Returns the absolute difference of the two sides.
    """
    fam = _as_vector_family(vectors)
    s = len(fam)
    if s < 2:
        raise ValueError("the identity needs at least two vectors")
    m = _checks.count("m", m, 2, s)
    gram = np.array([[float(np.dot(a, b)) for b in fam] for a in fam])
    off_diag_total = float(gram.sum() - np.trace(gram))
    lhs_terms = []
    for sub in itertools.combinations(range(s), m):
        g = gram[np.ix_(sub, sub)]
        lhs_terms.append(float(g.sum() - np.trace(g)))
    lhs = math.fsum(lhs_terms)
    rhs = math.comb(s - 2, m - 2) * off_diag_total
    return abs(lhs - rhs)


def _block_images(phi: SensingMatrix, x: BlockSignal) -> list[np.ndarray]:
    """Per-block products Phi[i] x[i], so restricted images accumulate cheaply."""
    x = _check_signal("x", x, phi.structure, "the matrix's")
    return [phi.column_block(i) @ x.block(i) for i in range(phi.structure.num_blocks)]


def _restricted_image(images, subset) -> np.ndarray:
    """Phi x restricted to the blocks in `subset`: their images summed in order from zero."""
    acc = np.zeros_like(images[0])
    for i in subset:
        acc = acc + images[i]
    return acc


def _restricted_energy(images, subset) -> float:
    acc = _restricted_image(images, subset)
    return float(acc @ acc)


def subset_energy_difference_residual(phi: SensingMatrix, x: BlockSignal, m: int, n: int) -> float:
    """Residual of the two-family energy identity.

    Averaged restricted energies over all m-subsets and all n-subsets of the
    block index set differ by exactly (m - n) ||Phi x||^2 / l:

        sum_{|Pi|=m} (l-n) ||Phi x_Pi||^2 / (m C(l,m))
          - sum_{|Lam|=n} (l-m) ||Phi x_Lam||^2 / (n C(l,n))
            = (m - n) ||Phi x||^2 / l.
    """
    l = _checks.instance("phi", phi, SensingMatrix).structure.num_blocks
    if l < 2:
        raise ValueError("the identity needs at least two blocks")
    m = _checks.count("m", m, 1, l)
    n = _checks.count("n", n, 1, l)
    images = _block_images(phi, x)
    first = math.fsum(
        _restricted_energy(images, sub) for sub in itertools.combinations(range(l), m)
    )
    second = math.fsum(
        _restricted_energy(images, sub) for sub in itertools.combinations(range(l), n)
    )
    total = _restricted_energy(images, range(l))
    lhs = (l - n) * first / (m * math.comb(l, m)) - (l - m) * second / (n * math.comb(l, n))
    rhs = (m - n) * total / l
    return abs(lhs - rhs)


def disjoint_pair_energy_residual(phi: SensingMatrix, x: BlockSignal, m: int, n: int) -> float:
    """Residual of the disjoint-pair energy identity.

    Over all disjoint pairs (Pi, Lam) with |Pi| = m, |Lam| = n and
    l >= m + n, the weighted combination of ||Phi(x_Pi + x_Lam)||^2 and
    ||Phi(n x_Pi - m x_Lam)||^2 collapses to (m+n)^2 ||Phi x||^2 / l^2.
    The vanishing-weight factor at l = m + n is expanded analytically so the
    evaluation stays finite there.
    """
    l = _checks.instance("phi", phi, SensingMatrix).structure.num_blocks
    m = _checks.count("m", m, 1)
    n = _checks.count("n", n, 1)
    if l < m + n:
        raise ValueError(f"need l >= m + n, got l={l}, m={m}, n={n}")
    images = _block_images(phi, x)
    weight = m * n * l * math.comb(l, m) * math.comb(l - m, n)
    terms = []
    for pi in itertools.combinations(range(l), m):
        rest = [i for i in range(l) if i not in pi]
        im_pi = _restricted_image(images, pi)
        for lam in itertools.combinations(rest, n):
            im_lam = _restricted_image(images, lam)
            joint = im_pi + im_lam
            mix = n * im_pi - m * im_lam
            terms.append(
                (m * n * l * float(joint @ joint) - (l - m - n) * float(mix @ mix)) / weight
            )
    lhs = math.fsum(terms)
    rhs = (m + n) ** 2 * _restricted_energy(images, range(l)) / l**2
    return abs(lhs - rhs)


@dataclass(frozen=True)
class PolytopeDecomposition:
    """Convex decomposition of a block-polytope member into block-sparse
    extreme vectors.

    Every term u_i is supported inside the source's block support, has at
    most s nonzero blocks, carries the source's full mixed l2/l1 norm, and
    respects the per-block cap alpha; the weights are convex and the
    weighted energy sum is at most s * alpha^2.
    """

    terms: tuple[tuple[float, BlockSignal], ...]
    alpha: float
    s: int
    source: BlockSignal


def _greedy_scalar_decomposition(a: np.ndarray, alpha: float, s: int):
    """Decompose block norms a (sum L <= s*alpha, max <= alpha) into convex
    combinations of extreme points of {0 <= y <= alpha, sum y = L} with at
    most s nonzero entries: saturate the largest active entries of the
    normalized remainder, put the fractional slot on the next largest, and
    take the largest step keeping the remainder inside the shrunken polytope.
    """
    L = float(a.sum())
    terms: list[tuple[float, np.ndarray]] = []
    r = a.astype(float).copy()
    omega = 1.0
    snap = 1e-13 * max(alpha, L, 1.0)
    max_steps = 4 * a.size + 8

    for _ in range(max_steps):
        active = np.nonzero(r > 0.0)[0]
        if len(active) <= s or omega <= 1e-15:
            # final term: the normalized remainder, with the weight chosen as
            # the exact complement so the weights sum to 1
            lam = 1.0 - math.fsum(t[0] for t in terms)
            if lam > 1e-15:
                terms.append((lam, r / lam))
            elif r.max(initial=0.0) > snap:
                raise RuntimeError("polytope decomposition lost mass")
            break
        ybar = r / omega
        order = sorted(active, key=lambda j: (-ybar[j], j))
        p = int(math.floor(L / alpha + 1e-12))
        q = L - p * alpha
        c = np.zeros_like(r)
        c[order[:p]] = alpha
        if q > snap and p < len(order):
            c[order[p]] = q
        lam = omega
        for j in range(r.size):
            if c[j] > 0.0:
                lam = min(lam, r[j] / c[j])
            if c[j] < alpha:
                # remainder cap: r_j - lam*c_j <= (omega - lam)*alpha
                lam = min(lam, max(0.0, (omega * alpha - r[j]) / (alpha - c[j])))
        if lam <= 1e-15:
            raise RuntimeError("polytope decomposition stalled; input may be on the boundary")
        terms.append((lam, c))
        r = np.maximum(r - lam * c, 0.0)
        r[r < snap] = 0.0
        omega -= lam
    else:
        raise RuntimeError("polytope decomposition failed to terminate")
    return terms


def polytope_decompose(x: BlockSignal, alpha: float, s: int) -> PolytopeDecomposition:
    """Decompose a member of the block polytope {||x||_{2,inf} <= alpha,
    ||x||_{2,I} <= s*alpha} into a convex combination of block-s-sparse
    extreme vectors sharing its mixed norm.

    Raises
    ------
    ValueError
        If either membership inequality fails (the message names which).
    """
    x = _check_signal("x", x)
    alpha = _checks.real("alpha", alpha, 0.0, strict=True)
    s = _checks.count("s", s, 1)
    slack = 1e-12 * max(1.0, alpha)
    x_inf = mixed_norm_2_inf(x)
    x_mix = mixed_norm_2_1(x)
    if x_inf > alpha + slack:
        raise ValueError(
            f"polytope membership fails: ||x||_(2,inf) = {x_inf:.12g} exceeds alpha = {alpha:.12g}"
        )
    if x_mix > s * alpha + s * slack:
        raise ValueError(
            f"polytope membership fails: ||x||_(2,I) = {x_mix:.12g} exceeds s*alpha = {s * alpha:.12g}"
        )

    structure = x.structure
    if x_mix == 0.0:
        return PolytopeDecomposition(
            terms=((1.0, BlockSignal.zeros(structure)),), alpha=alpha, s=s, source=x
        )

    norms = x.block_norms()
    scalar_terms = _greedy_scalar_decomposition(norms, alpha, s)

    terms = []
    for lam, c in scalar_terms:
        coeffs = np.zeros(structure.total_dim)
        for j in np.nonzero(c)[0]:
            sl = structure.block_slice(j)
            coeffs[sl] = (c[j] / norms[j]) * x.coeffs[sl]
        terms.append((float(lam), BlockSignal(coeffs, structure)))
    return PolytopeDecomposition(terms=tuple(terms), alpha=alpha, s=s, source=x)

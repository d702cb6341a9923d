"""Block-structured vectors: partitions, mixed norms, block supports,
and best block-s-term approximations.

A block structure partitions R^N into l contiguous blocks of lengths
d_1, ..., d_l.  Signals carry a reference to their structure so that all
mixed-norm operations can be expressed per block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _checks

__all__ = [
    "BlockStructure",
    "BlockSignal",
    "BlockApproximation",
    "mixed_norm_2_1",
    "mixed_norm_2_0",
    "mixed_norm_2_inf",
    "block_support",
    "best_block_approx",
]


@dataclass(frozen=True)
class BlockStructure:
    """Partition of R^N into contiguous blocks of the given lengths.

    Parameters
    ----------
    block_lengths : sequence of int
        Lengths d_1, ..., d_l of the blocks, each >= 1.
    """

    block_lengths: tuple[int, ...]

    def __post_init__(self):
        lengths = tuple(_checks.count(f"block_lengths[{i}]", d, 1)
                        for i, d in enumerate(self.block_lengths))
        if len(lengths) < 1:
            raise ValueError("a block structure needs at least one block")
        object.__setattr__(self, "block_lengths", lengths)

    @classmethod
    def uniform(cls, block_length: int, num_blocks: int) -> "BlockStructure":
        """Structure with `num_blocks` blocks, all of length `block_length`."""
        return cls((_checks.count("block_length", block_length, 1),)
                   * _checks.count("num_blocks", num_blocks, 1))

    @property
    def num_blocks(self) -> int:
        return len(self.block_lengths)

    @property
    def total_dim(self) -> int:
        return sum(self.block_lengths)

    @cached_property
    def offsets(self) -> tuple[int, ...]:
        """Start index of each block (0-based, strictly increasing)."""
        return tuple(int(e) for e in self._edges[:-1])

    @cached_property
    def _edges(self) -> np.ndarray:
        # l+1 boundaries: edges[i]..edges[i+1] is block i
        edges = np.zeros(self.num_blocks + 1, dtype=np.intp)
        np.cumsum(self.block_lengths, out=edges[1:])
        edges.flags.writeable = False
        return edges

    def block_slice(self, i: int) -> slice:
        """Coefficient slice of block `i`."""
        e = self._edges
        return slice(int(e[i]), int(e[i + 1]))

    def block_indices(self, blocks) -> np.ndarray:
        """Sorted coefficient indices covered by the given block indices."""
        e = self._edges
        parts = [np.arange(e[i], e[i + 1]) for i in sorted(blocks)]
        if not parts:
            return np.array([], dtype=np.intp)
        return np.concatenate(parts)


def _frozen_array(values, n=None) -> np.ndarray:
    arr = np.array(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-D coefficient vector, got shape {arr.shape}")
    if n is not None and arr.shape[0] != n:
        raise ValueError(f"coefficient length {arr.shape[0]} does not match structure dimension {n}")
    if not np.isfinite(arr).all():
        raise ValueError("coefficients must be finite (no NaN or inf)")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class BlockSignal:
    """Dense coefficient vector bound to a block structure.

    Immutable: the coefficient array is copied on construction and marked
    read-only, so signals can be shared freely between callers.
    """

    coeffs: np.ndarray
    structure: BlockStructure

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs, self.structure.total_dim))

    @classmethod
    def zeros(cls, structure: BlockStructure) -> "BlockSignal":
        return cls(np.zeros(structure.total_dim), structure)

    def block(self, i: int) -> np.ndarray:
        """Read-only view of block `i`."""
        return self.coeffs[self.structure.block_slice(i)]

    def block_norms(self) -> np.ndarray:
        """Euclidean norm of every block, as a length-l array."""
        sq = np.add.reduceat(self.coeffs * self.coeffs, self.structure._edges[:-1])
        return np.sqrt(sq)

    def __add__(self, other: "BlockSignal") -> "BlockSignal":
        self._check_same_structure(other)
        return BlockSignal(self.coeffs + other.coeffs, self.structure)

    def __sub__(self, other: "BlockSignal") -> "BlockSignal":
        self._check_same_structure(other)
        return BlockSignal(self.coeffs - other.coeffs, self.structure)

    def __neg__(self) -> "BlockSignal":
        return BlockSignal(-self.coeffs, self.structure)

    def __rmul__(self, scalar: float) -> "BlockSignal":
        return BlockSignal(float(scalar) * self.coeffs, self.structure)

    def _check_same_structure(self, other: "BlockSignal"):
        if self.structure != other.structure:
            raise ValueError("block structures do not match")


@dataclass(frozen=True)
class BlockApproximation:
    """Split of a signal into its `s` largest blocks (head) and the rest (tail).

    head + tail reproduces the original signal exactly; head and tail have
    disjoint block supports.
    """

    head: BlockSignal
    tail: BlockSignal
    s: int
    kept_blocks: frozenset[int] = field(default_factory=frozenset)


def mixed_norm_2_1(x: BlockSignal) -> float:
    """Mixed l2/l1 norm: the sum over blocks of per-block Euclidean norms."""
    return float(x.block_norms().sum())


def _nonzero_blocks(x: BlockSignal) -> np.ndarray:
    # exact bitwise test; squaring in block_norms would underflow denormals
    hits = np.add.reduceat((x.coeffs != 0.0).astype(np.intp), x.structure._edges[:-1])
    return hits > 0


def mixed_norm_2_0(x: BlockSignal) -> int:
    """Number of nonzero blocks (exact zero test on the stored coefficients)."""
    return int(np.count_nonzero(_nonzero_blocks(x)))


def mixed_norm_2_inf(x: BlockSignal) -> float:
    """Largest per-block Euclidean norm, over all blocks of the vector."""
    return float(x.block_norms().max())


def block_support(x: BlockSignal, threshold: float = 0.0) -> frozenset[int]:
    """Indices (0-based) of blocks whose Euclidean norm exceeds `threshold`.

    The default threshold 0 gives the exact support {i : ||x[i]||_2 != 0},
    decided bitwise on the stored coefficients.
    """
    if threshold == 0.0:
        hits = _nonzero_blocks(x)
    else:
        hits = x.block_norms() > threshold
    return frozenset(int(i) for i in np.nonzero(hits)[0])


def best_block_approx(x: BlockSignal, s: int) -> BlockApproximation:
    """Best block-s-term approximation of `x`.

    Keeps the `s` blocks of largest Euclidean norm (ties broken by lowest
    block index) in the head; the tail is the exact remainder.

    Raises
    ------
    ValueError
        If `s` is negative or exceeds the number of blocks.
    """
    s = _checks.count("s", s, 0, x.structure.num_blocks)
    norms = x.block_norms()
    # stable sort on -norm keeps the lowest index first among equal norms
    order = np.argsort(-norms, kind="stable")
    kept = frozenset(int(i) for i in order[:s])
    head = np.zeros_like(x.coeffs)
    tail = np.array(x.coeffs)
    for i in kept:
        sl = x.structure.block_slice(i)
        head[sl] = x.coeffs[sl]
        tail[sl] = 0.0
    return BlockApproximation(
        head=BlockSignal(head, x.structure),
        tail=BlockSignal(tail, x.structure),
        s=s,
        kept_blocks=kept,
    )

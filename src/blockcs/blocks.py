"""Block-structured vectors and matrices: partitions, mixed norms, block
supports, and best block-s-term approximations.

A block structure partitions R^N into l contiguous blocks of lengths
d_1, ..., d_l.  Signals carry a reference to their structure so that all
mixed-norm operations can be expressed per block, and a sensing matrix
carries the structure that partitions its columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import _checks

__all__ = [
    "BlockStructure",
    "BlockSignal",
    "SensingMatrix",
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
        try:
            items = iter(self.block_lengths)
        except TypeError:
            raise ValueError(f"block_lengths must be a sequence of integers >= 1, "
                             f"got {type(self.block_lengths).__name__}") from None
        lengths = tuple(_checks.count(f"block_lengths[{i}]", d, 1) for i, d in enumerate(items))
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

    @cached_property
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
        """Coefficient slice of block `i`, an integer in [0, l - 1]."""
        i = _checks.count("i", i, 0, self.num_blocks - 1)
        e = self._edges
        return slice(int(e[i]), int(e[i + 1]))

    def block_indices(self, blocks) -> np.ndarray:
        """Sorted coefficient indices covered by the given block indices, each an
        integer in [0, l - 1]."""
        e = self._edges
        blocks = [_checks.count(f"blocks[{j}]", i, 0, self.num_blocks - 1) for j, i in enumerate(blocks)]
        parts = [np.arange(e[i], e[i + 1]) for i in sorted(blocks)]
        if not parts:
            return np.array([], dtype=np.intp)
        return np.concatenate(parts)


@dataclass(frozen=True, eq=False)
class BlockSignal:
    """Dense coefficient vector bound to a block structure.

    Immutable: the coefficient array is copied on construction and marked
    read-only, so signals can be shared freely between callers.  Two signals
    are equal when they share a structure and their coefficients are equal;
    signals are not hashable.
    """

    coeffs: np.ndarray
    structure: BlockStructure

    def __post_init__(self):
        structure = _checks.instance("structure", self.structure, BlockStructure)
        coeffs = _checks.array("coeffs", self.coeffs, (structure.total_dim,))
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zeros(cls, structure: BlockStructure) -> "BlockSignal":
        structure = _checks.instance("structure", structure, BlockStructure)
        return cls(np.zeros(structure.total_dim), structure)

    def block(self, i: int) -> np.ndarray:
        """Read-only view of block `i`, an integer in [0, l - 1]."""
        return self.coeffs[self.structure.block_slice(i)]

    def block_norms(self) -> np.ndarray:
        """Euclidean norm of every block, as a length-l array."""
        sq = np.add.reduceat(self.coeffs * self.coeffs, self.structure._edges[:-1])
        return np.sqrt(sq)

    def __eq__(self, other):
        if not isinstance(other, BlockSignal):
            return NotImplemented
        return self.structure == other.structure and np.array_equal(self.coeffs, other.coeffs)

    def __add__(self, other: "BlockSignal") -> "BlockSignal":
        other = _check_signal("other", other, self.structure, "the signal's")
        return BlockSignal(self.coeffs + other.coeffs, self.structure)

    def __sub__(self, other: "BlockSignal") -> "BlockSignal":
        other = _check_signal("other", other, self.structure, "the signal's")
        return BlockSignal(self.coeffs - other.coeffs, self.structure)

    def __neg__(self) -> "BlockSignal":
        return BlockSignal(-self.coeffs, self.structure)

    def __rmul__(self, scalar: float) -> "BlockSignal":
        return BlockSignal(_checks.real("scalar", scalar) * self.coeffs, self.structure)


def _check_signal(name: str, value, structure: BlockStructure | None = None,
                  owner: str = "") -> BlockSignal:
    """`value`, when it is a BlockSignal and, if `structure` is given, lies on
    it; `owner` says whose structure that is ("the matrix's").  Otherwise a
    ValueError names the argument and what it got."""
    if not isinstance(value, BlockSignal):
        got = type(value).__name__
    elif structure is None or value.structure == structure:
        return value
    else:
        got = value.structure
    on = "" if structure is None else f" on {owner} {structure}"
    raise ValueError(f"{name} must be a BlockSignal{on}, got {got}")


@dataclass(frozen=True, eq=False)
class SensingMatrix:
    """Dense M x N real matrix whose columns are partitioned by a block structure;
    equal to a matrix of the same structure and entries, and not hashable.  Its
    squared Frobenius norm must be finite, so that its Gram matrix is."""

    entries: np.ndarray
    structure: BlockStructure

    def __post_init__(self):
        structure = _checks.instance("structure", self.structure, BlockStructure)
        arr = _checks.array("entries", self.entries, (None, structure.total_dim))
        if arr.shape[0] < 1:
            raise ValueError("a sensing matrix needs at least one row")
        _checks.squares("entries", arr)
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def __eq__(self, other):
        if not isinstance(other, SensingMatrix):
            return NotImplemented
        return self.structure == other.structure and np.array_equal(self.entries, other.entries)

    @property
    def num_rows(self) -> int:
        return self.entries.shape[0]

    @property
    def num_cols(self) -> int:
        return self.entries.shape[1]

    def column_block(self, i: int) -> np.ndarray:
        """The M x d_i column-block of block `i`, an integer in [0, l - 1]."""
        return self.entries[:, self.structure.block_slice(i)]


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
    return float(_check_signal("x", x).block_norms().sum())


def _nonzero_blocks(x: BlockSignal) -> np.ndarray:
    # exact bitwise test; squaring in block_norms would underflow denormals
    hits = np.add.reduceat((x.coeffs != 0.0).astype(np.intp), x.structure._edges[:-1])
    return hits > 0


def mixed_norm_2_0(x: BlockSignal) -> int:
    """Number of nonzero blocks (exact zero test on the stored coefficients)."""
    return int(np.count_nonzero(_nonzero_blocks(_check_signal("x", x))))


def mixed_norm_2_inf(x: BlockSignal) -> float:
    """Largest per-block Euclidean norm, over all blocks of the vector."""
    return float(_check_signal("x", x).block_norms().max())


def block_support(x: BlockSignal) -> frozenset[int]:
    """Indices (0-based) of the nonzero blocks, the exact support
    {i : ||x[i]||_2 != 0}, decided bitwise on the stored coefficients."""
    return frozenset(int(i) for i in np.nonzero(_nonzero_blocks(_check_signal("x", x)))[0])


def best_block_approx(x: BlockSignal, s: int) -> BlockApproximation:
    """Best block-s-term approximation of `x`.

    Keeps the `s` blocks of largest Euclidean norm (ties broken by lowest
    block index) in the head; the tail is the exact remainder.

    Raises
    ------
    ValueError
        If `s` is negative or exceeds the number of blocks.
    """
    x = _check_signal("x", x)
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

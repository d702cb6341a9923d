import math
import re

import numpy as np
import pytest

from blockcs import BlockSignal, BlockStructure


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20240811))


def random_structure(rng, max_blocks=8, max_len=4) -> BlockStructure:
    l = int(rng.integers(1, max_blocks + 1))
    lengths = tuple(int(d) for d in rng.integers(1, max_len + 1, size=l))
    return BlockStructure(lengths)


def random_signal(rng, structure) -> BlockSignal:
    return BlockSignal(rng.standard_normal(structure.total_dim), structure)


def random_block_sparse(rng, structure, s) -> BlockSignal:
    coeffs = np.zeros(structure.total_dim)
    support = rng.choice(structure.num_blocks, size=s, replace=False)
    for i in support:
        sl = structure.block_slice(int(i))
        coeffs[sl] = rng.standard_normal(sl.stop - sl.start)
    return BlockSignal(coeffs, structure)


def strip_wall_time(csv_text: str) -> str:
    """Trial CSV text without its last column, wall_time, the only nondeterministic field."""
    lines = (ln if ln.startswith("#") else ln.rsplit(",", 1)[0] for ln in csv_text.splitlines())
    return "\n".join(lines) + "\n"


BAD_COUNTS = (math.nan, math.inf, True, 2.9)
BAD_REALS = (math.nan, math.inf, True)


def bad_arguments(*cases):
    """Parameters (name, call, value) for `rejects_argument`: each case is
    (entry point, argument name, call taking the value, bad values)."""
    return [
        pytest.param(name, call, value, id=f"{entry}-{name}-{value!r}")
        for entry, name, call, values in cases
        for value in values
    ]


def rejects_argument(name: str, value):
    """Expect the package's argument check: a ValueError naming the argument
    and the value it was given."""
    kind = "(an integer|a finite real)"
    return pytest.raises(
        ValueError, match=rf"\b{re.escape(name)} must be {kind}\b.*, got {re.escape(repr(value))}"
    )

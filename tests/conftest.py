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

import math
import re

import numpy as np
import pytest

from blockcs import BlockSignal, BlockStructure, SensingMatrix


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


def owns_its_bytes(a):
    """Whether `a` views no array larger than itself."""
    base = a.base
    while base is not None:
        if base.nbytes != a.nbytes:
            return False
        base = base.base
    return True


@pytest.fixture
def gram_overflow_phi():
    """A 65 x 1 sensing matrix whose Gram matrix Phi^T Phi rounds past the
    largest double although its squared norm is finite; the test is skipped
    where the BLAS sums it without overflow.

    The first entry's square is one ulp below the largest double, and eight
    entries, every eighth, square to 0.45 ulp each.  numpy's pairwise sum adds
    them to the first square one at a time in one accumulator, where each is
    below half an ulp and rounds away; a BLAS dot kernel with wider
    accumulators sums the small squares apart, and their 3.6 ulp tip the
    total to inf.
    """
    big = math.sqrt(np.finfo(float).max)
    while big * big == math.inf:
        big = math.nextafter(big, 0.0)
    col = np.zeros(65)
    col[0], col[8::8] = big, math.sqrt(0.45 * (np.finfo(float).max - big * big))
    phi = SensingMatrix(col[:, None], BlockStructure((1,)))
    with np.errstate(over="ignore"):
        if np.isfinite(phi.entries.T @ phi.entries).all():
            pytest.skip("this BLAS sums the Gram matrix in numpy's order, without overflow")
    return phi


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


def _with_first(a: np.ndarray, value: float) -> np.ndarray:
    out = a.copy()
    out.flat[0] = value
    return out


# (label, bad value made from a valid float array): each one the package's array check refuses
BAD_ARRAYS = (
    ("ragged", lambda a: [*a.tolist(), []]),
    ("strings", lambda a: a.astype(str).tolist()),
    ("bools", lambda a: (a != 0).tolist()),
    ("complex", lambda a: a + 1j),
    ("object", lambda a: a.astype(object)),
    ("nan", lambda a: _with_first(a, math.nan)),
    ("inf", lambda a: _with_first(a, math.inf)),
    ("wrong_shape", lambda a: a[..., None]),
)


def bad_arrays(*cases):
    """Parameters (name, call, value) for `rejects_array`: each case is
    (entry point, argument name, call taking the value, a valid nonempty value),
    and each valid value is spoilt in every way BAD_ARRAYS lists."""
    return [
        pytest.param(name, call, spoil(np.asarray(good, dtype=float)), id=f"{entry}-{name}-{label}")
        for entry, name, call, good in cases
        for label, spoil in BAD_ARRAYS
    ]


def rejects_array(name: str):
    """Expect the package's array check: a ValueError naming the argument."""
    return pytest.raises(ValueError, match=rf"\b{re.escape(name)} must be a finite real array of shape\b")

"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator whose output is identical across platforms and runs for a fixed
key.  Independent streams (e.g. one per experiment trial) are derived by
mixing the experiment seed with the trial indices through splitmix64, so
parallel and serial execution see the same per-trial streams.
"""

from __future__ import annotations

import math

import numpy as np

from . import _checks

__all__ = ["stream_key", "generator"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, *indices: int) -> int:
    """64-bit mix of a base seed and stream indices (documented, stable): each an
    integer of any size, taken modulo 2**64."""
    key = _splitmix64(_checks.count("seed", seed, -math.inf) & _MASK64)
    for n, ix in enumerate(indices):
        key = _splitmix64(key ^ ((_checks.count(f"indices[{n}]", ix, -math.inf) & _MASK64)
                                 * _GOLDEN & _MASK64))
    return key


def generator(seed: int, *indices: int) -> np.random.Generator:
    """Philox generator for the stream identified by (seed, *indices)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *indices)))

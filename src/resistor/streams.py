"""Named deterministic random streams.

Every random draw in the library comes from a Philox (counter-based)
generator keyed by (seed, purpose, index), so independent components
never share a stream and any run replays exactly. A seed must be an
integer: a fractional one would otherwise be truncated to another
seed's draws.
"""

from __future__ import annotations

import operator
import zlib

import numpy as np


def as_integer(value, name: str) -> int:
    """value as an int: an integer (numpy's included) passes; a bool, a NaN
    or any other float raises a TypeError that names the argument."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _sequence(seed: int, purpose: str, index: int) -> np.random.SeedSequence:
    if index < 0:
        raise ValueError("stream index must be non-negative")
    key = (zlib.crc32(purpose.encode("ascii")), int(index))
    return np.random.SeedSequence(entropy=as_integer(seed, "seed"), spawn_key=key)


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, purpose, index); same key, same draws."""
    return np.random.Generator(np.random.Philox(_sequence(seed, purpose, index)))


def child_seed(seed: int, purpose: str, index: int = 0) -> int:
    """A derived 64-bit seed for handing to a sub-component."""
    return int(_sequence(seed, purpose, index).generate_state(1, np.uint64)[0])

"""Named deterministic random streams.

Every random draw in the library comes from a Philox (counter-based)
generator keyed by (seed, purpose, index), so independent components
never share a stream and any run replays exactly. A seed must be an
integer: a fractional one would otherwise be truncated to another
seed's draws.
"""

from __future__ import annotations

import math
import operator
import sys
import zlib

import numpy as np

FLOAT_MAX = sys.float_info.max


def refusal(name: str, requirement: str, value) -> str:
    """The message "<name> must <requirement>, got <repr(value)>". Past
    Python's int-to-text digit limit an integer is shown by its digit
    count, any other value (a Fraction) by its type."""
    try:
        shown = repr(value)
    except ValueError:  # the digit limit
        shown = f"a {type(value).__name__} too long to print"
        if isinstance(value, int):
            n = int((abs(value).bit_length() - 1) * math.log10(2)) + 1  # n or n + 1 digits
            shown = f"an integer of {n + (abs(value) >= 10**n)} digits"
    return f"{name} must {requirement}, got {shown}"


def as_integer(value, name: str) -> int:
    """value as an int: an integer (numpy's included) passes; a bool, a NaN
    or any other float raises a TypeError that names the argument."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not a bool")
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(refusal(name, "be an integer", value)) from None


def as_count(value, name: str) -> int:
    """value as a count: an integer (see as_integer) of at least 1, else an
    error that names the argument. An audit or sweep over nothing would
    pass on no evidence, and an estimate from no sample has no value."""
    count = as_integer(value, name)
    if count < 1:
        raise ValueError(refusal(name, "be at least 1", count))
    return count


def as_seed(value) -> int:
    """value as a seed: an integer (see as_integer) of at least 0, else an
    error that names the seed."""
    seed = as_integer(value, "seed")
    if seed < 0:
        raise ValueError(refusal("seed", "be non-negative", seed))
    return seed


def _sequence(seed: int, purpose: str, index: int) -> np.random.SeedSequence:
    if index < 0:
        raise ValueError("stream index must be non-negative")
    key = (zlib.crc32(purpose.encode("ascii")), int(index))
    return np.random.SeedSequence(entropy=as_seed(seed), spawn_key=key)


def stream(seed: int, purpose: str, index: int = 0) -> np.random.Generator:
    """Generator keyed by (seed, purpose, index); same key, same draws."""
    return np.random.Generator(np.random.Philox(_sequence(seed, purpose, index)))


def child_seed(seed: int, purpose: str, index: int = 0) -> int:
    """A derived 64-bit seed for handing to a sub-component."""
    return int(_sequence(seed, purpose, index).generate_state(1, np.uint64)[0])

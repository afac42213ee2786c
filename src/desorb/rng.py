"""Counter-based random streams, bitwise reproducible.

Each logical consumer derives its own Philox stream from the triple
(global seed, purpose tag, index) (Salmon et al., SC'11). The Monte Carlo
ensemble keys one stream per fixed block of trajectories, so a drawn
number depends on the seed, the tag and the block alone.
"""

from __future__ import annotations

import zlib
from numbers import Integral

import numpy as np


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (seed, tag, index). The seed is
    taken modulo 2**64, so every integer names a stream; a bool or a
    number of no integer type (1.5, and 1.0 too) is refused, rather than
    truncated to another seed's stream."""
    for name, value in (("seed", seed), ("index", index)):
        if isinstance(value, bool) or not isinstance(value, Integral):
            raise ValueError(f"stream {name} must be an integer, "
                             f"got {value!r}")
    ss = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(zlib.crc32(tag.encode("utf-8")), int(index)),
    )
    return np.random.Generator(np.random.Philox(ss))

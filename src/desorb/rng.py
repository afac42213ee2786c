"""Counter-based random streams, bitwise reproducible.

Each logical consumer derives its own Philox stream from the triple
(global seed, purpose tag, index) (Salmon et al., SC'11). The Monte Carlo
ensemble keys one stream per fixed block of trajectories, so a drawn
number depends on the seed, the tag and the block alone.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    """Independent generator keyed by (seed, tag, index)."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & 0xFFFFFFFFFFFFFFFF,
        spawn_key=(zlib.crc32(tag.encode("utf-8")), int(index)),
    )
    return np.random.Generator(np.random.Philox(ss))

"""Machine-speed calibration for the benchmark's timings.

The CPU speed this benchmark sees drifts by 20-40% over seconds to
minutes, because other tenants share the machine's cores (CPU time
tracks wall time, so this is not descheduling). Each timed command is
therefore bracketed by a fixed calibration kernel, run just before and
just after it, and reported as

    command wall time x REFERENCE_S[kind] / mean(calibration before, after)

that is, in seconds at the machine speed at which the kernel takes
REFERENCE_S. The kernels use numpy only, never desorb, so a change to
desorb cannot move them. There are two kinds, because the two kinds of
work slow down differently under contention:

- "python" (for `simulate`): an interpreter loop, small-array numpy
  calls, and cos over a 3 MB vector; it is dominated by interpreter and
  call overhead, like event sampling and kick accumulation;
- "vector" (for `locmap` and `tensors`): short Monte Carlo steps, then
  cos, sin and reductions over a 4 MB array, like the Filon kernel and
  table interpolation.

In 8 windows of 20 s, normalizing by the matching kernel narrowed the
spread of window medians from about 0.3 to 0.02 (IQR over median) for a
2048-trajectory ensemble, and from 0.2 to 0.07 for an unchecked
localization rate.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Typical kernel times on a 2-core Xeon VM at 2.0 GHz; they only fix the
# unit in which normalized times are reported.
REFERENCE_S = {"python": 0.16, "vector": 0.055}

_SMALL_A = np.ones((4, 3))
_SMALL_B = np.arange(12.0).reshape(4, 3)
_LONG = np.random.default_rng(0).random(400_000)
_GRID = np.linspace(0.0, 1.0, 16)
_BLOCK = np.random.default_rng(1).random((64, 41, 193))


def _python_kernel() -> None:
    x = 0
    for i in range(100_000):
        x += (i * i) % 7
    for _ in range(2500):
        np.cross(_SMALL_A, _SMALL_B).sum()
    for _ in range(4):
        np.cos(_LONG * 1.1).sum()


def _vector_kernel() -> None:
    rng = np.random.Generator(np.random.Philox(1))
    for _ in range(150):
        n = rng.poisson(12)
        t = np.sort(rng.uniform(0.0, 1.0, n))
        d = rng.standard_normal((n, 3))
        s = rng.standard_normal((n, 3))
        np.cumsum(np.cross(s, d), axis=0)
        np.searchsorted(t, _GRID)
    for _ in range(2):
        x = _BLOCK * 1.0001
        (np.cos(x) * _BLOCK).sum(axis=-1)
        (np.sin(x) * _BLOCK).sum(axis=-1)


_KERNELS = {"python": _python_kernel, "vector": _vector_kernel}


def calibrate(kind: str) -> float:
    """Wall time [s] of one run of the kind's kernel."""
    t0 = perf_counter()
    _KERNELS[kind]()
    return perf_counter() - t0

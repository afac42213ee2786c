"""Quadrature building blocks: 1D Gauss rules, per-axis frames,
Filon-type weights for int f(mu) chi(a mu) dmu with an oscillatory
kernel chi known through its panel moments, and the shared tools for
piecewise-linear data (tables and tabulated spectra): a per-segment
Gauss rule and the exact inverse CDF of a density that is linear on a
segment; and a constant-time exact search of a sorted CDF (GuideTable).
"""

from __future__ import annotations

import numpy as np

from .errors import BlockTooLarge


def check_order(name: str, n: int, bound: int, checked: bool = False) -> None:
    """Refuse (BlockTooLarge) an order n past bound at its finest level,
    which is 2n under a 2x check."""
    top = bound // 2 if checked else bound
    if n > top:
        why = ", as its 2x check doubles it" if checked else ""
        raise BlockTooLarge(f"{name} must be <= {top}{why}")


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def segment_rule(grid: np.ndarray, n_nodes: int, refined: bool = False):
    """Per-segment GL nodes and weights on a table grid, at least 3 per
    segment: exact for the piecewise-linear interpolant times quadratics.
    The refined rule of a 2x check is that of 2 n_nodes with at least 4
    per segment, so it is finer than the rule of n_nodes on every grid."""
    pts = max(3 + refined,
              (1 + refined) * n_nodes // max(len(grid) - 1, 1) + 2)
    x, w = np.polynomial.legendre.leggauss(pts)
    half = 0.5 * np.diff(grid)[:, None]
    return (grid[:-1, None] + half * (x + 1.0)).ravel(), (half * w).ravel()


def linear_draw(v0, v1, u):
    """Inverse CDF of the density proportional to (1 - t) v0 + t v1 on
    [0, 1], at the uniform variates u (v0, v1 >= 0; uniform if both are 0).

    The root u (v0 + v1) / (v0 + sqrt((1 - u) v0^2 + u v1^2)) of the
    quadratic CDF adds only non-negative terms, so it keeps full precision
    however small v1 - v0 is.
    """
    den = v0 + np.sqrt((1.0 - u) * v0**2 + u * v1**2)
    t = np.divide(u * (v0 + v1), den, out=np.array(u, dtype=float),
                  where=den > 0)
    return np.minimum(t, 1.0)


def frames(axes: np.ndarray):
    """Unit vectors (e1, e2) completing each row of axes (n, 3) to a
    right-handed orthonormal frame."""
    helper = np.where(np.abs(axes[:, :1]) > 0.9,
                      np.array([[0.0, 1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
    e1 = np.cross(axes, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(axes, e1)
    return e1, e2


class GuideTable:
    """min(searchsorted(cdf, u, "right"), n - 1) for a sorted CDF of n
    values and u in [0, 1), by the guide table of Chen & Asau (1974)
    (Devroye, Non-Uniform Random Variate Generation, 1986, III.2).

    Bucket j holds the u in [j / b, (j + 1) / b), with b a power of two
    of about 4 n, so j = floor(u b) is exact. guide[j] counts the first
    n - 1 CDF values <= j / b, and u's answer lies in [guide[j],
    guide[j + 1]]. A branchless bisection of as many steps as the widest
    bucket's bit length finds it there. Past the first n - 1 values the
    CDF is padded with infinities, so no step reads past them and no
    answer passes n - 1.
    """

    def __init__(self, cdf: np.ndarray):
        edges = cdf[:-1]
        self.scale = float(1 << (4 * len(cdf) - 1).bit_length())
        self.guide = np.searchsorted(
            edges, np.arange(int(self.scale) + 1) / self.scale, side="right")
        bits = int(np.max(np.diff(self.guide))).bit_length()
        self.steps = [1 << s for s in reversed(range(bits))]
        self.padded = np.concatenate([edges, np.full(1 << bits, np.inf)])

    def search(self, u: np.ndarray) -> np.ndarray:
        pos = self.guide[(u * self.scale).astype(np.intp)]
        for h in self.steps:
            above = self.padded[h - 1:][pos] <= u
            pos += above if h == 1 else h * above
        return pos


# ---------------------------------------------------------------------------
# Filon-type product integration of int f(mu) chi(a mu) dmu on [-1, 1]
# ---------------------------------------------------------------------------

#: panels narrower than this in the kernel's argument use series_moments
SERIES_TAU = 0.05
SERIES_TERMS = 8

#: the one memory budget of the Filon weights and of a table's energy
#: blocks: most values a temporary array holds (2**16 doubles are 0.5 MB;
#: larger blocks bought little time for more peak memory)
_BLOCK = 1 << 16


def filon_grid(n_panels: int):
    """Uniform grid with 2*n_panels + 1 points on [-1, 1] for filon_moments."""
    return np.linspace(-1.0, 1.0, 2 * int(n_panels) + 1)


def series_moments(tau, derivs):
    """Small-tau panel moments from the Taylor series of the kernel.

    derivs[k] is chi^(k)(t) / i^k at the panel centre. Returns M (3, ...)
    with M[l] = sum_k derivs[k] (i tau)^k / k! int_{-1}^{1} s^(l+k) ds,
    the l-th moment of chi(t + tau s) over s in [-1, 1].
    """
    z = 1j * np.asarray(tau, dtype=float)
    out = [0.0, 0.0, 0.0]
    term = np.ones_like(z)
    for k, d in enumerate(derivs):
        for m in range(k % 2, 3, 2):   # int s^(m+k) ds vanishes for odd m+k
            out[m] = out[m] + (2.0 / (m + k + 1)) * term * d
        term = term * z / (k + 1)
    return np.stack(np.broadcast_arrays(*out))


def phase_moments(t, tau):
    """Panel moments of the pure phase chi(t) = exp(i t).

    Returns M (3, ...) complex with M[l] = int_{-1}^{1} s^l
    exp(i (t + tau s)) ds for l = 0, 1, 2, broadcast over t and tau.
    Below tau = 0.05 the Taylor series replaces the closed form, whose
    terms cancel there (Filon's small-theta branch); at tau = 0 the
    moments are exactly (2, 0, 2/3) exp(i t).
    """
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    small = np.abs(tau) < SERIES_TAU
    phase = np.exp(1j * t)
    tl = np.where(small, 1.0, tau)
    s, c = np.sin(tl), np.cos(tl)
    direct = np.stack(np.broadcast_arrays(
        2.0 * s / tl, 2j * (s - tl * c) / tl**2,
        2.0 * ((tl * tl - 2.0) * s + 2.0 * tl * c) / tl**3)) * phase
    if not np.any(small):
        return direct
    series = series_moments(np.where(small, tau, 0.0), [phase] * SERIES_TERMS)
    return np.where(small, series, direct)


class PanelKernel:
    """An oscillatory kernel chi for filon_moments, known through its panel
    moments M[l] = int_{-1}^{1} s^l chi(t + tau s) ds, l = 0, 1, 2.
    Calling it gives M, shape (3,) + the broadcast shape of t and tau.

    at_centres(t, tau) gives the moments from the panel centre t and
    half-width tau. A subclass may take the panels where edged(tau) holds
    (which must then hold for every wider panel too) from its values at
    the panel edges instead: from_edges(edges(t - tau), edges(t + tau),
    tau), with the leading axis of edges(x) its own. Nested Filon levels
    then share those values (filon_moments). This class takes every panel
    at its centre.
    """

    def __init__(self, at_centres):
        self.at_centres = at_centres

    def edged(self, tau):
        return np.zeros(np.shape(tau), dtype=bool)

    def __call__(self, t, tau):
        t, tau = np.asarray(t, dtype=float), np.asarray(tau, dtype=float)
        wide = np.broadcast_to(self.edged(tau),
                               np.broadcast_shapes(t.shape, tau.shape))
        if not wide.any():
            return self.at_centres(t, tau)
        if wide.all():
            return self.from_edges(self.edges(t - tau), self.edges(t + tau),
                                   tau)
        t, tau = np.broadcast_arrays(t, tau)
        out = np.empty((3,) + t.shape, dtype=complex)
        out[:, wide] = self(t[wide], tau[wide])
        out[:, ~wide] = self(t[~wide], tau[~wide])
        return out


def _panel_centres(n: int):
    return -1.0 + (1.0 / n) * (2.0 * np.arange(n) + 1.0)


def _filon_weights(m, n: int):
    """Weights on filon_grid(n) from the panel moments m (3, ..., n)."""
    h = 1.0 / n
    m0, m1, m2 = m
    w = np.zeros(m0.shape[:-1] + (2 * n + 1,), dtype=complex)
    w[..., 0:-1:2] += 0.5 * h * (m2 - m1)
    w[..., 1::2] += h * (m0 - m2)
    w[..., 2::2] += 0.5 * h * (m2 + m1)
    return w


def filon_moments(n_panels, scale, kernel):
    """Filon weights W with W @ f = int_{-1}^{1} f(mu) chi(scale mu) dmu.

    f is taken as its panel-wise quadratic interpolant on
    filon_grid(n_panels), so the rule is exact for quadratic f at any
    scale. kernel(t, tau) gives int_{-1}^{1} s^l chi(t + tau s) ds
    (leading axis l = 0, 1, 2) at panel centres t and half-width tau.
    scale may be an array; W has shape scale.shape + (2 n_panels + 1,),
    complex. With chi(0) = 1, scale 0 gives composite Simpson exactly.

    n_panels may instead list the panel counts of nested levels, coarse
    to fine, each dividing the next. kernel is then a PanelKernel, scale
    1D, and the result is [(W, static)] per level, static the rule at
    scale 0. A scale's edge values are evaluated once, at the panel edges
    of the finest level whose panels take them; a coarser level reads
    every (n_fine / n)-th of them. The scales are taken in blocks of
    _BLOCK // ((SERIES_TERMS + 3) n_fine) rows, so no temporary holds
    more than about _BLOCK values (the largest is a thermal kernel's
    series stack of SERIES_TERMS + 3 values per fine panel) and only the
    weights grow with the number of scales. Every kernel value is
    elementwise in the scale, so a scale's weights do not depend on its
    block or on the other scales.
    """
    if np.ndim(n_panels) == 0:
        n = int(n_panels)
        if n < 1:
            raise ValueError("filon grid needs at least one panel")
        scale = np.asarray(scale, dtype=float)[..., None]
        return _filon_weights(kernel(scale * _panel_centres(n),
                                     scale * (1.0 / n)), n)
    levels = [int(n) for n in n_panels]
    if min(levels) < 1 or any(b % a for a, b in zip(levels, levels[1:])):
        raise ValueError("filon levels need panels, each count dividing "
                         "the next")
    scale = np.asarray(scale, dtype=float)
    weights = [np.empty((scale.size, 2 * n + 1), dtype=complex)
               for n in levels]
    rows = max(1, _BLOCK // ((SERIES_TERMS + 3) * levels[-1]))
    for lo in range(0, scale.size, rows):
        block = scale[lo:lo + rows]
        for w, m, n in zip(weights, _level_moments(levels, block, kernel),
                           levels):
            w[lo:lo + rows] = _filon_weights(m, n)
    return [(w, filon_moments(n, 0.0, kernel))
            for w, n in zip(weights, levels)]


def _level_moments(levels, scale, kernel):
    """Panel moments (3, scale.size, n) of each level n of levels."""
    wide = np.array([kernel.edged(scale * (1.0 / n)) for n in levels])
    moments = []
    for n, edged in zip(levels, wide):
        m = np.empty((3, scale.size, n), dtype=complex)
        s = scale[~edged, None]
        if s.size:
            m[:, ~edged] = kernel.at_centres(s * _panel_centres(n),
                                             s * (1.0 / n))
        moments.append(m)
    # a coarser panel is wider, so a scale's edged levels are the coarsest
    # ones: its edges come from the finest of them
    finest = np.sum(wide, axis=0) - 1
    for g, n in enumerate(levels):
        rows = np.flatnonzero(finest == g)
        if not rows.size:
            continue
        edges = kernel.edges(scale[rows, None] * np.linspace(-1.0, 1.0, n + 1))
        for j in range(g + 1):
            e = edges[..., ::n // levels[j]]
            moments[j][:, rows] = kernel.from_edges(
                e[..., :-1], e[..., 1:], scale[rows, None] * (1.0 / levels[j]))
    return moments

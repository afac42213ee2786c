"""Quadrature building blocks: product rules on the sphere, 1D Gauss
rules, and a Filon integrator for oscillatory cosine/sine moments.

The spherical product rules pair Gauss-Legendre nodes in cos(theta)
with a uniform periodic grid in phi. They are the workhorse for
hemisphere integrals with the emission cutoff factored in analytically
(the cutoff kink would otherwise spoil Lebedev's polynomial exactness).
"""

from __future__ import annotations

import numpy as np


def gauss_legendre(n: int, a: float = -1.0, b: float = 1.0):
    """Gauss-Legendre nodes and weights mapped to [a, b]."""
    x, w = np.polynomial.legendre.leggauss(int(n))
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def orthonormal_frame(axis: np.ndarray):
    """Two unit vectors completing `axis` to a right-handed orthonormal frame."""
    axis = np.asarray(axis, dtype=float)
    a = axis / np.linalg.norm(axis)
    helper = np.array([1.0, 0.0, 0.0])
    if abs(a[0]) > 0.9:
        helper = np.array([0.0, 1.0, 0.0])
    e1 = np.cross(a, helper)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    return e1, e2


def sphere_product_rule(n_polar: int, n_azimuth: int, axis=None,
                        mu_min: float = -1.0, mu_max: float = 1.0):
    """Product rule on the sphere: GL in mu = n.axis times uniform phi.

    Returns nodes (n,3) and solid-angle weights (n,) summing to
    2*pi*(mu_max - mu_min). With the default full mu range this is a
    full-sphere rule; with mu_min = 0 a hemisphere rule about `axis`.
    """
    mu, wmu = gauss_legendre(n_polar, mu_min, mu_max)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    wphi = 2.0 * np.pi / n_azimuth
    if axis is None:
        axis = np.array([0.0, 0.0, 1.0])
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    e1, e2 = orthonormal_frame(axis)
    s = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    nodes = (mu[:, None, None] * axis
             + s[:, None, None] * (np.cos(phi)[None, :, None] * e1
                                   + np.sin(phi)[None, :, None] * e2))
    weights = np.broadcast_to((wmu * wphi)[:, None], (len(mu), n_azimuth))
    return nodes.reshape(-1, 3), weights.reshape(-1).copy()


# ---------------------------------------------------------------------------
# Filon quadrature for int f(x) cos(k x) dx and int f(x) sin(k x) dx
# ---------------------------------------------------------------------------

def filon_grid(n_panels: int, a: float = -1.0, b: float = 1.0):
    """Uniform grid with 2*n_panels + 1 points on [a, b] for filon_moments."""
    return np.linspace(a, b, 2 * int(n_panels) + 1)


def _filon_coefficients(theta):
    """Classic Filon alpha/beta/gamma; series branch keeps theta -> 0 exact
    (alpha = 0, beta = 2/3, gamma = 4/3, i.e. composite Simpson)."""
    t = np.asarray(theta, dtype=float)
    t2 = t * t
    small = np.abs(t) < 0.05
    ts = np.where(small, t, 1.0)  # safe series argument
    ts2 = ts * ts
    a_ser = ts * ts2 * (2.0 / 45.0 - ts2 * (2.0 / 315.0 - ts2 * (2.0 / 4725.0)))
    b_ser = 2.0 / 3.0 + ts2 * (2.0 / 15.0 - ts2 * (4.0 / 105.0 - ts2 * (2.0 / 567.0)))
    g_ser = 4.0 / 3.0 - ts2 * (2.0 / 15.0 - ts2 * (1.0 / 210.0 - ts2 * (1.0 / 11340.0)))
    tl = np.where(small, 1.0, t)  # safe large argument (avoid /0)
    s, c = np.sin(tl), np.cos(tl)
    t3 = tl * tl * tl
    a_dir = (tl * tl + tl * s * c - 2.0 * s * s) / t3
    b_dir = 2.0 * (tl * (1.0 + c * c) - 2.0 * s * c) / t3
    g_dir = 4.0 * (s - tl * c) / t3
    return (np.where(small, a_ser, a_dir), np.where(small, b_ser, b_dir),
            np.where(small, g_ser, g_dir))


def filon_moments(x: np.ndarray, f: np.ndarray, k):
    """(int f cos(kx) dx, int f sin(kx) dx) on the uniform grid x.

    x must come from filon_grid (odd length, uniform). f is sampled along
    the last axis; k may be an array, in which case f's leading axes and
    k's shape broadcast (k axes are appended after f's batch axes).
    Exact for quadratic f at any k; at k = 0 this reduces to composite
    Simpson, so differences of moments computed on the same grid samples
    cancel exactly.
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    k = np.asarray(k, dtype=float)
    n = x.shape[-1]
    if n < 3 or n % 2 == 0:
        raise ValueError("filon grid needs an odd number of points >= 3")
    h = (x[-1] - x[0]) / (n - 1)
    alpha, beta, gamma = _filon_coefficients(k * h)
    kx = k[..., None] * x
    ck, sk = np.cos(kx), np.sin(kx)
    fe = f[..., ::2]      # even-index samples (panel edges)
    fo = f[..., 1::2]     # odd-index samples (panel midpoints)
    ce, se = ck[..., ::2], sk[..., ::2]
    co, so = ck[..., 1::2], sk[..., 1::2]

    c_even = (np.sum(fe * ce, axis=-1)
              - 0.5 * (fe[..., 0] * ce[..., 0] + fe[..., -1] * ce[..., -1]))
    s_even = (np.sum(fe * se, axis=-1)
              - 0.5 * (fe[..., 0] * se[..., 0] + fe[..., -1] * se[..., -1]))
    c_odd = np.sum(fo * co, axis=-1)
    s_odd = np.sum(fo * so, axis=-1)

    cos_int = h * (alpha * (f[..., -1] * sk[..., -1] - f[..., 0] * sk[..., 0])
                   + beta * c_even + gamma * c_odd)
    sin_int = h * (alpha * (f[..., 0] * ck[..., 0] - f[..., -1] * ck[..., -1])
                   + beta * s_even + gamma * s_odd)
    return cos_int, sin_int

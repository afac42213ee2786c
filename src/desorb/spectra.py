"""Emission energy spectra: normalized densities, exact momentum moments
(j1, j2) = (<p>, <p^2>), characteristic-function panel moments, samplers.

The default thermal model is the effusive Maxwell-Boltzmann flux
spectrum, density proportional to E * exp(-E / kB T), the standard
Knudsen description of atoms leaving a surface at internal temperature T.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

import numpy as np

from .constants import KB
from .errors import NegativeEnergy, NonFinite
from .quadrules import (SERIES_TAU, SERIES_TERMS, PanelKernel, linear_draw,
                        phase_moments, segment_rule, series_moments)

# J_n(t) switches from the J_0 recurrence to its asymptotic series
# at |t| = _ASYMPTOTIC_T: the recurrence loses about t^(n-1) eps there,
# and the first omitted series term is below 1e-13 relative for n <= 10.
_ASYMPTOTIC_T = 20.0
_ASYMPTOTIC_TERMS = 24
_ASYMPTOTIC_COEFFS = np.array([[factorial(n + 2 * m) / factorial(m)
                                for m in range(_ASYMPTOTIC_TERMS)]
                               for n in range(3 + SERIES_TERMS)])
# Dawson's integral by Rybicki's sampling sum (step _DAWSON_H, the odd
# n = 1, 3, .., 27 of _DAWSON_N) and, below _DAWSON_SERIES, its Taylor
# series D(x) = sum_k (-2)^k x^(2k+1) / (2k+1)!!, k = 0..9.
_DAWSON_H = 0.25
_DAWSON_N = 2.0 * np.arange(14) + 1.0
_DAWSON_C = np.exp(-(_DAWSON_H * _DAWSON_N) ** 2)
_DAWSON_SERIES = 0.2
_DAWSON_TAYLOR = np.cumprod([1.0] + [-2.0 / (2 * k + 3) for k in range(9)])


@dataclass(frozen=True)
class Monoenergetic:
    """All atoms leave with the same kinetic energy [J]."""

    energy: float

    def __post_init__(self):
        if not np.isfinite(self.energy):
            raise NonFinite("monoenergetic line energy must be finite")
        if self.energy < 0:
            raise NegativeEnergy("monoenergetic line energy must be >= 0")

    def density(self, e):
        raise ValueError("monoenergetic spectrum has no pointwise density; "
                         "use its momentum_moments or kernel")

    def momentum_moments(self, m_atom: float):
        """(j1, j2) = (int sigma p dE, int sigma p^2 dE) = (p, p^2)."""
        p = np.sqrt(2.0 * m_atom * self.energy)
        return float(p), float(p * p)

    def kernel(self, m_atom: float) -> PanelKernel:
        """The panel moments int_{-1}^{1} s^l <exp(i p (t + tau s))> ds,
        l = 0, 1, 2, averaged over the spectrum, p = sqrt(2 m E), as a
        PanelKernel in t and tau per unit momentum: the pure phase at the
        line's momentum here."""
        p = np.sqrt(2.0 * m_atom * self.energy)
        return PanelKernel(lambda t, tau: phase_moments(p * t, p * tau))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.energy)


@dataclass(frozen=True)
class MaxwellBoltzmannFlux:
    """Effusive flux spectrum, density E * exp(-E/kB T) / (kB T)^2."""

    temperature: float

    def __post_init__(self):
        if not np.isfinite(self.temperature):
            raise NonFinite("temperature must be finite")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def kt(self) -> float:
        return KB * self.temperature

    def density(self, e):
        e = np.asarray(e, dtype=float)
        return np.where(e >= 0.0, e * np.exp(-e / self.kt) / self.kt**2, 0.0)

    def momentum_moments(self, m_atom: float):
        """(j1, j2) = (sqrt(2 m kB T) Gamma(5/2), 4 m kB T)."""
        return (np.sqrt(2.0 * m_atom * self.kt) * 0.75 * np.sqrt(np.pi),
                4.0 * m_atom * self.kt)

    def kernel(self, m_atom: float) -> PanelKernel:
        """The spectral average as a PanelKernel (see Monoenergetic.kernel),
        which takes wide panels from edge values."""
        return _ThermalKernel(np.sqrt(2.0 * m_atom * self.kt))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Gamma(2) in units of kB T: sum of two exponentials
        return self.kt * (rng.standard_exponential(size)
                          + rng.standard_exponential(size))


@dataclass(frozen=True)
class TabulatedSpectrum:
    """Piecewise-linear density on an energy grid, normalized at init."""

    energies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or e.shape != v.shape or len(e) < 2:
            raise ValueError("need matching 1D energy and value grids (>= 2 points)")
        if not (np.all(np.isfinite(e)) and np.all(np.isfinite(v))):
            raise NonFinite("tabulated energies and densities must be finite")
        if np.any(np.diff(e) <= 0):
            raise ValueError("energy grid must be strictly increasing")
        if np.any(e < 0):
            raise NegativeEnergy("tabulated energies must be >= 0")
        if np.any(v < 0) or np.all(v == 0):
            raise ValueError("tabulated density must be >= 0 and not all zero")
        with np.errstate(all="ignore"):    # refused below
            norm = np.trapezoid(v, e)
            v = v / norm
            slope = np.diff(v) / np.diff(e)
        if not (np.isfinite(norm) and norm > 0 and np.all(np.isfinite(v))):
            raise ValueError("tabulated density must have a finite, positive "
                             "normalization with finite normalized values")
        # np.interp's slopes, which density and its moments read
        if not np.all(np.isfinite(slope)):
            raise ValueError("tabulated density must have finite slopes "
                             "diff(values) / diff(energies) once normalized")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", v)

    def density(self, e):
        return np.interp(e, self.energies, self.values, left=0.0, right=0.0)

    def momentum_moments(self, m_atom: float):
        """(j1, j2) by 3-point Gauss-Legendre per segment in x = sqrt(E):
        exact, as p^k sigma dE = (2m)^(k/2) x^k (a + b x^2) 2x dx."""
        x, w = segment_rule(np.sqrt(self.energies), 0)
        w = 2.0 * x * w * self.density(x * x)
        p = np.sqrt(2.0 * m_atom) * x
        return float(w @ p), float(w @ (p * p))

    def kernel(self, m_atom: float) -> PanelKernel:
        """The spectral average as a PanelKernel (see Monoenergetic.kernel):
        pure phases summed over a 3-point Gauss rule per segment in E."""
        e, w = segment_rule(self.energies, 0)
        w = w * self.density(e)
        p = np.sqrt(2.0 * m_atom * e)
        return PanelKernel(lambda t, tau: sum(
            wk * phase_moments(pk * t, pk * tau) for pk, wk in zip(p, w)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        e = self.energies
        v = self.values
        seg_mass = 0.5 * (v[:-1] + v[1:]) * np.diff(e)
        cdf = np.concatenate([[0.0], np.cumsum(seg_mass)])
        cdf /= cdf[-1]
        u = rng.random(size)
        seg = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(seg_mass) - 1)
        u_loc = (u - cdf[seg]) / (cdf[seg + 1] - cdf[seg])
        return e[seg] + linear_draw(v[seg], v[seg + 1], u_loc) * np.diff(e)[seg]


Spectrum = Monoenergetic | MaxwellBoltzmannFlux | TabulatedSpectrum


class _ThermalKernel(PanelKernel):
    """The Maxwell-Boltzmann average as a PanelKernel in t per unit
    momentum. In x = p t, p = sqrt(2 m kB T), it is the closed form
    chi(x) = 2 J_3(x), and chi^(k) = 2 i^k J_(3+k); since
    d/dx J_n = i J_(n+1), the moments over a panel are differences of the
    antiderivatives -i J_2, -i u J_2 + J_1 and
    -i u^2 J_2 + 2 u J_1 + 2 i J_0 (u = x - centre) between its edges,
    so a wide panel reads J_0..J_2 there and nothing else. Narrow panels
    take series_moments instead, as those differences cancel there."""

    def __init__(self, p: float):
        self.p = p

    def edged(self, tau):
        return np.abs(self.p * tau) >= SERIES_TAU

    def edges(self, x):
        return _gauss_fourier(self.p * x, 2)

    def from_edges(self, left, right, tau):
        (j0l, j1l, j2l), (j0r, j1r, j2r) = left, right
        u = self.p * tau
        d2, s1 = j2r - j2l, j1r + j1l
        return 2.0 * np.stack([
            -1j * d2 / u,
            (-1j * u * (j2r + j2l) + (j1r - j1l)) / u**2,
            (-1j * u * u * d2 + 2.0 * u * s1 + 2j * (j0r - j0l)) / u**3])

    def at_centres(self, t, tau):
        derivs = 2.0 * _gauss_fourier(self.p * t, 2 + SERIES_TERMS)[3:]
        return series_moments(self.p * tau, derivs)


def _dawson(x):
    """Dawson's integral D(x) = exp(-x^2) int_0^x exp(y^2) dy, real x.

    Rybicki's sum (Computers in Physics 3 (1989) 85): with n0 the even
    integer nearest x / h and x' = x - n0 h, D(x) is
    exp(-x'^2) / sqrt(pi) times the sum over odd n = +-1, +-3, .. of
    exp(-(n h)^2) exp(2 x' n h) / (n0 + n); its error is about
    exp(-(pi / 2h)^2) < 1e-17.
    Near 0 the +-n terms cancel, so |x| < _DAWSON_SERIES takes the series.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < _DAWSON_SERIES
    xs = x[small]
    out[small] = xs * np.polyval(_DAWSON_TAYLOR[::-1], xs * xs)
    if np.all(small):
        return out
    x = x[~small]
    ax = np.abs(x)
    n0 = 2.0 * np.rint(0.5 / _DAWSON_H * ax)
    xp = ax - _DAWSON_H * n0
    en = np.exp(2.0 * _DAWSON_H * xp)
    e2 = en * en
    total = np.zeros_like(ax)
    for c, n in zip(_DAWSON_C, _DAWSON_N):
        total += c * (en / (n0 + n) + 1.0 / (en * (n0 - n)))
        en *= e2
    out[~small] = np.copysign(np.exp(-xp * xp) / np.sqrt(np.pi) * total, x)
    return out


def _gauss_fourier(t, n_max: int):
    """J_n(t) = int_0^inf x^n exp(-x^2 + i t x) dx for n = 0..n_max.

    Returns (n_max + 1, ...) complex. Below _ASYMPTOTIC_T:
    J_0 = sqrt(pi)/2 exp(-x^2) + i D(x), x = t/2, with Dawson's integral
    D (this is sqrt(pi)/2 w(x), w the Faddeeva function on the real
    line), then J_(n+1) = (delta_n0 + n J_(n-1) + i t J_n) / 2. Above it the
    asymptotic series J_n ~ (i/t)^(n+1) sum_m (n+2m)!/m! t^(-2m), summed
    in u = 1/t^2 by Horner's rule, elementwise (no matrix product, so no
    BLAS call); the exp(-t^2/4) terms it omits are below 1e-30 there.
    """
    t = np.asarray(t, dtype=float)
    out = np.empty((n_max + 1,) + t.shape, dtype=complex)
    far = np.abs(t) >= _ASYMPTOTIC_T
    near = t[~far]
    x = 0.5 * near
    j = [0.5 * np.sqrt(np.pi) * np.exp(-x * x) + 1j * _dawson(x)]
    j.append(0.5 + 0.5j * near * j[0])
    for n in range(1, n_max):
        j.append(0.5 * (n * j[n - 1] + 1j * near * j[n]))
    out[:, ~far] = np.stack(j[:n_max + 1])
    tf = t[far]
    if tf.size:
        # past |t| = 1.3e154, t * t is inf and u is 0: each J_n keeps its
        # leading term, which is then 0 or below 1e-154 anyway
        with np.errstate(over="ignore"):
            u = 1.0 / (tf * tf)
        coeffs = _ASYMPTOTIC_COEFFS[:n_max + 1, :, None]
        sums = np.repeat(coeffs[:, -1], tf.size, axis=1)
        for c in coeffs[:, -2::-1].transpose(1, 0, 2):
            sums *= u
            sums += c
        z = 1j / tf
        z_n = z
        for n in range(n_max + 1):
            out[n, far] = z_n * sums[n]
            z_n = z_n * z
    return out


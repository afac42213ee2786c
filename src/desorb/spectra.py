"""Emission energy spectra: normalized densities, quadrature rules, samplers.

The default thermal model is the effusive Maxwell-Boltzmann flux
spectrum, density proportional to E * exp(-E / kB T), the standard
Knudsen description of atoms leaving a surface at internal temperature T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import KB
from .errors import NegativeEnergy, NonFinite
from .quadrules import gauss_legendre

#: thermal spectra are integrated on [0, ENERGY_CUTOFF_KT * kB T]
ENERGY_CUTOFF_KT = 30.0
DEFAULT_ENERGY_NODES = 40


@dataclass(frozen=True)
class Monoenergetic:
    """All atoms leave with the same kinetic energy [J]."""

    energy: float

    def __post_init__(self):
        if self.energy < 0:
            raise NegativeEnergy("monoenergetic line energy must be >= 0")

    def density(self, e):
        raise ValueError("monoenergetic spectrum has no pointwise density; "
                         "use its energy_rule")

    def energy_rule(self, n_nodes: int = DEFAULT_ENERGY_NODES):
        """Degenerate rule realizing the delta line: one node, weight 1."""
        return np.array([self.energy]), np.array([1.0])

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.energy
        return np.full(size, self.energy)


@dataclass(frozen=True)
class MaxwellBoltzmannFlux:
    """Effusive flux spectrum, density E * exp(-E/kB T) / (kB T)^2."""

    temperature: float

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")

    @property
    def kt(self) -> float:
        return KB * self.temperature

    def density(self, e):
        e = np.asarray(e, dtype=float)
        return np.where(e >= 0.0, e * np.exp(-e / self.kt) / self.kt**2, 0.0)

    def energy_rule(self, n_nodes: int = DEFAULT_ENERGY_NODES):
        """Gauss-Legendre rule on E in [0, cutoff] with the density folded
        into the weights, taken in the variable x = sqrt(E / kB T) so that
        momentum moments p(E)^k = (2 m kB T)^(k/2) x^k stay polynomial
        (sigma dE = 2 x^3 exp(-x^2) dx)."""
        x, w = gauss_legendre(n_nodes, 0.0, np.sqrt(ENERGY_CUTOFF_KT))
        return self.kt * x * x, w * 2.0 * x**3 * np.exp(-x * x)

    def sample(self, rng: np.random.Generator, size=None):
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
        norm = np.trapezoid(v, e)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", v / norm)

    def density(self, e):
        return np.interp(e, self.energies, self.values, left=0.0, right=0.0)

    def energy_rule(self, n_nodes: int = DEFAULT_ENERGY_NODES):
        """Per-segment 3-point GL (exact for the interpolant times quadratics)."""
        nodes, weights = [], []
        x, w = np.polynomial.legendre.leggauss(3)
        for a, b in zip(self.energies[:-1], self.energies[1:]):
            half = 0.5 * (b - a)
            e = a + half * (x + 1.0)
            nodes.append(e)
            weights.append(half * w * self.density(e))
        return np.concatenate(nodes), np.concatenate(weights)

    def sample(self, rng: np.random.Generator, size=None):
        scalar = size is None
        n = 1 if scalar else int(np.prod(size))
        e = self.energies
        v = self.values
        seg_mass = 0.5 * (v[:-1] + v[1:]) * np.diff(e)
        cdf = np.concatenate([[0.0], np.cumsum(seg_mass)])
        cdf /= cdf[-1]
        u = rng.random(n)
        seg = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, len(seg_mass) - 1)
        # invert the linear-density CDF within the segment
        u_loc = (u - cdf[seg]) / (cdf[seg + 1] - cdf[seg])
        v0, v1 = v[seg], v[seg + 1]
        de = np.diff(e)[seg]
        slope = v1 - v0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.where(
                np.abs(slope) > 1e-300,
                (np.sqrt(v0**2 + u_loc * slope * (v0 + v1)) - v0) / slope,
                u_loc,
            )
        out = e[seg] + np.clip(t, 0.0, 1.0) * de
        if scalar:
            return float(out[0])
        return out.reshape(size)


Spectrum = Monoenergetic | MaxwellBoltzmannFlux | TabulatedSpectrum


def spectral_moment(spectrum, fn, n_nodes: int = DEFAULT_ENERGY_NODES) -> float:
    """Integral of density(E) * fn(E) over the spectrum's energy rule."""
    e, w = spectrum.energy_rule(n_nodes)
    return float(np.sum(w * fn(e)))

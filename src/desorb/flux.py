"""Spectral particle flux density models Phi(n, s, E) in the body frame.

Phi gives the rate of outgoing atoms per solid angle, per emitting
surface element, per energy interval. It is the sole physical input of
the desorption master equation; every observable in this package is a
functional of it.

Every consumer reads a model through one protocol: `split(model, q)`
turns it into Emitters, a set of points s_i, each with an axis a_i, an
area weight A_i and a rate prefactor r_i, an axial law f(mu) in
mu = n . a_i, and a spectrum sigma(E):

    point i emits  A_i r_i f(n . a_i) sigma(E)  atoms per s, sr and J.

CosineLaw and Isotropic emit from the surface nodes about the outward
normals, with the node areas and r_i = rate_per_area(s_i). SingleSite is
one point of unit area at its site, with its own axis and rate. The
laws are COSINE (cos/pi on mu > 0), HEMISPHERE (1/4pi on mu > 0) and
SPHERE (1/4pi on all of [-1, 1]); FixedDirection is the one delta, all
atoms along the axis. Each law carries its moments int f mu^k dmu
(k = 0, 1, 2) in closed form. TabulatedFlux is the one model that does not
separate: its per-node table over (mu, E) stands in for law and
spectrum; it is sampled exactly, without rejection: a cell by its
mass, then mu from the cell's marginal and E given mu, each by inverting
a density that is linear on the cell. A site carries a surface delta,
so pointwise evaluation is only defined at its point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Union

import numpy as np

from .constants import KB
from .errors import ConfigError, NonFinite, NotUnit
from .geometry import SurfaceQuadrature
from .quadrules import frames, linear_draw
from .spectra import Spectrum

RateField = Union[float, Callable[[np.ndarray], np.ndarray]]

_UNIT_TOL = 1e-9


def _check_unit(n: np.ndarray) -> np.ndarray:
    n = np.asarray(n, dtype=float)
    norm = np.linalg.norm(n, axis=-1)
    if np.any(np.abs(norm - 1.0) > _UNIT_TOL):
        raise NotUnit("direction must be a unit vector within 1e-9")
    return n


def _rates_at(rate_per_area: RateField, points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(points)
    if callable(rate_per_area):
        r = np.asarray(rate_per_area(points), dtype=float)
        r = np.broadcast_to(r, (len(points),)).astype(float)
    else:
        r = np.full(len(points), float(rate_per_area))
    if not np.all(np.isfinite(r)):
        raise NonFinite("rate_per_area gives NaN or infinity on the surface")
    if np.any(r < 0):
        raise ValueError("rate_per_area must be nonnegative")
    return r


# ---------------------------------------------------------------------------
# Axial laws
# ---------------------------------------------------------------------------

def _edge_cos(a, b, knot):
    """cos phi0 of the arc |phi| < phi0 where a + b cos phi > knot (b >= 0),
    clipped to [-1, 1]; at b = 0 it is -1 (whole ring) for a > knot, else 1."""
    x = np.where(b > 0.0, (knot - a) / np.where(b > 0.0, b, 1.0),
                 np.where(a > knot, -1.0, 1.0))
    return np.clip(x, -1.0, 1.0)


class AxialLaw:
    """Emission density f(mu) per steradian about an emitter's axis,
    mu = n . axis.

    `integral` is the solid-angle integral 2 pi int f dmu, the share of
    the rate prefactor that is emitted; `moments` holds the exact
    t_k = int f(mu) mu^k dmu over [-1, 1], k = 0, 1, 2 (shape (3, 1));
    `mu_of` maps uniform variates on [0, 1) to draws of mu. `linear`
    holds (alpha, beta, half): f = alpha + beta mu on mu > 0 if half,
    else on all of [-1, 1], and 0 elsewhere.
    """

    delta = False

    def __init__(self, integral: float, moments, density, mu_of, linear):
        self.integral = integral
        self.moments = np.array(moments, dtype=float)[:, None]
        self._density = density
        self._mu_of = mu_of
        self._linear = linear

    def density(self, mu):
        return self._density(np.asarray(mu, dtype=float))

    def edge(self, a, b):
        """(phi0, sin phi0) of ring a + b cos phi, b >= 0: the law emits on
        |phi| < phi0, phi0 = arccos(-a / b) clipped to [0, pi], or pi
        where f covers the whole sphere. At b = 0, phi0 is pi for a > 0
        and 0 otherwise, as in the strict mu > 0."""
        if not self._linear[2]:
            return np.full(np.broadcast(a, b).shape, np.pi), 0.0
        x = _edge_cos(a, b, 0.0)
        return np.arccos(x), np.sqrt((1.0 - x) * (1.0 + x))

    def ring(self, a, b, edge=None):
        """int_0^2pi f(a + b cos phi) dphi for b >= 0, in closed form:
        2 [alpha phi0 + beta (a phi0 + b sin phi0)] with (phi0, sin phi0)
        the edge, which a caller that has it passes in."""
        alpha, beta, _ = self._linear
        phi0, sin0 = self.edge(a, b) if edge is None else edge
        return 2.0 * (alpha * phi0 + beta * (a * phi0 + b * sin0))

    def arc(self, a, b, lo, hi):
        """int_lo^hi f(a + b cos phi) dphi for -phi0 <= lo <= hi <= phi0:
        alpha (hi - lo) + beta (a (hi - lo) + b (sin hi - sin lo))."""
        alpha, beta, _ = self._linear
        return (alpha * (hi - lo)
                + beta * (a * (hi - lo) + b * (np.sin(hi) - np.sin(lo))))

    def inside(self, c):
        """f on its support, continued to the edge: alpha + beta c, with
        c clipped to mu >= 0 for a half-space law. Both sides of a step
        edge see the emitting value."""
        alpha, beta, half = self._linear
        return alpha + beta * (np.maximum(c, 0.0) if half else c)

    def directions(self, axes: np.ndarray, rng: np.random.Generator):
        """One direction per row of axes: mu from the law, then phi."""
        return _directions_about(axes, self._mu_of(rng.random(len(axes))), rng)


class _Delta(AxialLaw):
    """Every atom leaves along the axis: f = delta(1 - mu) / (2 pi)."""

    delta = True

    def __init__(self):
        super().__init__(1.0, np.full(3, 0.5 / np.pi), None, None, None)

    def density(self, mu):
        raise ValueError("fixed-direction site has no pointwise angular density")

    def directions(self, axes: np.ndarray, rng: np.random.Generator):
        return axes


COSINE = AxialLaw(1.0, np.array([1 / 2, 1 / 3, 1 / 4]) / np.pi,
                  lambda mu: np.maximum(mu, 0.0) / np.pi, np.sqrt,
                  (0.0, 1.0 / np.pi, True))
HEMISPHERE = AxialLaw(0.5, np.array([1 / 4, 1 / 8, 1 / 12]) / np.pi,
                      lambda mu: np.where(mu > 0.0, 1.0 / (4.0 * np.pi), 0.0),
                      lambda u: u, (1.0 / (4.0 * np.pi), 0.0, True))
SPHERE = AxialLaw(1.0, np.array([1 / 2, 0.0, 1 / 6]) / np.pi,
                  lambda mu: np.full_like(mu, 1.0 / (4.0 * np.pi)),
                  lambda u: 2.0 * u - 1.0, (1.0 / (4.0 * np.pi), 0.0, False))
DELTA = _Delta()


@dataclass(frozen=True)
class Emitters:
    """A flux model split into emitting points (see the module docstring).

    A table has no law or spectrum; its rates are the nodes' emission
    per area, and `table` holds the density over (mu, E).
    """

    points: np.ndarray      # (n, 3) [m]
    axes: np.ndarray        # (n, 3) unit
    areas: np.ndarray       # (n,) [m^2]; 1 for a site
    rates: np.ndarray       # (n,) prefactor of law x spectrum per area
    law: Optional[AxialLaw] = None
    spectrum: Optional[Spectrum] = None
    table: Optional[TabulatedFlux] = None

    @property
    def weights(self) -> np.ndarray:
        """areas x rates [1/s]."""
        return self.areas * self.rates

    @property
    def node_rates(self) -> np.ndarray:
        """Emission rate of each point [1/s]: weight x law integral."""
        return self.weights * (1.0 if self.law is None else self.law.integral)

    @property
    def radius(self) -> float:
        """Largest distance of a point from the centre of mass [m]."""
        return float(np.max(np.linalg.norm(self.points, axis=1)))


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SurfaceFlux:
    """Emission from every surface node about its outward normal, with the
    subclass's law and the rate prefactor rate_per_area(s)."""

    spectrum: Spectrum
    rate_per_area: RateField

    def emitters(self, points, normals, areas) -> Emitters:
        return Emitters(points, normals, areas,
                        _rates_at(self.rate_per_area, points), self.law,
                        self.spectrum)


@dataclass(frozen=True)
class CosineLaw(_SurfaceFlux):
    """Knudsen cosine emission: Phi = r(s) (n.n_s) Theta(n.n_s) sigma(E) / pi.

    The 1/pi makes the hemisphere integral of the angular factor unity,
    so rate_per_area is literally outgoing atoms per area per second.
    """

    law = COSINE


@dataclass(frozen=True)
class Isotropic(_SurfaceFlux):
    """Direction-independent emission restricted to the outward hemisphere:
    Phi = r(s) Theta(n.n_s) sigma(E) / (4 pi). Half the 4pi-normalized
    rate escapes, so the per-node emission rate is r(s) * area / 2."""

    law = HEMISPHERE


@dataclass(frozen=True)
class IsotropicDirection:
    """Uniform emission over the full sphere (for point sites)."""

    law = SPHERE

    @property
    def axis(self) -> np.ndarray:
        return np.array([0.0, 0.0, 1.0])


@dataclass(frozen=True)
class FixedDirection:
    """All atoms leave along one body-frame direction."""

    direction: np.ndarray

    law = DELTA

    def __post_init__(self):
        d = _check_unit(self.direction)
        object.__setattr__(self, "direction", d / np.linalg.norm(d))

    @property
    def axis(self) -> np.ndarray:
        return self.direction


@dataclass(frozen=True)
class CosineDirection:
    """Cosine law about a fixed body-frame axis."""

    axis: np.ndarray

    law = COSINE

    def __post_init__(self):
        a = _check_unit(self.axis)
        object.__setattr__(self, "axis", a / np.linalg.norm(a))


DirectionLaw = Union[IsotropicDirection, FixedDirection, CosineDirection]


@dataclass(frozen=True)
class SingleSite:
    """One explicit emission site s0 with total rate [1/s].

    The site need not lie on the surface quadrature; the surface integral
    collapses onto it. Pointwise flux evaluation is defined only at s0
    (delta character in s) and only for non-delta direction laws.
    """

    site: np.ndarray
    direction: DirectionLaw
    spectrum: Spectrum
    rate: float

    def __post_init__(self):
        object.__setattr__(self, "site", np.asarray(self.site, dtype=float))
        if self.rate <= 0:
            raise ValueError("site emission rate must be positive")

    def emitters(self, points, normals, areas) -> Emitters:
        return Emitters(self.site[None], self.direction.axis[None], np.ones(1),
                        np.array([float(self.rate)]), self.direction.law,
                        self.spectrum)
@dataclass(frozen=True)
class TabulatedFlux:
    """Per-node tables of Phi over (cos_theta, E) with bilinear interpolation.

    values[i, j, k] is Phi at node i, cos_theta[j], energy[k], in
    1/(sr m^2 s J). Zero extrapolation outside the grids. The angular
    dependence enters through cos_theta = n . n_s only.
    """

    cos_grid: np.ndarray
    energy_grid: np.ndarray
    values: np.ndarray  # (n_nodes, n_cos, n_energy)

    def __post_init__(self):
        c = np.asarray(self.cos_grid, dtype=float)
        e = np.asarray(self.energy_grid, dtype=float)
        v = np.ascontiguousarray(self.values, dtype=float)
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(e))
                and np.all(np.isfinite(v))):
            raise NonFinite("flux table grids and values must be finite")
        if np.any(np.diff(c) <= 0) or np.any(np.diff(e) <= 0):
            raise ValueError("tabulation grids must be strictly increasing")
        if c[0] < -1.0 - 1e-12 or c[-1] > 1.0 + 1e-12:
            raise ValueError("cos_theta grid must lie in [-1, 1]")
        if v.ndim != 3 or v.shape[1:] != (len(c), len(e)):
            raise ValueError("values must have shape (n_nodes, n_cos, n_energy)")
        if np.any(v < 0):
            raise ValueError("flux table must be nonnegative")
        for name, arr in (("cos_grid", c), ("energy_grid", e), ("values", v)):
            object.__setattr__(self, name, arr)

    def interp(self, mu, e, node_idx):
        """Bilinear interpolation, zero outside the grid (vectorized)."""
        # each axis is located before broadcasting, so a scalar energy is
        # searched once, not once per cosine
        mu = np.asarray(mu, dtype=float)
        e = np.asarray(e, dtype=float)
        c, eg = self.cos_grid, self.energy_grid
        ic = np.clip(np.searchsorted(c, mu) - 1, 0, len(c) - 2)
        ie = np.clip(np.searchsorted(eg, e) - 1, 0, len(eg) - 2)
        tc = (mu - c[ic]) / (c[ic + 1] - c[ic])
        te = (e - eg[ie]) / (eg[ie + 1] - eg[ie])
        inside = ((mu >= c[0]) & (mu <= c[-1])
                  & (e >= eg[0]) & (e <= eg[-1]))
        tc = np.clip(tc, 0.0, 1.0)
        te = np.clip(te, 0.0, 1.0)
        # one flat index per point; the four corners are offsets from it
        n_c, n_e = self.values.shape[1:]
        v = self.values.ravel()
        at = (np.asarray(node_idx) * n_c + ic) * n_e + ie
        f00, f01 = v[at], v[at + 1]
        f10, f11 = v[at + n_e], v[at + n_e + 1]
        out = ((1 - tc) * (1 - te) * f00 + (1 - tc) * te * f01
               + tc * (1 - te) * f10 + tc * te * f11)
        return np.where(inside, out, 0.0)

    @cached_property
    def knot(self) -> float:
        """cos at and below which every node's table is zero at every
        energy (-inf if the table emits down to cos = -1): the edge of
        the arc a ring integral covers."""
        c = self.cos_grid
        rows = np.flatnonzero(np.any(self.values, axis=(0, 2)))
        first = rows[0] if len(rows) else len(c)
        if first > 0:
            return float(c[first - 1])
        return float(c[0]) if c[0] > -1.0 else -np.inf

    def at(self, e, nodes) -> "_TableProfile":
        """The table at energy e on the nodes, read on rings the way an
        AxialLaw is (edge, ring, arc, inside); nodes broadcasts against
        every argument."""
        return _TableProfile(self, e, nodes)

    def arc(self, a, b, lo, hi, e, node_idx):
        """int_lo^hi interp(a + b cos phi, e, node) dphi for b >= 0 and
        -pi <= lo <= hi <= pi, in closed form.

        In cos the interpolant at one node and energy is a step of v_0 at
        the first grid point g_0, a ramp whose slope changes by r_j at each
        grid point g_j, and a step down of v_K past the last, so it is
        sum_j s_j [c > g_j] + r_j (c - g_j)_+; each term integrates over
        the part |phi| < phi_j of [lo, hi] where c > g_j. node_idx
        broadcasts against a.
        """
        g = self.cos_grid
        v = self.interp(g, e, np.asarray(node_idx)[..., None])
        r = np.diff(np.diff(v, axis=-1) / np.diff(g), axis=-1,
                    prepend=0.0, append=0.0)
        s = np.zeros_like(v)
        s[..., 0] = v[..., 0]
        s[..., -1] -= v[..., -1]
        a, b, lo, hi = (np.asarray(x, dtype=float)[..., None]
                        for x in (a, b, lo, hi))
        phi0 = np.arccos(_edge_cos(a, b, g))
        left = np.maximum(lo, -phi0)
        right = np.maximum(np.minimum(hi, phi0), left)
        width = right - left
        terms = s * width + r * ((a - g) * width
                                 + b * (np.sin(right) - np.sin(left)))
        return terms.sum(axis=-1)

    def node_spectral_rate(self, node_idx=None):
        """2 pi * integral over (mu, E) per node: rate per area [1/(m^2 s)].

        Exact for the bilinear interpolant (per-cell product trapezoid).
        """
        v = self.values if node_idx is None else self.values[node_idx]
        wc = _trapezoid_weights(self.cos_grid)
        we = _trapezoid_weights(self.energy_grid)
        return 2.0 * np.pi * np.einsum("...jk,j,k->...", v, wc, we)

    def emitters(self, points, normals, areas) -> Emitters:
        return Emitters(points, normals, areas, self.node_spectral_rate(),
                        table=self)


@dataclass(frozen=True)
class _TableProfile:
    """TabulatedFlux.at: one energy's profile, read on rings as a law is;
    it is 0 outside the edge |phi| < phi0, where a + b cos phi > knot."""

    flux: TabulatedFlux
    e: float
    nodes: np.ndarray

    def edge(self, a, b):
        return np.arccos(_edge_cos(a, b, self.flux.knot)), None

    def ring(self, a, b, edge=None):
        return self.arc(a, b, -np.pi, np.pi)

    def arc(self, a, b, lo, hi):
        return self.flux.arc(a, b, lo, hi, self.e, self.nodes)

    def inside(self, c):
        return self.flux.interp(np.maximum(c, self.flux.knot), self.e,
                                self.nodes)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


FluxModel = Union[CosineLaw, Isotropic, SingleSite, TabulatedFlux]


def split(model: FluxModel, q: SurfaceQuadrature) -> Emitters:
    """The emitters of a model on the surface q: the one protocol that
    moments, decoherence and EventSampler read."""
    em = model.emitters(q.points, q.normals, q.weights)
    if em.table is not None and len(em.table.values) != q.n_nodes:
        raise ConfigError(f"tabulated flux has {len(em.table.values)} nodes, "
                          f"the surface quadrature {q.n_nodes}")
    return em


def flux_eval(model: FluxModel, n: np.ndarray, s: np.ndarray,
              n_s: np.ndarray, energy: float) -> float:
    """Pointwise spectral flux density Phi(n, s, E) [1/(sr m^2 s J)]:
    weight x law density x spectral density at the surface point s with
    outward normal n_s.

    For SingleSite models the value is the angular-spectral density at
    the registered site (the surface delta is not included); anywhere
    else it is zero.
    """
    n = _check_unit(n)
    if energy < 0:
        raise ValueError("energy must be >= 0")
    s = np.asarray(s, dtype=float)
    em = model.emitters(s[None], np.asarray(n_s, dtype=float)[None], np.ones(1))
    if em.table is not None:
        raise ValueError("tabulated flux is evaluated per node; use "
                         "TabulatedFlux.interp")
    at = em.points[0]
    if not np.allclose(s, at, rtol=0.0,
                       atol=1e-12 + 1e-9 * np.linalg.norm(at)):
        return 0.0
    return float(em.weights[0] * em.law.density(n @ em.axes[0])
                 * em.spectrum.density(energy))


def node_emission_rates(model: FluxModel, q: SurfaceQuadrature) -> np.ndarray:
    """Total emission rate per emitting point [1/s] (area weight included)."""
    return split(model, q).node_rates


def total_rate(model: FluxModel, q: SurfaceQuadrature) -> float:
    """Total atom emission rate [1/s], integrated over E, surface, and angle."""
    return float(np.sum(node_emission_rates(model, q)))


def outgas_rate(specific_rate: float, area: float, gas_temperature: float,
                torr_l_per_cm2_s: bool = False) -> float:
    """Particle emission rate [1/s] from an empirical specific outgassing rate.

    specific_rate is a throughput per area, Pa m^3/(s m^2) by default or
    Torr l/(cm^2 s) with the flag set; the ideal-gas relation N = pV/(kB T)
    converts throughput to particle number rate.
    """
    if specific_rate <= 0 or area <= 0 or gas_temperature <= 0:
        raise ValueError("specific rate, area, and temperature must be positive")
    if torr_l_per_cm2_s:
        from .constants import TORR_L_PER_CM2_S
        specific_rate = specific_rate * TORR_L_PER_CM2_S
    return specific_rate * area / (KB * gas_temperature)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _directions_about(axis: np.ndarray, mu: np.ndarray, rng: np.random.Generator):
    """Directions at polar cosines mu about per-row axes (n, 3), with a
    uniform azimuth drawn per row."""
    phi = 2.0 * np.pi * rng.random(len(mu))
    e1, e2 = frames(axis)
    sin_t = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    return (mu[:, None] * axis
            + sin_t[:, None] * (np.cos(phi)[:, None] * e1
                                + np.sin(phi)[:, None] * e2))


@dataclass(frozen=True)
class EmissionSample:
    """One batch of emission events: directions, sites, energies, node ids."""

    directions: np.ndarray  # (n, 3) body frame
    sites: np.ndarray       # (n, 3) [m]
    energies: np.ndarray    # (n,) [J]
    node_index: np.ndarray  # (n,) int; index of the emitting point, 0 for a site


class EventSampler:
    """Reusable sampler of a model's emitters, with the per-point emission
    CDF precomputed."""

    def __init__(self, model: FluxModel, q: SurfaceQuadrature):
        self.emitters = em = split(model, q)
        lam = em.node_rates
        self.total = float(lam.sum())
        if self.total <= 0:
            raise ValueError("flux model has zero total rate on this surface")
        self._cdf = np.cumsum(lam) / self.total
        if em.table is not None:
            self._cells = _TableCells(em.table)

    def draw(self, rng: np.random.Generator, size: int) -> EmissionSample:
        """Draw a batch of `size` events. The stream is read for the point
        indices (not for a single point), then mu and phi, then the
        energies; a table draws its (mu, E) before phi."""
        em = self.emitters
        if len(self._cdf) == 1:
            idx = np.zeros(size, dtype=np.intp)
        else:
            idx = np.searchsorted(self._cdf, rng.random(size), side="right")
            idx = np.clip(idx, 0, len(self._cdf) - 1)
        axes = em.axes[idx]
        if em.table is None:
            dirs = em.law.directions(axes, rng)
            energies = em.spectrum.sample(rng, size)
        else:
            mu, energies = _sample_table(em.table, self._cells, idx, rng)
            dirs = _directions_about(axes, mu, rng)
        return EmissionSample(dirs, em.points[idx], energies, idx)


class _TableCells:
    """Per-node cell masses of a bilinear table, as one row-offset CDF.

    Row i of `cdf` holds i + CDF_i over the node's cells, so a single
    searchsorted of i + u finds the cell of an event at node i. `last`
    is each node's last cell with positive mass: rounding of i + u near
    the row end can never pick an empty cell past it.
    """

    def __init__(self, model: TabulatedFlux):
        v = model.values
        cell_mean = 0.25 * (v[:, :-1, :-1] + v[:, 1:, :-1]
                            + v[:, :-1, 1:] + v[:, 1:, 1:])
        masses = (cell_mean * np.diff(model.cos_grid)[None, :, None]
                  * np.diff(model.energy_grid)[None, None, :])
        self.shape = masses.shape[1:]
        flat = masses.reshape(len(v), -1)
        self.n_cells = flat.shape[1]
        cdf = np.cumsum(flat, axis=1)
        total = cdf[:, -1:]
        # nodes without emission are never drawn; keep their rows monotone
        cdf = np.divide(cdf, total, out=np.ones_like(cdf), where=total > 0)
        self.cdf = (cdf + np.arange(len(v))[:, None]).ravel()
        live = flat > 0
        self.last = self.n_cells - 1 - np.argmax(live[:, ::-1], axis=1)

    def draw(self, node_idx: np.ndarray, u: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.cdf, node_idx + u, side="right")
        return np.minimum(pos - node_idx * self.n_cells, self.last[node_idx])


def _sample_table(model: TabulatedFlux, cells: _TableCells,
                  node_idx: np.ndarray, rng: np.random.Generator):
    """Sample (mu, E) from the bilinear table of each event's node.

    The cell is drawn by its exact mass. Within it, mu is drawn from the
    cell's marginal, which is linear in mu, and then E from the density
    at that mu, which is linear in E: two inversions, exact for the
    interpolant and without rejection.
    """
    c, eg, v = model.cos_grid, model.energy_grid, model.values
    n = len(node_idx)
    ic, ie = np.unravel_index(cells.draw(node_idx, rng.random(n)), cells.shape)
    f00, f01 = v[node_idx, ic, ie], v[node_idx, ic, ie + 1]
    f10, f11 = v[node_idx, ic + 1, ie], v[node_idx, ic + 1, ie + 1]
    t = linear_draw(f00 + f01, f10 + f11, rng.random(n))
    s = linear_draw((1.0 - t) * f00 + t * f10, (1.0 - t) * f01 + t * f11,
                    rng.random(n))
    return c[ic] + t * np.diff(c)[ic], eg[ie] + s * np.diff(eg)[ie]


def read_flux_csv(path, q: SurfaceQuadrature) -> TabulatedFlux:
    """Tabulated flux input.

    Columns: either node_index or s_x,s_y,s_z to identify the node, plus
    cos_theta, E_joule, value. All listed nodes must share the same
    (cos_theta, E) grid; unlisted nodes emit nothing. A point listed
    twice takes the value of its later row.
    """
    import csv
    import warnings

    base = ("cos_theta", "E_joule", "value")
    with open(path, "r", encoding="ascii", newline="") as fh:
        header = next(csv.reader(fh), [])
        column = {name: col for col, name in enumerate(header)}
        if {"node_index", *base} <= column.keys():
            ids = ("node_index",)
        elif {"s_x", "s_y", "s_z", *base} <= column.keys():
            ids = ("s_x", "s_y", "s_z")
        else:
            raise ValueError("flux CSV needs node_index or s_x,s_y,s_z plus "
                             "cos_theta, E_joule, value columns")
        names = ids + base
        dtype = [(n, np.int64 if n == "node_index" else float) for n in names]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # header-only file
            rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None,
                              usecols=[column[n] for n in names], ndmin=1)
    if rows.size == 0:
        raise ValueError("flux CSV is empty")
    if ids == ("node_index",):
        node = rows["node_index"]
        bad = (node < 0) | (node >= q.n_nodes)
        if np.any(bad):
            raise ValueError(f"flux CSV node_index {node[np.argmax(bad)]} "
                             "out of range")
    else:
        node = _nearest_nodes(q.points, np.column_stack([rows[n] for n in ids]))
    cos_grid, ci = np.unique(rows["cos_theta"], return_inverse=True)
    e_grid, ei = np.unique(rows["E_joule"], return_inverse=True)
    values = np.zeros((q.n_nodes, len(cos_grid), len(e_grid)))
    flat = np.ravel_multi_index((node, ci, ei), values.shape)
    # first occurrence in the reversed rows = last row of each point
    cells, last = np.unique(flat[::-1], return_index=True)
    values.flat[cells] = rows["value"][::-1][last]
    per_node = len(cos_grid) * len(e_grid)
    seen = np.bincount(cells // per_node, minlength=q.n_nodes)
    short = (seen > 0) & (seen < per_node)
    if np.any(short):
        raise ValueError(f"flux CSV node {np.argmax(short)} does not cover "
                         "the full (cos_theta, E) grid")
    return TabulatedFlux(cos_grid, e_grid, values)


def _nearest_nodes(points: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Index of the node nearest to each row of pos, in chunks of rows."""
    out = np.empty(len(pos), dtype=np.int64)
    step = max(1, 2**18 // len(points))
    for a in range(0, len(pos), step):
        d = np.linalg.norm(points[None, :, :] - pos[a:a + step, None, :], axis=2)
        out[a:a + step] = np.argmin(d, axis=1)
    return out

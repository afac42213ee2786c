"""Emission amplitudes for general outgassing.

The amplitude of emission A+(n, s, E) is the far-field coefficient of
the retarded Green function of the escaping atom,

    A+(n, s, E) = - lim_{r->inf} r exp(-i p r / hbar) G+(r n, s, E),

the emission analogue of a scattering amplitude. Jump magnitudes follow
by normalizing |A|^2 over the emission sphere and scaling with the site
rate; the transparent emitter (no interaction after release) reduces to
a pure orbital-recoil phase with constant modulus m/(2 pi hbar^2).

User-supplied amplitudes must be reentrant and satisfy the outgoing
(Sommerfeld) radiation condition; neither is verified here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constants import HBAR
from .errors import CoincidentPoints, ZeroNorm
from .flux import IsotropicDirection, SingleSite
from .lebedev import lebedev_rule
from .rotations import Pose, momentum_from_energy

AmplitudeFn = Callable[[np.ndarray, np.ndarray, float], np.ndarray]
_DEFAULT_LEBEDEV = 434


def transparent_amplitude(n: np.ndarray, s: np.ndarray, energy: float,
                          m_atom: float) -> complex:
    """A0+ for a transparent emitter at reference orientation.

    Constant modulus m/(2 pi hbar^2); the phase -p n.s/hbar is the
    orbital recoil imprinted by emission from the off-center site.
    """
    n = np.asarray(n, dtype=float)
    s = np.asarray(s, dtype=float)
    p = momentum_from_energy(energy, m_atom)
    mod = m_atom / (2.0 * np.pi * HBAR**2)
    phase = -p * (n @ s if n.ndim == 1 else np.einsum("...a,a->...", n, s)) / HBAR
    return mod * np.exp(1j * phase)


def free_green(r: np.ndarray, s: np.ndarray, energy: float,
               m_atom: float) -> complex:
    """Retarded free-space Green function G0+(r, s; E) of the atom."""
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    sep = np.linalg.norm(r - s)
    if sep == 0.0:
        raise CoincidentPoints("Green function diverges at r = s")
    p = momentum_from_energy(energy, m_atom)
    return (-(2.0 * m_atom / HBAR**2) / (4.0 * np.pi)
            * np.exp(1j * p * sep / HBAR) / sep)


def radial_amplitude_extraction(n: np.ndarray, s: np.ndarray, energy: float,
                                m_atom: float, r: float,
                                green=free_green) -> complex:
    """-r exp(-i p r/hbar) G+(r n, s, E): converges to A+ as r grows."""
    n = np.asarray(n, dtype=float)
    p = momentum_from_energy(energy, m_atom)
    return -r * np.exp(-1j * p * r / HBAR) * green(r * n, s, energy, m_atom)


@dataclass(frozen=True)
class SourceSpec:
    """Discrete emission sites: positions s [m], energies [J], rates [1/s]."""

    sites: np.ndarray     # (n, 3)
    energies: np.ndarray  # (n,)
    rates: np.ndarray     # (n,)

    def __post_init__(self):
        s = np.atleast_2d(np.asarray(self.sites, dtype=float))
        e = np.atleast_1d(np.asarray(self.energies, dtype=float))
        g = np.atleast_1d(np.asarray(self.rates, dtype=float))
        if len(s) != len(e) or len(s) != len(g):
            raise ValueError("sites, energies, rates must have equal length")
        if np.any(g <= 0):
            raise ValueError("site rates must be positive")
        if np.any(e < 0):
            raise ValueError("site energies must be nonnegative")
        for name, arr in (("sites", s), ("energies", e), ("rates", g)):
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.rates)


def amplitude_norms(amplitude: AmplitudeFn, source: SourceSpec,
                    lebedev_points: int = _DEFAULT_LEBEDEV) -> np.ndarray:
    """Per-site normalization integral int d2n |A+(n, s, E)|^2."""
    nodes, w = lebedev_rule(lebedev_points)
    norms = np.empty(len(source))
    for i in range(len(source)):
        a = np.asarray(amplitude(nodes, source.sites[i], source.energies[i]))
        norms[i] = float(np.sum(w * np.abs(a) ** 2))
    scale = float(np.max(norms)) if len(norms) else 0.0
    if scale <= 0.0 or np.any(norms <= 1e-300):
        raise ZeroNorm("amplitude normalization integral underflows")
    return norms


def jump_magnitude_squared(amplitude: AmplitudeFn, source: SourceSpec,
                           n: np.ndarray, pose: Pose = Pose(),
                           lebedev_points: int = _DEFAULT_LEBEDEV) -> np.ndarray:
    """|L|^2 per site at lab direction n: Gamma |A+(R^T n)|^2 / int |A+|^2.

    The center-of-mass phase exp(-i p n.X / hbar) cancels in the squared
    modulus, so only the orientation enters.
    """
    n = np.asarray(n, dtype=float)
    body_n = pose.rotation.T @ n
    norms = amplitude_norms(amplitude, source, lebedev_points)
    out = np.empty(len(source))
    for i in range(len(source)):
        a = amplitude(body_n, source.sites[i], source.energies[i])
        out[i] = source.rates[i] * float(np.abs(a) ** 2) / norms[i]
    return out


def transparent_site_flux(site: np.ndarray, energy: float, rate: float,
                          m_atom: float) -> SingleSite:
    """Transparent-emitter |L|^2 as a flux model: isotropic, Gamma/(4 pi).

    Lets the general-outgassing layer feed the diffusive-limit machinery
    directly (the modulus of A0+ carries no direction dependence).
    """
    from .spectra import Monoenergetic
    return SingleSite(site, IsotropicDirection(), Monoenergetic(energy), rate)


@dataclass(frozen=True)
class DesorptionJump:
    """Polar decomposition of the desorption jump operators.

    magnitude_squared is the rotated flux Phi(R^T n, s, E); the unitary
    part is the recoil phase -p(E) n.(X + R s)/hbar evaluated at the
    classical pose. Only phase differences between poses are observable,
    and they reproduce the argument of the localization-rate cosine.
    """

    model: object
    m_atom: float

    def magnitude_squared(self, n, s, n_s, energy, pose: Pose = Pose()):
        from .flux import flux_eval
        body_n = pose.rotation.T @ np.asarray(n, dtype=float)
        return flux_eval(self.model, body_n, s, n_s, energy)

    def phase(self, n, s, energy, pose: Pose = Pose()) -> float:
        n = np.asarray(n, dtype=float)
        p = momentum_from_energy(energy, self.m_atom)
        arm = pose.position + pose.rotation @ np.asarray(s, dtype=float)
        return float(-p * (n @ arm) / HBAR)

    def phase_difference(self, n, s, energy, pose: Pose,
                         pose_prime: Pose) -> float:
        """Phase(pose) - phase(pose'): -p n.(dX + (R - R') s)/hbar."""
        return self.phase(n, s, energy, pose) - self.phase(n, s, energy, pose_prime)


class TabulatedAmplitude:
    """Complex amplitude tabulated on (theta, phi) grids per (site, energy).

    Bilinear interpolation in angle with periodic wrap in phi; the energy
    must match a tabulated value (no spectral interpolation). Callable as
    amplitude(n, s, E) where s selects the site by position match.
    """

    def __init__(self, site_positions: np.ndarray,
                 tables: dict):
        # tables: {(site_index, energy): (theta_grid, phi_grid, complex values)}
        self.site_positions = np.atleast_2d(np.asarray(site_positions, dtype=float))
        self.tables = tables

    def _site_index(self, s: np.ndarray) -> int:
        s = np.asarray(s, dtype=float)
        d = np.linalg.norm(self.site_positions - s[None, :], axis=1)
        i = int(np.argmin(d))
        scale = max(float(np.linalg.norm(self.site_positions[i])), 1.0)
        if d[i] > 1e-9 * scale:
            raise ValueError("no tabulated site at this position")
        return i

    def _table_for(self, idx: int, energy: float):
        for (site, e), tab in self.tables.items():
            if site == idx and abs(e - energy) <= 1e-9 * max(abs(e), 1e-300):
                return tab
        raise ValueError(f"no amplitude table for site {idx} at E = {energy!r}")

    def __call__(self, n: np.ndarray, s: np.ndarray, energy: float):
        theta_grid, phi_grid, vals = self._table_for(self._site_index(s), energy)
        n = np.asarray(n, dtype=float)
        single = n.ndim == 1
        n2 = np.atleast_2d(n)
        theta = np.arccos(np.clip(n2[:, 2], -1.0, 1.0))
        phi = np.mod(np.arctan2(n2[:, 1], n2[:, 0]), 2.0 * np.pi)
        out = _bilinear_periodic(theta_grid, phi_grid, vals, theta, phi)
        return out[0] if single else out


def _bilinear_periodic(theta_grid, phi_grid, vals, theta, phi):
    """Bilinear interpolation on [0,pi] x [0,2pi) with periodic phi."""
    tg = np.asarray(theta_grid)
    pg = np.concatenate([phi_grid, [phi_grid[0] + 2.0 * np.pi]])
    v = np.concatenate([vals, vals[:, :1]], axis=1)
    it = np.clip(np.searchsorted(tg, theta) - 1, 0, len(tg) - 2)
    ip = np.clip(np.searchsorted(pg, phi) - 1, 0, len(pg) - 2)
    tt = np.clip((theta - tg[it]) / (tg[it + 1] - tg[it]), 0.0, 1.0)
    tp = np.clip((phi - pg[ip]) / (pg[ip + 1] - pg[ip]), 0.0, 1.0)
    return ((1 - tt) * (1 - tp) * v[it, ip] + (1 - tt) * tp * v[it, ip + 1]
            + tt * (1 - tp) * v[it + 1, ip] + tt * tp * v[it + 1, ip + 1])


def read_amplitude_csv(path, site_positions, rates) -> tuple[SourceSpec, TabulatedAmplitude]:
    """Load tabulated amplitudes (columns site_index, E_joule, theta, phi, re, im).

    site_positions supplies the body-frame location of each site_index;
    rates the per-site emission rates. One table per (site, energy) on a
    rectangular (theta, phi) grid is required.
    """
    raw: dict = {}
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"site_index", "E_joule", "theta", "phi", "re", "im"}
        if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
            raise ValueError(f"amplitude CSV needs columns {sorted(required)}")
        for row in reader:
            key = (int(row["site_index"]), float(row["E_joule"]))
            raw.setdefault(key, []).append((float(row["theta"]), float(row["phi"]),
                                            float(row["re"]), float(row["im"])))
    if not raw:
        raise ValueError("amplitude CSV is empty")
    tables = {}
    for key, entries in raw.items():
        thetas = np.array(sorted({t for t, _, _, _ in entries}))
        phis = np.array(sorted({p for _, p, _, _ in entries}))
        grid = np.full((len(thetas), len(phis)), np.nan, dtype=complex)
        ti = {t: i for i, t in enumerate(thetas)}
        pi_ = {p: i for i, p in enumerate(phis)}
        for t, p, re_, im_ in entries:
            grid[ti[t], pi_[p]] = re_ + 1j * im_
        if np.any(np.isnan(grid)):
            raise ValueError(f"amplitude table for {key} is not a full grid")
        tables[key] = (thetas, phis, grid)
    site_positions = np.atleast_2d(np.asarray(site_positions, dtype=float))
    indices = sorted({site for site, _ in tables})
    if indices != list(range(len(site_positions))):
        raise ValueError("site_index values must cover 0..n_sites-1")
    energies = np.array([min(e for site, e in tables if site == i)
                         for i in indices])
    source = SourceSpec(site_positions, energies, rates)
    return source, TabulatedAmplitude(site_positions, tables)

"""Localization rate of spatio-orientational coherences.

For a pair of poses (X, R) and (X', R') the coherence decays at the
complex rate F with

  Re F = int dE d2s d2n 1/2 [ Phi_R + Phi_R'
             - 2 sqrt(Phi_R Phi_R') cos( p(E)/hbar n . (dX + (R - R') s) ) ]
  Im F = int dE d2s d2n sqrt(Phi_R Phi_R') sin( same phase ),

where Phi_R(n) = Phi(R^T n, s, E). Re F is nonnegative and bounded by
twice the total emission rate; it saturates at the total rate for large
recoil and reduces to the flux-distinguishability integral for p -> 0.

Numerically, the solid-angle integral per emitter (flux.split: a
surface node or a site) is taken in a frame aligned with the local
phase vector v = dX + (R - R') s, so all oscillation lives in the polar
coordinate mu = n.v / |v|; a fixed-direction site is rate (1 - chi).
Energy is integrated first: the spectral average of exp(i p |v| mu / hbar) is the
spectrum's characteristic function chi, exact for Maxwell-Boltzmann
(through the Faddeeva function) and monoenergetic spectra, and summed
over its own rule for a tabulated spectrum. The mu integral of chi
against the profile's panel-wise quadratic interpolant then takes
Filon-type panel moments, so the accuracy is uniform in the recoil
phase. For a translation (R = R') of an axial law, n . R nu is
A + B cos(phi - phi') on each mu ring, and the phi integral of the law
is closed form (AxialLaw.ring), so n_azimuth is read only for R != R'
and for tables. A tabulated flux is not separable; it is integrated
node by node of its energy rule with pure-phase moments. The smooth and
oscillatory parts share one grid, so the rate vanishes identically (to
the last bit) for identical poses.

The 2x self-check samples the angular grid once, at the refined level,
and takes the coarse level as every other sample in mu and phi (in mu
only, for a closed-form translation). It compares both Re F and Im F
and returns the refined values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .constants import HBAR
from .errors import DesorbError, NonFinite, QuadratureNotConverged
from .flux import Emitters, FluxModel, split
from .geometry import SurfaceQuadrature
from .quadrules import (filon_grid, filon_moments, frames, phase_moments,
                        segment_rule)
from .rotations import check_rotation, w_from_rotations


@dataclass(frozen=True)
class PosePair:
    """Displacement dX = X - X' [m] and the two orientation tensors."""

    delta_x: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    rotation_prime: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "delta_x", np.asarray(self.delta_x, dtype=float))
        object.__setattr__(self, "rotation", check_rotation(self.rotation))
        object.__setattr__(self, "rotation_prime", check_rotation(self.rotation_prime))

    def swapped(self) -> "PosePair":
        return PosePair(-self.delta_x, self.rotation_prime, self.rotation)

    def relative_angle_vector(self) -> np.ndarray:
        """Small-angle vector of R^T R' (the CSV orientation encoding)."""
        return w_from_rotations(self.rotation, self.rotation_prime)


@dataclass(frozen=True)
class LocalizationRate:
    """Complex coherence-decay rate; re, im in 1/s. total_rate is the
    emission rate the bounds refer to."""

    re: float
    im: float
    total_rate: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.re, self.im, self.total_rate])):
            raise NonFinite("localization rate holds NaN or infinity")
        g2 = 2.0 * self.total_rate
        if self.re < -1e-12 * g2:
            raise ValueError(f"negative localization rate {self.re:.3g}")
        if self.re > g2 * (1.0 + 1e-9):
            raise ValueError(f"localization rate {self.re:.3g} above twice "
                             f"the emission rate {self.total_rate:.3g}")

    def visibility(self, t: float) -> float:
        """Coherence left after time t: exp(-Re F * t)."""
        return float(np.exp(-self.re * t))


@dataclass(frozen=True)
class DecoherenceQuadrature:
    """Resolution of the aligned-axis angular grid, and of the energy
    rule of a tabulated flux (other spectra are integrated exactly).
    n_azimuth is read only for pairs with R != R' and for tables: a
    translation of an axial law integrates phi in closed form."""

    n_mu_panels: int = 96       # polar Filon panels (2n+1 samples)
    n_azimuth: int = 64
    energy_nodes: int = 40
    check_convergence: bool = True
    convergence_tol: float = 1e-3   # relative to the total emission rate
    node_chunk: int = 16           # nodes per batch of the refined grid

    def refined(self) -> "DecoherenceQuadrature":
        return replace(self, n_mu_panels=2 * self.n_mu_panels,
                       n_azimuth=2 * self.n_azimuth,
                       energy_nodes=2 * self.energy_nodes,
                       check_convergence=False)


_DEF_QUAD = DecoherenceQuadrature()


def _pair_geometry(pair: PosePair, points: np.ndarray):
    """Per-node lengths and directions of v = dX + (R - R') s."""
    dr = pair.rotation - pair.rotation_prime
    v = pair.delta_x[None, :] + points @ dr.T
    length = np.linalg.norm(v, axis=1)
    axis = np.where(length[:, None] > 0.0, v / np.where(length[:, None] > 0.0,
                                                        length[:, None], 1.0),
                    np.array([0.0, 0.0, 1.0]))
    return length, axis


def _grid_cosines(axis, e1, e2, target, mu, sin_t, cphi, sphi):
    """n(mu, phi) . target for per-node frames, shape (chunk, n_mu, n_phi)."""
    c0 = np.einsum("ia,ia->i", axis, target)
    c1 = np.einsum("ia,ia->i", e1, target)
    c2 = np.einsum("ia,ia->i", e2, target)
    ring = c1[:, None] * cphi + c2[:, None] * sphi      # (chunk, n_phi)
    out = sin_t[None, :, None] * ring[:, None, :]
    out += (c0[:, None] * mu)[:, :, None]
    return out


def _profile_terms(g2, static, weights):
    """Per-node (re, im) of the phi-integrated sqrt(a b) profile g2.

    static is the rule at zero phase and weights the Filon weights per
    node. Re F takes g2 on static - Re(weights), which is exactly zero at
    zero phase: identical poses give 0 to the last bit.
    """
    return (np.einsum("im,im->i", g2, static.real - weights.real),
            np.einsum("im,im->i", g2, weights.imag))


def _level_terms(a, b, step, n_azimuth, static, weights):
    """Per-node (re, im) from the two profiles on every step-th sample.

    b is None when both poses see the same profile. Re F takes
    (sqrt a - sqrt b)^2 / 2, summed over phi as (a + b) / 2 - sqrt(a b),
    on the static rule, plus the terms of _profile_terms.
    """
    dphi = 2.0 * np.pi / n_azimuth
    a = a[:, ::step, ::step]
    sum_a = a.sum(axis=2)
    if b is None:
        g2 = dphi * sum_a
    else:
        b = b[:, ::step, ::step]
        g2 = dphi * np.sqrt(a * b).sum(axis=2)
    re, im = _profile_terms(g2, static, weights)
    if b is not None:
        gdiff = 0.5 * dphi * (sum_a + b.sum(axis=2)) - g2
        re += gdiff @ static.real
    return re, im


def _fixed_direction_terms(pair: PosePair, em: Emitters, m_atom):
    """(re, im) of a fixed-direction site: rate (1 - chi) along the
    emission direction, or the full rate when the directions differ."""
    rate = float(em.weights[0])
    na = pair.rotation @ em.axes[0]
    nb = pair.rotation_prime @ em.axes[0]
    if not np.allclose(na, nb, rtol=0.0, atol=1e-12):
        return rate, 0.0   # disjoint directions
    v = pair.delta_x + (pair.rotation - pair.rotation_prime) @ em.points[0]
    # the zeroth panel moment at zero width is 2 chi(t)
    chi = em.spectrum.panel_moments(m_atom, float(na @ v) / HBAR, 0.0)[0] / 2
    return rate * (1.0 - chi.real), rate * chi.imag


def _pair_terms(pair: PosePair, em: Emitters, m_atom, levels):
    """[(re, im)] per quadrature level, coarse to fine.

    The levels nest (each doubles the last), so the angular grid and the
    profiles are evaluated once, on the finest level.
    """
    table = em.table
    if table is None and em.law.delta:
        return [_fixed_direction_terms(pair, em, m_atom)] * len(levels)
    rotated_alike = np.array_equal(pair.rotation, pair.rotation_prime)
    points, axes = em.points, em.axes
    node_weights = em.weights if table is None else em.areas
    fine = levels[-1]
    length, axis = _pair_geometry(pair, points)
    kappa = length / HBAR   # phase per unit momentum and unit mu
    if table is not None:
        rules = [segment_rule(table.energy_grid, levels[0].energy_nodes, j > 0)
                 for j in range(len(levels))]
        kernel = phase_moments
    else:
        kernel = partial(em.spectrum.panel_moments, m_atom)
        # nodes at equal distance (every node, for a translation) share
        # their weights
        kappas, node_kappa = np.unique(kappa, return_inverse=True)
        weights = [filon_moments(lv.n_mu_panels, kappas, kernel)[node_kappa]
                   for lv in levels]
    static = [filon_moments(lv.n_mu_panels, 0.0, kernel) for lv in levels]

    e1, e2 = frames(axis)
    mu = filon_grid(fine.n_mu_panels)
    sin_t = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    nu_r = axes @ pair.rotation.T        # R nu
    out = np.zeros((len(levels), 2))
    if table is None and rotated_alike:
        # n . R nu = A + B cos(phi - phi'): the law's phi integral in closed form
        c0 = np.einsum("ia,ia->i", axis, nu_r)
        rho = np.hypot(np.einsum("ia,ia->i", e1, nu_r),
                       np.einsum("ia,ia->i", e2, nu_r))
        g2 = em.law.ring(c0[:, None] * mu, rho[:, None] * sin_t)
        for j, lv in enumerate(levels):
            step = fine.n_mu_panels // lv.n_mu_panels
            re, im = _profile_terms(g2[:, ::step], static[j], weights[j])
            out[j] = node_weights @ re, node_weights @ im
        return [tuple(row) for row in out]

    phi = 2.0 * np.pi * np.arange(fine.n_azimuth) / fine.n_azimuth
    cphi, sphi = np.cos(phi), np.sin(phi)
    nu_rp = axes @ pair.rotation_prime.T
    for lo in range(0, len(points), fine.node_chunk):
        idx = np.arange(lo, min(lo + fine.node_chunk, len(points)))
        grid = (axis[idx], e1[idx], e2[idx])
        ca = _grid_cosines(*grid, nu_r[idx], mu, sin_t, cphi, sphi)
        cb = None if rotated_alike else _grid_cosines(
            *grid, nu_rp[idx], mu, sin_t, cphi, sphi)
        w_nodes = node_weights[idx]
        if table is None:
            a = em.law.density(ca)
            b = None if cb is None else em.law.density(cb)
        for j, lv in enumerate(levels):
            step = fine.n_mu_panels // lv.n_mu_panels
            if table is None:
                re, im = _level_terms(a, b, step, lv.n_azimuth, static[j],
                                      weights[j][idx])
                out[j] += w_nodes @ re, w_nodes @ im
                continue
            sa = ca[:, ::step, ::step]
            sb = None if cb is None else cb[:, ::step, ::step]
            node = idx[:, None, None]
            for ek, wk in zip(*rules[j]):
                w_e = filon_moments(lv.n_mu_panels,
                                    kappa[idx] * np.sqrt(2.0 * m_atom * ek),
                                    kernel)
                re, im = _level_terms(
                    table.interp(sa, ek, node),
                    None if sb is None else table.interp(sb, ek, node),
                    1, lv.n_azimuth, static[j], w_e)
                out[j] += wk * (w_nodes @ re), wk * (w_nodes @ im)
    return [tuple(row) for row in out]


def localization_rate(pair: PosePair, model: FluxModel, q: SurfaceQuadrature,
                      m_atom: float,
                      quad: DecoherenceQuadrature = _DEF_QUAD) -> LocalizationRate:
    """Complex localization rate F for one pose pair.

    With check_convergence set, the angular grid (and a tabulated flux's
    energy rule) is also doubled and the refined rate returned; a change
    of Re F or Im F above convergence_tol times the emission rate raises
    QuadratureNotConverged.
    """
    em = split(model, q)
    gamma = float(np.sum(em.node_rates))
    levels = [quad, quad.refined()] if quad.check_convergence else [quad]
    terms = _pair_terms(pair, em, m_atom, levels)
    re, im = terms[-1]
    change = max(abs(terms[0][0] - re), abs(terms[0][1] - im))
    if change > quad.convergence_tol * gamma:
        raise QuadratureNotConverged(
            f"localization rate moved by {change:.3g} ({change / gamma:.2e} "
            f"of the emission rate) under refinement")
    return LocalizationRate(re, im, gamma)


@dataclass(frozen=True)
class CoherenceRow:
    """One coherence_map entry; exactly one of rate / error is set."""

    pair: PosePair
    rate: Optional[LocalizationRate]
    error: Optional[str] = None

    def visibilities(self, times: Sequence[float]):
        if self.rate is None:
            return [float("nan")] * len(times)
        return [self.rate.visibility(t) for t in times]


def coherence_map(pairs: Sequence[PosePair], model: FluxModel,
                  q: SurfaceQuadrature, m_atom: float,
                  quad: DecoherenceQuadrature = _DEF_QUAD) -> List[CoherenceRow]:
    """localization_rate per pair; failing rows are annotated, not fatal."""
    rows: List[CoherenceRow] = []
    for pair in pairs:
        try:
            rows.append(CoherenceRow(pair, localization_rate(pair, model, q,
                                                             m_atom, quad)))
        except DesorbError as exc:
            rows.append(CoherenceRow(pair, None, f"{type(exc).__name__}: {exc}"))
    return rows

"""Localization rate of spatio-orientational coherences.

For a pair of poses (X, R) and (X', R') the coherence decays at the
complex rate F with

  Re F = int dE d2s d2n 1/2 [ Phi_R + Phi_R'
             - 2 sqrt(Phi_R Phi_R') cos( p(E)/hbar n . (dX + (R - R') s) ) ]
  Im F = int dE d2s d2n sqrt(Phi_R Phi_R') sin( same phase ),

where Phi_R(n) = Phi(R^T n, s, E). Re F is nonnegative and bounded by
twice the total emission rate; it saturates at the total rate for large
recoil and reduces to the flux-distinguishability integral for p -> 0.

Numerically, the solid-angle integral per surface node is taken in a
frame aligned with the local phase vector, so all oscillation lives in
the polar coordinate; Filon moments then integrate the oscillatory
factor with accuracy independent of the phase magnitude. The smooth and
oscillatory parts share one grid, so the rate vanishes identically (to
the last bit) for identical poses.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from .constants import HBAR
from .errors import DesorbError, NonFinite, QuadratureNotConverged
from .flux import (CosineLaw, FixedDirection, FluxModel, Isotropic,
                   IsotropicDirection, SingleSite, TabulatedFlux, _rates_at,
                   total_rate)
from .geometry import SurfaceQuadrature
from .moments import _segment_rule
from .quadrules import filon_grid, filon_moments, orthonormal_frame
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
    """Resolution of the aligned-axis angular grid and the energy rule."""

    n_mu_panels: int = 96       # polar Filon panels (2n+1 samples)
    n_azimuth: int = 64
    energy_nodes: int = 40
    check_convergence: bool = True
    convergence_tol: float = 1e-3   # relative to the total emission rate
    node_chunk: int = 64

    def refined(self) -> "DecoherenceQuadrature":
        return replace(self, n_mu_panels=2 * self.n_mu_panels,
                       n_azimuth=2 * self.n_azimuth,
                       energy_nodes=2 * self.energy_nodes,
                       check_convergence=False)


_DEF_QUAD = DecoherenceQuadrature()


def _energy_momentum_rule(model, m_atom: float, n_nodes: int):
    """(p(E_k), w_k) with spectral density folded into the weights for
    separable models; tabulated models get their grid rule (no density)."""
    if isinstance(model, TabulatedFlux):
        e, w = _segment_rule(model.energy_grid, n_nodes)
    else:
        e, w = model.spectrum.energy_rule(n_nodes)
    return np.sqrt(2.0 * m_atom * np.asarray(e, dtype=float)), np.asarray(w), e


def _pair_geometry(pair: PosePair, points: np.ndarray):
    """Per-node phase vectors v = dX + (R - R') s and aligned frames."""
    dr = pair.rotation - pair.rotation_prime
    v = pair.delta_x[None, :] + points @ dr.T
    length = np.linalg.norm(v, axis=1)
    axis = np.where(length[:, None] > 0.0, v / np.where(length[:, None] > 0.0,
                                                        length[:, None], 1.0),
                    np.array([0.0, 0.0, 1.0]))
    return v, length, axis


def _frames(axes: np.ndarray):
    """Vectorized right-handed frames (e1, e2) orthogonal to each axis row."""
    helper = np.where(np.abs(axes[:, :1]) > 0.9,
                      np.array([[0.0, 1.0, 0.0]]), np.array([[1.0, 0.0, 0.0]]))
    e1 = np.cross(axes, helper)
    e1 /= np.linalg.norm(e1, axis=1, keepdims=True)
    e2 = np.cross(axes, e1)
    return e1, e2


def _axial_profile_values(model, q, cosines, idx_col, energy=None):
    """Per-node angular flux factor at cos values (chunk, n_mu, n_phi)."""
    if isinstance(model, (CosineLaw, Isotropic)):
        rates = _rates_at(model.rate_per_area, q.points)[idx_col]
        return rates[:, None, None] * model.axial_factor(cosines)
    if isinstance(model, TabulatedFlux):
        return model.interp(cosines, energy, idx_col[:, None, None])
    raise TypeError("axial profile undefined for this model")


def _surface_pair_terms(pair, model, q, m_atom, quad: DecoherenceQuadrature):
    """(re, im) for surface flux models by chunked aligned-axis quadrature."""
    p_nodes, w_e, e_nodes = _energy_momentum_rule(model, m_atom, quad.energy_nodes)
    v, length, axis = _pair_geometry(pair, q.points)
    e1, e2 = _frames(axis)
    mu = filon_grid(quad.n_mu_panels)
    sin_t = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    phi = 2.0 * np.pi * (np.arange(quad.n_azimuth) + 0.5) / quad.n_azimuth
    dphi = 2.0 * np.pi / quad.n_azimuth
    cphi, sphi = np.cos(phi), np.sin(phi)

    nu_r = q.normals @ pair.rotation.T        # R nu
    nu_rp = q.normals @ pair.rotation_prime.T

    re = 0.0
    im = 0.0
    separable = not isinstance(model, TabulatedFlux)
    for lo in range(0, q.n_nodes, quad.node_chunk):
        hi = min(lo + quad.node_chunk, q.n_nodes)
        idx = np.arange(lo, hi)
        # cos angle between grid directions and the two rotated normals
        ca = _grid_cosines(axis[idx], e1[idx], e2[idx], nu_r[idx], mu, sin_t,
                           cphi, sphi)
        cb = _grid_cosines(axis[idx], e1[idx], e2[idx], nu_rp[idx], mu, sin_t,
                           cphi, sphi)
        k = np.outer(length[idx], p_nodes) / HBAR  # (chunk, nE)
        w_chunk = q.weights[idx]
        if separable:
            a_vals = _axial_profile_values(model, q, ca, idx)
            b_vals = _axial_profile_values(model, q, cb, idx)
            dre, dim = _filon_pair_terms(mu, dphi, a_vals, b_vals, k, w_e, w_chunk)
            re += dre
            im += dim
        else:
            for j, (ek, wk) in enumerate(zip(e_nodes, w_e)):
                a_vals = _axial_profile_values(model, q, ca, idx, energy=ek)
                b_vals = _axial_profile_values(model, q, cb, idx, energy=ek)
                dre, dim = _filon_pair_terms(mu, dphi, a_vals, b_vals,
                                             k[:, j:j + 1], np.array([wk]), w_chunk)
                re += dre
                im += dim
    return re, im


def _filon_pair_terms(mu, dphi, a_vals, b_vals, k, w_e, w_nodes):
    """Node-resolved (re, im) contributions from one grid evaluation.

    The smooth part is accumulated as (sqrt a - sqrt b)^2 / 2 plus the
    zero-frequency moment of sqrt(a b), so both it and the oscillatory
    moment come from identical samples: for identical poses every term
    cancels exactly, bit for bit.
    """
    sqa = np.sqrt(a_vals)
    sqb = np.sqrt(b_vals)
    g2 = dphi * np.sum(sqa * sqb, axis=2)                 # (chunk, n_mu)
    gdiff = dphi * np.sum(0.5 * (sqa - sqb) ** 2, axis=2)
    zeros = np.zeros((a_vals.shape[0], 1))
    idiff, _ = filon_moments(mu, gdiff[:, None, :], zeros)
    i2_static, _ = filon_moments(mu, g2[:, None, :], zeros)
    ic, is_ = filon_moments(mu, g2[:, None, :], k)
    re_nodes = np.sum(w_e * (idiff + (i2_static - ic)), axis=1)
    im_nodes = np.sum(w_e * is_, axis=1)
    return float(np.sum(w_nodes * re_nodes)), float(np.sum(w_nodes * im_nodes))


def _grid_cosines(axis, e1, e2, target, mu, sin_t, cphi, sphi):
    """n(mu, phi) . target for per-node frames, shape (chunk, n_mu, n_phi)."""
    c0 = np.einsum("ia,ia->i", axis, target)
    c1 = np.einsum("ia,ia->i", e1, target)
    c2 = np.einsum("ia,ia->i", e2, target)
    ring = c1[:, None] * cphi + c2[:, None] * sphi      # (chunk, n_phi)
    return (mu[None, :, None] * c0[:, None, None]
            + sin_t[None, :, None] * ring[:, None, :])


def _site_pair_terms(pair, model: SingleSite, m_atom, quad):
    """(re, im) for single-site models; fixed-direction law is analytic."""
    p_nodes, w_e, _ = _energy_momentum_rule(model, m_atom, quad.energy_nodes)
    v = pair.delta_x + (pair.rotation - pair.rotation_prime) @ model.site
    length = float(np.linalg.norm(v))
    law = model.direction
    if isinstance(law, FixedDirection):
        na = pair.rotation @ law.direction
        nb = pair.rotation_prime @ law.direction
        if not np.allclose(na, nb, rtol=0.0, atol=1e-12):
            # disjoint emission directions: fully distinguishable
            return float(model.rate * np.sum(w_e)), 0.0
        phase = p_nodes * float(na @ v) / HBAR
        re = model.rate * float(np.sum(w_e * (1.0 - np.cos(phase))))
        im = model.rate * float(np.sum(w_e * np.sin(phase)))
        return re, im

    mu = filon_grid(quad.n_mu_panels)
    sin_t = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    phi = 2.0 * np.pi * (np.arange(quad.n_azimuth) + 0.5) / quad.n_azimuth
    dphi = 2.0 * np.pi / quad.n_azimuth
    axis = v / length if length > 0.0 else np.array([0.0, 0.0, 1.0])
    e1, e2 = orthonormal_frame(axis)
    if isinstance(law, IsotropicDirection):
        a_vals = np.full((1, len(mu), len(phi)), model.rate / (4.0 * np.pi))
        b_vals = a_vals
    else:
        ca = _grid_cosines(axis[None], e1[None], e2[None],
                           (pair.rotation @ law.axis)[None], mu, sin_t,
                           np.cos(phi), np.sin(phi))
        cb = _grid_cosines(axis[None], e1[None], e2[None],
                           (pair.rotation_prime @ law.axis)[None], mu, sin_t,
                           np.cos(phi), np.sin(phi))
        a_vals = model.rate * law.density(ca)
        b_vals = model.rate * law.density(cb)
    k = length * p_nodes[None, :] / HBAR
    return _filon_pair_terms(mu, dphi, a_vals, b_vals, k, w_e, np.ones(1))


def localization_rate(pair: PosePair, model: FluxModel, q: SurfaceQuadrature,
                      m_atom: float,
                      quad: DecoherenceQuadrature = _DEF_QUAD) -> LocalizationRate:
    """Complex localization rate F for one pose pair.

    Raises QuadratureNotConverged when doubling all quadrature levels
    still moves Re F by more than convergence_tol times the emission rate.
    """
    gamma = total_rate(model, q)
    if isinstance(model, SingleSite):
        re, im = _site_pair_terms(pair, model, m_atom, quad)
    else:
        re, im = _surface_pair_terms(pair, model, q, m_atom, quad)
    if quad.check_convergence:
        fine = quad.refined()
        if isinstance(model, SingleSite):
            re2, im2 = _site_pair_terms(pair, model, m_atom, fine)
        else:
            re2, im2 = _surface_pair_terms(pair, model, q, m_atom, fine)
        if abs(re - re2) > quad.convergence_tol * gamma:
            raise QuadratureNotConverged(
                f"localization rate moved by {abs(re - re2):.3g} "
                f"({abs(re - re2) / gamma:.2e} of the emission rate) under refinement")
        re, im = re2, im2
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

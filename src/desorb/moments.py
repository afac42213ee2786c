"""Diffusive-limit characterization of the emission master equation.

The momentum-space diffusion tensor is the 6x6 block matrix

    D = 1/2 int dE int d2s int d2n  Phi p^2(E) [ n (x) n        n (x) (s x n)
                                                 (s x n) (x) n  (s x n) (x) (s x n) ]

and the generalized force is

    F = - int dE int d2s int d2n  Phi p(E) (n; s x n),

both in the body frame at reference orientation. Each emitter of a
separable model (flux.split) contributes through the exact moments t_k
of its axial law in mu = n . axis and (j1, j2) of its spectrum; with the
azimuth done analytically, its D and F are closed-form and evaluated once.

A tabulated flux is not separable, but its bilinear interpolant is
linear in the table values and, segment by segment, in cos(theta) and E.
Its tensors are therefore one contraction of the table with
per-grid-point weights (the cos and energy rules folded through the
grid's hat functions), at cost O(nodes x n_cos x n_E); the table is
never interpolated point by point. The cos rule (3 Gauss points per
segment) is exact, and so is the energy rule of D (p^2 is linear in E).
Only F's energy rule carries error, so D and F come from one pass
(transport) whose contraction also carries F's refined energy weights,
for README's refinement rule.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFinite
from .flux import Emitters, FluxModel, split
from .geometry import SurfaceQuadrature
from .quadrules import (check_order, check_refinement,
                        check_refinement_fields, segment_rule)
from .rotations import check_atom_mass


@dataclass(frozen=True)
class AngularQuadrature:
    """Accepted and ignored: a tabulated flux's cos rule is exact at a
    fixed order, and separable models need none."""

    n_polar: int = 32


#: largest energy order at its refined level, which transport always
#: takes for F's check: one table segment then holds at most 4098 Gauss
#: nodes, whose rule numpy takes from a 4098 x 4098 matrix (134 MB; 3.4 s
#: and 287 MB peak measured)
MAX_ENERGY_NODES = 4096


@dataclass(frozen=True)
class EnergyQuadrature:
    """Gauss-Legendre order in E over a tabulated flux's energy grid, whose
    refined level is bounded by MAX_ENERGY_NODES (BlockTooLarge)."""

    n_nodes: int = 40

    def __post_init__(self):
        check_order("n_nodes", self.n_nodes, MAX_ENERGY_NODES, True)


_DEF_ANG = AngularQuadrature()
_DEF_EN = EnergyQuadrature()


@dataclass(frozen=True)
class Diffusion6:
    """Body-frame momentum diffusion tensor, 3x3 blocks of the 6x6 form.

    Units: d_tt (kg m/s)^2/s, d_rr (kg m^2/s)^2/s, d_tr and d_rt mixed.
    """

    d_tt: np.ndarray
    d_tr: np.ndarray
    d_rt: np.ndarray
    d_rr: np.ndarray

    def __post_init__(self):
        for name in ("d_tt", "d_tr", "d_rt", "d_rr"):
            block = np.asarray(getattr(self, name), dtype=float)
            if block.shape != (3, 3):
                raise ValueError(f"{name} must be 3x3")
            object.__setattr__(self, name, block)
        m = self.matrix
        if not np.all(np.isfinite(m)):
            raise NonFinite("diffusion tensor holds NaN or infinity")
        scale = float(np.max(np.abs(m)))
        if scale > 0.0:
            if np.max(np.abs(m - m.T)) > 1e-9 * scale:
                raise ValueError("diffusion tensor is not symmetric within 1e-9")
            eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
            if eigs.min() < -1e-12 * eigs.max():
                raise ValueError("diffusion tensor is not positive semidefinite")

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.d_tt, self.d_tr], [self.d_rt, self.d_rr]])


@dataclass(frozen=True)
class ForceTorque6:
    """Thermophoresis-like generalized force: force [N], torque [N m]."""

    force: np.ndarray
    torque: np.ndarray

    def __post_init__(self):
        for name in ("force", "torque"):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector")
            if not np.all(np.isfinite(v)):
                raise NonFinite(f"{name} holds NaN or infinity")
            object.__setattr__(self, name, v)

    @property
    def vector(self) -> np.ndarray:
        return np.concatenate([self.force, self.torque])


def spectral_momentum_moments(spectrum, m_atom: float):
    """(j1, j2) = (int sigma p dE, int sigma p^2 dE) for one emitted atom."""
    return spectrum.momentum_moments(m_atom)


def momentum_scales(em: Emitters, m_atom: float):
    """(j1, j2): the spectral momentum moments of the emitters, or for a
    table their bounds sqrt(2 m E_max) and 2 m E_max. Not checked for
    overflow."""
    if em.table is None:
        return spectral_momentum_moments(em.spectrum, m_atom)
    j2 = 2.0 * m_atom * em.table.energy_grid[-1]
    return np.sqrt(j2), j2


def check_transport_scale(em: Emitters, m_atom: float) -> None:
    """Refuse (NonFinite) emitters whose transport tensors would overflow.
    An entry of D sums at most 18 terms rate x p^2 x (1, or two
    coordinates of s), and one of the force and torque rate x p x (1, or
    a coordinate). So 32 times the total rate times (j1 + j2) times
    (1 + extent^2) bounds them all (momentum_scales). It is summed in
    logarithms, so a huge rate times a tiny <p^2> cannot overflow on the
    way."""
    with np.errstate(all="ignore"):    # refused below
        j1, j2 = momentum_scales(em, m_atom)
        log_scale = np.sum(np.log([32.0, np.sum(em.node_rates), j1 + j2,
                                   1.0 + em.radius * em.radius]))
    if not log_scale < np.log(sys.float_info.max):
        raise NonFinite("the total rate times <p> + <p^2> times "
                        "(1 + extent^2) overflows, so the diffusion tensor "
                        "would not be finite")


# ---------------------------------------------------------------------------
# Per-node angular moments (A0, A1, A2) of the angular flux factor
# ---------------------------------------------------------------------------

def _axial_moments_to_tensors(normals, t0, t1, t2):
    """Assemble A0, A1, A2 in the body frame for axially symmetric profiles
    (t0, t1, t2 per node, with any leading batch axes).

    With the azimuthal integral carried out, A1 = 2 pi t1 n_s and
    A2 = pi (t0 - t2) (1 - n (x) n) + 2 pi t2 n (x) n.
    """
    two_pi = 2.0 * np.pi
    a0 = two_pi * t0
    a1 = two_pi * t1[..., None] * normals
    eye = np.eye(3)
    nn = np.einsum("ia,ib->iab", normals, normals)
    a2 = (np.pi * (t0 - t2))[..., None, None] * (eye[None] - nn) \
        + (two_pi * t2)[..., None, None] * nn
    return a0, a1, a2


def _hat_matrix(grid: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(len(x), len(grid)) values of the grid's hat functions at x, the
    weights of the piecewise-linear interpolant (zero outside the grid)."""
    j = np.clip(np.searchsorted(grid, x) - 1, 0, len(grid) - 2)
    t = np.clip((x - grid[j]) / (grid[j + 1] - grid[j]), 0.0, 1.0)
    inside = (x >= grid[0]) & (x <= grid[-1])
    eye = np.eye(len(grid))
    return (np.where(inside, 1.0 - t, 0.0)[:, None] * eye[j]
            + np.where(inside, t, 0.0)[:, None] * eye[j + 1])


def _table_surface_moments(em: Emitters, m_atom, energy):
    """A0 (4,n), A1 (4,n,3), A2 (4,n,3,3) of a tabulated flux, integrated
    over energy with the weights p^0, p and p^2/2 under the rule of
    energy.n_nodes and p under its refined rule (leading axis). Both
    energy rules and the exact cos rule fold through the grids' hat
    functions into one stack of weights per grid point, so the table is
    contracted once."""
    table = em.table
    e, w = segment_rule(table.energy_grid, energy.n_nodes)
    e_fine, w_fine = segment_rule(table.energy_grid, energy.n_nodes,
                                  refined=True)
    x = np.concatenate([e, e_fine])
    p = np.sqrt(2.0 * m_atom * x)
    coarse = np.concatenate([w, np.zeros_like(w_fine)])
    fine = np.concatenate([np.zeros_like(w), w_fine])
    powers = np.stack([coarse, coarse * p, coarse * m_atom * x, fine * p])
    v_p = np.einsum("ijk,rk->rij", table.values,
                    powers @ _hat_matrix(table.energy_grid, x))
    mu, wmu = segment_rule(table.cos_grid, 0)   # exact for hat x mu^2
    mu_moments = np.stack([wmu, wmu * mu, wmu * mu * mu]) \
        @ _hat_matrix(table.cos_grid, mu)                     # (3, n_cos)
    t = np.einsum("rij,aj->ari", v_p, mu_moments)
    return _axial_moments_to_tensors(em.axes, *t)


# ---------------------------------------------------------------------------
# Diffusion tensor and force
# ---------------------------------------------------------------------------

def _moment_blocks(em: Emitters, m_atom, energy):
    """(Diffusion6, F, (refined F, Gamma pbar)): F per energy level, one for
    a separable model (exact); pbar the mean momentum over the spectrum."""
    if em.table is not None:
        a0, a1, a2 = _table_surface_moments(em, m_atom, energy)
        tot, pbar = a0[:2] @ em.areas
        pbar /= max(tot, 1e-300)
        a1, a2, w1, w2 = a1[1::2], a2[2], em.areas, em.areas
    else:
        _, a1, a2 = _axial_moments_to_tensors(em.axes, *em.law.moments)
        a1, a2 = em.rates[None, :, None] * a1, em.rates[:, None, None] * a2
        pbar, j2 = spectral_momentum_moments(em.spectrum, m_atom)
        w1, w2 = pbar * em.areas, (0.5 * j2) * em.areas
    tt, tr, rt, rr = _diffusion_from_a2(em.points, w2[:, None, None] * a2)
    m = np.block([[tt, tr], [rt, rr]])
    m = 0.5 * (m + m.T)  # kill roundoff skew only
    ft = []
    for level in a1:
        f_t, f_r = _force_from_a1(em.points, w1[:, None] * level)
        ft.append(ForceTorque6(-f_t, -f_r))
    return (Diffusion6(m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:]), ft[0],
            (ft[-1], float(np.sum(em.node_rates)) * pbar))


def _skews(s: np.ndarray) -> np.ndarray:
    sx = np.zeros((len(s), 3, 3))
    sx[:, 0, 1] = -s[:, 2]; sx[:, 0, 2] = s[:, 1]
    sx[:, 1, 0] = s[:, 2]; sx[:, 1, 2] = -s[:, 0]
    sx[:, 2, 0] = -s[:, 1]; sx[:, 2, 1] = s[:, 0]
    return sx


def _diffusion_from_a2(s: np.ndarray, wa2: np.ndarray):
    sx = _skews(np.atleast_2d(s))
    d_tt = wa2.sum(axis=0)
    d_tr = -np.einsum("iab,ibc->ac", wa2, sx)
    d_rt = np.einsum("iab,ibc->ac", sx, wa2)
    d_rr = -np.einsum("iab,ibc,icd->ad", sx, wa2, sx)
    return d_tt, d_tr, d_rt, d_rr


def _force_from_a1(s: np.ndarray, wa1: np.ndarray):
    sx = _skews(np.atleast_2d(s))
    return wa1.sum(axis=0), np.einsum("iab,ib->a", sx, wa1)


def transport(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
              angular: AngularQuadrature = _DEF_ANG,
              energy: EnergyQuadrature = _DEF_EN,
              check_convergence: bool = True,
              convergence_tol: float = 1e-6
              ) -> tuple[Diffusion6, ForceTorque6]:
    """D and F in the body frame from one pass, exact for a separable model.

    angular is accepted and ignored. A tabulated flux is contracted once;
    D and the cos level are exact, and F is checked by README's
    refinement rule. The inputs are checked first.
    """
    check_refinement_fields(check_convergence, convergence_tol)
    check_atom_mass(m_atom)
    em = split(model, q)
    check_transport_scale(em, m_atom)
    d, ft, (ft_fine, f_scale) = _moment_blocks(em, m_atom, energy)
    if not check_convergence:
        return d, ft
    # scale against the momentum flux, not the (possibly zero) force
    check_refinement(
        [("force", ft.force, ft_fine.force, max(f_scale, 1e-300)),
         ("torque", ft.torque, ft_fine.torque,
          max(f_scale * em.radius, 1e-300))], convergence_tol)
    return d, ft_fine


def diffusion_tensor(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
                     angular: AngularQuadrature = _DEF_ANG,
                     energy: EnergyQuadrature = _DEF_EN,
                     check_convergence: bool = True,
                     convergence_tol: float = 1e-6) -> Diffusion6:
    """Momentum diffusion tensor D (body frame): transport(...)[0], whose
    check of F (README's refinement rule) holds for it too."""
    return transport(model, q, m_atom, angular, energy, check_convergence,
                     convergence_tol)[0]


def force_torque(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
                 angular: AngularQuadrature = _DEF_ANG,
                 energy: EnergyQuadrature = _DEF_EN,
                 check_convergence: bool = True,
                 convergence_tol: float = 1e-6) -> ForceTorque6:
    """Thermophoresis-like force and torque F (body frame):
    transport(...)[1], checked by README's refinement rule."""
    return transport(model, q, m_atom, angular, energy, check_convergence,
                     convergence_tol)[1]


def analytic_cosine_tensor(q: SurfaceQuadrature, j2_paper: float) -> Diffusion6:
    """Closed-form diffusion tensor for a site-independent cosine law.

    j2_paper is the spectral weight int dE Phi0(E) p^2(E) with
    Phi = (n.n_s) Theta(n.n_s) Phi0(E); in terms of this package's rate
    convention Phi0 = rate_per_area * sigma(E) / pi. The solid-angle
    integral is carried out analytically; only the surface sum remains.
    """
    s = q.points
    nu = q.normals
    w = q.weights
    sx = _skews(s)
    sxn = np.cross(s, nu)
    eye = np.eye(3)

    d_tt = np.einsum("i,ab->ab", w, eye) + np.einsum("i,ia,ib->ab", w, nu, nu)
    d_tr = (-np.einsum("i,iab->ab", w, sx)
            + np.einsum("i,ia,ib->ab", w, nu, sxn))
    d_rt = (np.einsum("i,iab->ab", w, sx)
            + np.einsum("i,ia,ib->ab", w, sxn, nu))
    d_rr = (-np.einsum("i,iab,ibc->ac", w, sx, sx)
            + np.einsum("i,ia,ib->ab", w, sxn, sxn))
    pref = np.pi / 8.0 * j2_paper
    m = pref * np.block([[d_tt, d_tr], [d_rt, d_rr]])
    m = 0.5 * (m + m.T)
    return Diffusion6(m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:])


def predict_moments(d: Diffusion6, f: ForceTorque6, t: float,
                    mean0: Optional[np.ndarray] = None,
                    cov0: Optional[np.ndarray] = None):
    """Ballistic moment growth: mean(t) = mean0 + F t, cov(t) = cov0 + 2 D t.

    Both in the body frame of the reference orientation; valid while the
    state stays well-oriented and no external potential acts.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
    mean0 = np.zeros(6) if mean0 is None else np.asarray(mean0, dtype=float)
    cov0 = np.zeros((6, 6)) if cov0 is None else np.asarray(cov0, dtype=float)
    return mean0 + f.vector * t, cov0 + 2.0 * d.matrix * t

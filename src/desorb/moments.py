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
per-grid-point weights (the angular and energy rules folded through the
grid's hat functions), at cost O(nodes x n_cos x n_E); the table is
never interpolated point by point. The cos rule is exact, and so is the
energy rule of D (p^2 is linear in E). Only F's energy rule carries
error, as p is not polynomial in E; the quadrature orders and the 2x
check serve it. D and F come from one pass (transport): one contraction
per level and one check, whose force scale Gamma pbar is taken from the
coarse level's own contraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NonFinite, QuadratureNotConverged
from .flux import Emitters, FluxModel, split
from .geometry import SurfaceQuadrature
from .quadrules import segment_rule


@dataclass(frozen=True)
class AngularQuadrature:
    """Gauss-Legendre order in mu over a tabulated flux's cos grid."""

    n_polar: int = 32


@dataclass(frozen=True)
class EnergyQuadrature:
    """Gauss-Legendre order in E over a tabulated flux's energy grid."""

    n_nodes: int = 40


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


def _table_surface_moments(em: Emitters, m_atom, angular, energy, refined):
    """A0 (3,n), A1 (3,n,3), A2 (3,n,3,3) of a tabulated flux, integrated
    over energy with the weights p^0, p and p^2/2 (leading axis). The
    energy and mu rules (the finer ones of the 2x check if refined) fold
    through the grids' hat functions into weights per grid point, so the
    table is contracted once."""
    table = em.table
    e, w = segment_rule(table.energy_grid, energy.n_nodes, refined)
    powers = np.stack([w, w * np.sqrt(2.0 * m_atom * e), w * m_atom * e])
    v_p = np.einsum("ijk,rk->rij", table.values,
                    powers @ _hat_matrix(table.energy_grid, e))
    mu, wmu = segment_rule(table.cos_grid, angular.n_polar, refined)
    mu_moments = np.stack([wmu, wmu * mu, wmu * mu * mu]) \
        @ _hat_matrix(table.cos_grid, mu)                     # (3, n_cos)
    t = np.einsum("rij,aj->ari", v_p, mu_moments)
    return _axial_moments_to_tensors(em.axes, *t)


# ---------------------------------------------------------------------------
# Diffusion tensor and force
# ---------------------------------------------------------------------------

def _moment_blocks(em: Emitters, m_atom, angular, energy, refined=False):
    """(Diffusion6, ForceTorque6, pbar), with pbar the mean momentum over
    a table's spectral weight (None for a separable model)."""
    pbar = None
    if em.table is not None:
        a0, a1, a2 = _table_surface_moments(em, m_atom, angular, energy,
                                            refined)
        tot, pbar = a0[:2] @ em.areas
        pbar /= max(tot, 1e-300)
        a1, a2, w1, w2 = a1[1], a2[2], em.areas, em.areas
    else:
        _, a1, a2 = _axial_moments_to_tensors(em.axes, *em.law.moments)
        a1, a2 = em.rates[:, None] * a1, em.rates[:, None, None] * a2
        j1, j2 = spectral_momentum_moments(em.spectrum, m_atom)
        w1, w2 = j1 * em.areas, (0.5 * j2) * em.areas
    tt, tr, rt, rr = _diffusion_from_a2(em.points, w2[:, None, None] * a2)
    m = np.block([[tt, tr], [rt, rr]])
    m = 0.5 * (m + m.T)  # kill roundoff skew only
    f_t, f_r = _force_from_a1(em.points, w1[:, None] * a1)
    return (Diffusion6(m[:3, :3], m[:3, 3:], m[3:, :3], m[3:, 3:]),
            ForceTorque6(-f_t, -f_r), pbar)


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


def _diffusion_change(a: Diffusion6, b: Diffusion6) -> float:
    """Largest per-block relative change between two diffusion tensors.

    The blocks carry different units, so each is scaled by its own
    magnitude; the cross blocks are floored by the geometric mean of the
    diagonal-block scales so that pure-roundoff cross blocks cannot trip
    the check.
    """
    s_tt = max(np.max(np.abs(a.d_tt)), np.max(np.abs(b.d_tt)), 1e-300)
    s_rr = max(np.max(np.abs(a.d_rr)), np.max(np.abs(b.d_rr)), 1e-300)
    s_cross = max(np.max(np.abs(a.d_tr)), np.max(np.abs(b.d_tr)),
                  np.sqrt(s_tt) * np.sqrt(s_rr), 1e-300)
    return max(
        float(np.max(np.abs(a.d_tt - b.d_tt))) / s_tt,
        float(np.max(np.abs(a.d_rr - b.d_rr))) / s_rr,
        float(np.max(np.abs(a.d_tr - b.d_tr))) / s_cross,
        float(np.max(np.abs(a.d_rt - b.d_rt))) / s_cross,
    )


def transport(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
              angular: AngularQuadrature = _DEF_ANG,
              energy: EnergyQuadrature = _DEF_EN,
              check_convergence: bool = True,
              convergence_tol: float = 1e-6
              ) -> tuple[Diffusion6, ForceTorque6]:
    """D and F in the body frame from one pass, exact for a separable model.

    A tabulated flux with check_convergence set is also contracted with
    the refined rules (the surface rule is not refined), and the refined
    D and F are returned. QuadratureNotConverged is raised if a block of
    D moves by more than convergence_tol of its magnitude, the force by
    more than convergence_tol Gamma pbar (the momentum flux, pbar from the
    coarse pass) or the torque by more than convergence_tol Gamma pbar R,
    with R the largest emitter radius.
    """
    em = split(model, q)
    d, ft, pbar = _moment_blocks(em, m_atom, angular, energy)
    if not check_convergence or em.table is None:
        return d, ft
    d_fine, ft_fine, _ = _moment_blocks(em, m_atom, angular, energy, True)
    # scale against the momentum flux, not the (possibly zero) force
    f_scale = float(np.sum(em.node_rates)) * pbar
    t_scale = f_scale * em.radius
    dd = _diffusion_change(d, d_fine)
    df = float(np.max(np.abs(ft.force - ft_fine.force)))
    dt = float(np.max(np.abs(ft.torque - ft_fine.torque)))
    if (dd > convergence_tol
            or df > convergence_tol * max(f_scale, 1e-300)
            or dt > convergence_tol * max(t_scale, 1e-300)):
        raise QuadratureNotConverged(
            f"diffusion tensor changed by {dd:.3g}, force by {df:.3g} "
            f"(scale {f_scale:.3g}), torque by {dt:.3g} (scale {t_scale:.3g}) "
            "under refinement")
    return d_fine, ft_fine


def diffusion_tensor(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
                     angular: AngularQuadrature = _DEF_ANG,
                     energy: EnergyQuadrature = _DEF_EN,
                     check_convergence: bool = True,
                     convergence_tol: float = 1e-6) -> Diffusion6:
    """Momentum diffusion tensor D (body frame): transport(...)[0]. A
    tabulated flux is checked as in transport, its F included."""
    return transport(model, q, m_atom, angular, energy, check_convergence,
                     convergence_tol)[0]


def force_torque(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
                 angular: AngularQuadrature = _DEF_ANG,
                 energy: EnergyQuadrature = _DEF_EN,
                 check_convergence: bool = True,
                 convergence_tol: float = 1e-6) -> ForceTorque6:
    """Thermophoresis-like force and torque F (body frame):
    transport(...)[1]. A tabulated flux is checked as in transport, its D
    included."""
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

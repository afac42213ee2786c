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
(through Dawson's integral) and monoenergetic spectra, and summed
over its own rule for a tabulated spectrum. The mu integral of chi
against the profile's panel-wise quadratic interpolant then takes
Filon-type panel moments, so the accuracy is uniform in the recoil
phase. On each mu ring a pose sees n . R nu = A + B cos(phi - phase),
so the phi integral of a law over a whole ring is closed form
(AxialLaw.ring), and so is that of a table, whose interpolant is
piecewise linear in cos (TabulatedFlux.arc). That is all a translation
(R = R') needs. For R != R', Re F and Im F need g2 = int sqrt(a b) dphi
of the two poses' profiles a and b, taken as (int a + int b) / 2 minus
the incoherent part 1/2 int (sqrt a - sqrt b)^2 dphi. The latter is
closed form on the arcs where only one pose emits; on the at most two
pieces where both emit it takes the arc rule (arc_rule), an end-corrected
Chebyshev rule with max(2, n_azimuth // 8) intervals per piece, so
n_azimuth sets the rule's size for R != R' and nothing else. Every term
of the incoherent part is >= 0, and it is exactly 0 where the two rings
coincide. The smooth and oscillatory parts share one mu grid, so the
rate vanishes identically (to the last bit) for identical poses.

F is a sum over parts of the emitters (_parts), each a profile read on
rings through the law protocol (edge, ring, arc, inside) with its
spectral kernel. A separable model is one part: its law and its
spectrum's chi. A tabulated flux is not separable; it is a part per node
E of its energy rule: the table at E (TabulatedFlux.at) with the pure
phase at p(E). Every part of every pose pair takes one path: its Filon
weights once per distinct phase scale, then its rings, arc samples and
terms node_chunk nodes at a time.

The 2x self-check samples a part that feeds both levels (a law) once,
at the refined level, and takes the coarse level as every other sample
in mu and every other node of the arc rule, whose refined level doubles
the intervals per piece; a table's parts each feed one level. The
Filon weights of both levels come from one filon_moments call too: a
kernel that takes wide panels from edge values (the thermal one) is
evaluated once per distinct phase scale, at the refined panel edges,
and a coarse panel reads every other edge. The check compares both
Re F and Im F and returns the refined values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from .constants import HBAR
from .errors import (DesorbError, NonFinite, QuadratureNotConverged,
                     RateOutOfBounds)
from .flux import Emitters, FluxModel, split
from .geometry import SurfaceQuadrature
from .quadrules import filon_grid, filon_moments, frames, segment_rule
from .rotations import check_rotation, w_from_rotations
from .spectra import Monoenergetic


@dataclass(frozen=True)
class PosePair:
    """Displacement dX = X - X' [m] and the two orientation tensors."""

    delta_x: np.ndarray
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    rotation_prime: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        dx = np.asarray(self.delta_x, dtype=float)
        if dx.shape != (3,):
            raise ValueError(f"delta_x must have shape (3,), not {dx.shape}")
        if not np.all(np.isfinite(dx)):
            raise NonFinite("delta_x holds NaN or infinity")
        object.__setattr__(self, "delta_x", dx)
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
            raise RateOutOfBounds(f"negative localization rate {self.re:.3g}")
        if self.re > g2 * (1.0 + 1e-9):
            raise RateOutOfBounds(f"localization rate {self.re:.3g} above "
                                  f"twice the emission rate "
                                  f"{self.total_rate:.3g}")

    def visibility(self, t: float) -> float:
        """Coherence left after time t: exp(-Re F * t)."""
        return float(np.exp(-self.re * t))


@dataclass(frozen=True)
class DecoherenceQuadrature:
    """Resolution of the aligned-axis angular rule, and of the energy
    rule of a tabulated flux (other spectra are integrated exactly).
    n_azimuth is read only for pairs with R != R', laws and tables alike:
    their arc rule has max(2, n_azimuth // 8) intervals per piece where
    both poses emit (7 and 15 interior points at 64 and its refinement).
    A translation integrates phi in closed form."""

    n_mu_panels: int = 96       # polar Filon panels (2n+1 samples)
    n_azimuth: int = 64
    energy_nodes: int = 40
    check_convergence: bool = True
    convergence_tol: float = 1e-3   # relative to the total emission rate
    node_chunk: int = 16           # nodes per batch of rings, every pair

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


_TWO_PI = 2.0 * np.pi


def _ring_coeffs(axis, e1, e2, nu):
    """n(mu, phi) . nu = c0 mu + c sin(theta) cos(phi - phase) in each
    node's frame: (c0, c, phase), one value per node."""
    c1 = np.einsum("ia,ia->i", e1, nu)
    c2 = np.einsum("ia,ia->i", e2, nu)
    return (np.einsum("ia,ia->i", axis, nu), np.hypot(c1, c2),
            np.arctan2(c2, c1))


def arc_rule(slots: int):
    """Nodes x_k = -cos(k pi / slots), k = 0..slots, and weights w_k of the
    end-corrected Chebyshev rule int_{-1}^{1} g dx ~ sum w_k g(x_k).

    Inside, w_k = pi / slots sin(k pi / slots): Gauss-Chebyshev of the
    second kind, which is the trapezoid rule in theta = arccos(-x). A
    sqrt-type zero of g at an end is smooth in theta. The two ends carry
    (pi / slots)^2 / 12, the Euler-Maclaurin term of a g that does not
    vanish there, so the rule is 4th order in 1 / slots either way. The
    rule of slots / 2 reads every other node of the rule of slots.
    """
    theta = np.pi * np.arange(slots + 1) / slots
    w = np.pi / slots * np.sin(theta)
    w[[0, -1]] = (np.pi / slots) ** 2 / 12.0
    return -np.cos(theta), w


def _wrap(x):
    return (x + np.pi) % _TWO_PI - np.pi


def _arc_samples(ra, rb, ha, hb, x):
    """c_a and c_b on the arc rule's nodes x of every piece where both
    rings emit.

    ra, rb are (A, B, phase) of one chunk of rings, and ha, hb their
    emitting half widths under the profile: pose p emits on
    |phi - phase_p| < h_p, which is the whole ring at h_p = pi. Seen from
    a's phase the two arcs meet in at most two pieces, the direct one and
    the one across phi = +-pi; a full ring's arc ends at its minimum, so
    a piece never holds one. The pieces are the same sets in either pose
    order. Returns the flat ring index and half length of each nonempty
    piece, and c_a and c_b there.
    """
    d = _wrap(rb[2] - ra[2])
    centre = np.stack(np.broadcast_arrays(
        d, np.where(d >= 0.0, d - _TWO_PI, d + _TWO_PI)), axis=-1)
    lo = np.maximum(-ha[..., None], centre - hb[..., None])
    hi = np.maximum(np.minimum(ha[..., None], centre + hb[..., None]), lo)
    half = 0.5 * (hi - lo)
    keep = np.flatnonzero(half > 0.0)
    ring = keep // 2
    half = half.ravel()[keep]
    phi = np.multiply(half[:, None], x)
    phi += (0.5 * (lo + hi)).ravel()[keep][:, None]
    shifted = phi - np.broadcast_to(d, ha.shape).ravel()[ring][:, None]
    out = [ring, half]
    for (a, b, _), arg in ((ra, phi), (rb, shifted)):
        c = np.cos(arg, out=arg)
        c *= b.ravel()[ring][:, None]
        c += a.ravel()[ring][:, None]
        out.append(c)
    return out


def _one_sided(arc, r, h, h_other, phase_other):
    """int over the part of r's arc where the other ring does not emit,
    of r's profile; arc(A, B, lo, hi) integrates it from r's phase. The
    other ring's gap runs from d + h_other to d - h_other + 2 pi, d the
    phase difference; written so, it is exactly empty for a ring equal to
    r, and it is empty for a full other ring."""
    d = _wrap(phase_other - r[2])
    gap = h_other < np.pi
    total = 0.0
    for lo, hi in ((d + h_other, (d + _TWO_PI) - h_other),
                   ((d - _TWO_PI) + h_other, d - h_other)):
        lo = np.maximum(-h, lo)
        hi = np.where(gap, np.maximum(np.minimum(h, hi), lo), lo)
        total = total + np.maximum(arc(r[0], r[1], lo, hi), 0.0)
    return total


def _ring_terms(profile, nodes, ra, rb, x, steps):
    """[(g2, gdiff)] per (slot step, mu step, slots) of steps, each of
    shape (chunk, n_mu of the level), on the rings ra and rb (rb None for
    one pose) of the nodes: g2 = int sqrt(a b) dphi and gdiff its
    incoherent part, (int a + int b) / 2 - g2 (None for one pose).
    profile(nodes) reads the profile on those nodes' rings, and x holds
    the arc rule's nodes of the last step; an arc piece sees its node's
    profile."""
    at = profile(nodes[:, None])
    ea = at.edge(*ra[:2])
    if rb is None:
        g2 = at.ring(*ra[:2], ea)
        return [(g2[:, ::m], None) for _, m, _ in steps]
    eb = at.edge(*rb[:2])
    full = 0.5 * (at.ring(*ra[:2], ea) + at.ring(*rb[:2], eb))
    ring_idx, half, ca, cb = _arc_samples(ra, rb, ea[0], eb[0], x)
    inside = profile(nodes[ring_idx // ra[0].shape[1]][:, None]).inside
    one_sided = (_one_sided(at.arc, ra, ea[0], eb[0], rb[2])
                 + _one_sided(at.arc, rb, eb[0], ea[0], ra[2]))
    s0 = steps[-1][0]
    h = np.sqrt(inside(ca[:, ::s0]))
    h -= np.sqrt(inside(cb[:, ::s0]))
    h *= h
    out = []
    for s, m, slots in steps:
        # every term is >= 0, and 0 where the two rings coincide
        q = half * (h[:, ::s // s0] @ arc_rule(slots)[1])
        gdiff = 0.5 * (np.bincount(ring_idx, q, minlength=one_sided.size)
                       .reshape(one_sided.shape) + one_sided)[:, ::m]
        out.append((full[:, ::m] - gdiff, gdiff))
    return out


def ring_overlap(law, ring_a, ring_b, slots: int = 16):
    """int_0^2pi sqrt(f(c_a) f(c_b)) dphi of an axial law by the arc
    rule, for rings c_p = A_p + B_p cos(phi - phase_p) given as
    (A, B, phase) arrays of one shape: (ring_a + ring_b) / 2 minus the
    incoherent part _pair_terms takes."""
    ra, rb = ([np.asarray(v, dtype=float).reshape(-1, 1) for v in r]
              for r in (ring_a, ring_b))
    (g2, _), = _ring_terms(lambda nodes: law, np.arange(len(ra[0])), ra, rb,
                           arc_rule(slots)[0], [(1, 1, slots)])
    return g2.ravel()


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


def _arc_levels(levels):
    """(slot step, mu step, slots) of the arc rule at each level, coarse
    to fine. The first level has max(2, n_azimuth // 8) slots per piece
    and each refinement doubles them, so every level reads each slot
    step-th node (and mu step-th ring) of the finest samples."""
    top = len(levels) - 1
    base = max(2, levels[0].n_azimuth // 8)
    return [(1 << (top - j), levels[-1].n_mu_panels // lv.n_mu_panels,
             base << j) for j, lv in enumerate(levels)]


def _parts(em: Emitters, m_atom, levels):
    """(weight, profile, kernel, js) per part of the emitters, the parts'
    rates adding up to F at each level of js (indices into levels).

    weight is per node, profile(nodes) reads the part on those nodes'
    rings as an AxialLaw does (edge, ring, arc, inside), and kernel is
    its spectral average of the phase for filon_moments. A separable
    model is one part at every level: its law and spectrum. A table is a
    part per node E of each level's energy rule: its profile at E with
    the pure phase at p(E), weighted by the node areas.
    """
    table = em.table
    if table is None:
        yield (em.weights, lambda nodes: em.law, em.spectrum.kernel(m_atom),
               list(range(len(levels))))
        return
    for j in range(len(levels)):
        for e, w in zip(*segment_rule(table.energy_grid,
                                      levels[0].energy_nodes, j > 0)):
            yield (w * em.areas, partial(table.at, e),
                   Monoenergetic(e).kernel(m_atom), [j])


def _pair_terms(pair: PosePair, em: Emitters, m_atom, levels):
    """[(re, im)] per quadrature level, coarse to fine, summed over the
    parts of the emitters.

    A part's levels nest (each doubles the last), so its rings and the
    arc rule's samples are evaluated once, on its finest level, a chunk
    of nodes at a time.
    """
    if em.law is not None and em.law.delta:
        return [_fixed_direction_terms(pair, em, m_atom)] * len(levels)
    length, axis = _pair_geometry(pair, em.points)
    # nodes at equal distance (every node, for a translation) share their
    # Filon weights
    kappas, node_kappa = np.unique(length / HBAR, return_inverse=True)
    e1, e2 = frames(axis)
    poses = [pair.rotation]
    if not np.array_equal(pair.rotation, pair.rotation_prime):
        poses.append(pair.rotation_prime)
    coeffs = [_ring_coeffs(axis, e1, e2, em.axes @ rot.T) for rot in poses]
    n, chunk = len(axis), levels[-1].node_chunk
    out = np.zeros((len(levels), 2))
    for weight, profile, kernel, js in _parts(em, m_atom, levels):
        # weights per distinct kappa, and the rule at zero phase, per level
        filon = filon_moments([levels[j].n_mu_panels for j in js], kappas,
                              kernel)
        # the arc rule and mu grid of the part's finest level
        steps = [_arc_levels(levels[:js[-1] + 1])[j] for j in js]
        x = arc_rule(steps[-1][2])[0]
        mu = filon_grid(levels[js[-1]].n_mu_panels)
        sin_t = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
        for lo in range(0, n, chunk):
            idx = np.arange(lo, min(lo + chunk, n))
            ra, rb = ([(c0[idx, None] * mu, c[idx, None] * sin_t,
                        phase[idx, None]) for c0, c, phase in coeffs]
                      + [None])[:2]
            terms = _ring_terms(profile, idx, ra, rb, x, steps)
            w_nodes = weight[idx]
            for j, (w, static), (g2, gdiff) in zip(js, filon, terms):
                w = w[node_kappa[idx]]
                # Re F takes g2 on static - Re(w), exactly 0 at zero phase:
                # identical poses give 0 to the last bit
                re = np.einsum("im,im->i", g2, static.real - w.real)
                if gdiff is not None:
                    re += gdiff @ static.real
                out[j] += (w_nodes @ re,
                           w_nodes @ np.einsum("im,im->i", g2, w.imag))
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

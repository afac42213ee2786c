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
piecewise linear in cos (TabulatedFlux.span). That is all a translation
(R = R') needs. For R != R', Re F and Im F need g2 = int sqrt(a b) dphi
of the two poses' profiles a and b, taken as (int a + int b) / 2 minus
the incoherent part 1/2 int (sqrt a - sqrt b)^2 dphi. The latter is
closed form on the arcs where only one pose emits; on the at most two
pieces where both emit it takes the arc rule (arc_rule), an end-corrected
Chebyshev rule with max(2, n_azimuth // 8) intervals per piece, so
n_azimuth sets the rule's size for R != R' and nothing else. The rule's
nodes are symmetric about a piece's centre, so both poses' inner
samples are built by angle addition from one cos and one sin per piece
and node pair (_arc_samples): trig, not arithmetic, is what a sample
costs. Every term of the incoherent part is >= 0, and it is exactly 0
where the two rings coincide. The smooth and oscillatory parts share one
mu grid, so the rate vanishes identically (to the last bit) for
identical poses.

F is taken over one part of the emitters (_parts): a profile read on
rings (edge, ring, span, inside) with its spectral kernel, a law with
its spectrum's chi or a table with the pure phase at each node p(E) of
its energy rule. A table's readings are linear in its columns on the
cos knots, so its rings, arc pieces and arc samples are taken once per
chunk of node_chunk nodes, as a law's are; only the contraction with
the columns and the square roots at the arc samples carry energy, in
blocks of at most _BLOCK values. _BLOCK is the one memory budget: it is
defined in quadrules, whose filon_moments takes a law's phase scales in
blocks of the same size.

The 2x self-check samples the rings once, at the refined level, and
takes the coarse level as every other sample in mu and every other
node of the arc rule, whose refined level doubles the intervals per
piece; each level weights only the nodes of its own energy rule. A
law's Filon weights of both levels come from one filon_moments call: a
kernel that takes wide panels from edge values (the thermal one) is
evaluated once per distinct phase scale, at the refined panel edges,
and a coarse panel reads every other edge. The check compares both
Re F and Im F and returns the refined values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral, Real
from typing import List, Optional, Sequence

import numpy as np

from .constants import HBAR
from .errors import (DesorbError, NonFinite, QuadratureNotConverged,
                     RateOutOfBounds)
from .flux import Emitters, FluxModel, split
from .geometry import SurfaceQuadrature
from .moments import MAX_ENERGY_NODES, momentum_scales
from .quadrules import (_BLOCK, PanelKernel, check_order, filon_grid,
                        filon_moments, frames, phase_moments, segment_rule)
from .rotations import check_atom_mass, check_rotation, w_from_rotations


#: largest displacement component [m], far past the saturation of F at any
#: thermal recoil; a 1e100 m pair overflowed in the Filon moments, and a
#: 1e300 m one in the ring geometry
MAX_DISPLACEMENT_M = 1e30
#: largest recoil phase j1 max|v| / hbar on the Filon path, with j1 the
#: emitters' mean momentum (a table's largest, moments.momentum_scales),
#: by the same reasoning applied to the phase: F is saturated at the
#: emission rate far below it, and the Filon kernels take the third power
#: of a panel's phase, which is at most this one and overflows past
#: 5.6e102 (an atom mass of 1e200 kg on a 1 nm pair reads 1.2e115). A
#: fixed-direction site takes no power of it and is not bounded
MAX_PHASE = 1e100
#: largest orders at the finest level, the refined one under the check.
#: n_mu_panels sizes the mu grid (16385 samples at the bound), so a chunk
#: of 16 nodes holds rings of 2.1 MB and each distinct phase scale 262 KB
#: of Filon weights. n_azimuth sizes the arc rule (128 slots per piece),
#: so a chunk's arc samples hold 129 doubles for each of at most 2 x 16 x
#: 16385 pieces (541 MB). A res-8 rotation pair at both bounds peaked at
#: 1.16 GB in 11 s. energy_nodes is bounded as EnergyQuadrature's is.
#: n_mu_panels 1e8 asked numpy for 71.5 GiB in one array, n_azimuth 1e8 for
#: 24.4 GiB
MAX_ORDERS = {"n_mu_panels": 2**13, "n_azimuth": 2**10,
              "energy_nodes": MAX_ENERGY_NODES}

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
        if np.max(np.abs(dx)) > MAX_DISPLACEMENT_M:
            raise ValueError(f"delta_x components must be within "
                             f"{MAX_DISPLACEMENT_M:g} m")
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
    rule of a tabulated flux. A law's spectrum is not refined: the
    Maxwell-Boltzmann and monoenergetic kernels are exact, and a
    TabulatedSpectrum sums pure phases over a fixed 3-point rule per
    segment at every level, so the check does not see that rule's error.
    n_azimuth is read only for pairs with R != R', laws and tables alike:
    their arc rule has max(2, n_azimuth // 8) intervals per piece where
    both poses emit (7 and 15 interior points at 64 and its refinement).
    A translation integrates phi in closed form. Each order is bounded at
    its finest level by MAX_ORDERS (BlockTooLarge past it)."""

    n_mu_panels: int = 96       # polar Filon panels (2n+1 samples)
    n_azimuth: int = 64
    energy_nodes: int = 40
    check_convergence: bool = True
    convergence_tol: float = 1e-3   # relative to the total emission rate
    node_chunk: int = 16           # nodes per batch of rings, every pair

    def __post_init__(self):
        for name in ("n_mu_panels", "n_azimuth", "energy_nodes", "node_chunk"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, Integral) or n < 1:
                raise ValueError(f"{name} must be a positive integer, "
                                 f"got {n!r}")
        tol = self.convergence_tol
        if not (isinstance(tol, Real) and np.isfinite(tol) and tol > 0):
            raise ValueError(f"convergence_tol must be finite and positive, "
                             f"got {tol!r}")
        for name, bound in MAX_ORDERS.items():
            check_order(name, getattr(self, name), bound,
                        self.check_convergence)

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
    rings emit, samples-major: shape (len(x), pieces).

    ra, rb are (A, B, phase) of one chunk of rings, and ha, hb their
    emitting half widths under the profile: pose p emits on
    |phi - phase_p| < h_p, which is the whole ring at h_p = pi. Seen from
    a's phase the two arcs meet in at most two pieces, the direct one and
    the one across phi = +-pi; a full ring's arc ends at its minimum, so
    a piece never holds one. The pieces are the same sets in either pose
    order. Returns the flat index of each nonempty piece in (ring, 2),
    its half length, and c_a and c_b there.

    A piece of centre m and half length h samples phi = m + h x_k, and the
    nodes pair up, x_{slots-k} = -x_k (an odd slot count has no centre
    node). So with u_k = h |x_k| and d the phase difference, pose a reads
    A + B cos(m -+ u_k) and pose b A + B cos(m - d -+ u_k), built by angle
    addition from cos and sin of u_k (per piece and inner node pair), of m
    (per piece) and of d (per ring). The two ends x = -+1 take the direct
    cos of the rounded end angle, m -+ h and m -+ h - d: an end lies on an
    arc edge, where the square root of a profile has an infinite slope, and
    moving its sample by a few ulps moved F of random pose pairs by up to
    4e-13 Gamma. That is 20 trig calls per piece at 16 slots, where a cos
    per pose and sample takes 34. numpy's float64 cos and sin are scalar
    libm calls of 6-24 ns per element, against about 1 ns for a multiply,
    and they are most of the cost of a rotation pair.
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
    mid = (0.5 * (lo + hi)).ravel()[keep]
    del centre, lo, hi
    # Pose b's rows hold what its samples are built from until they
    # replace it, so the arrays are no larger than the samples: its rows
    # 0 and slots the angles of the two ends, its inner rows cos u_k and
    # sin u_k of the inner pairs. Row k (x_k < 0) is at m - u_k and row
    # slots - k at m + u_k.
    pairs, last = len(x) // 2, len(x) - 1
    out = [keep, half] + [np.empty((len(x), len(keep))) for _ in range(2)]
    ends, cu, su = out[3][::last], out[3][1:pairs], out[3][-2:-pairs - 1:-1]
    np.multiply(x[::last, None], half, out=ends)
    ends += mid
    np.multiply(-x[1:pairs, None], half, out=su)
    np.cos(su, out=cu)
    np.sin(su, out=su)
    c, s = np.cos(mid), np.sin(mid)
    del mid

    def fill(samples, a, b, c, s):
        # a + b cos(centre -+ u_k), from c, s = cos and sin of the centre,
        # and a + b cos(end) at the ends
        b = b.ravel()[ring]
        c, s = c * b, s * b
        p, q = np.empty((2,) + c.shape)
        for k in range(1, pairs):
            np.multiply(cu[k - 1], c, out=p)
            np.multiply(su[k - 1], s, out=q)
            np.add(p, q, out=samples[k])
            np.subtract(p, q, out=samples[-1 - k])
        if len(x) % 2:
            samples[pairs] = c
        rows = np.cos(ends, out=samples[::last])
        rows *= b
        samples += a.ravel()[ring]

    fill(out[2], *ra[:2], c, s)
    # pose b's pieces are centred at m - d in its own phase: (c, s) turn
    # to (c cd + s sd, s cd - c sd) in place, and its ends to end - d
    cd, sd, d = (np.broadcast_to(v, ha.shape).ravel()[ring]
                 for v in (np.cos(d), np.sin(d), d))
    ends -= d
    t = c * sd
    c *= cd
    c += np.multiply(s, sd, out=sd)
    s *= cd
    s -= t
    del t, cd, sd, d
    fill(out[3], *rb[:2], c, s)
    return out


def _one_sided(span, r, h, h_other, phase_other):
    """The readings of the profile over the two parts of r's arc where
    the other ring does not emit; span(A, B, lo, hi) reads it from r's
    phase. The other ring's gap runs from d + h_other to
    d - h_other + 2 pi, d the phase difference; written so, it is exactly
    empty for a ring equal to r, and it is empty for a full other ring."""
    d = _wrap(phase_other - r[2])
    gap = h_other < np.pi
    out = []
    for lo, hi in ((d + h_other, (d + _TWO_PI) - h_other),
                   ((d - _TWO_PI) + h_other, d - h_other)):
        lo = np.maximum(-h, lo)
        hi = np.where(gap, np.maximum(np.minimum(h, hi), lo), lo)
        out.append(span(r[0], r[1], lo, hi))
    return out


def _ring_terms(at, blocks, idx, ra, rb, x, steps):
    """(j, g2, gdiff, weights) per level j of each energy block of the
    nodes idx (see _parts) on their rings ra and rb (rb None for one
    pose), on level j's mu grid: g2 = int sqrt(a b) dphi and gdiff its
    incoherent part, (int a + int b) / 2 - g2 (None for one pose). The
    profile is read once, on the samples of the finest level of steps
    (x the nodes of its arc rule); only the values a block takes from the
    readings hold an energy axis. An arc piece reads its ring's row. The
    arc samples are samples-major, (node, piece), so every elementwise
    pass over them runs along the pieces, and a level's arc weights
    contract their leading axis."""
    ea = at.edge(*ra[:2])
    # what one energy node holds in a block's largest array: the complex
    # Filon weights on the rings, or the arc samples
    rings, size = [at.ring(*ra[:2], ea)], 2 * ra[0].size
    if rb is not None:
        eb = at.edge(*rb[:2])
        rings.append(at.ring(*rb[:2], eb))
        keep, half, *samples = _arc_samples(ra, rb, ea[0], eb[0], x)
        rows = keep // (2 * ra[0].shape[1])
        size = max(size, samples[0].size)
        # a pose's samples are freed as soon as its profile is read there
        inside = [at.inside(samples.pop(0), rows) for _ in range(2)]
        sided = (_one_sided(at.span, ra, ea[0], eb[0], rb[2]),
                 _one_sided(at.span, rb, eb[0], ea[0], ra[2]))
    for js, read, weights in blocks(idx, size):
        full = sum(read(r) for r in rings) / len(rings)
        if rb is not None:
            one_sided = sum(sum(np.maximum(read(s), 0.0) for s in pose)
                            for pose in sided)
            h = np.sqrt(read(inside[0]))
            h -= np.sqrt(read(inside[1]))
            h *= h
        for j, w in zip(js, weights):
            s, m, slots = steps[j]
            if rb is None:
                yield j, full[..., ::m], None, w
                continue
            # every term is >= 0, and 0 where the two rings coincide
            pieces = np.zeros(one_sided.shape + (2,))
            pieces.reshape(one_sided.shape[:-2] + (-1,))[..., keep] = \
                half * (arc_rule(slots)[1] @ h[..., ::s, :])
            gdiff = 0.5 * (pieces[..., 0] + pieces[..., 1]
                           + one_sided)[..., ::m]
            yield j, full[..., ::m] - gdiff, gdiff, w


def ring_overlap(law, ring_a, ring_b, slots: int = 16):
    """int_0^2pi sqrt(f(c_a) f(c_b)) dphi of an axial law by the arc
    rule, for rings c_p = A_p + B_p cos(phi - phase_p) given as
    (A, B, phase) arrays of one shape: (ring_a + ring_b) / 2 minus the
    incoherent part _pair_terms takes."""
    ra, rb = ([np.asarray(v, dtype=float).reshape(-1, 1) for v in r]
              for r in (ring_a, ring_b))
    (_, g2, _, _), = _ring_terms(
        law, lambda idx, size: [([0], lambda x: x, [None])], None, ra, rb,
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
    chi = em.spectrum.kernel(m_atom)(float(na @ v) / HBAR, 0.0)[0] / 2
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


def _parts(em: Emitters, m_atom, levels, kappas, node_kappa):
    """The emitters' one part: (profile, blocks). profile reads it on
    rings (edge, ring, span, inside); blocks(idx, size) yields (js, read,
    weights) per energy block of the nodes idx: the levels js it feeds,
    read, which takes values from the profile's readings, and per level
    of js the node weights, each node's Filon weights and the rule at
    zero phase. A law is one block at every level, read as is, with its
    spectrum's kernel. A table's blocks feed one level each: at most
    _BLOCK // size nodes of its energy rule (size the values a node holds
    in a block's largest array) read from its columns, with the pure
    phase at p(E) kappa.
    """
    table = em.table
    panels = [lv.n_mu_panels for lv in levels]
    if table is None:
        filon = filon_moments(panels, kappas, em.spectrum.kernel(m_atom))
        return em.law, lambda idx, size: [(
            range(len(levels)), lambda x: x,
            [(em.weights[idx], w[node_kappa[idx]], static)
             for w, static in filon])]
    phase = PanelKernel(phase_moments)
    rules = [segment_rule(table.energy_grid, levels[0].energy_nodes, j > 0)
             for j in range(len(levels))]
    statics = [filon_moments(n, 0.0, phase) for n in panels]

    def table_blocks(idx, size):
        scales, local = np.unique(node_kappa[idx], return_inverse=True)
        step = max(1, _BLOCK // size)
        for j, (e, w) in enumerate(rules):
            for sl in (slice(lo, lo + step) for lo in range(0, len(e), step)):
                v = table.interp(table.cos_grid, e[sl, None, None, None],
                                 idx[:, None, None])
                p = np.sqrt(2.0 * m_atom * e[sl, None])
                filon = filon_moments(panels[j], p * kappas[scales], phase)
                yield ([j], lambda x, v=v: x(v), [(
                    w[sl, None] * em.areas[idx], filon[:, local], statics[j])])
    return table, table_blocks


def _pair_terms(pair: PosePair, em: Emitters, m_atom, levels):
    """[(re, im)] per quadrature level, coarse to fine.

    The levels nest (each doubles the last), so the rings and the arc
    rule's samples are taken once, on the finest level, a chunk of nodes
    at a time, and read per energy block of the emitters' part.
    """
    if em.law is not None and em.law.delta:
        return [_fixed_direction_terms(pair, em, m_atom)] * len(levels)
    length, axis = _pair_geometry(pair, em.points)
    with np.errstate(all="ignore"):    # inf or NaN, refused below
        phase = momentum_scales(em, m_atom)[0] * np.max(length) / HBAR
    if not phase <= MAX_PHASE:
        raise NonFinite(f"recoil phase <p> max|v| / hbar = {phase:.3g} is "
                        f"past {MAX_PHASE:g}, where its powers overflow")
    # nodes at equal distance (every node, for a translation) share their
    # Filon weights
    kappas, node_kappa = np.unique(length / HBAR, return_inverse=True)
    e1, e2 = frames(axis)
    poses = [pair.rotation]
    if not np.array_equal(pair.rotation, pair.rotation_prime):
        poses.append(pair.rotation_prime)
    coeffs = [_ring_coeffs(axis, e1, e2, em.axes @ rot.T) for rot in poses]
    profile, blocks = _parts(em, m_atom, levels, kappas, node_kappa)
    n, chunk = len(axis), levels[-1].node_chunk
    steps = _arc_levels(levels)
    x = arc_rule(steps[-1][2])[0]
    mu = filon_grid(levels[-1].n_mu_panels)
    sin_t = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
    out = np.zeros((len(levels), 2))
    for lo in range(0, n, chunk):
        idx = np.arange(lo, min(lo + chunk, n))
        ra, rb = ([(c0[idx, None] * mu, c[idx, None] * sin_t,
                    phase[idx, None]) for c0, c, phase in coeffs] + [None])[:2]
        for j, g2, gdiff, (w_nodes, w, static) in _ring_terms(
                profile, blocks, idx, ra, rb, x, steps):
            # Re F takes g2 on static - Re(w), exactly 0 at zero phase:
            # identical poses give 0 to the last bit
            re = np.einsum("...m,...m->...", g2, static.real - w.real)
            if gdiff is not None:
                re += gdiff @ static.real
            out[j] += (np.vdot(w_nodes, re), np.vdot(
                w_nodes, np.einsum("...m,...m->...", g2, w.imag)))
    return [tuple(row) for row in out]


def localization_rate(pair: PosePair, model: FluxModel, q: SurfaceQuadrature,
                      m_atom: float,
                      quad: DecoherenceQuadrature = _DEF_QUAD) -> LocalizationRate:
    """Complex localization rate F for one pose pair.

    With check_convergence set, the angular grid (and a tabulated flux's
    energy rule) is also doubled and the refined rate returned; a change
    of Re F or Im F above convergence_tol times the emission rate raises
    QuadratureNotConverged. The atom mass is checked first
    (check_atom_mass), and a recoil phase past MAX_PHASE on the Filon
    path (every pair but a fixed-direction site's) is NonFinite.
    """
    check_atom_mass(m_atom)
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

"""Monte Carlo oracle: emission events as momentum kicks on an ensemble.

Each trajectory accumulates Poissonian emission events; every event
removes the atom's linear momentum p(E) n and orbital angular momentum
s x p(E) n from the particle (kicks -p n and -s x p n). Orientation is
held at the reference during a run, matching the regime in which the
drift/diffusion predictions are derived.

Ensembles run in fixed blocks of trajectories. Each block draws its
events from one counter-based stream keyed by the block index and turns
them into kicks as arrays, so a result is fixed by the inputs and the
seed alone. The whole event path is component-major: the sampler
gathers a block's events as a (12, n) array of rows (site, axis, frame;
see flux.EventSampler), builds the directions in the frame's rows, and
the kicks are written over those rows as a (6, n) array, one
contiguous row per component. Each event's report slot comes from its
time by arithmetic, corrected against the report times until it is
exact. Each component's kicks are scattered into (time, component,
trajectory) bins by one add.at, whose running sums over report times
are taken in place, one contiguous (6, n) slab at a time. Each bin adds
its events in the order they were drawn.

The gather and the bins are buffers that one simulate_ensemble call
owns and every block reuses: a buffer is reallocated only when a block
needs more than any block before it (with an eighth to spare), so after
the first block the loop allocates none, and the pages of these arrays
are not faulted in again per block. A block's result is a view of the
bins, valid until the next block.

No trajectory outlives its block. As soon as a block is binned, its
trajectories are added one at a time, in their order, to the running
sum whose quotient by the count so far is the mean. The block is then
centred at that mean, slab by slab, and reduced per report time to the
sums L = sum y_a, S = sum y_a y_b, T = sum y_a^2 y_b and
Q = sum y_a^2 y_b^2 of its centred y, einsums over the bins' contiguous
trajectory axis. The sums of the blocks before it are moved from the
previous mean to the new one by the exact shift of each sum (Chan,
Golub & LeVeque, Am. Stat. 37:242, 1983; Pebay, Sandia SAND2008-6212,
2008), and the two sets of sums added, in block order. L keeps the shift
exact whatever the rounding of the mean. Memory is one block's, however
many trajectories run.

Ensemble moments come with closed-form delete-one jackknife standard
errors, from the merged S and Q, so the quadrature predictions can be
tested at a stated significance. The pass thresholds are fixed: every
|z| below Z_LIMIT = 4 and a chi-square p-value above P_FLOOR = 1e-3.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Integral
from typing import Optional

import numpy as np

from .errors import BlockTooLarge, NonFinite
from .flux import EmissionSample, EventSampler, FluxModel
from .geometry import SurfaceQuadrature
from .moments import Diffusion6, ForceTorque6, predict_moments
from .rng import stream
from .rotations import check_atom_mass

_TRAJ_TAG = "trajectory"
_BLOCK = 2048  # trajectories per random stream; part of every result
# expected events of one block, about 0.2 KB each while drawn and binned
_MAX_BLOCK_EVENTS = 10**7
# what a run holds: 8 B of event count per trajectory (8 GB at the
# bound), and per report time one block's bins, 6 x 2048 doubles (9.8 GB
# at the bound); the moments are merged block by block
_MAX_SIZE = {"n_trajectories": 10**9, "n_times": 10**5}

Z_LIMIT = 4.0
P_FLOOR = 1e-3


@dataclass(frozen=True)
class EnsembleMoments:
    """Per-time mean and covariance of (P, J) with jackknife errors."""

    times: np.ndarray        # (n_t,)
    mean: np.ndarray         # (n_t, 6)
    cov: np.ndarray          # (n_t, 6, 6)
    stderr_mean: np.ndarray  # (n_t, 6)
    stderr_cov: np.ndarray   # (n_t, 6, 6)
    n_trajectories: int
    event_counts: np.ndarray  # (n_traj,) events per trajectory


def _kicks(ev: EmissionSample, m_atom: float, out: np.ndarray) -> np.ndarray:
    """The (6, n) kicks (-p n, -s x p n) of a batch of events on the
    particle, one row per component, assembled and negated in out. The
    sample's directions and sites are read as their contiguous (3, n)
    rows; the directions may be out's first three rows, and the sites
    none of its rows. s x p n is taken as the three differences that
    np.cross evaluates. The caller has checked m_atom (check_atom_mass),
    and a sampler draws no negative energy."""
    atom_p = np.multiply(np.sqrt(2.0 * m_atom * ev.energies),
                         ev.directions.T, out=out[:3])
    s = ev.sites.T
    for c in range(3):
        a, b = (c + 1) % 3, (c + 2) % 3
        np.multiply(s[a], atom_p[b], out=out[3 + c])
        out[3 + c] -= s[b] * atom_p[a]
    return np.negative(out, out=out)


class _Buffers:
    """The float arrays that one simulate_ensemble call keeps across its
    blocks, by name: each is a flat array viewed C-contiguous at the
    shape a block asks for, and reallocated only when a block asks for
    more than any block before it. An eighth to spare covers the spread
    of a block's event count about its mean, so later blocks rarely
    reallocate."""

    def __init__(self):
        self._flat = {}

    def __call__(self, name: str, shape) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(name)
        if flat is None or len(flat) < size:
            flat = self._flat[name] = np.empty(size + size // 8)
        return flat[:size].reshape(shape)


def _report_slots(t_ev, duration, report_times) -> np.ndarray:
    """searchsorted(report_times, t_ev, "left") by arithmetic: the slot of
    each event time t in [0, duration] is first guessed as
    floor(t / duration n_t), which cannot overflow, then moved one step
    at a time towards the report times around t until none moves. Where
    report times coincide (a duration near the smallest double) a slot
    may need several steps."""
    n_t = len(report_times)
    edges = np.concatenate([[-np.inf], report_times, [np.inf]])
    slot = (t_ev / duration * n_t).astype(np.intp)
    while True:
        step = ((edges[1:][slot] < t_ev).view(np.int8)
                - (edges[slot] >= t_ev).view(np.int8))
        if not step.any():
            return slot
        slot += step


def _simulate_block(sampler: EventSampler, m_atom, duration, report_times,
                    seed, block, n, buffers: Optional[_Buffers] = None
                    ) -> tuple[np.ndarray, np.ndarray]:
    """(P, J) at the report times for the n trajectories of one block.

    One stream per block: Poisson counts for every trajectory, then every
    event time, then every event, each drawn in a single call. A kick is
    binned at the first report time at or after its event, so the running
    sum over report times gives each trajectory's (P, J) there. The bins
    are laid out (time, component, trajectory), so one scatter-add per
    component fills them, each step of the running sum adds a contiguous
    slab, and the result is a view of the first n_t slabs. The events'
    gather, then their kicks, and the bins are written into `buffers`
    (new ones if not given), so the result is valid until they are
    written again.
    """
    buffers = _Buffers() if buffers is None else buffers
    rng = stream(seed, _TRAJ_TAG, block)
    counts = rng.poisson(sampler.total * duration, n)
    total = int(counts.sum())
    t_ev = rng.uniform(0.0, duration, total)
    gather = buffers("gather", (12, total))
    ev = sampler.draw(rng, total, out=gather)
    # the kicks take the gather's spent frame rows (see EventSampler)
    kicks = _kicks(ev, m_atom, gather[6:])
    # slot n_t collects events after the last report time, then is dropped.
    # Slabs start 6 n + 8 bins apart: 6 x 2048 doubles is a multiple of
    # 4 KB, and the scatter into slabs that far apart thrashes the cache.
    n_t, width = len(report_times), 6 * n + 8
    cells = _report_slots(t_ev, duration, report_times) * width
    cells += np.repeat(np.arange(n), counts)
    # component c's bins are those of component 0 moved by c n; add.at
    # sums each bin's kicks in the order drawn, as bincount would, but
    # into the kept bins
    out = buffers("bins", (n_t + 1, width))
    out.fill(0.0)
    for c, row in enumerate(kicks):
        np.add.at(out.ravel()[c * n:], cells, row)
    for k in range(1, n_t):
        out[k] += out[k - 1]
    return out[:-1, :6 * n].reshape(n_t, 6, n), counts


def check_block_events(rate: float, duration: float,
                       name: str = "duration") -> None:
    """Refuse a duration at which a block of _BLOCK trajectories expects
    more than _MAX_BLOCK_EVENTS events at the total emission rate."""
    events = _BLOCK * rate * duration
    if not events <= _MAX_BLOCK_EVENTS:
        raise BlockTooLarge(f"'{name}' = {duration:g} gives {events:.3g} "
                            f"expected events per block of {_BLOCK} "
                            f"trajectories, more than {_MAX_BLOCK_EVENTS:,}")


def check_size(name: str, value, path: Optional[str] = None) -> int:
    """simulate_ensemble's count `name` as an int, refused with a
    ValueError that names `path` (name if not given) if it is a bool, is
    of no integer type (8.0 too), or is past its bound in _MAX_SIZE."""
    path = name if path is None else path
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"'{path}' must be an integer, got {value!r}")
    if value > _MAX_SIZE[name]:
        raise ValueError(f"'{path}' must be <= {_MAX_SIZE[name]}")
    return int(value)


def simulate_ensemble(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
                      duration: float, n_trajectories: int, seed: int,
                      n_times: int = 16) -> EnsembleMoments:
    """Ensemble moments of (P, J) under the emission kick process.

    Bitwise reproducible for fixed (seed, n_trajectories, n_times):
    trajectories are cut into fixed blocks of _BLOCK, each block draws
    from its own counter-based stream keyed by the block index, and the
    blocks run and are merged in order on one thread. Every size is
    checked before anything is allocated, and the atom mass first.
    """
    check_atom_mass(m_atom)
    n_trajectories = check_size("n_trajectories", n_trajectories)
    n_times = check_size("n_times", n_times)
    if n_trajectories < 4:
        raise ValueError("need at least four trajectories for jackknife errors")
    if not math.isfinite(duration):
        raise NonFinite(f"'duration' must be finite, got {duration!r}")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if n_times < 1:
        raise ValueError("need at least one report time")
    report_times = duration * np.arange(1, n_times + 1) / n_times
    sampler = EventSampler(model, q)
    check_block_events(sampler.total, duration)
    counts = np.empty(n_trajectories, dtype=np.int64)
    buffers = _Buffers()

    def blocks():
        for k, lo in enumerate(range(0, n_trajectories, _BLOCK)):
            hi = min(lo + _BLOCK, n_trajectories)
            x, counts[lo:hi] = _simulate_block(
                sampler, m_atom, duration, report_times, seed, k, hi - lo,
                buffers)
            yield x

    mean, cov, se_mean, se_cov = _ensemble_moments(blocks(), n_times)
    return EnsembleMoments(report_times, mean, cov, se_mean, se_cov,
                           n_trajectories, counts)


def _ensemble_moments(blocks, n_t: int):
    """Mean/covariance over trajectories with delete-one jackknife errors,
    from blocks of (P, J) laid out (time, component, trajectory), merged
    one block at a time. Each block is overwritten.

    The mean is the sum of the trajectories, added one at a time in their
    order, over their number. Each block is centred at the mean of the
    trajectories so far, reduced to its sums L, S, T and Q there, and
    added to the sums of the blocks before it, moved by _shifted from
    their mean to the new one.
    """
    n = 0
    total = np.zeros((n_t, 6))
    mean = np.zeros((n_t, 6))
    sums = (np.zeros((n_t, 6)), *np.zeros((3, n_t, 6, 6)))
    for x in blocks:
        _add_in_order(total, x)
        before, n_before = mean, n
        n += x.shape[-1]
        mean = total / n
        with np.errstate(over="ignore", invalid="ignore"):    # see _jackknife
            sums = [a + b for a, b in zip(_shifted(n_before, sums,
                                                   before - mean),
                                          _centred_sums(x, mean))]
        del x     # before the next block is built
    return (mean, *_jackknife(n, sums[1], sums[3]))


def _add_in_order(total: np.ndarray, x: np.ndarray) -> None:
    """total += x summed over trajectories, one trajectory after another,
    as a (trajectory, time, component) array sums over its first axis:
    accumulate over a row that starts with the running total."""
    row = np.empty((6, x.shape[-1] + 1))
    for k, slab in enumerate(x):
        row[:, 0] = total[k]
        row[:, 1:] = slab
        np.add.accumulate(row, axis=1, out=row)
        total[k] = row[:, -1]


def _centred_sums(x: np.ndarray, centre: np.ndarray):
    """L = sum y_a, S = sum y_a y_b, T = sum y_a^2 y_b and Q = sum y_a^2 y_b^2
    per time of y = x - centre, x laid out (t, a, n) and overwritten by y.
    Each time's (6, n) slab is centred, and its T and Q taken from its
    squares, one slab at a time. The sums are einsum loops over the
    contiguous axis, not BLAS, whose rounding may depend on its thread
    count."""
    t = np.empty((len(x), 6, 6))
    q = np.empty_like(t)
    square = np.empty(x.shape[1:])
    for k, slab in enumerate(x):
        slab -= centre[k][:, None]
        np.multiply(slab, slab, out=square)
        np.einsum("an,bn->ab", square, slab, out=t[k])
        np.einsum("an,bn->ab", square, square, out=q[k])
    return x.sum(axis=-1), np.einsum("tan,tbn->tab", x, x), t, q


def _shifted(n: int, sums, e: np.ndarray):
    """L, S, T and Q of z = y + e from those of n vectors y: each is a
    polynomial in e of the sums of y up to its own order, exact for any
    centre of y."""
    l, s, t, q = sums
    ea, eb = e[:, :, None], e[:, None, :]
    la, lb = l[:, :, None], l[:, None, :]
    s_aa = np.diagonal(s, axis1=1, axis2=2)
    sa, sb = s_aa[:, :, None], s_aa[:, None, :]
    ee = ea * eb
    return (l + n * e,
            s + ea * lb + eb * la + n * ee,
            t + eb * sa + 2.0 * ea * s + ea * (2.0 * eb * la + ea * lb)
            + n * ea * ee,
            q + 2.0 * (eb * t + ea * t.transpose(0, 2, 1)) + eb * eb * sa
            + ea * ea * sb + 4.0 * ee * s + 2.0 * ee * (eb * la + ea * lb)
            + n * ee * ee)


def _jackknife(n: int, s: np.ndarray, q: np.ndarray):
    """Covariance and delete-one jackknife errors of n trajectories from
    S = sum_i y_i y_i^T and Q = sum_i y_ia^2 y_ib^2 about their mean.

    Covariances use the unbiased estimator. The covariance without
    trajectory i is (S - n/(n-1) y_i y_i^T)/(n-2), so its jackknife
    variance needs only S and Q (Efron & Stein, Ann. Stat. 9:586, 1981).
    Where Q or S^2 overflows ((P, J) near 1e77, the fourth root of the
    float range), the errors are NonFinite.
    """
    with np.errstate(over="ignore"):    # refused below
        square = s * s
    if not (np.all(np.isfinite(q)) and np.all(np.isfinite(square))):
        raise NonFinite("the fourth-order sums of (P, J) overflow, so the "
                        "jackknife errors of the covariance are not finite")
    cov = s / (n - 1)
    se_mean = np.sqrt(np.diagonal(cov, axis1=1, axis2=2) / n)
    spread = np.maximum(q - square / n, 0.0)
    se_cov = np.sqrt(n / ((n - 1) * (n - 2) ** 2) * spread)
    return cov, se_mean, se_cov


@dataclass(frozen=True)
class ComparisonReport:
    """Measured-vs-predicted moment test at the final report time."""

    z_mean: np.ndarray        # (6,)
    z_cov: np.ndarray         # (21,) upper-triangle order
    chi2: float
    dof: int
    p_value: float
    passed: bool
    max_abs_z: float
    n_events: int
    n_trajectories: int

    def summary(self) -> str:
        if self.n_events == 0:
            return (f"FAIL: no emission events in {self.n_trajectories} "
                    "trajectories")
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}: max|z| = {self.max_abs_z:.2f}, "
                f"chi2/dof = {self.chi2:.1f}/{self.dof}, p = {self.p_value:.4g}")


_TRIU = np.triu_indices(6)


def compare_to_prediction(moments: EnsembleMoments, d: Diffusion6,
                          f: ForceTorque6) -> ComparisonReport:
    """z-scores of measured minus predicted moments at the final time,
    from rest.

    Passes when every |z| stays below Z_LIMIT and the global chi-square
    p-value exceeds P_FLOOR. An ensemble without a single emission event
    tests nothing and never passes.
    """
    mean_pred, cov_pred = predict_moments(d, f, moments.times[-1])

    z_mean = _z_scores(moments.mean[-1] - mean_pred, moments.stderr_mean[-1])
    z_cov = _z_scores((moments.cov[-1] - cov_pred)[_TRIU],
                      moments.stderr_cov[-1][_TRIU])

    z_all = np.concatenate([z_mean, z_cov])
    chi2 = float(np.sum(z_all**2))
    dof = len(z_all)
    p_value = chi2_tail(chi2, dof)
    max_abs_z = float(np.max(np.abs(z_all)))
    n_events = int(moments.event_counts.sum())
    passed = bool(n_events > 0 and max_abs_z < Z_LIMIT and p_value > P_FLOOR)
    return ComparisonReport(z_mean, z_cov, chi2, dof, p_value, passed,
                            max_abs_z, n_events, moments.n_trajectories)


# ln 2 = _LN2_HI + _LN2_LO, the high part with 32 trailing zero bits
_LN2_HI = 6.93147180369123816490e-01
_LN2_LO = 1.90821492927058770002e-10


def _split(v: float):
    """v = hi + lo with 26-bit hi and lo (Veltkamp): their products are
    exact."""
    c = 134217729.0 * v
    hi = c - (c - v)
    return hi, v - hi


def _exp_sum(parts) -> float:
    """exp of the exact sum of parts. The sum is reduced by k ln 2 before
    it is rounded, so an argument near -700 keeps full precision."""
    total = math.fsum(parts)
    if total < -746.0:   # exp rounds to 0 below about -745.13
        return 0.0
    k = round(total / math.log(2.0))
    r = math.fsum(parts + [-k * _LN2_HI, -k * _LN2_LO])
    return math.ldexp(math.exp(r), k)


def chi2_tail(x: float, dof: int) -> float:
    """P(X > x) for X chi-square distributed with an integer dof >= 1.

    The finite sums of Abramowitz & Stegun 26.4.4-5: with y = x / 2,
    exp(-y) sum_(j<dof/2) y^j / j! for even dof, and erfc(sqrt y) plus
    exp(-y) sum_(1<=j<=dof/2) y^(j-1/2) / Gamma(j+1/2) for odd dof. The
    terms are summed in log space, so the tail underflows only where its
    value is below the smallest double. NaN and negative x give NaN,
    +inf gives 0.
    """
    dof = operator.index(dof)
    if dof < 1:
        raise ValueError(f"chi-square dof must be >= 1, not {dof}")
    if math.isnan(x) or x < 0.0:
        return math.nan
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    if y == 0.0:
        return 1.0
    half = 0.5 * (dof % 2)
    p = 0.0
    if half:
        # erfc amplifies the rounding of z = sqrt(y) by 2y; the exact
        # z^2 - y undoes it, as d/dz log erfc(z) ~ -2z
        z = math.sqrt(y)
        p = math.erfc(z)
        if p:
            hi, lo = _split(z)
            p *= math.exp(math.fsum([hi * hi, 2.0 * hi * lo, lo * lo, -y]))
    log_y = math.log(y)
    js = range(dof % 2, (dof + 1) // 2)
    logs = [(j - half) * log_y - math.lgamma(j + 1.0 - half) for j in js]
    if logs:
        top = max(range(len(logs)), key=logs.__getitem__)
        s = math.fsum(math.exp(v - logs[top]) for v in logs)
        hi, lo = _split(log_y)
        n = js[top] - half
        p += _exp_sum([-y, n * hi, n * lo, -math.lgamma(n + 1.0),
                       math.log(s)])
    return min(p, 1.0)   # the rounding of a large dof's sum can pass 1


def _z_scores(diff: np.ndarray, stderr: np.ndarray) -> np.ndarray:
    """diff/stderr; a zero stderr demands an exactly zero difference."""
    degenerate = stderr == 0.0
    safe = np.where(degenerate, 1.0, stderr)
    return np.where(degenerate, np.where(diff == 0.0, 0.0, np.inf), diff / safe)


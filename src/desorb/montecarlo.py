"""Monte Carlo oracle: emission events as momentum kicks on an ensemble.

Each trajectory accumulates Poissonian emission events; every event
removes the atom's linear momentum p(E) n and orbital angular momentum
s x p(E) n from the particle (kicks -p n and -s x p n). Orientation is
held at the reference during a run, matching the regime in which the
drift/diffusion predictions are derived.

Ensembles run in fixed blocks of trajectories. Each block draws its
events from one counter-based stream keyed by the block index and turns
them into kicks as arrays, so a result is fixed by the inputs and the
seed alone.
Ensemble moments come with closed-form delete-one jackknife standard
errors so the quadrature predictions can be tested at a stated
significance. The pass thresholds are fixed: every |z| below
Z_LIMIT = 4 and a chi-square p-value above P_FLOOR = 1e-3.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .flux import EmissionSample, EventSampler, FluxModel
from .geometry import SurfaceQuadrature
from .moments import Diffusion6, ForceTorque6, predict_moments
from .rng import stream
from .rotations import momentum_from_energy

_TRAJ_TAG = "trajectory"
_BLOCK = 2048  # trajectories per random stream; part of every result

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


def _kicks(ev: EmissionSample, m_atom: float) -> np.ndarray:
    """(n, 6) kicks (-p n, -s x p n) of a batch of events on the particle."""
    atom_p = momentum_from_energy(ev.energies, m_atom)[:, None] * ev.directions
    return -np.hstack([atom_p, np.cross(ev.sites, atom_p)])


def _simulate_block(sampler: EventSampler, m_atom, duration, report_times,
                    seed, block, n) -> tuple[np.ndarray, np.ndarray]:
    """(P, J) at the report times for the n trajectories of one block.

    One stream per block: Poisson counts for every trajectory, then every
    event time, then every event, each drawn in a single call. A kick is
    binned at the first report time at or after its event, so the running
    sum over report times gives each trajectory's (P, J) there.
    """
    rng = stream(seed, _TRAJ_TAG, block)
    counts = rng.poisson(sampler.total * duration, n)
    total = int(counts.sum())
    t_ev = rng.uniform(0.0, duration, total)
    kicks = _kicks(sampler.draw(rng, size=total), m_atom)
    # slot n_t collects events after the last report time, then is dropped
    width = len(report_times) + 1
    bins = (np.repeat(np.arange(n) * width, counts)
            + np.searchsorted(report_times, t_ev, side="left"))
    out = np.empty((n * width, 6))
    for c in range(6):
        out[:, c] = np.bincount(bins, weights=kicks[:, c], minlength=n * width)
    return np.cumsum(out.reshape(n, width, 6)[:, :-1], axis=1), counts


def simulate_ensemble(model: FluxModel, q: SurfaceQuadrature, m_atom: float,
                      duration: float, n_trajectories: int, seed: int,
                      n_times: int = 16) -> EnsembleMoments:
    """Ensemble moments of (P, J) under the emission kick process.

    Bitwise reproducible for fixed (seed, n_trajectories, n_times):
    trajectories are cut into fixed blocks of _BLOCK, each block draws
    from its own counter-based stream keyed by the block index, and the
    blocks run in order on one thread.
    """
    if n_trajectories < 4:
        raise ValueError("need at least four trajectories for jackknife errors")
    if duration <= 0:
        raise ValueError("duration must be positive")
    report_times = duration * np.arange(1, n_times + 1) / n_times
    sampler = EventSampler(model, q)
    results = [_simulate_block(sampler, m_atom, duration, report_times, seed,
                               k, min(_BLOCK, n_trajectories - lo))
               for k, lo in enumerate(range(0, n_trajectories, _BLOCK))]
    samples = np.concatenate([r[0] for r in results], axis=0)
    counts = np.concatenate([r[1] for r in results])
    mean, cov, se_mean, se_cov = _jackknife_moments(samples)
    return EnsembleMoments(report_times, mean, cov, se_mean, se_cov,
                           n_trajectories, counts)


def _jackknife_moments(samples: np.ndarray):
    """Mean/covariance over trajectories with delete-one jackknife errors.

    samples: (n_traj, n_t, 6). Covariances use the unbiased estimator.
    With y = x - mean, the covariance without trajectory i is
    (S - n/(n-1) y_i y_i^T)/(n-2), S = sum_i y_i y_i^T, so its jackknife
    variance needs only S and Q = sum_i y_ia^2 y_ib^2 (Efron & Stein,
    Ann. Stat. 9:586, 1981).
    """
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    y = samples - mean
    s = np.einsum("nta,ntb->tab", y, y)
    y *= y
    q = np.einsum("nta,ntb->tab", y, y)
    cov = s / (n - 1)
    se_mean = np.sqrt(np.diagonal(cov, axis1=1, axis2=2) / n)
    spread = np.maximum(q - s * s / n, 0.0)
    se_cov = np.sqrt(n / ((n - 1) * (n - 2) ** 2) * spread)
    return mean, cov, se_mean, se_cov


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


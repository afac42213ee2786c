import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import N2_MASS, SPHERE_RADIUS
import desorb.montecarlo
from desorb.flux import (CosineDirection, CosineLaw, EventSampler,
                         FixedDirection, Isotropic, IsotropicDirection,
                         SingleSite, TabulatedFlux, total_rate)
from desorb.geometry import BodySpec, Cylinder, build_quadrature
from desorb.moments import Diffusion6, diffusion_tensor, force_torque
from desorb.errors import BlockTooLarge, NonFinite
from desorb.montecarlo import (_BLOCK, _MAX_BLOCK_EVENTS, _Buffers,
                               _ensemble_moments, _kicks, _report_slots,
                               _simulate_block, chi2_tail,
                               compare_to_prediction, simulate_ensemble)
from desorb.rng import stream
from desorb.rotations import momentum_from_energy
from desorb.spectra import MaxwellBoltzmannFlux, Monoenergetic

E0 = 4.141947e-21
P0 = np.sqrt(2.0 * N2_MASS * E0)


def test_zero_event_trajectories_constant(sphere_quad_coarse):
    # vanishingly small rate: no events, moments stay at zero
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e-12)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 64, seed=1)
    assert em.event_counts.sum() == 0
    assert np.all(em.mean == 0.0)
    assert np.all(em.cov == 0.0)


@pytest.mark.parametrize("n_times", [0, -1])
def test_simulate_needs_a_report_time(sphere_quad_coarse, n_times):
    # 0 gave moments with no report time, on which compare_to_prediction
    # raised a raw IndexError; -1 failed inside np.empty
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
    with pytest.raises(ValueError, match="report time"):
        simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1e-3, 64,
                          seed=1, n_times=n_times)


def test_zero_event_report_says_no_events(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e-12)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 64, seed=1)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    f = force_torque(model, sphere_quad_coarse, N2_MASS)
    report = compare_to_prediction(em, d, f)
    assert not report.passed
    assert report.n_events == 0 and report.n_trajectories == 64
    assert report.summary() == "FAIL: no emission events in 64 trajectories"


def _jackknife_moments(samples: np.ndarray):
    """Two-pass reference: mean/covariance over trajectories with
    delete-one jackknife errors from samples held whole.

    samples: (n_traj, n_t, 6). Covariances use the unbiased estimator.
    With y = x - mean, the covariance without trajectory i is
    (S - n/(n-1) y_i y_i^T)/(n-2), S = sum_i y_i y_i^T, so its jackknife
    variance needs only S and Q = sum_i y_ia^2 y_ib^2 (Efron & Stein,
    Ann. Stat. 9:586, 1981). y is laid out (t, a, n), trajectories last.
    """
    n = samples.shape[0]
    mean = samples.mean(axis=0)
    y = np.subtract(samples.transpose(1, 2, 0), mean[..., None], order="C")
    s = np.einsum("tan,tbn->tab", y, y)
    y *= y
    q = np.einsum("tan,tbn->tab", y, y)
    cov = s / (n - 1)
    se_mean = np.sqrt(np.diagonal(cov, axis1=1, axis2=2) / n)
    spread = np.maximum(q - s * s / n, 0.0)
    se_cov = np.sqrt(n / ((n - 1) * (n - 2) ** 2) * spread)
    return mean, cov, se_mean, se_cov


def _explicit_jackknife_cov_stderr(samples):
    """Delete-one covariances built one by one (reference)."""
    n = samples.shape[0]
    out = np.empty(samples.shape[1:] + (6,))
    for j in range(samples.shape[1]):
        covs = np.array([np.cov(np.delete(samples[:, j], i, axis=0),
                                rowvar=False) for i in range(n)])
        out[j] = np.sqrt((n - 1) / n * np.sum((covs - covs.mean(axis=0)) ** 2,
                                              axis=0))
    return out


def test_jackknife_closed_form_matches_delete_one():
    rng = stream(41, "test-jackknife")
    # correlated, offset, unevenly scaled columns like (P, J)
    mix = rng.normal(size=(6, 6)) * np.array([1e-22] * 3 + [1e-29] * 3)
    samples = rng.standard_exponential((40, 3, 6)) @ mix.T + 3e-23
    mean, cov, se_mean, se_cov = _jackknife_moments(samples)
    for j in range(3):
        np.testing.assert_allclose(cov[j], np.cov(samples[:, j], rowvar=False),
                                   rtol=1e-12)
    np.testing.assert_allclose(se_mean, samples.std(axis=0, ddof=1)
                               / np.sqrt(40), rtol=1e-12)
    np.testing.assert_allclose(se_cov, _explicit_jackknife_cov_stderr(samples),
                               rtol=1e-12)


def test_jackknife_matches_strided_einsum():
    # the sums over trajectories agree with the (n, t, a) einsum to
    # rounding; the mean is the same reduction and keeps every bit
    rng = stream(42, "test-jackknife-layout")
    mix = rng.normal(size=(6, 6)) * np.array([1e-22] * 3 + [1e-29] * 3)
    samples = rng.standard_exponential((4096, 16, 6)) @ mix.T + 3e-23
    n = len(samples)
    mean = samples.mean(axis=0)
    y = samples - mean
    s = np.einsum("nta,ntb->tab", y, y)
    y *= y
    q = np.einsum("nta,ntb->tab", y, y)
    cov = s / (n - 1)
    se_mean = np.sqrt(np.diagonal(cov, axis1=1, axis2=2) / n)
    se_cov = np.sqrt(n / ((n - 1) * (n - 2) ** 2)
                     * np.maximum(q - s * s / n, 0.0))
    got = _jackknife_moments(samples)
    assert got[0].tobytes() == mean.tobytes()
    for g, want in zip(got[1:], (cov, se_mean, se_cov)):
        np.testing.assert_allclose(g, want, rtol=1e-12, atol=0.0)


def _merged(samples):
    """_ensemble_moments over (n_traj, n_t, 6) samples cut into blocks of
    _BLOCK trajectories, each laid out (time, component, trajectory)."""
    blocks = (np.ascontiguousarray(samples[lo:lo + _BLOCK].transpose(1, 2, 0))
              for lo in range(0, len(samples), _BLOCK))
    return _ensemble_moments(blocks, samples.shape[1])


@pytest.mark.parametrize("n, offset", [
    (_BLOCK, 0.0), (3 * _BLOCK, 0.0), (2 * _BLOCK + 17, 0.0),
    (3 * _BLOCK, 1e4)], ids=["one_block", "three_blocks", "ragged", "offset"])
def test_merged_moments_match_two_pass(n, offset):
    # columns like (P, J), with a drift over the trajectories so that the
    # block means differ, and a common offset of `offset` times the spread
    rng = stream(44, "test-merge", n)
    scale = np.array([1e-22] * 3 + [1e-29] * 3)
    mix = rng.normal(size=(6, 6)) * scale
    samples = rng.standard_exponential((n, 3, 6)) @ mix.T
    samples += np.linspace(0.0, 2.0, n)[:, None, None] * scale
    samples += offset * scale
    want = _jackknife_moments(samples)
    got = _merged(samples.copy())
    # the mean adds the trajectories in order, as the two-pass mean does
    assert got[0].tobytes() == want[0].tobytes()
    sd = np.sqrt(np.diagonal(want[1], axis1=1, axis2=2))
    assert np.all(np.abs(got[1] - want[1])
                  <= 1e-11 * sd[:, :, None] * sd[:, None, :])
    for g, w in zip(got[2:], want[2:]):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)


def test_simulate_refuses_a_block_past_the_event_bound(sphere_quad_coarse):
    # refused before the block's events are drawn
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      1.0 / sphere_quad_coarse.total_area)
    rate = total_rate(model, sphere_quad_coarse)
    duration = 1.001 * _MAX_BLOCK_EVENTS / (_BLOCK * rate)
    with pytest.raises(BlockTooLarge, match="expected events per block"):
        simulate_ensemble(model, sphere_quad_coarse, N2_MASS, duration,
                          _BLOCK, seed=1)


def test_simulate_refuses_a_zero_total_rate_before_any_block(
        sphere_quad_coarse, monkeypatch):
    # node rates that underflow to 0: refused as the sampler is built
    def never(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(desorb.montecarlo, "stream", never)
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e-320)
    assert total_rate(model, sphere_quad_coarse) == 0.0
    with pytest.raises(ValueError, match="zero total rate"):
        simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 64, seed=1)


@pytest.mark.parametrize("m_atom, n_traj", [
    (1e200, 64), (1e300, 64), (1e200, _BLOCK + 64)],
    ids=["1e200", "1e300", "two_blocks"])
def test_simulate_refuses_jackknife_sums_that_overflow(sphere_quad_coarse,
                                                       m_atom, n_traj):
    # the fourth-order sums of a huge atom's kicks overflow: the stderr
    # columns were NaN, after an "invalid value" or "overflow" warning
    model = SingleSite(np.zeros(3), IsotropicDirection(),
                       MaxwellBoltzmannFlux(300.0), 5.0)
    with pytest.raises(NonFinite, match="jackknife errors of the covariance"):
        simulate_ensemble(model, sphere_quad_coarse, m_atom, 1.0, n_traj,
                          seed=1)


def test_traced_peak_does_not_grow_with_trajectories(sphere_body):
    # blocks are merged as they are binned: eight blocks peak within
    # 1.25x of one; holding every trajectory, they peaked at 5.7x
    q = build_quadrature(sphere_body, 4)
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 2.0 / q.total_area)
    peaks = []
    for n in (_BLOCK, 8 * _BLOCK):
        tracemalloc.start()
        try:
            simulate_ensemble(model, q, N2_MASS, 1.0, n, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0], peaks


@pytest.mark.parametrize("kind", ["cosine", "site", "table"])
def test_block_matches_stacked_kicks(sphere_quad_coarse, kind):
    # the bits of one block: kicks stacked as -(p n, s x p n), binned per
    # column, and summed over the report times without the last slot
    sampler = EventSampler(_bookkeeping_model(kind, sphere_quad_coarse),
                           sphere_quad_coarse)
    n, duration = 300, 1.0
    report_times = duration * np.arange(1, 5) / 4
    got, counts = _simulate_block(sampler, N2_MASS, duration, report_times,
                                  17, 3, n)
    got = got.transpose(2, 0, 1)
    rng = stream(17, "trajectory", 3)
    counts_ref = rng.poisson(sampler.total * duration, n)
    t_ev = rng.uniform(0.0, duration, counts_ref.sum())
    ev = sampler.draw(rng, int(counts_ref.sum()))
    atom_p = momentum_from_energy(ev.energies, N2_MASS)[:, None] * ev.directions
    kicks = -np.hstack([atom_p, np.cross(ev.sites, atom_p)])
    width = len(report_times) + 1
    bins = (np.repeat(np.arange(n) * width, counts_ref)
            + np.searchsorted(report_times, t_ev, side="left"))
    out = np.empty((n * width, 6))
    for c in range(6):
        out[:, c] = np.bincount(bins, weights=kicks[:, c],
                                minlength=n * width)
    want = np.cumsum(out.reshape(n, width, 6)[:, :-1], axis=1)
    assert np.array_equal(counts, counts_ref)
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("duration", [5e-324, 3e-323, 1e-320, 1 / 3, 1e300])
@pytest.mark.parametrize("n_times", [1, 3, 16, 17])
def test_report_slots_match_searchsorted(duration, n_times):
    # at 5e-324 and 3e-323 several report times coincide, so a guessed
    # slot can be more than one step from its report time
    report_times = duration * np.arange(1, n_times + 1) / n_times
    u = stream(41, "slots").random(3000)
    t = np.concatenate([[0.0, duration], report_times,
                        np.nextafter(report_times, 0.0),
                        np.nextafter(report_times, np.inf), duration * u])
    t = t[t <= duration]
    want = np.searchsorted(report_times, t, side="left")
    np.testing.assert_array_equal(_report_slots(t, duration, report_times),
                                  want)


def test_ensemble_size_not_multiple_of_block(sphere_quad_coarse):
    n = 2053
    assert n % _BLOCK != 0
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      12.0 / sphere_quad_coarse.total_area)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    f = force_torque(model, sphere_quad_coarse, N2_MASS)
    a = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, n, seed=53)
    b = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, n, seed=53)
    assert a.event_counts.shape == (n,) and a.n_trajectories == n
    report = compare_to_prediction(a, d, f)
    assert report.passed, report.summary()
    for name in ("mean", "cov", "stderr_mean", "stderr_cov", "event_counts"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def _bookkeeping_model(kind, q):
    """About ten events per trajectory and second from each model kind."""
    if kind == "cosine":
        return CosineLaw(MaxwellBoltzmannFlux(300.0), 10.0 / q.total_area)
    if kind == "site":
        return SingleSite(np.array([0.0, 3e-8, SPHERE_RADIUS]),
                          CosineDirection(np.array([0.6, 0.0, 0.8])),
                          Monoenergetic(E0), 10.0)
    cos_grid = np.array([0.0, 0.5, 1.0])
    e_grid = np.array([0.0, 2e-21, 8e-21])
    rates = 1.0 + 0.8 * q.points[:, 2] / SPHERE_RADIUS
    values = (rates[:, None, None] * cos_grid[None, :, None]
              * np.array([0.0, 1.0, 0.2])[None, None, :])
    table = TabulatedFlux(cos_grid, e_grid, values)
    return TabulatedFlux(cos_grid, e_grid,
                         values * 10.0 / total_rate(table, q))


@pytest.mark.parametrize("kind", ["cosine", "site", "table"])
@settings(max_examples=12)
@given(seed=st.integers(0, 2**63 - 1), block=st.integers(0, 10**6),
       n=st.integers(1, 40), n_times=st.integers(1, 6),
       duration=st.floats(0.05, 2.0))
def test_block_kick_bookkeeping(sphere_quad_coarse, kind, seed, block, n,
                                n_times, duration):
    # each trajectory's (P, J) at a report time is minus the momenta that
    # its own atoms carried off at or before that time
    sampler = EventSampler(_bookkeeping_model(kind, sphere_quad_coarse),
                           sphere_quad_coarse)
    report_times = duration * np.arange(1, n_times + 1) / n_times
    got, counts = _simulate_block(sampler, N2_MASS, duration, report_times,
                                  seed, block, n)
    got = got.transpose(2, 0, 1)
    rng = stream(seed, "trajectory", block)
    assert np.array_equal(counts, rng.poisson(sampler.total * duration, n))
    t_ev = rng.uniform(0.0, duration, counts.sum())
    ev = sampler.draw(rng, int(counts.sum()))
    p_atom = np.sqrt(2.0 * N2_MASS * ev.energies)[:, None] * ev.directions
    atom = np.hstack([p_atom, np.cross(ev.sites, p_atom)])
    owner = np.repeat(np.arange(n), counts)
    expected = np.array([[-atom[(owner == i) & (t_ev <= t)].sum(axis=0)
                          for t in report_times] for i in range(n)])
    assert got.shape == (n, n_times, 6)
    scale = np.abs(atom).max(axis=0, initial=0.0) * max(counts.max(), 1)
    assert np.all(np.abs(got - expected) <= 1e-12 * scale)


def test_isotropic_site_covariance_matches_prediction(sphere_quad_coarse):
    # oracle: the moments module (itself pinned to the 1/3 hand integral)
    gamma = 25.0
    model = SingleSite(np.zeros(3), IsotropicDirection(), Monoenergetic(E0),
                       gamma)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    f = force_torque(model, sphere_quad_coarse, N2_MASS)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 20000,
                           seed=7)
    report = compare_to_prediction(em, d, f)
    assert report.passed, report.summary()
    # angular momentum never kicks for a site at the center of mass
    assert np.all(em.cov[-1][3:, 3:] == 0.0)


def test_directed_site_mean_drift(sphere_quad_coarse):
    # Poisson mean count times kick: <P>(t) = -Gamma p0 n t, matching the
    # force_torque sign convention
    gamma = 25.0
    model = SingleSite(np.array([0.0, 0.0, SPHERE_RADIUS]),
                       FixedDirection([0.0, 0.0, 1.0]), Monoenergetic(E0),
                       gamma)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 20000,
                           seed=11)
    t = em.times[-1]
    expected = -gamma * P0 * t
    z = (em.mean[-1][2] - expected) / em.stderr_mean[-1][2]
    assert abs(z) < 4.0
    f = force_torque(model, sphere_quad_coarse, N2_MASS)
    assert f.force[2] == pytest.approx(-gamma * P0, rel=1e-12)


def test_event_counts_poisson_chi2(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      8.0 / sphere_quad_coarse.total_area)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 50000,
                           seed=13)
    lam = total_rate(model, sphere_quad_coarse) * 1.0
    kmax = int(stats.poisson.ppf(0.9999, lam)) + 1
    counts = np.bincount(np.minimum(em.event_counts, kmax), minlength=kmax + 1)
    probs = stats.poisson.pmf(np.arange(kmax + 1), lam)
    probs[-1] = 1.0 - probs[:-1].sum() + stats.poisson.pmf(kmax, lam)
    expected = probs * len(em.event_counts)
    keep = expected > 10
    chi2 = np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
    assert stats.chi2.sf(chi2, keep.sum() - 1) > 1e-3


def test_bitwise_reproducible_across_threads(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      50.0 / sphere_quad_coarse.total_area)
    runs = [simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 0.1, 6000,
                              seed=99) for _ in range(3)]
    for other in runs[1:]:
        assert np.array_equal(runs[0].mean, other.mean)
        assert np.array_equal(runs[0].cov, other.cov)
        assert np.array_equal(runs[0].stderr_cov, other.stderr_cov)
        assert np.array_equal(runs[0].event_counts, other.event_counts)


def test_same_seed_identical_different_seed_not(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      100.0 / sphere_quad_coarse.total_area)
    a = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 0.1, 2000, seed=5)
    b = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 0.1, 2000, seed=5)
    c = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 0.1, 2000, seed=6)
    assert np.array_equal(a.mean, b.mean)
    assert not np.array_equal(a.mean, c.mean)


def test_self_consistency_passes_and_scaled_d_fails(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      15.0 / sphere_quad_coarse.total_area)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    f = force_torque(model, sphere_quad_coarse, N2_MASS)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 100_000,
                           seed=21)
    report = compare_to_prediction(em, d, f)
    assert report.passed, report.summary()
    scaled = Diffusion6(1.1 * d.d_tt, 1.1 * d.d_tr, 1.1 * d.d_rt, 1.1 * d.d_rr)
    report_bad = compare_to_prediction(em, scaled, f)
    assert not report_bad.passed
    # the detection comes from the diagonal covariance entries
    diag_idx = [0, 6, 11, 15, 18, 20]  # (i,i) positions in the triu order
    assert np.max(np.abs(report_bad.z_cov[diag_idx])) > 4.0


def test_cylinder_biased_rate_cross_block(sphere_quad_coarse):
    # axially biased emission from a capped cylinder: nonzero P-J coupling
    body = BodySpec(Cylinder(5e-8, 1.1e-7, capped=True))
    q = build_quadrature(body, 16)
    h = 1.1e-7
    rate_field = lambda pts: (20.0 / q.total_area) * (1.0 + 0.8 * pts[:, 2] / h)
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), rate_field)
    d = diffusion_tensor(model, q, N2_MASS)
    f = force_torque(model, q, N2_MASS)
    # quadrature predicts a genuinely nonzero tr block for this model
    assert np.max(np.abs(d.d_tr)) > 1e-3 * np.sqrt(
        np.max(np.abs(d.d_tt)) * np.max(np.abs(d.d_rr)))
    em = simulate_ensemble(model, q, N2_MASS, 1.0, 100_000, seed=23)
    report = compare_to_prediction(em, d, f)
    assert report.passed, report.summary()


def test_ensemble_covariance_psd(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      20.0 / sphere_quad_coarse.total_area)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 4000,
                           seed=31)
    for k in range(len(em.times)):
        cov = em.cov[k]
        np.testing.assert_allclose(cov, cov.T, atol=1e-30)
        eigs = np.linalg.eigvalsh(cov)
        assert eigs.min() >= -1e-12 * max(eigs.max(), 1e-300)


def test_chi2_tail_matches_mpmath():
    # the regularized upper incomplete gamma Q(k/2, x/2) at 30 digits;
    # x = 1000 and more is where exp(-x/2) alone underflows
    x = np.concatenate([np.geomspace(1e-6, 2000.0, 40),
                        np.linspace(1000.0, 1800.0, 9)])
    worst = 0.0
    with mpmath.workdps(30):
        for k in range(1, 81):
            for xi in x:
                ref = float(mpmath.gammainc(k / 2, mpmath.mpf(xi) / 2,
                                            regularized=True))
                got = chi2_tail(float(xi), k)
                if ref > 1e-300:
                    worst = max(worst, abs(got - ref) / ref)
                else:
                    assert got <= 1e-290
    assert worst <= 1e-13


def test_chi2_tail_edge_values():
    for k in (1, 2, 27, 80):
        assert chi2_tail(0.0, k) == 1.0
        assert chi2_tail(math.inf, k) == 0.0
        assert math.isnan(chi2_tail(math.nan, k))
    # below the smallest double, and a numpy integer dof
    assert chi2_tail(1500.0, 1) == 0.0
    assert chi2_tail(1400.0, np.int64(2)) == pytest.approx(math.exp(-700.0),
                                                           rel=1e-13)
    with pytest.raises(ValueError):
        chi2_tail(1.0, 0)
    with pytest.raises(TypeError):
        chi2_tail(1.0, 2.5)


@pytest.mark.parametrize("duration", [np.nan, np.inf, -np.inf])
def test_simulate_refuses_a_non_finite_duration(sphere_quad_coarse,
                                                duration):
    # nan and inf were refused as BlockTooLarge ("nan expected events"),
    # -inf as a ValueError that did not say it was not finite
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
    with pytest.raises(NonFinite, match="'duration' must be finite"):
        simulate_ensemble(model, sphere_quad_coarse, N2_MASS, duration, 64,
                          seed=1)


@pytest.mark.parametrize("name, value", [
    ("n_trajectories", 8.5), ("n_trajectories", np.float64(8)),
    ("n_trajectories", True), ("n_times", 2.5), ("n_times", np.float64(8)),
    ("n_times", True)])
def test_simulate_refuses_sizes_of_no_integer_type(sphere_quad_coarse, name,
                                                   value):
    # these failed with raw numpy TypeErrors, or ran as n_times = 1
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
    sizes = {"n_trajectories": 64, "n_times": 4, name: value}
    with pytest.raises(ValueError, match=f"'{name}' must be an integer"):
        simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1e-3,
                          sizes["n_trajectories"], seed=1,
                          n_times=sizes["n_times"])


@pytest.mark.parametrize("name, value", [("n_trajectories", 10**9 + 1),
                                         ("n_times", 10**5 + 1)])
def test_simulate_refuses_sizes_past_their_bounds(sphere_quad_coarse, name,
                                                  value):
    # refused before anything is allocated: 8 B of event count per
    # trajectory, and one block's bins per report time
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e-12)
    sizes = {"n_trajectories": 4, "n_times": 4, name: value}
    with pytest.raises(ValueError, match=f"'{name}' must be <= "):
        simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1e-3,
                          sizes["n_trajectories"], seed=1,
                          n_times=sizes["n_times"])


def test_simulate_takes_numpy_integer_sizes(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      12.0 / sphere_quad_coarse.total_area)
    a = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0,
                          np.int64(64), seed=np.uint64(9), n_times=np.int32(3))
    b = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 64,
                          seed=9, n_times=3)
    assert a.n_trajectories == 64 and type(a.n_trajectories) is int
    for name in ("mean", "cov", "stderr_mean", "stderr_cov", "event_counts"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


@pytest.mark.parametrize("seed, index", [
    (1.5, 0), (1.0, 0), (True, 0), (np.float64(1), 0), (1, 2.0), (1, True)],
    ids=["seed_1.5", "seed_1.0", "seed_True", "seed_float64", "index_2.0",
         "index_True"])
def test_stream_refuses_a_seed_or_index_of_no_integer_type(seed, index):
    # 1.5 was truncated to the stream of seed 1
    with pytest.raises(ValueError, match="must be an integer"):
        stream(seed, "t", index)


def test_simulate_refuses_a_non_integral_seed(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
    with pytest.raises(ValueError, match="seed must be an integer"):
        simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1e-3, 64,
                          seed=1.5)


def test_stream_takes_integer_seeds_modulo_2_64():
    # every integer still names the stream it named before
    want = stream(7, "t", 3).random(4)
    for seed in (np.int64(7), 2**64 + 7, 7 - 2**64):
        assert stream(seed, "t", np.int32(3)).random(4).tobytes() \
            == want.tobytes()
    assert stream(-1, "t").random(4).tobytes() \
        == stream(2**64 - 1, "t").random(4).tobytes()


def _stacked_kicks_block(sampler, duration, report_times, seed, block, n):
    """One block from fresh arrays: -(p n, s x p n) stacked per event,
    binned per column and summed over the report times, laid out
    (trajectory, time, component)."""
    rng = stream(seed, "trajectory", block)
    counts = rng.poisson(sampler.total * duration, n)
    t_ev = rng.uniform(0.0, duration, counts.sum())
    ev = sampler.draw(rng, int(counts.sum()))
    atom_p = momentum_from_energy(ev.energies, N2_MASS)[:, None] * ev.directions
    kicks = -np.hstack([atom_p, np.cross(ev.sites, atom_p)])
    width = len(report_times) + 1
    bins = (np.repeat(np.arange(n) * width, counts)
            + np.searchsorted(report_times, t_ev, side="left"))
    out = np.empty((n * width, 6))
    for c in range(6):
        out[:, c] = np.bincount(bins, weights=kicks[:, c],
                                minlength=n * width)
    return np.cumsum(out.reshape(n, width, 6)[:, :-1], axis=1), counts


def _kick_model(kind, q):
    """About ten events per trajectory and second from the kinds that
    test_block_matches_stacked_kicks leaves out."""
    mb = MaxwellBoltzmannFlux(300.0)
    site = np.array([1e-8, -2e-8, 7e-8])
    if kind == "isotropic":     # half the 4 pi rate leaves the surface
        return Isotropic(mb, 20.0 / q.total_area)
    law = {"site_isotropic": IsotropicDirection(),
           "site_fixed": FixedDirection([0.0, 0.6, 0.8]),
           "site_cosine": CosineDirection(np.array([0.8, 0.0, -0.6]))}[kind]
    return SingleSite(site, law, mb, 10.0)


@pytest.mark.parametrize("kind", ["isotropic", "site_isotropic",
                                  "site_fixed", "site_cosine"])
def test_kicks_of_the_other_kinds_from_kept_buffers(sphere_quad_coarse,
                                                    kind):
    # the kicks are written over the gather's frame rows; a fixed
    # direction is the gathered axis rows themselves, which no kick row
    # may overwrite before it is read
    q = sphere_quad_coarse
    sampler = EventSampler(_kick_model(kind, q), q)
    size = 3001
    ev = sampler.draw(stream(29, kind), size)
    atom_p = momentum_from_energy(ev.energies, N2_MASS)[:, None] * ev.directions
    want = -np.hstack([atom_p, np.cross(ev.sites, atom_p)])
    gather = np.empty((12, size))
    got = _kicks(sampler.draw(stream(29, kind), size, out=gather), N2_MASS,
                 gather[6:])
    assert got.tobytes() == np.ascontiguousarray(want.T).tobytes()
    # two blocks through one set of buffers, each to the bit of its
    # block built from fresh arrays
    n, duration = 300, 1.0
    report_times = duration * np.arange(1, 5) / 4
    buffers = _Buffers()
    for block in (3, 4):
        got, counts = _simulate_block(sampler, N2_MASS, duration,
                                      report_times, 17, block, n, buffers)
        want, counts_ref = _stacked_kicks_block(sampler, duration,
                                                report_times, 17, block, n)
        assert np.array_equal(counts, counts_ref)
        assert np.ascontiguousarray(got.transpose(2, 0, 1)).tobytes() \
            == want.tobytes()


def test_kept_buffers_leak_nothing_between_blocks(sphere_quad_coarse):
    # about 0.7 events per block of 2048 trajectories: blocks without
    # events, and later blocks that draw more than any before them, so
    # that the kept buffers grow
    q = sphere_quad_coarse
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      0.7 / (_BLOCK * q.total_area))
    n, n_times, duration, seed = 40 * _BLOCK + 17, 3, 1.0, 61
    got = simulate_ensemble(model, q, N2_MASS, duration, n, seed,
                            n_times=n_times)
    sampler = EventSampler(model, q)
    report_times = duration * np.arange(1, n_times + 1) / n_times
    blocks = [_simulate_block(sampler, N2_MASS, duration, report_times,
                              seed, k, min(_BLOCK, n - lo))
              for k, lo in enumerate(range(0, n, _BLOCK))]
    events = np.array([c.sum() for _, c in blocks])
    assert np.any(events[:-1] == 0)
    grown = events[1:] > np.maximum.accumulate(events)[:-1]
    assert np.count_nonzero(grown) >= 2 and events.sum() > 0
    samples = np.concatenate([x.transpose(2, 0, 1) for x, _ in blocks])
    merged = _ensemble_moments((x for x, _ in blocks), n_times)
    assert got.event_counts.tobytes() == np.concatenate(
        [c for _, c in blocks]).tobytes()
    for name, want in zip(("mean", "cov", "stderr_mean", "stderr_cov"),
                          merged):
        assert getattr(got, name).tobytes() == want.tobytes()
    # and the two-pass reference, to the tolerances of the merge; at this
    # size numpy's sum over trajectories no longer adds them in order, so
    # the mean too is held to the spread
    want = _jackknife_moments(samples)
    sd = np.sqrt(np.diagonal(want[1], axis1=1, axis2=2))
    assert np.all(np.abs(got.mean - want[0]) <= 1e-12 * sd)
    assert np.all(np.abs(got.cov - want[1])
                  <= 1e-11 * sd[:, :, None] * sd[:, None, :])
    np.testing.assert_allclose(got.stderr_mean, want[2], rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.stderr_cov, want[3], rtol=1e-12, atol=0)


def test_blocks_after_the_first_allocate_no_buffer(sphere_quad_coarse,
                                                   monkeypatch):
    # the gather and the bins are allocated once per call, by the first
    # block; later blocks of about as many events reuse them
    made = []

    class Spy(_Buffers):
        def __call__(self, name, shape):
            before = self._flat.get(name)
            out = super().__call__(name, shape)
            if self._flat[name] is not before:
                made.append(name)
            return out

    monkeypatch.setattr(desorb.montecarlo, "_Buffers", Spy)
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      12.0 / sphere_quad_coarse.total_area)
    simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 4 * _BLOCK,
                      seed=71)
    assert sorted(made) == ["bins", "gather"]


def test_buffers_grow_only_past_their_largest_request():
    buffers = _Buffers()
    first = buffers("a", (12, 100))
    again = buffers("a", (12, 90))
    assert again.shape == (12, 90) and again.flags.c_contiguous
    assert np.shares_memory(first, again)
    assert not np.shares_memory(first, buffers("a", (12, 1000)))
    assert not np.shares_memory(first, buffers("b", (12, 10)))


@pytest.mark.parametrize("m_atom, error", [
    (float("nan"), NonFinite), (float("inf"), NonFinite), (0.0, ValueError),
    (-N2_MASS, ValueError)], ids=["nan", "inf", "zero", "negative"])
def test_simulate_refuses_an_unphysical_atom_mass(sphere_body, m_atom, error):
    # a NaN mass ran every block and returned NaN means without a word; the
    # mass is checked once, before the first block
    q = build_quadrature(sphere_body, 8)
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e17)
    with pytest.raises(error, match="atom mass must be"):
        simulate_ensemble(model, q, m_atom, 1e-3, 8, seed=1)

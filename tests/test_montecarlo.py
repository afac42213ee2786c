import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from conftest import N2_MASS, SPHERE_RADIUS
from desorb.flux import (CosineDirection, CosineLaw, EventSampler,
                         FixedDirection, IsotropicDirection, SingleSite,
                         TabulatedFlux, total_rate)
from desorb.geometry import BodySpec, Cylinder, build_quadrature
from desorb.moments import Diffusion6, diffusion_tensor, force_torque
from desorb.montecarlo import (_BLOCK, _jackknife_moments, _simulate_block,
                               chi2_tail, compare_to_prediction,
                               simulate_ensemble)
from desorb.rng import stream
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


def test_zero_event_report_says_no_events(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e-12)
    em = simulate_ensemble(model, sphere_quad_coarse, N2_MASS, 1.0, 64, seed=1)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    f = force_torque(model, sphere_quad_coarse, N2_MASS)
    report = compare_to_prediction(em, d, f)
    assert not report.passed
    assert report.n_events == 0 and report.n_trajectories == 64
    assert report.summary() == "FAIL: no emission events in 64 trajectories"


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

import numpy as np
import pytest
from scipy import stats

from conftest import N2_MASS, SPHERE_RADIUS
from desorb.flux import (CosineLaw, FixedDirection, IsotropicDirection,
                         SingleSite, total_rate)
from desorb.geometry import BodySpec, Cylinder, build_quadrature
from desorb.moments import Diffusion6, diffusion_tensor, force_torque
from desorb.montecarlo import (_BLOCK, _jackknife_moments,
                               compare_to_prediction, simulate_ensemble,
                               simulate_trajectory)
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


def test_trajectory_momentum_bookkeeping(sphere_quad_coarse):
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 5e3 / sphere_quad_coarse.total_area)
    rng = stream(3, "test-traj")
    traj = simulate_trajectory(model, sphere_quad_coarse, N2_MASS, 1.0, rng)
    # piecewise-constant record: one state per event plus the initial one
    assert traj.momenta.shape == (len(traj.times) + 1, 3)
    # final momentum equals minus the summed atom momenta
    p_atoms = np.sqrt(2 * N2_MASS * traj.energies)[:, None] * traj.directions
    np.testing.assert_allclose(traj.momenta[-1], -p_atoms.sum(axis=0),
                               atol=1e-30)
    np.testing.assert_allclose(
        traj.angular[-1], -np.cross(traj.sites, p_atoms).sum(axis=0),
        atol=1e-37)


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

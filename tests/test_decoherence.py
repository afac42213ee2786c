import numpy as np
import pytest

from conftest import N2_MASS, SPHERE_RADIUS
from desorb.constants import HBAR, KB
from desorb.decoherence import (DecoherenceQuadrature, LocalizationRate,
                                PosePair, coherence_map, localization_rate)
from desorb.errors import NonFinite, QuadratureNotConverged
from desorb.flux import (CosineDirection, CosineLaw, FixedDirection,
                         IsotropicDirection, SingleSite, total_rate)
from desorb.geometry import BodySpec, Sphere, build_quadrature
from desorb.quadrules import gauss_legendre
from desorb.rng import stream
from desorb.rotations import random_rotation, rotation_from_w
from desorb.spectra import MaxwellBoltzmannFlux, Monoenergetic

RATE = 1e3

# monoenergetic line with p0 R / hbar ~ 5: oscillations resolvable, recoil real
E_MODERATE = 5e-28
P_MODERATE = np.sqrt(2.0 * N2_MASS * E_MODERATE)


@pytest.fixture(scope="module")
def q_small():
    return build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 12)


@pytest.fixture(scope="module")
def cosine_mono():
    return CosineLaw(Monoenergetic(E_MODERATE), RATE)


def test_identical_pair_rate_is_exactly_zero(q_small, cosine_mono):
    rot = rotation_from_w([0.4, -0.2, 0.9])
    rate = localization_rate(PosePair(np.zeros(3), rot, rot), cosine_mono,
                             q_small, N2_MASS)
    assert rate.re == 0.0
    assert rate.im == 0.0


def test_large_recoil_saturates_at_total_rate(q_small, cosine_mono):
    gamma = total_rate(cosine_mono, q_small)
    lam = 2.0e3  # p |dX| / hbar
    dx = lam * HBAR / P_MODERATE
    rate = localization_rate(PosePair([0.0, 0.0, dx]), cosine_mono, q_small,
                             N2_MASS)
    assert abs(rate.re / gamma - 1.0) < 0.01


def test_zero_recoil_limit_distinguishability(q_small):
    # p -> 0 with fixed anisotropy: re -> int (sqrt(Phi_R) - sqrt(Phi_R'))^2/2,
    # evaluated here with an independent fixed-frame product quadrature
    e_tiny = 1e-34  # p (|dX| + 2R)/hbar ~ 3e-4
    model = CosineLaw(Monoenergetic(e_tiny), RATE)
    rot = rotation_from_w([0.0, 0.8, 0.0])
    rot_p = rotation_from_w([0.3, 0.0, -0.5])
    rate = localization_rate(PosePair(np.zeros(3), rot, rot_p), model, q_small,
                             N2_MASS)

    mu, wmu = gauss_legendre(400)
    phi = 2.0 * np.pi * (np.arange(400) + 0.5) / 400.0
    wphi = 2.0 * np.pi / 400.0
    n_grid = np.stack([np.outer(np.sqrt(1 - mu**2), np.cos(phi)),
                       np.outer(np.sqrt(1 - mu**2), np.sin(phi)),
                       np.broadcast_to(mu[:, None], (400, 400))],
                      axis=-1).reshape(-1, 3)
    oracle = 0.0
    for s_i, nu_i, w_i in zip(q_small.points, q_small.normals, q_small.weights):
        fa = RATE * np.maximum(n_grid @ (rot @ nu_i), 0.0) / np.pi
        fb = RATE * np.maximum(n_grid @ (rot_p @ nu_i), 0.0) / np.pi
        vals = 0.5 * (np.sqrt(fa) - np.sqrt(fb)) ** 2
        oracle += w_i * wphi * np.sum(wmu @ vals.reshape(400, 400))
    gamma = total_rate(model, q_small)
    assert oracle > 0.1 * gamma  # anisotropic flux: genuinely nonzero
    assert abs(rate.re - oracle) / gamma < 2e-3


def test_bounds_over_random_pose_pairs(q_small, cosine_mono):
    gamma = total_rate(cosine_mono, q_small)
    rng = stream(42, "test-dec-bounds")
    quad = DecoherenceQuadrature(check_convergence=False)
    for _ in range(40):
        pair = PosePair(rng.standard_normal(3) * SPHERE_RADIUS,
                        random_rotation(rng), random_rotation(rng))
        rate = localization_rate(pair, cosine_mono, q_small, N2_MASS, quad)
        assert rate.re >= -1e-9 * gamma
        assert rate.re <= 2.0 * gamma * (1.0 + 1e-9)


def test_swap_symmetry(q_small, cosine_mono):
    gamma = total_rate(cosine_mono, q_small)
    rng = stream(43, "test-dec-swap")
    quad = DecoherenceQuadrature(check_convergence=False)
    for _ in range(5):
        pair = PosePair(rng.standard_normal(3) * SPHERE_RADIUS,
                        random_rotation(rng), random_rotation(rng))
        a = localization_rate(pair, cosine_mono, q_small, N2_MASS, quad)
        b = localization_rate(pair.swapped(), cosine_mono, q_small, N2_MASS,
                              quad)
        assert abs(a.re - b.re) < 1e-12 * gamma
        assert abs(a.im + b.im) < 1e-12 * gamma


def test_single_site_isotropic_sinc_oracle(q_small):
    # 1D radial oracle: re(lambda) = Gamma int sigma(E) (1 - sinc(p l / hbar)) dE
    gamma = 11.0
    site = SingleSite(np.zeros(3), IsotropicDirection(),
                      MaxwellBoltzmannFlux(300.0), gamma)
    spec = MaxwellBoltzmannFlux(300.0)
    e_nodes, w_nodes = spec.energy_rule(200)
    p_nodes = np.sqrt(2.0 * N2_MASS * e_nodes)
    lam_ref = HBAR / np.sqrt(2.0 * N2_MASS * 2.0 * KB * 300.0)
    prev = 0.0
    for scale in (0.05, 0.3, 1.0, 3.0, 30.0):
        dx = scale * lam_ref
        rate = localization_rate(PosePair([dx, 0.0, 0.0]), site, q_small,
                                 N2_MASS)
        arg = p_nodes * dx / HBAR
        oracle = gamma * float(np.sum(w_nodes * (1.0 - np.sinc(arg / np.pi))))
        assert abs(rate.re - oracle) / gamma < 1e-6
        assert rate.re > prev  # monotone rise toward saturation
        prev = rate.re
    # deep saturation
    rate = localization_rate(PosePair([3e3 * lam_ref, 0.0, 0.0]), site,
                             q_small, N2_MASS)
    assert abs(rate.re / gamma - 1.0) < 0.01


def test_recoil_free_isotropic_site_no_decoherence(q_small):
    # direction-independent emission and p -> 0: no which-orientation
    # information -> re -> 0 even for R != R'
    site = SingleSite(np.zeros(3), IsotropicDirection(), Monoenergetic(1e-34),
                      5.0)
    pair = PosePair(np.zeros(3), rotation_from_w([0.0, 1.0, 0.0]),
                    rotation_from_w([0.5, 0.0, 0.5]))
    rate = localization_rate(pair, site, q_small, N2_MASS)
    assert abs(rate.re) < 1e-10 * 5.0


def test_fixed_direction_site_phase_formula(q_small):
    # equal rotated directions: re = Gamma (1 - cos(p n.v/hbar)) per energy
    e0 = E_MODERATE
    p0 = np.sqrt(2.0 * N2_MASS * e0)
    gamma = 3.0
    site = SingleSite(np.array([0.0, 0.0, SPHERE_RADIUS]),
                      FixedDirection([0.0, 0.0, 1.0]), Monoenergetic(e0), gamma)
    dx = 0.7 * HBAR / p0
    rate = localization_rate(PosePair([0.0, 0.0, dx]), site, q_small, N2_MASS)
    assert rate.re == pytest.approx(gamma * (1.0 - np.cos(p0 * dx / HBAR)),
                                    rel=1e-12)
    assert rate.im == pytest.approx(gamma * np.sin(p0 * dx / HBAR), rel=1e-12)
    # distinct rotated directions: fully distinguishable
    pair = PosePair(np.zeros(3), rotation_from_w([0.0, 0.3, 0.0]), np.eye(3))
    rate2 = localization_rate(pair, site, q_small, N2_MASS)
    assert rate2.re == pytest.approx(gamma, rel=1e-9)


def test_cosine_direction_site_hand_integral(q_small):
    # hand oracle: 2 int_0^1 mu sin(k mu) d mu and the cosine analogue
    gamma = 3.0
    site = SingleSite(np.zeros(3), CosineDirection([0.0, 0.0, 1.0]),
                      Monoenergetic(E_MODERATE), gamma)
    for k in (0.7, 2.3, 9.0):
        d = k * HBAR / P_MODERATE
        rate = localization_rate(PosePair([0.0, 0.0, d]), site, q_small,
                                 N2_MASS)
        im_exact = 2.0 * gamma * (np.sin(k) - k * np.cos(k)) / k**2
        re_exact = gamma * (1.0 - 2.0 * (k * np.sin(k) + np.cos(k) - 1.0) / k**2)
        assert rate.im == pytest.approx(im_exact, rel=1e-8)
        assert rate.re == pytest.approx(re_exact, rel=1e-8)


def test_localization_rate_type_bounds():
    with pytest.raises(ValueError):
        LocalizationRate(-1.0, 0.0, 10.0)
    with pytest.raises(ValueError):
        LocalizationRate(25.0, 0.0, 10.0)
    r = LocalizationRate(5.0, -1.0, 10.0)
    assert r.visibility(0.1) == pytest.approx(np.exp(-0.5))


@pytest.mark.parametrize("args", [(np.nan, 0.0, 10.0), (5.0, np.inf, 10.0),
                                  (np.nan, 0.0, np.nan)])
def test_localization_rate_rejects_non_finite(args):
    with pytest.raises(NonFinite):
        LocalizationRate(*args)


def test_quadrature_not_converged(q_small, cosine_mono):
    quad = DecoherenceQuadrature(n_mu_panels=4, n_azimuth=6,
                                 convergence_tol=1e-10)
    pair = PosePair([SPHERE_RADIUS, 0.0, 0.0],
                    rotation_from_w([0.0, 0.6, 0.0]), np.eye(3))
    with pytest.raises(QuadratureNotConverged):
        localization_rate(pair, cosine_mono, q_small, N2_MASS, quad)


def test_coherence_map_rows(q_small, cosine_mono):
    gamma = total_rate(cosine_mono, q_small)
    rot = rotation_from_w([0.2, 0.0, 0.4])
    diag = PosePair(np.zeros(3), rot, rot)
    off = PosePair([0.5 * SPHERE_RADIUS, 0.0, 0.0], rot, np.eye(3))
    rows = coherence_map([diag, off, off.swapped()], cosine_mono, q_small,
                         N2_MASS, DecoherenceQuadrature(check_convergence=False))
    assert rows[0].rate.re == 0.0 and rows[0].rate.im == 0.0
    assert rows[1].error is None
    assert abs(rows[1].rate.re - rows[2].rate.re) < 1e-12 * gamma
    assert abs(rows[1].rate.im + rows[2].rate.im) < 1e-12 * gamma
    vis = rows[1].visibilities([0.0, 1.0 / gamma])
    assert vis[0] == 1.0
    assert vis[1] == pytest.approx(np.exp(-rows[1].rate.re / gamma))


def test_coherence_map_error_annotation(q_small, cosine_mono):
    bad_quad = DecoherenceQuadrature(n_mu_panels=4, n_azimuth=6,
                                     convergence_tol=1e-12)
    pair_ok = PosePair(np.zeros(3))
    pair_bad = PosePair([SPHERE_RADIUS, 0.0, 0.0],
                        rotation_from_w([0.0, 0.9, 0.0]), np.eye(3))
    rows = coherence_map([pair_ok, pair_bad], cosine_mono, q_small, N2_MASS,
                         bad_quad)
    assert rows[0].error is None
    assert rows[1].rate is None
    assert "QuadratureNotConverged" in rows[1].error
    assert np.isnan(rows[1].visibilities([1.0])[0])

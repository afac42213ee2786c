import numpy as np
import pytest

from conftest import N2_MASS, rel_err
from desorb.amplitudes import (DesorptionJump, SourceSpec, amplitude_norms,
                               free_green, jump_magnitude_squared,
                               radial_amplitude_extraction,
                               read_amplitude_csv, transparent_amplitude,
                               transparent_site_flux)
from desorb.constants import HBAR, KB
from desorb.errors import CoincidentPoints, ZeroNorm
from desorb.flux import CosineLaw, flux_eval
from desorb.lebedev import lebedev_rule
from desorb.moments import diffusion_tensor
from desorb.rng import stream
from desorb.rotations import Pose, momentum_from_energy, random_rotation
from desorb.spectra import MaxwellBoltzmannFlux

E0 = KB * 300.0
MOD0 = N2_MASS / (2.0 * np.pi * HBAR**2)


def test_transparent_origin_site_is_real_constant():
    a = transparent_amplitude(np.array([0.0, 0.0, 1.0]), np.zeros(3), E0,
                              N2_MASS)
    assert a == pytest.approx(MOD0, rel=1e-15)
    assert a.imag == 0.0


def test_transparent_modulus_direction_independent():
    rng = stream(8, "test-amp-mod")
    s = np.array([3e-8, -2e-8, 5e-8])
    for _ in range(50):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        assert abs(transparent_amplitude(n, s, E0, N2_MASS)) == pytest.approx(
            MOD0, rel=1e-14)


def test_transparent_phase_along_axis():
    d = 4.2e-8
    p = momentum_from_energy(E0, N2_MASS)
    a = transparent_amplitude(np.array([0.0, 0.0, 1.0]),
                              np.array([0.0, 0.0, d]), E0, N2_MASS)
    expected_phase = -p * d / HBAR
    assert np.angle(a) == pytest.approx(np.mod(expected_phase + np.pi,
                                               2 * np.pi) - np.pi, rel=1e-10)


def test_free_green_modulus():
    r = np.array([2e-7, 0.0, 0.0])
    s = np.array([0.0, 3e-8, 0.0])
    g = free_green(r, s, E0, N2_MASS)
    assert abs(g) == pytest.approx(MOD0 / np.linalg.norm(r - s), rel=1e-14)


def test_free_green_origin_phase():
    p = momentum_from_energy(E0, N2_MASS)
    r = 1e-7
    g = free_green(np.array([r, 0, 0]), np.zeros(3), E0, N2_MASS)
    # outgoing phase p r / hbar (mod 2 pi), up to the real negative prefactor
    expected = np.angle(-np.exp(1j * p * r / HBAR))
    assert np.angle(g) == pytest.approx(expected, abs=1e-10)


def test_free_green_outgoing_phase_increases():
    p = momentum_from_energy(E0, N2_MASS)
    radii = np.linspace(1e-7, 1e-7 + 0.4 * np.pi * HBAR / p, 40)
    phases = np.unwrap([np.angle(free_green(np.array([r, 0, 0]), np.zeros(3),
                                            E0, N2_MASS)) for r in radii])
    assert np.all(np.diff(phases) > 0)


def test_coincident_points_raises():
    with pytest.raises(CoincidentPoints):
        free_green(np.array([1e-8, 0, 0]), np.array([1e-8, 0, 0]), E0, N2_MASS)


def test_radial_extraction_converges_first_order():
    # |r n - s| = r - n.s + O(1/r): extraction error falls off as 1/r once
    # the residual phase p |s|^2 / (2 r hbar) is subleading, i.e. for a
    # site with p |s| / hbar of order a few
    s = np.array([2e-8, 1e-8, -1.5e-8])
    p_target = 5.0 * HBAR / np.linalg.norm(s)
    e_test = p_target**2 / (2.0 * N2_MASS)
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    target = transparent_amplitude(n, s, e_test, N2_MASS)
    errs = []
    ratios = (1e2, 1e3, 1e4)
    for ratio in ratios:
        r = ratio * np.linalg.norm(s)
        a = radial_amplitude_extraction(n, s, e_test, N2_MASS, r)
        errs.append(abs(a - target) / abs(target))
    orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(10.0)
    assert np.all(np.abs(orders - 1.0) < 0.1)
    assert errs[-1] < 10.0 / 1e4


def test_jump_magnitude_transparent_isotropic():
    source = SourceSpec([[3e-8, 0.0, 1e-8]], [E0], [5.0])

    def amp(n, s, e):
        return transparent_amplitude(n, s, e, N2_MASS)

    val = jump_magnitude_squared(amp, source, np.array([0.0, 1.0, 0.0]))
    assert val[0] == pytest.approx(5.0 / (4.0 * np.pi), rel=1e-12)


def test_jump_normalization_sweeps_and_random_amplitudes():
    # int |L|^2 d2n = Gamma for the transparent amplitude (any rule: the
    # integrand is constant) and for random smooth amplitudes (low-degree
    # harmonics integrated exactly across the order sweep)
    rng = stream(12, "test-jump-norm")
    source = SourceSpec([[2e-8, -1e-8, 0.0]], [E0], [3.5])

    def amp_transparent(n, s, e):
        return transparent_amplitude(n, s, e, N2_MASS)

    for pts in (194, 434, 974, 1202):
        nodes, w = lebedev_rule(pts)
        l2 = jump_magnitude_squared(amp_transparent, source, nodes[0],
                                    lebedev_points=pts)
        total = 0.0
        for k in range(len(nodes)):
            total += w[k] * jump_magnitude_squared(
                amp_transparent, source, nodes[k], lebedev_points=pts)[0]
        assert total == pytest.approx(3.5, rel=1e-8)

    for _ in range(20):
        coef = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        shift = rng.uniform(1.0, 2.0)

        def amp_smooth(n, s, e, _c=coef, _b=shift):
            n = np.atleast_2d(n)
            val = _b + np.einsum("ab,ia,ib->i", _c, n, n)
            return val if len(val) > 1 else val[0]

        gamma = float(rng.uniform(0.5, 4.0))
        src = SourceSpec([[0.0, 0.0, 0.0]], [E0], [gamma])
        norms = {}
        for pts in (434, 974):
            nodes, w = lebedev_rule(pts)
            vals = np.abs(np.atleast_1d(amp_smooth(nodes, None, None))) ** 2
            # normalization computed at one order, checked at the other
            norm = amplitude_norms(amp_smooth, src, lebedev_points=pts)[0]
            norms[pts] = norm
            total = float(
                np.sum(w * gamma * vals / norms[434 if pts == 974 else pts]))
            assert total == pytest.approx(gamma, rel=1e-8)
        assert norms[434] == pytest.approx(norms[974], rel=1e-10)


def test_jump_pose_rotation_property():
    rng = stream(13, "test-jump-rot")
    source = SourceSpec([[2e-8, 0.0, -3e-8]], [E0], [1.0])

    def amp(n, s, e):
        n = np.atleast_2d(n)
        val = (1.0 + 0.5 * n[:, 2]) * MOD0
        return val if len(val) > 1 else complex(val[0])

    for _ in range(5):
        rot = random_rotation(rng)
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        rotated = jump_magnitude_squared(amp, source, n, Pose(np.zeros(3), rot))
        reference = jump_magnitude_squared(amp, source, rot.T @ n)
        assert rotated[0] == pytest.approx(reference[0], rel=1e-12)


def test_zero_norm_raises():
    source = SourceSpec([[0.0, 0.0, 0.0]], [E0], [1.0])

    def amp_zero(n, s, e):
        n = np.atleast_2d(n)
        return np.zeros(len(n))

    with pytest.raises(ZeroNorm):
        amplitude_norms(amp_zero, source)


def test_desorption_jump_matches_flux():
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
    jump = DesorptionJump(model, N2_MASS)
    nu = np.array([0.0, 0.0, 1.0])
    s = np.array([0.0, 0.0, 7.5e-8])
    rng = stream(14, "test-jump-flux")
    rot = random_rotation(rng)
    for _ in range(10):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        e = float(rng.uniform(0.1, 10.0)) * KB * 300.0
        pose = Pose(np.zeros(3), rot)
        assert jump.magnitude_squared(n, s, nu, e, pose) == pytest.approx(
            flux_eval(model, rot.T @ n, s, nu, e), rel=1e-12)


def test_desorption_phase_difference_formula():
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
    jump = DesorptionJump(model, N2_MASS)
    rng = stream(15, "test-jump-phase")
    s = np.array([1e-8, -2e-8, 3e-8])
    for _ in range(10):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        e = float(rng.uniform(0.5, 5.0)) * KB * 300.0
        p = momentum_from_energy(e, N2_MASS)
        pose = Pose(rng.standard_normal(3) * 1e-9, random_rotation(rng))
        pose_p = Pose(rng.standard_normal(3) * 1e-9, random_rotation(rng))
        expected = -p * n @ (pose.position - pose_p.position
                             + (pose.rotation - pose_p.rotation) @ s) / HBAR
        assert jump.phase_difference(n, s, e, pose, pose_p) == pytest.approx(
            expected, rel=1e-10)


def test_transparent_phase_equals_desorption_phase():
    # surface site: the transparent amplitude phase is the recoil phase
    s = np.array([0.0, 2e-8, -1e-8])
    n = np.array([0.6, 0.0, 0.8])
    p = momentum_from_energy(E0, N2_MASS)
    a = transparent_amplitude(n, s, E0, N2_MASS)
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
    jump = DesorptionJump(model, N2_MASS)
    # at reference pose (X = 0, R = 1) the jump phase is -p n.s/hbar
    assert np.angle(a) == pytest.approx(
        np.mod(jump.phase(n, s, E0) + np.pi, 2 * np.pi) - np.pi, abs=1e-10)


def test_transparent_route_through_diffusion(sphere_quad_coarse):
    # |L|^2 of the transparent emitter = Gamma/(4 pi): routed through the
    # diffusion quadrature it must reproduce the isotropic-site result
    gamma, e0 = 7.0, 4.141947e-21
    p0 = momentum_from_energy(e0, N2_MASS)
    model = transparent_site_flux(np.zeros(3), e0, gamma, N2_MASS)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    assert rel_err(d.d_tt, gamma * p0**2 / 6.0 * np.eye(3)) < 1e-12


def test_read_amplitude_csv_roundtrip(tmp_path):
    theta = np.linspace(0.0, np.pi, 7)
    phi = np.linspace(0.0, 2 * np.pi, 9, endpoint=False)
    lines = ["site_index,E_joule,theta,phi,re,im"]
    for t in theta:
        for p in phi:
            val = 1.0 + 0.3 * np.cos(t)
            lines.append(f"0,{E0},{t},{p},{val},{0.1 * np.sin(t)}")
    path = tmp_path / "amp.csv"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    source, amp = read_amplitude_csv(path, [[0.0, 0.0, 0.0]], [2.0])
    assert len(source) == 1
    # interpolation reproduces tabulated values at the nodes
    n = np.array([np.sin(theta[2]) * np.cos(phi[3]),
                  np.sin(theta[2]) * np.sin(phi[3]),
                  np.cos(theta[2])])
    got = amp(n, np.zeros(3), E0)
    assert got == pytest.approx((1.0 + 0.3 * np.cos(theta[2]))
                                + 0.1j * np.sin(theta[2]), rel=1e-9)
    # normalized jump magnitude integrates back to the rate (same rule)
    nodes, w = lebedev_rule(434)
    norm = amplitude_norms(amp, source, lebedev_points=434)[0]
    vals = np.abs(amp(nodes, np.zeros(3), E0)) ** 2
    assert float(np.sum(w * 2.0 * vals / norm)) == pytest.approx(2.0, rel=1e-9)


def test_read_amplitude_csv_rejects_partial_grid(tmp_path):
    lines = ["site_index,E_joule,theta,phi,re,im",
             f"0,{E0},0.0,0.0,1.0,0.0",
             f"0,{E0},1.0,0.0,1.0,0.0",
             f"0,{E0},1.0,1.0,1.0,0.0"]
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_amplitude_csv(path, [[0.0, 0.0, 0.0]], [1.0])

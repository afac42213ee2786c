"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the table.
"""

import json
import time

import numpy as np
import pytest

from conftest import N2_MASS, SPHERE_RADIUS, rel_err
from desorb.amplitudes import (SourceSpec, TabulatedAmplitude, amplitude_norms,
                               radial_amplitude_extraction,
                               transparent_amplitude)
from desorb.cli import main as cli_main
from desorb.constants import HBAR, KB, TORR_L_PER_CM2_S
from desorb.decoherence import DecoherenceQuadrature, PosePair, localization_rate
from desorb.flux import CosineLaw, outgas_rate, total_rate
from desorb.geometry import (BodySpec, Cylinder, Mesh, Sphere, build_quadrature,
                             cube_mesh)
from desorb.lebedev import lebedev_rule
from desorb.moments import (analytic_cosine_tensor, diffusion_tensor,
                            force_torque, spectral_momentum_moments)
from desorb.montecarlo import compare_to_prediction, simulate_ensemble
from desorb.rng import stream
from desorb.rotations import random_rotation
from desorb.spectra import MaxwellBoltzmannFlux, Monoenergetic

T_ROOM = 300.0
RATE = 1e3


def _report(num, text):
    print(f"[PASS] criterion {num}: {text}")


def test_criterion_1_analytic_vs_quadrature_oracle(sphere_quad):
    t0 = time.perf_counter()
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    d = diffusion_tensor(model, sphere_quad, N2_MASS)
    gamma = total_rate(model, sphere_quad)
    area = sphere_quad.total_area
    j2 = 4.0 * N2_MASS * KB * T_ROOM * gamma / (np.pi * area)
    ref = analytic_cosine_tensor(sphere_quad, j2)
    defect = rel_err(d.matrix, ref.matrix)
    assert defect <= 1e-6
    r2 = SPHERE_RADIUS**2
    dtt_defect = rel_err(d.d_tt, (2.0 * np.pi**2 * r2 / 3.0) * j2 * np.eye(3))
    drr_defect = rel_err(d.d_rr, (np.pi**2 * r2**2 / 3.0) * j2 * np.eye(3))
    assert dtt_defect <= 1e-6 and drr_defect <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"analytic-vs-quadrature defect {defect:.2e}, closed-form "
               f"defects {dtt_defect:.2e}/{drr_defect:.2e} (tol 1e-6), "
               f"{elapsed:.2f} s < 10 s")


def test_criterion_2_monte_carlo_equivalence(sphere_quad_coarse):
    t0 = time.perf_counter()
    total_events = 0
    summaries = []

    # sphere + uniform cosine law
    q1 = sphere_quad_coarse
    model1 = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), 12.0 / q1.total_area)
    d1 = diffusion_tensor(model1, q1, N2_MASS)
    f1 = force_torque(model1, q1, N2_MASS)
    em1 = simulate_ensemble(model1, q1, N2_MASS, 1.0, 100_000, seed=1201)
    rep1 = compare_to_prediction(em1, d1, f1)
    total_events += int(em1.event_counts.sum())
    summaries.append(rep1.summary())
    assert rep1.passed, rep1.summary()

    # capped cylinder with axially biased site-dependent rate
    q2 = build_quadrature(BodySpec(Cylinder(5e-8, 1.1e-7, capped=True)), 16)
    h = 1.1e-7
    rate_field = lambda pts: (12.0 / q2.total_area) * (1.0 + 0.8 * pts[:, 2] / h)
    model2 = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rate_field)
    d2 = diffusion_tensor(model2, q2, N2_MASS)
    f2 = force_torque(model2, q2, N2_MASS)
    em2 = simulate_ensemble(model2, q2, N2_MASS, 1.0, 100_000, seed=1202)
    rep2 = compare_to_prediction(em2, d2, f2)
    total_events += int(em2.event_counts.sum())
    summaries.append(rep2.summary())
    assert rep2.passed, rep2.summary()

    assert total_events >= 1_000_000
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _report(2, f"sphere [{summaries[0]}]; cylinder [{summaries[1]}]; "
               f"{total_events} events, {elapsed:.0f} s < 120 s")


def test_criterion_3_divergence_theorem_force():
    worst = 0.0
    for body, res, label in (
            (BodySpec(Sphere(SPHERE_RADIUS)), 48, "sphere"),
            (BodySpec(cube_mesh(7.5e-8)), 1, "cube mesh"),
            (BodySpec(Cylinder(5e-8, 1.1e-7, capped=True)), 48, "cylinder")):
        q = build_quadrature(body, res)
        model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
        ft = force_torque(model, q, N2_MASS)
        gamma = total_rate(model, q)
        pbar, _ = spectral_momentum_moments(MaxwellBoltzmannFlux(T_ROOM),
                                            N2_MASS)
        scale = gamma * pbar
        defect = max(float(np.max(np.abs(ft.force))) / scale,
                     float(np.max(np.abs(ft.torque))) / (scale * q.max_radius()))
        assert defect <= 1e-6, label
        worst = max(worst, defect)
    _report(3, f"uniform cosine force/(Gamma p) and torque/(Gamma p R) "
               f"<= {worst:.2e} on sphere, cube mesh, capped cylinder "
               f"(tol 1e-6)")


def test_criterion_4_localization_bounds_and_limits():
    q = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 12)
    e0 = 5e-28  # p R / hbar ~ 5: quadrature-resolvable recoil
    p0 = np.sqrt(2.0 * N2_MASS * e0)
    model = CosineLaw(Monoenergetic(e0), RATE)
    gamma = total_rate(model, q)
    quad = DecoherenceQuadrature(check_convergence=False)

    rng = stream(4040, "acceptance-pairs")
    lo, hi = np.inf, -np.inf
    for _ in range(200):
        pair = PosePair(rng.standard_normal(3) * SPHERE_RADIUS,
                        random_rotation(rng), random_rotation(rng))
        rate = localization_rate(pair, model, q, N2_MASS, quad)
        lo = min(lo, rate.re)
        hi = max(hi, rate.re)
        assert rate.re >= -1e-9 * gamma
        assert rate.re <= 2.0 * gamma * (1.0 + 1e-9)

    lam = 1.5e3  # p |dX| / hbar >= 1e3
    sat = localization_rate(PosePair([0.0, 0.0, lam * HBAR / p0]), model, q,
                            N2_MASS)
    sat_defect = abs(sat.re / gamma - 1.0)
    assert sat_defect < 0.01

    zero = localization_rate(PosePair(np.zeros(3)), model, q, N2_MASS)
    assert abs(zero.re) <= 1e-12 * gamma
    _report(4, f"200 random pose pairs in [{lo/gamma:.3f}, {hi/gamma:.3f}] "
               f"Gamma within [0, 2 Gamma]; saturation defect "
               f"{sat_defect:.2e} < 1e-2 at p|dX|/hbar = {lam:.0f}; "
               f"identical pair {zero.re:.1e}")


def test_criterion_5_jump_normalization():
    rng = stream(5050, "acceptance-amps")
    # transparent amplitude: any rule integrates the constant |A|^2 exactly
    source = SourceSpec([[2e-8, -1e-8, 3e-8]], [KB * T_ROOM], [3.0])

    def amp_t(n, s, e):
        return transparent_amplitude(n, s, e, N2_MASS)

    worst = 0.0
    for pts in (194, 434, 974, 1202):
        nodes, w = lebedev_rule(pts)
        norm = amplitude_norms(amp_t, source, lebedev_points=pts)[0]
        vals = np.abs(np.asarray([amp_t(nn, source.sites[0],
                                        source.energies[0]) for nn in nodes]))**2
        total = float(np.sum(w * 3.0 * vals / norm))
        worst = max(worst, abs(total / 3.0 - 1.0))
    assert worst <= 1e-8

    # 20 random tabulated amplitudes: the normalized magnitude integrates
    # back to the site rate with the library integrator
    worst_tab = 0.0
    theta = np.linspace(0.0, np.pi, 25)
    phi = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    nodes, w = lebedev_rule(434)
    for _ in range(20):
        c = rng.standard_normal(6)
        tg, pg = np.meshgrid(theta, phi, indexing="ij")
        re_part = 1.5 + c[0] * np.cos(tg) + c[1] * np.sin(tg) * np.cos(pg)
        im_part = c[2] + c[3] * np.cos(tg) ** 2 + c[4] * np.sin(tg) * np.sin(pg)
        tab = TabulatedAmplitude([[0.0, 0.0, 0.0]],
                                 {(0, KB * T_ROOM): (theta, phi,
                                                     re_part + 1j * im_part)})
        gamma_i = float(rng.uniform(0.5, 5.0))
        src = SourceSpec([[0.0, 0.0, 0.0]], [KB * T_ROOM], [gamma_i])
        norm = amplitude_norms(tab, src, lebedev_points=434)[0]
        vals = np.abs(tab(nodes, np.zeros(3), KB * T_ROOM)) ** 2
        total = float(np.sum(w * gamma_i * vals / norm))
        worst_tab = max(worst_tab, abs(total / gamma_i - 1.0))
    assert worst_tab <= 1e-8
    _report(5, f"transparent normalization defect {worst:.2e} across 4 "
               f"Lebedev orders; 20 random tabulated amplitudes defect "
               f"{worst_tab:.2e} (tol 1e-8)")


def test_criterion_6_transparent_emitter_limit():
    s = np.array([2e-8, 1e-8, -1.5e-8])
    p_target = 5.0 * HBAR / np.linalg.norm(s)
    e_test = p_target**2 / (2.0 * N2_MASS)
    n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    target = transparent_amplitude(n, s, e_test, N2_MASS)
    errs = []
    for ratio in (1e2, 1e3, 1e4):
        r = ratio * np.linalg.norm(s)
        a = radial_amplitude_extraction(n, s, e_test, N2_MASS, r)
        errs.append(abs(a - target) / abs(target))
    orders = np.log(np.array(errs[:-1]) / np.array(errs[1:])) / np.log(10.0)
    assert np.all(np.abs(orders - 1.0) < 0.1)
    _report(6, f"radial extraction errors {errs[0]:.1e}/{errs[1]:.1e}/"
               f"{errs[2]:.1e} at r/|s| = 1e2/1e3/1e4; observed orders "
               f"{orders[0]:.2f}, {orders[1]:.2f} (1.0 +- 0.1)")


def test_criterion_7_outgassing_estimates():
    area = np.pi * (150e-9) ** 2  # sphere of diameter 150 nm
    gold = outgas_rate(8.5e-8 * TORR_L_PER_CM2_S, area, 295.0)
    assert abs(gold - 2000.0) / 2000.0 <= 0.15
    silica = outgas_rate(6.6e-9, area, 295.0)
    assert silica == pytest.approx(0.1145436525443639, rel=1e-9)
    ratio = 0.33 / silica
    assert 1.0 / 3.0 <= ratio <= 3.0
    _report(7, f"gold {gold:.3g} Hz within 15% of 2 kHz; silica hand "
               f"conversion {silica:.3g} Hz within factor 3 of the quoted "
               f"0.33 Hz (ratio {ratio:.2f})")


def test_criterion_8_symmetry_suite():
    rng = stream(8080, "acceptance-rot")
    mesh = cube_mesh(7.5e-8)
    q = build_quadrature(BodySpec(mesh), 1)
    rate_field = lambda pts: RATE * (1.0 + 0.6 * pts[:, 0] / 7.5e-8
                                     - 0.3 * pts[:, 2] / 7.5e-8)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rate_field)
    d = diffusion_tensor(model, q, N2_MASS, check_convergence=False)
    ft = force_torque(model, q, N2_MASS, check_convergence=False)
    worst = 0.0
    for _ in range(50):
        rot = random_rotation(rng)
        q_rot = build_quadrature(BodySpec(Mesh(mesh.vertices @ rot.T,
                                               mesh.faces)), 1)
        field_rot = lambda pts, _r=rot: RATE * (1.0 + 0.6 * (pts @ _r)[:, 0]
                                                / 7.5e-8
                                                - 0.3 * (pts @ _r)[:, 2] / 7.5e-8)
        model_rot = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), field_rot)
        d_rot = diffusion_tensor(model_rot, q_rot, N2_MASS,
                                 check_convergence=False)
        ft_rot = force_torque(model_rot, q_rot, N2_MASS,
                              check_convergence=False)
        big = np.kron(np.eye(2), rot)
        worst = max(worst, rel_err(d_rot.matrix, big @ d.matrix @ big.T))
        worst = max(worst, rel_err(ft_rot.vector, big @ ft.vector))
    assert worst <= 1e-8

    # inversion-symmetric flux: uniform cosine law on the sphere
    q_s = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 48)
    model_s = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    d_s = diffusion_tensor(model_s, q_s, N2_MASS)
    ft_s = force_torque(model_s, q_s, N2_MASS)
    cross_scale = np.sqrt(np.max(np.abs(d_s.d_tt)) * np.max(np.abs(d_s.d_rr)))
    off = max(np.max(np.abs(d_s.d_tr)), np.max(np.abs(d_s.d_rt))) / cross_scale
    pbar, _ = spectral_momentum_moments(MaxwellBoltzmannFlux(T_ROOM), N2_MASS)
    scale = total_rate(model_s, q_s) * pbar
    force_rel = max(np.max(np.abs(ft_s.force)) / scale,
                    np.max(np.abs(ft_s.torque)) / (scale * q_s.max_radius()))
    assert off <= 1e-8 and force_rel <= 1e-8
    _report(8, f"frame covariance defect {worst:.2e} over 50 rotations "
               f"(tol 1e-8); inversion-symmetric off-diagonal {off:.2e}, "
               f"force/(Gamma p) and torque/(Gamma p R) {force_rel:.2e} "
               f"(tol 1e-8)")


def test_criterion_9_simulate_reproducibility(tmp_path):
    cfg = {
        "seed": 909,
        "atom": {"mass_kg": N2_MASS, "species": "N2"},
        "body": {"shape": "sphere", "radius_m": SPHERE_RADIUS,
                 "mass_kg": 1e-18},
        "flux": {"model": "cosine",
                 "rate_per_area_hz_m2": 40.0 / (4 * np.pi * SPHERE_RADIUS**2),
                 "spectrum": {"kind": "maxwell_boltzmann",
                              "temperature_k": T_ROOM}},
        "quadrature": {"surface_resolution": 12},
        "simulate": {"duration_s": 1.0, "n_trajectories": 4096, "n_times": 8},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    blobs = []
    for threads in (1, 4, 16):
        out = tmp_path / f"sim_{threads}.csv"
        code = cli_main(["simulate", "--config", str(path), "--out", str(out),
                         "--threads", str(threads)])
        assert code == 0
        blobs.append(out.read_bytes() + (tmp_path / f"sim_{threads}.csv"
                                         ".report.json").read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]
    _report(9, f"cmd_simulate byte-identical across threads 1/4/16 "
               f"({len(blobs[0])} bytes compared)")

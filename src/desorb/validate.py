"""Built-in oracle cross-checks behind the `desorb validate` subcommand.

Each check pits an implementation path against an independent route
(closed forms, symmetry identities, alternative quadratures) and reports
pass/fail with the observed defect.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import quad

from .constants import HBAR, KB
from .decoherence import PosePair, localization_rate
from .flux import CosineLaw, total_rate
from .geometry import BodySpec, Sphere, build_quadrature, cube_mesh
from .moments import (analytic_cosine_tensor, diffusion_tensor, force_torque,
                      spectral_momentum_moments)
from .rng import stream
from .rotations import rotation_from_w, w_from_rotations
from .spectra import MaxwellBoltzmannFlux, Monoenergetic

_N2_MASS = 4.65e-26
_SPHERE_R = 75e-9


def run_validation():
    """[(name, passed, detail)] for the standard cross-check battery."""
    checks = [
        _check_rotation_roundtrip,
        _check_sphere_surface,
        _check_j2_closed_form,
        _check_analytic_vs_quadrature,
        _check_divergence_force,
        _check_jump_normalization,
        _check_localization_limits,
    ]
    results = []
    for check in checks:
        try:
            results.append(check())
        except Exception as exc:  # a crash is a failure, not an abort
            results.append((check.__name__.replace("_check_", ""), False,
                            f"exception: {type(exc).__name__}: {exc}"))
    return results


def _check_rotation_roundtrip():
    rng = stream(20240, "validate-rot")
    worst = 0.0
    for _ in range(200):
        w = rng.standard_normal(3)
        w *= rng.uniform(0.0, 3.0) / np.linalg.norm(w)
        back = w_from_rotations(np.eye(3), rotation_from_w(w))
        worst = max(worst, float(np.max(np.abs(back - w))))
    return ("rotation log/exp round-trip", worst < 1e-10,
            f"max error {worst:.2e} over 200 draws (tol 1e-10)")


def _check_sphere_surface():
    q = build_quadrature(BodySpec(Sphere(_SPHERE_R)), 64)
    area_err = abs(q.total_area / (4.0 * np.pi * _SPHERE_R**2) - 1.0)
    closure = q.closure_defect()
    ok = area_err < 1e-9 and closure < 1e-6
    return ("sphere area and closure", ok,
            f"area defect {area_err:.2e} (tol 1e-9), closure {closure:.2e} "
            f"(tol 1e-6)")


def _check_j2_closed_form():
    spec = MaxwellBoltzmannFlux(300.0)
    _, j2 = spectral_momentum_moments(spec, _N2_MASS)
    kt = spec.kt    # integrate in x = E / kB T
    ref = quad(lambda x: spec.density(x * kt) * kt * x, 0.0, np.inf,
               epsabs=0.0, epsrel=1e-12)[0] * 2.0 * _N2_MASS * kt
    err = abs(j2 / ref - 1.0)
    return ("thermal momentum-square moment", err < 1e-8,
            f"relative error {err:.2e} vs quad of sigma 2 m E (tol 1e-8)")


def _check_analytic_vs_quadrature():
    q = build_quadrature(BodySpec(Sphere(_SPHERE_R)), 64)
    rate = 1e3
    model = CosineLaw(MaxwellBoltzmannFlux(300.0), rate)
    d = diffusion_tensor(model, q, _N2_MASS)
    _, j2 = spectral_momentum_moments(MaxwellBoltzmannFlux(300.0), _N2_MASS)
    ref = analytic_cosine_tensor(q, rate * j2 / np.pi)
    err = (np.max(np.abs(d.matrix - ref.matrix))
           / np.max(np.abs(ref.matrix)))
    return ("cosine-law diffusion vs closed form", err < 1e-6,
            f"entrywise relative defect {err:.2e} (tol 1e-6)")


def _check_divergence_force():
    worst = 0.0
    for body, res in ((BodySpec(Sphere(_SPHERE_R)), 48),
                      (BodySpec(cube_mesh(1e-7)), 1)):
        q = build_quadrature(body, res)
        model = CosineLaw(MaxwellBoltzmannFlux(300.0), 1e3)
        ft = force_torque(model, q, _N2_MASS)
        gamma = total_rate(model, q)
        j1, _ = spectral_momentum_moments(MaxwellBoltzmannFlux(300.0), _N2_MASS)
        scale = gamma * j1
        worst = max(worst, float(np.max(np.abs(ft.force))) / scale,
                    float(np.max(np.abs(ft.torque))) / (scale * q.max_radius()))
    return ("closed-surface force cancellation", worst < 1e-6,
            f"|F|/(Gamma p), |T|/(Gamma p R) <= {worst:.2e} (tol 1e-6)")


def _check_jump_normalization():
    from .amplitudes import amplitude_norms, SourceSpec, transparent_amplitude
    source = SourceSpec([[3e-8, -1e-8, 2e-8]], [KB * 300.0], [5.0])

    def amp(n, s, e):
        return transparent_amplitude(n, s, e, _N2_MASS)

    worst = 0.0
    for pts in (194, 434, 974):
        norms = amplitude_norms(amp, source, lebedev_points=pts)
        mod2 = (_N2_MASS / (2.0 * np.pi * HBAR**2)) ** 2
        worst = max(worst, abs(norms[0] / (4.0 * np.pi * mod2) - 1.0))
    return ("transparent jump normalization", worst < 1e-8,
            f"|int |A|^2 / (4 pi |A0|^2) - 1| = {worst:.2e} across orders "
            f"(tol 1e-8)")


def _check_localization_limits():
    q = build_quadrature(BodySpec(Sphere(_SPHERE_R)), 12)
    e0 = 5e-28
    p0 = np.sqrt(2.0 * _N2_MASS * e0)
    model = CosineLaw(Monoenergetic(e0), 1e3)
    gamma = total_rate(model, q)
    zero = localization_rate(PosePair(np.zeros(3)), model, q, _N2_MASS)
    lam = 2000.0
    sat = localization_rate(PosePair([0.0, 0.0, lam * HBAR / p0]), model, q,
                            _N2_MASS)
    ok = zero.re == 0.0 and abs(sat.re / gamma - 1.0) < 0.01
    return ("localization zero and saturation", ok,
            f"identical-pair rate {zero.re:.1e}, saturation defect "
            f"{abs(sat.re / gamma - 1.0):.2e} (tol 1e-2)")

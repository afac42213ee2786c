import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from conftest import N2_MASS, SPHERE_RADIUS, rel_err
from desorb import moments
from desorb.constants import KB
from desorb.errors import BlockTooLarge, NonFinite, QuadratureNotConverged
from desorb.flux import (COSINE, DELTA, HEMISPHERE, SPHERE, CosineDirection,
                         CosineLaw, FixedDirection, Isotropic,
                         IsotropicDirection, SingleSite, TabulatedFlux, split,
                         total_rate)
from desorb.geometry import (BodySpec, Box, Cylinder, Mesh, Sphere,
                             build_quadrature, cube_mesh)
from desorb.moments import (AngularQuadrature, Diffusion6, EnergyQuadrature,
                            ForceTorque6, _axial_moments_to_tensors,
                            _diffusion_from_a2,
                            _force_from_a1, _moment_blocks,
                            analytic_cosine_tensor, diffusion_tensor,
                            force_torque, predict_moments,
                            spectral_momentum_moments, transport)
from desorb.quadrules import gauss_legendre, segment_rule
from desorb.rng import stream
from desorb.rotations import random_rotation, rotation_from_w, skew
from desorb.spectra import (MaxwellBoltzmannFlux, Monoenergetic,
                            TabulatedSpectrum)

T_ROOM = 300.0
RATE = 1e3  # atoms per m^2 per s


def paper_j2(rate, m_atom, temperature):
    """Spectral weight of the closed-form cosine tensor, 4 m kB T rate / pi."""
    return 4.0 * m_atom * KB * temperature * rate / np.pi


def test_single_site_isotropic_dtt(sphere_quad_coarse):
    # hand oracle: int n (x) n dOmega / (4 pi) = 1/3; D_tt = Gamma p0^2 / 6
    e0 = 4.141947e-21
    gamma = 7.0
    p0 = np.sqrt(2.0 * N2_MASS * e0)
    model = SingleSite(np.zeros(3), IsotropicDirection(), Monoenergetic(e0),
                       gamma)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    assert rel_err(d.d_tt, gamma * p0**2 / 6.0 * np.eye(3)) < 1e-12
    assert np.max(np.abs(d.d_tr)) == 0.0
    assert np.max(np.abs(d.d_rr)) == 0.0


def test_sphere_cosine_closed_form(sphere_quad):
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    d = diffusion_tensor(model, sphere_quad, N2_MASS)
    j2 = paper_j2(RATE, N2_MASS, T_ROOM)
    r2 = SPHERE_RADIUS**2
    assert rel_err(d.d_tt, (2.0 * np.pi**2 * r2 / 3.0) * j2 * np.eye(3)) < 1e-6
    assert rel_err(d.d_rr, (np.pi**2 * r2**2 / 3.0) * j2 * np.eye(3)) < 1e-6
    scale = np.sqrt(np.max(np.abs(d.d_tt)) * np.max(np.abs(d.d_rr)))
    assert np.max(np.abs(d.d_tr)) < 1e-9 * scale


def test_inversion_symmetric_decouples(sphere_quad_coarse):
    # uniform cosine emission is inversion symmetric: linear and angular
    # momentum diffusion decouple (off-diagonal blocks vanish)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    d = diffusion_tensor(model, sphere_quad_coarse, N2_MASS)
    scale = np.sqrt(np.max(np.abs(d.d_tt)) * np.max(np.abs(d.d_rr)))
    assert np.max(np.abs(d.d_tr)) < 1e-8 * scale
    assert np.max(np.abs(d.d_rt)) < 1e-8 * scale


def test_analytic_vs_quadrature_all_shapes():
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    j2 = paper_j2(RATE, N2_MASS, T_ROOM)
    shapes = [
        (BodySpec(Sphere(SPHERE_RADIUS)), 48),
        (BodySpec(Cylinder(5e-8, 1.1e-7, capped=True)), 48),
        (BodySpec(cube_mesh(7.5e-8)), 1),
    ]
    for body, res in shapes:
        q = build_quadrature(body, res)
        d = diffusion_tensor(model, q, N2_MASS)
        ref = analytic_cosine_tensor(q, j2)
        assert rel_err(d.matrix, ref.matrix) < 1e-6


def test_shifted_origin_sphere_closed_form():
    # independent symbolic expansion of the shifted surface integral:
    #   D_tr = D_tt [c]_x,  D_rr = (pi^2 R^4/3) J2 - (2 pi^2 R^2/3) J2 [c]_x^2
    c = np.array([2e-8, -1e-8, 1.5e-8])
    body = BodySpec(Sphere(SPHERE_RADIUS), center_of_mass=c)
    q = build_quadrature(body, 48)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    d = diffusion_tensor(model, q, N2_MASS)
    j2 = paper_j2(RATE, N2_MASS, T_ROOM)
    r2 = SPHERE_RADIUS**2
    dtt = (2.0 * np.pi**2 * r2 / 3.0) * j2
    cx = skew(c)
    assert rel_err(d.d_tt, dtt * np.eye(3)) < 1e-9
    assert rel_err(d.d_tr, dtt * cx) < 1e-9
    assert rel_err(d.d_rr,
                   (np.pi**2 * r2**2 / 3.0) * j2 * np.eye(3) - dtt * cx @ cx) < 1e-9
    ref = analytic_cosine_tensor(q, j2)
    assert rel_err(d.matrix, ref.matrix) < 1e-9


@pytest.mark.parametrize("body,res", [
    (BodySpec(Sphere(SPHERE_RADIUS)), 48),
    (BodySpec(cube_mesh(7.5e-8)), 1),
    (BodySpec(Cylinder(5e-8, 1.1e-7, capped=True)), 48),
])
def test_uniform_cosine_force_vanishes(body, res):
    q = build_quadrature(body, res)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    ft = force_torque(model, q, N2_MASS)
    gamma = total_rate(model, q)
    j1, _ = spectral_momentum_moments(MaxwellBoltzmannFlux(T_ROOM), N2_MASS)
    scale = gamma * j1 * max(1.0, q.max_radius())
    assert np.max(np.abs(ft.vector)) <= 1e-6 * scale


def test_single_site_directed_force(sphere_quad_coarse):
    # site on the +z pole emitting along +z: recoil force -Gamma p0 e_z,
    # torque zero because s0 x e_z = 0
    e0 = 4.141947e-21
    gamma = 3.0
    p0 = np.sqrt(2.0 * N2_MASS * e0)
    model = SingleSite(np.array([0, 0, SPHERE_RADIUS]),
                       FixedDirection([0, 0, 1.0]), Monoenergetic(e0), gamma)
    ft = force_torque(model, sphere_quad_coarse, N2_MASS)
    np.testing.assert_allclose(ft.force, [0.0, 0.0, -gamma * p0], rtol=1e-12)
    np.testing.assert_allclose(ft.torque, 0.0, atol=1e-12 * gamma * p0 * SPHERE_RADIUS)


def test_inversion_symmetric_force_vanishes(sphere_quad_coarse):
    # site-dependent rate even under s -> -s keeps inversion symmetry
    rate_field = lambda pts: RATE * (1.0 + 0.7 * (pts[:, 2] / SPHERE_RADIUS) ** 2)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rate_field)
    ft = force_torque(model, sphere_quad_coarse, N2_MASS)
    gamma = total_rate(model, sphere_quad_coarse)
    j1, _ = spectral_momentum_moments(MaxwellBoltzmannFlux(T_ROOM), N2_MASS)
    assert np.max(np.abs(ft.force)) < 1e-8 * gamma * j1


def test_biased_rate_nonzero_force(sphere_quad_coarse):
    rate_field = lambda pts: RATE * (1.0 + 0.8 * pts[:, 2] / SPHERE_RADIUS)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rate_field)
    ft = force_torque(model, sphere_quad_coarse, N2_MASS)
    gamma = total_rate(model, sphere_quad_coarse)
    j1, _ = spectral_momentum_moments(MaxwellBoltzmannFlux(T_ROOM), N2_MASS)
    assert abs(ft.force[2]) > 1e-3 * gamma * j1


def _gradient_rates(points, rot):
    """RATE (1 + 0.6 x / 75 nm), with x along the rotated body's x axis."""
    return RATE * (1.0 + 0.6 * (points @ rot)[:, 0] / 7.5e-8)


_FRAME_MODELS = {
    "cosine": lambda rot, q: CosineLaw(
        MaxwellBoltzmannFlux(T_ROOM), lambda pts: _gradient_rates(pts, rot)),
    "isotropic": lambda rot, q: Isotropic(
        MaxwellBoltzmannFlux(T_ROOM), lambda pts: _gradient_rates(pts, rot)),
    "site_cosine": lambda rot, q: SingleSite(
        rot @ np.array([2e-8, -3e-8, 7.5e-8]),
        CosineDirection(rot @ np.array([0.6, 0.0, 0.8])),
        MaxwellBoltzmannFlux(T_ROOM), 40.0),
    # node order and each node's cos to its normal survive the rotation,
    # so the per-node table is the same on both meshes
    "table": lambda rot, q: _mb_cosine_table(
        q, np.linspace(0.0, 1.0, 5), np.linspace(0.0, 12.0 * KB * T_ROOM, 9),
        _gradient_rates(q.points, np.eye(3))),
}


@pytest.mark.parametrize("kind", list(_FRAME_MODELS))
def test_frame_covariance_random_rotations(kind):
    rng = stream(55, "test-frame-cov")
    mesh = cube_mesh(7.5e-8)
    q = build_quadrature(BodySpec(mesh), 1)
    make = _FRAME_MODELS[kind]
    d, ft = transport(make(np.eye(3), q), q, N2_MASS)
    for _ in range(5):
        rot = random_rotation(rng)
        q_rot = build_quadrature(BodySpec(Mesh(mesh.vertices @ rot.T,
                                               mesh.faces)), 1)
        np.testing.assert_allclose(q_rot.points, q.points @ rot.T,
                                   rtol=0.0, atol=1e-20)
        d_rot, ft_rot = transport(make(rot, q), q_rot, N2_MASS)
        big = np.kron(np.eye(2), rot)
        assert rel_err(d_rot.matrix, big @ d.matrix @ big.T) < 1e-8
        assert rel_err(ft_rot.vector, big @ ft.vector) < 1e-8


_VEC = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@settings(max_examples=20)
@given(st.tuples(*[st.floats(0.3, 1.5)] * 3), _VEC, _VEC,
       st.sampled_from([CosineLaw, Isotropic]))
def test_diffusion_psd_and_frame_covariant_property(extents, w, g, law):
    # a box of random half extents, a random rotation (|w| <= sqrt 3 < pi)
    # and a rate RATE (1 + g . s / r) with |g| <= 0.87 below 1, so the
    # rate stays positive on the box of circumradius r; the rotated body
    # with the rotated gradient gives the rotated D
    base = cube_mesh(SPHERE_RADIUS)
    vertices = base.vertices * np.asarray(extents)
    radius = np.max(np.linalg.norm(vertices, axis=1))
    grad = 0.5 * np.asarray(g) / radius
    rot = rotation_from_w(w)

    def d_of(r):
        q = build_quadrature(BodySpec(Mesh(vertices @ r.T, base.faces)), 1)
        model = law(MaxwellBoltzmannFlux(T_ROOM),
                    lambda pts: RATE * (1.0 + (pts @ r) @ grad))
        return diffusion_tensor(model, q, N2_MASS).matrix

    d, d_rot = d_of(np.eye(3)), d_of(rot)
    eigs = np.linalg.eigvalsh(d)
    assert np.array_equal(d, d.T) or rel_err(d, d.T) < 1e-12
    assert eigs.min() >= -1e-12 * eigs.max()
    big = np.kron(np.eye(2), rot)
    assert rel_err(d_rot, big @ d @ big.T) < 1e-8


def test_j2_quadrature_vs_closed_form(sphere_quad):
    # adaptive-quadrature oracle for int sigma p^2 dE, in x = E / kB T
    spec = MaxwellBoltzmannFlux(T_ROOM)
    _, j2 = spectral_momentum_moments(spec, N2_MASS)
    kt = KB * T_ROOM
    j2_quad = quad(lambda x: spec.density(x * kt) * kt * 2.0 * N2_MASS * x * kt,
                   0.0, np.inf, epsabs=0.0, epsrel=1e-12)[0]
    gamma = total_rate(CosineLaw(spec, RATE), sphere_quad)
    area = sphere_quad.total_area
    closed = j2_quad * gamma / (np.pi * area)
    assert abs((RATE * j2 / np.pi) / closed - 1.0) < 1e-8


@pytest.mark.parametrize("law", [COSINE, HEMISPHERE, SPHERE],
                         ids=["cosine", "hemisphere", "sphere"])
def test_law_moments_match_quad(law):
    for k, t in enumerate(law.moments[:, 0]):
        ref = quad(lambda mu: law.density(mu) * mu**k, -1.0, 1.0, points=[0.0],
                   epsabs=1e-15, epsrel=1e-13)[0]
        assert abs(t - ref) <= 1e-13
    assert 2.0 * np.pi * law.moments[0, 0] == pytest.approx(law.integral,
                                                            rel=1e-15)


def test_delta_law_moments():
    # f = delta(1 - mu) / (2 pi): every moment is 1 / (2 pi)
    assert np.array_equal(DELTA.moments[:, 0], np.full(3, 0.5 / np.pi))


def _separable_models():
    kt = KB * T_ROOM
    e = np.linspace(0.0, 12.0 * kt, 13)
    table = TabulatedSpectrum(e, MaxwellBoltzmannFlux(T_ROOM).density(e))
    site = np.array([2e-8, -3e-8, 5e-8])
    axis = np.array([0.6, 0.0, 0.8])
    return [
        CosineLaw(MaxwellBoltzmannFlux(T_ROOM),
                  lambda pts: RATE * (1.0 + 0.8 * pts[:, 2] / SPHERE_RADIUS)),
        Isotropic(table, RATE),
        SingleSite(site, IsotropicDirection(), Monoenergetic(4e-21), 3.0),
        SingleSite(site, FixedDirection(axis), MaxwellBoltzmannFlux(77.0), 3.0),
        SingleSite(site, CosineDirection(axis), table, 3.0),
    ]


@pytest.mark.parametrize("model", _separable_models(),
                         ids=["cosine_mb", "isotropic_table", "site_sphere_line",
                              "site_fixed_mb", "site_cosine_table"])
def test_separable_tensors_ignore_quadrature(model, monkeypatch):
    # closed form in angle and energy: the orders and the 2x check have no
    # effect, one call evaluates the moments once, and no Gauss rule is built
    q = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 8)
    calls = []
    monkeypatch.setattr("desorb.moments._moment_blocks",
                        lambda *a: calls.append(1) or _moment_blocks(*a))
    if not isinstance(model.spectrum, TabulatedSpectrum):
        def no_rule(*a):
            raise AssertionError("Gauss-Legendre rule built")
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_rule)
    variants = [{}, {"check_convergence": False},
                {"angular": AngularQuadrature(2)},
                {"energy": EnergyQuadrature(4)}]
    d = [diffusion_tensor(model, q, N2_MASS, **kw).matrix.tobytes()
         for kw in variants]
    f = [force_torque(model, q, N2_MASS, **kw).vector.tobytes()
         for kw in variants]
    assert len(set(d)) == 1 and len(set(f)) == 1
    assert len(calls) == 2 * len(variants)


def _one_segment_table(q, rates):
    """Cosine law times a flat spectrum on one energy segment [0, 12 kT]."""
    cos_grid = np.array([0.0, 1.0])
    e_grid = np.array([0.0, 12.0 * KB * T_ROOM])
    values = (rates[:, None, None] * (cos_grid / np.pi)[None, :, None]
              * np.full((1, 1, 2), 1.0 / e_grid[-1]))
    return TabulatedFlux(cos_grid, e_grid, values)


def test_quadrature_not_converged_raises(sphere_quad_coarse):
    # p = sqrt(2 m E) on one energy segment: 4 and 8 energy nodes give
    # forces 1.5e-4 of the momentum flux apart, above the default 1e-6
    q = sphere_quad_coarse
    rates = np.where(q.points[:, 2] < 0.0, RATE, 0.0)
    table = _one_segment_table(q, rates)
    with pytest.raises(QuadratureNotConverged):
        force_torque(table, q, N2_MASS, energy=EnergyQuadrature(4))
    force_torque(table, q, N2_MASS, energy=EnergyQuadrature(4),
                 convergence_tol=1e-3)


@pytest.mark.parametrize("name,value", [
    ("convergence_tol", np.nan), ("convergence_tol", np.inf),
    ("convergence_tol", -np.inf), ("convergence_tol", 0.0),
    ("convergence_tol", -1.0), ("convergence_tol", "1e-6"),
    ("check_convergence", "false"), ("check_convergence", None),
    ("check_convergence", 1),
])
def test_transport_rejects_bad_check_fields(sphere_quad_coarse, name, value):
    # a nan or infinite tol returned the table's F unchecked, 0 and -1
    # refused every table, and a flag was read by truthiness
    q = sphere_quad_coarse
    table = _one_segment_table(q, np.where(q.points[:, 2] < 0.0, RATE, 0.0))
    for call in (transport, diffusion_tensor, force_torque):
        with pytest.raises(ValueError, match=name):
            call(table, q, N2_MASS, energy=EnergyQuadrature(4),
                 **{name: value})


def test_transport_takes_a_numpy_bool_flag(sphere_quad_coarse):
    q = sphere_quad_coarse
    table = _one_segment_table(q, np.where(q.points[:, 2] < 0.0, RATE, 0.0))
    with pytest.raises(QuadratureNotConverged):
        transport(table, q, N2_MASS, energy=EnergyQuadrature(4),
                  check_convergence=np.bool_(True))
    transport(table, q, N2_MASS, energy=EnergyQuadrature(4),
              check_convergence=np.bool_(False))


def test_torque_check_against_its_own_scale():
    # pinwheel: the two z faces of a cube emit more towards +x on top and
    # towards -x below. The force cancels; the torque about y moves by
    # 6e-5 of Gamma pbar R between 4 and 8 energy nodes, which a check
    # against Gamma pbar (R = 79 nm) would accept
    q = build_quadrature(BodySpec(Box([50e-9] * 3)), 8)
    side = np.round(q.normals[:, 2])
    table = _one_segment_table(q, RATE * np.abs(side)
                               * (1.0 + side * q.points[:, 0] / 50e-9))
    with pytest.raises(QuadratureNotConverged):
        force_torque(table, q, N2_MASS, energy=EnergyQuadrature(4))
    ft = force_torque(table, q, N2_MASS, energy=EnergyQuadrature(4),
                      convergence_tol=1e-3)
    assert np.max(np.abs(ft.force)) < 1e-12 * abs(ft.torque[1]) / q.max_radius()


def test_diffusion_validates_blocks():
    with pytest.raises(ValueError):
        Diffusion6(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), -np.eye(3))
    asym = np.eye(3)
    tr = np.zeros((3, 3))
    tr[0, 1] = 1.0
    with pytest.raises(ValueError):
        Diffusion6(asym, tr, tr, asym)  # d_rt must be d_tr^T


def test_predict_moments_basics():
    d = Diffusion6(np.eye(3), np.zeros((3, 3)), np.zeros((3, 3)), 2 * np.eye(3))
    f = ForceTorque6([1.0, 0, 0], [0, 0, -2.0])
    mean0 = np.arange(6.0)
    cov0 = np.diag(np.arange(1.0, 7.0))
    mean, cov = predict_moments(d, f, 0.0, mean0, cov0)
    np.testing.assert_array_equal(mean, mean0)
    np.testing.assert_array_equal(cov, cov0)
    mean, cov = predict_moments(d, f, 1.0, mean0, cov0)
    np.testing.assert_allclose(mean, mean0 + f.vector)
    np.testing.assert_allclose(cov, cov0 + 2.0 * d.matrix)


def _mb_cosine_table(q, cos_grid, e_grid, rates):
    """Cosine law times the Maxwell-Boltzmann density, tabulated per node."""
    kt = KB * T_ROOM
    sigma = e_grid * np.exp(-e_grid / kt) / kt**2
    prof = np.maximum(cos_grid, 0.0) / np.pi
    values = rates[:, None, None] * prof[None, :, None] * sigma[None, None, :]
    return TabulatedFlux(cos_grid, e_grid, values)


def test_tabulated_flux_moments_match_cosine():
    # a cosine-law profile tabulated on a moderately fine grid reproduces
    # the separable cosine-law tensor to the tabulation error
    q = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 8)
    table = _mb_cosine_table(q, np.linspace(-1.0, 1.0, 201),
                             np.linspace(0.0, 30.0 * KB * T_ROOM, 61),
                             np.full(q.n_nodes, RATE))
    d_tab = diffusion_tensor(table, q, N2_MASS)
    d_cos = diffusion_tensor(CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE),
                             q, N2_MASS)
    assert rel_err(d_tab.matrix, d_cos.matrix) < 1e-3


def _segment_gl(grid, n_nodes):
    pts = max(3, n_nodes // max(len(grid) - 1, 1) + 2)
    rules = [gauss_legendre(pts, a, b) for a, b in zip(grid[:-1], grid[1:])]
    return (np.concatenate([x for x, _ in rules]),
            np.concatenate([w for _, w in rules]))


def _reference_table_blocks(model, q, m_atom, angular, energy):
    """Tabulated moments by interpolating the table at every energy node:
    raw (d_tt, d_tr, d_rt, d_rr, f_t, f_r), and the spectral weight and
    mean-momentum numerator sum_k w_k p_k^(0, 1) sum_i w_i A0_i(E_k)."""
    idx = np.arange(q.n_nodes)[:, None]
    mu, wmu = _segment_gl(model.cos_grid, angular.n_polar)
    d = [np.zeros((3, 3)) for _ in range(4)]
    f = [np.zeros(3), np.zeros(3)]
    weight = np.zeros(2)
    for ek, wk in zip(*_segment_gl(model.energy_grid, energy.n_nodes)):
        prof = model.interp(mu[None, :], ek, idx)
        t = prof @ wmu, prof @ (wmu * mu), prof @ (wmu * mu * mu)
        a0, a1, a2 = _axial_moments_to_tensors(q.normals, *t)
        p2 = 2.0 * m_atom * ek
        wa2 = (0.5 * wk * p2) * q.weights[:, None, None] * a2
        for acc, block in zip(d, _diffusion_from_a2(q.points, wa2)):
            acc += block
        wa1 = (wk * np.sqrt(p2)) * q.weights[:, None] * a1
        for acc, block in zip(f, _force_from_a1(q.points, wa1)):
            acc -= block
        weight += wk * np.array([1.0, np.sqrt(p2)]) * (a0 @ q.weights)
    return (*d, *f), weight


@pytest.fixture(scope="module")
def random_table():
    # non-separable: every (node, cos, E) value drawn independently, on a
    # cos grid covering only part of [-1, 1] and an uneven energy grid; the
    # shifted centre of mass makes every block, the torque too, nonzero
    rng = stream(77, "test-table-contraction")
    body = BodySpec(Sphere(SPHERE_RADIUS), center_of_mass=[2e-8, -1e-8, 3e-8])
    q = build_quadrature(body, 4)
    kt = KB * T_ROOM
    cos_grid = np.concatenate([[-0.4], np.sort(rng.uniform(-0.3, 0.8, 5)), [0.9]])
    e_grid = kt * np.concatenate([[0.0], np.sort(rng.uniform(0.1, 10.0, 6)),
                                  [12.0]])
    values = rng.random((q.n_nodes, len(cos_grid), len(e_grid))) * RATE / kt
    return q, TabulatedFlux(cos_grid, e_grid, values)


@pytest.mark.parametrize("refined", [False, True])
def test_table_contraction_matches_energy_loop(random_table, refined):
    q, table = random_table
    em = split(table, q)

    def blocks(n_nodes):
        d, ft, (ft_fine, scale) = _moment_blocks(em, N2_MASS,
                                                 EnergyQuadrature(n_nodes))
        f = ft_fine if refined else ft
        return (d.d_tt, d.d_tr, d.d_rt, d.d_rr, f.force, f.torque), scale

    # D and the coarse F against the energy loop at the order, the refined
    # F against it at twice the order (on this grid the refined rule is
    # that of 2n), and the force check's scale Gamma pbar against the
    # loop's spectral weights; the loop's cos rule has 7 points per
    # segment, the contraction's 3
    def reference(n_nodes):
        return _reference_table_blocks(table, q, N2_MASS, AngularQuadrature(32),
                                       EnergyQuadrature(n_nodes))

    got, scale = blocks(40)
    ref, (tot, p_sum) = reference(40)
    if refined:
        ref = ref[:4] + reference(80)[0][4:]
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-12 * np.max(np.abs(r))
    assert abs(scale / (total_rate(table, q) * p_sum / tot) - 1.0) <= 1e-12
    assert abs(np.sum(em.node_rates) / total_rate(table, q) - 1.0) <= 1e-12
    assert em.radius == q.max_radius()

    # D's energy level is exact (p^2 is linear in E); F's carries error,
    # as p is not polynomial in E
    def change(a, b):
        return max(np.max(np.abs(x - y)) / np.max(np.abs(y))
                   for x, y in zip(a, b))

    levels = {n: blocks(n)[0] for n in (4, 160)}
    for other in levels.values():
        assert change(other[:4], got[:4]) <= 1e-13
    assert change(levels[4][4:], got[4:]) > 1e-5
    assert change(levels[160][4:], got[4:]) > 1e-6


def test_table_tensors_ignore_angular_order(random_table):
    # the cos rule is exact at a fixed order: the angular order is unread
    q, table = random_table
    d, f = zip(*(transport(table, q, N2_MASS, AngularQuadrature(n))
                 for n in (2, 128)))
    assert d[0].matrix.tobytes() == d[1].matrix.tobytes()
    assert f[0].vector.tobytes() == f[1].vector.tobytes()


def test_table_force_check_is_live():
    # p = sqrt(2 m E) is not polynomial on the first energy segment, so the
    # 2x-refined rule moves the force by ~5e-7 of its scale: a 1e-9
    # tolerance must trip the check and the default 1e-6 must not
    q = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 8)
    rates = RATE * (1.0 + 0.5 * q.points[:, 2] / SPHERE_RADIUS)
    table = _mb_cosine_table(q, np.linspace(0.0, 1.0, 9),
                             np.linspace(0.0, 12.0 * KB * T_ROOM, 13), rates)
    force_torque(table, q, N2_MASS)
    with pytest.raises(QuadratureNotConverged):
        force_torque(table, q, N2_MASS, convergence_tol=1e-9)


@pytest.mark.parametrize("segments", [12, 60, 200])
def test_refined_segment_rule_is_finer(segments):
    # the 2x check compares two different rules on every grid; where
    # doubling the order already adds points per segment, the refined rule
    # is the rule of twice the order
    grid = np.linspace(0.0, 1.0, segments + 1)
    coarse, _ = segment_rule(grid, 40)
    fine, w_fine = segment_rule(grid, 40, refined=True)
    assert len(fine) >= len(coarse) + segments
    if segments <= 40:
        x, w = segment_rule(grid, 80)
        assert np.array_equal(fine, x) and np.array_equal(w_fine, w)


def test_table_force_check_is_live_on_fine_grid():
    # above 40 energy segments both levels once used 3 points per segment,
    # and the force moved by exactly 0.0 while it was 1.7e-6 Gamma pbar off
    # a 4000-node rule; with 4 points in the refined rule it moves by
    # 1.2e-6 Gamma pbar, above the default 1e-6
    q = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 8)
    rates = RATE * (1.0 + 0.5 * q.points[:, 2] / SPHERE_RADIUS)
    table = _mb_cosine_table(q, np.linspace(-1.0, 1.0, 201),
                             np.linspace(0.0, 30.0 * KB * T_ROOM, 61), rates)
    with pytest.raises(QuadratureNotConverged):
        force_torque(table, q, N2_MASS)


@pytest.mark.parametrize("check", [True, False])
def test_transport_is_one_pass(random_table, monkeypatch, check):
    # one split and one table contraction, which carries the refined
    # energy weights of the check, and D and F both returned
    q, table = random_table
    calls = []
    for name in ("split", "_table_surface_moments"):
        original = getattr(moments, name)
        monkeypatch.setattr(moments, name, lambda *a, _f=original, _n=name:
                            calls.append(_n) or _f(*a))
    d, ft = transport(table, q, N2_MASS, check_convergence=check)
    assert isinstance(d, Diffusion6) and isinstance(ft, ForceTorque6)
    assert calls.count("split") == 1
    assert calls.count("_table_surface_moments") == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_diffusion_rejects_non_finite(bad):
    d_tt = np.eye(3)
    d_tt[1, 1] = bad
    with pytest.raises(NonFinite):
        Diffusion6(d_tt, np.zeros((3, 3)), np.zeros((3, 3)), np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_force_torque_rejects_non_finite(bad):
    with pytest.raises(NonFinite):
        ForceTorque6([0.0, bad, 0.0], np.zeros(3))
    with pytest.raises(NonFinite):
        ForceTorque6(np.zeros(3), [bad, 0.0, 0.0])
    with pytest.raises(ValueError):
        ForceTorque6(np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("m_atom, error", [
    (-1.0, ValueError), (-N2_MASS, ValueError), (float("nan"), NonFinite),
    (0.0, ValueError)], ids=["minus_one", "minus_n2", "nan", "zero"])
def test_transport_refuses_an_unphysical_atom_mass(m_atom, error):
    # a negative mass stopped on a RuntimeWarning in sqrt, NaN as a
    # NonFinite diffusion tensor, and 0 returned zero tensors
    q = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 4)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), RATE)
    with pytest.raises(error, match="atom mass must be"):
        transport(model, q, m_atom)


def test_transport_refuses_a_scale_that_overflows():
    # checked on the emitters transport has split, before any tensor is
    # built: the product overflowed in _moment_blocks with a RuntimeWarning
    q = build_quadrature(BodySpec(Sphere(SPHERE_RADIUS)), 4)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), 1e300)
    with pytest.raises(NonFinite, match="overflows, so the diffusion tensor"):
        transport(model, q, 1e300)
    assert np.all(np.isfinite(transport(model, q, N2_MASS)[0].matrix))


def test_energy_order_is_bounded_at_its_refined_level():
    # transport takes F under the rule of 2 n_nodes: 1e8 nodes on a table
    # asked numpy for one Gauss rule of 1.7e7 nodes per segment
    assert EnergyQuadrature(2048).n_nodes == 2048
    with pytest.raises(BlockTooLarge, match="^n_nodes must be <= 2048, as "
                                            "its 2x check doubles it$"):
        EnergyQuadrature(2049)

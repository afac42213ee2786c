import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import stats

from desorb.constants import KB, TORR_L_PER_CM2_S
from desorb.decoherence import PosePair, localization_rate
from desorb.errors import ConfigError, DesorbError, NonFinite, NotUnit
from desorb.flux import (COSINE, HEMISPHERE, SPHERE, CosineDirection,
                         CosineLaw, EventSampler, FixedDirection, Isotropic,
                         IsotropicDirection, SingleSite, TabulatedFlux,
                         _sample_table, _TableCells, flux_eval, outgas_rate,
                         split, total_rate)
from desorb.lebedev import lebedev_rule
from desorb.moments import diffusion_tensor, force_torque
from desorb.quadrules import GuideTable, frames, gauss_legendre
from desorb.rng import stream
from desorb.rotations import random_rotation
from desorb.spectra import MaxwellBoltzmannFlux, Monoenergetic

T_ROOM = 300.0


@pytest.fixture(scope="module")
def cosine_model():
    return CosineLaw(MaxwellBoltzmannFlux(T_ROOM), 1e3)


def test_cosine_along_normal(cosine_model):
    nu = np.array([0.0, 0.0, 1.0])
    e = 2.0 * KB * T_ROOM
    val = flux_eval(cosine_model, nu, np.array([0, 0, 75e-9]), nu, e)
    expected = 1e3 * cosine_model.spectrum.density(e) / np.pi
    assert val == pytest.approx(expected, rel=1e-14)


def test_cosine_inward_cutoff(cosine_model):
    # Heaviside cutoff: no emission into the body
    nu = np.array([0.0, 0.0, 1.0])
    n = np.array([np.sqrt(0.19), 0.0, -0.9])
    assert flux_eval(cosine_model, n, np.zeros(3), nu, 1e-21) == 0.0


def _hemisphere_product_rule(n_polar, n_azimuth, axis):
    """Gauss-Legendre in mu = n . axis on [0, 1] times uniform phi: exact
    for a law that is polynomial in mu on the hemisphere."""
    mu, wmu = gauss_legendre(n_polar, 0.0, 1.0)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    e1, e2 = (e[0] for e in frames(axis[None]))
    ring = np.cos(phi)[:, None] * e1 + np.sin(phi)[:, None] * e2
    nodes = (mu[:, None, None] * axis
             + np.sqrt(1.0 - mu**2)[:, None, None] * ring)
    return nodes.reshape(-1, 3), np.repeat(wmu * 2.0 * np.pi / n_azimuth,
                                           n_azimuth)


def test_cosine_solid_angle_integral_lebedev_oracle(cosine_model):
    # oracle: Lebedev quadrature over the cutoff hemisphere (kinked
    # integrand, so only ~1e-3 accurate even at 1202 points)
    nu = np.array([1.0, 1.0, -0.3])
    nu /= np.linalg.norm(nu)
    e = KB * T_ROOM
    nodes, w = lebedev_rule(1202)
    vals = np.array([flux_eval(cosine_model, n, np.zeros(3), nu, e)
                     for n in nodes])
    target = 1e3 * cosine_model.spectrum.density(e)
    assert abs(np.sum(w * vals) / target - 1.0) < 1e-3
    # the hemisphere product rule integrates the same thing to machine accuracy
    hn, hw = _hemisphere_product_rule(24, 48, nu)
    hvals = np.array([flux_eval(cosine_model, n, np.zeros(3), nu, e)
                      for n in hn])
    assert abs(np.sum(hw * hvals) / target - 1.0) < 1e-12


_RING_EDGES = [(0.3, 0.0), (-0.3, 0.0), (0.0, 0.0), (0.0, 0.7), (0.4, 0.4),
               (-0.4, 0.4), (1.0, 0.0), (-1.0, 0.0)]


@pytest.mark.parametrize("law", [COSINE, HEMISPHERE, SPHERE],
                         ids=["cosine", "hemisphere", "sphere"])
def test_ring_matches_midpoint_phi_sum(law):
    # int_0^2pi f(a + b cos phi) dphi against a 2^16-point midpoint sum; a
    # jump of f at mu = 0 (HEMISPHERE's step) costs the midpoint sum up to
    # half a cell of the jump at each of the two edges, so that is added
    n = 2**16
    dphi = 2.0 * np.pi / n
    cphi = np.cos((np.arange(n) + 0.5) * dphi)
    jump = float(law.density(1e-300) - law.density(-1e-300))
    rng = np.random.default_rng(20261018)
    rand = rng.uniform(0.0, 1.0, (64, 2)) * [2.0, 1.0] - [1.0, 0.0]
    rand[:, 1] *= np.sqrt(1.0 - rand[:, 0] ** 2)   # a^2 + b^2 <= 1
    for a, b in [*_RING_EDGES, *rand]:
        ref = dphi * law.density(a + b * cphi).sum()
        assert abs(law.ring(a, b) - ref) <= 1e-8 + jump * dphi
    a, b = rand.T
    assert np.array_equal(law.ring(a, b),
                          [law.ring(ai, bi) for ai, bi in zip(a, b)])


def test_table_arc_matches_midpoint_sum():
    # a random table on a cos grid that stops short of +-1: in cos the
    # interpolant is piecewise linear with a step at each grid end, which
    # costs the midpoint sum at most half a cell of the step at each of
    # the <= 4 crossings; the kinks cost it O(dphi^2)
    rng = np.random.default_rng(20261021)
    table = TabulatedFlux([-0.7, -0.2, 0.1, 0.5, 0.9], [0.0, 1.0, 2.0],
                          rng.uniform(0.0, 1.0, (3, 5, 3)))
    n = 2**16
    for _ in range(40):
        a = rng.uniform(-1.0, 1.0)
        b = rng.uniform(0.0, 1.0) * np.sqrt(1.0 - a * a)
        lo, hi = np.sort(rng.uniform(-np.pi, np.pi, 2))
        e, node = rng.uniform(0.0, 2.0), int(rng.integers(3))
        dphi = (hi - lo) / n
        phi = lo + (np.arange(n) + 0.5) * dphi
        ref = dphi * table.interp(a + b * np.cos(phi), e, node).sum()
        arc = table.span(a, b, lo, hi)(table.interp(table.cos_grid, e, node))
        assert abs(arc - ref) <= 4.0 * dphi


def test_table_knot_is_the_emitting_edge():
    values = np.zeros((2, 4, 2))
    values[1, 2, 0] = 1.0
    table = TabulatedFlux([-1.0, -0.5, 0.0, 1.0], [0.0, 1.0], values)
    assert table.knot == -0.5          # zero at and below cos = -0.5
    values[0, 0, 1] = 1.0
    assert TabulatedFlux([-1.0, -0.5, 0.0, 1.0], [0.0, 1.0],
                         values).knot == -np.inf
    # emitting at its first grid point above cos = -1: a step there
    assert TabulatedFlux([-0.9, 0.0, 1.0], [0.0, 1.0],
                         np.ones((2, 3, 2))).knot == -0.9


def test_flux_requires_unit_direction(cosine_model):
    with pytest.raises(NotUnit):
        flux_eval(cosine_model, np.array([0.0, 0.0, 1.0 + 1e-8]),
                  np.zeros(3), np.array([0.0, 0.0, 1.0]), 1e-21)


def test_nonnegative_everywhere(cosine_model, sphere_quad_coarse):
    rng = stream(5, "test-flux-nonneg")
    q = sphere_quad_coarse
    for _ in range(200):
        n = rng.standard_normal(3)
        n /= np.linalg.norm(n)
        i = rng.integers(q.n_nodes)
        e = float(rng.uniform(0, 20 * KB * T_ROOM))
        assert flux_eval(cosine_model, n, q.points[i], q.normals[i], e) >= 0.0


def test_total_rate_cosine(sphere_quad, cosine_model):
    gamma = total_rate(cosine_model, sphere_quad)
    assert abs(gamma / (1e3 * sphere_quad.total_area) - 1.0) < 1e-6


def test_total_rate_isotropic_half(sphere_quad):
    # outward-hemisphere restriction of the 1/(4 pi) law emits half
    model = Isotropic(MaxwellBoltzmannFlux(T_ROOM), 1e3)
    gamma = total_rate(model, sphere_quad)
    assert abs(gamma / (0.5 * 1e3 * sphere_quad.total_area) - 1.0) < 1e-6


def test_total_rate_single_site(sphere_quad_coarse):
    site = SingleSite(np.zeros(3), IsotropicDirection(),
                      MaxwellBoltzmannFlux(T_ROOM), 5.0)
    assert total_rate(site, sphere_quad_coarse) == 5.0


def test_total_rate_rotation_invariant(sphere_quad_coarse):
    rng = stream(31, "test-rate-rot")
    rate_field = lambda pts: 1e3 * (1.0 + 0.5 * pts[:, 2] / 75e-9)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rate_field)
    base = total_rate(model, sphere_quad_coarse)
    for _ in range(5):
        rot = random_rotation(rng)
        q_rot = sphere_quad_coarse.rotated(rot)
        rot_field = lambda pts, _r=rot: 1e3 * (1.0 + 0.5 * (pts @ _r)[:, 2] / 75e-9)
        model_rot = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rot_field)
        assert abs(total_rate(model_rot, q_rot) / base - 1.0) < 1e-9


def test_gold_preset_total_rate(sphere_quad):
    # empirical outgassing of untreated gold: ~2 kHz from a 150 nm sphere
    gamma = outgas_rate(8.5e-8 * TORR_L_PER_CM2_S, sphere_quad.total_area,
                        295.0)
    rate_per_area = gamma / sphere_quad.total_area
    model = CosineLaw(MaxwellBoltzmannFlux(295.0), rate_per_area)
    assert abs(total_rate(model, sphere_quad) / 1966.7494527410327 - 1.0) < 1e-6
    assert abs(gamma - 2000.0) / 2000.0 < 0.15


def test_single_site_sampling(sphere_quad_coarse):
    site = SingleSite(np.array([1e-8, 0.0, 0.0]), FixedDirection([0, 0, 1.0]),
                      MaxwellBoltzmannFlux(T_ROOM), 2.0)
    rng = stream(77, "test-site-sample")
    ev = EventSampler(site, sphere_quad_coarse).draw(rng, size=64)
    assert np.all(ev.sites == np.array([1e-8, 0.0, 0.0]))
    assert np.all(ev.directions == np.array([0.0, 0.0, 1.0]))


def test_cosine_sampler_mean_polar(sphere_quad_coarse, cosine_model):
    # hemisphere cosine law: <n . n_s> = 2/3
    rng = stream(101, "test-cos-sample")
    sampler = EventSampler(cosine_model, sphere_quad_coarse)
    ev = sampler.draw(rng, size=1_000_000)
    mu = np.einsum("ia,ia->i", ev.directions,
                   sphere_quad_coarse.normals[ev.node_index])
    stderr = mu.std(ddof=1) / np.sqrt(len(mu))
    assert abs(mu.mean() - 2.0 / 3.0) < 3.0 * stderr


def test_cosine_sampler_chi2_polar(sphere_quad_coarse, cosine_model):
    # cos(theta) density 2 mu on [0,1] -> CDF mu^2
    rng = stream(102, "test-cos-chi2")
    sampler = EventSampler(cosine_model, sphere_quad_coarse)
    ev = sampler.draw(rng, size=1_000_000)
    mu = np.einsum("ia,ia->i", ev.directions,
                   sphere_quad_coarse.normals[ev.node_index])
    edges = np.linspace(0.0, 1.0, 21)
    counts, _ = np.histogram(mu, bins=edges)
    probs = np.diff(edges**2)
    expected = probs * len(mu)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, len(probs) - 1) > 1e-3


def test_sampler_node_weights_chi2(sphere_quad_coarse):
    # site-dependent rate: node histogram must follow the emission weights
    rate_field = lambda pts: 1e3 * (1.0 + 0.8 * pts[:, 2] / 75e-9)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rate_field)
    rng = stream(103, "test-node-chi2")
    n_samples = 500_000
    ev = EventSampler(model, sphere_quad_coarse).draw(rng, size=n_samples)
    lam = split(model, sphere_quad_coarse).node_rates
    probs = lam / lam.sum()
    counts = np.bincount(ev.node_index, minlength=len(probs))
    expected = probs * n_samples
    keep = expected > 20
    chi2 = np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep])
    assert stats.chi2.sf(chi2, keep.sum() - 1) > 1e-3


def test_isotropic_sampler_uniform_mu(sphere_quad_coarse):
    model = Isotropic(MaxwellBoltzmannFlux(T_ROOM), 1e3)
    rng = stream(104, "test-iso-sample")
    ev = EventSampler(model, sphere_quad_coarse).draw(rng, size=200_000)
    mu = np.einsum("ia,ia->i", ev.directions,
                   sphere_quad_coarse.normals[ev.node_index])
    assert mu.min() > 0.0
    counts, _ = np.histogram(mu, bins=np.linspace(0, 1, 11))
    expected = np.full(10, len(mu) / 10.0)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, 9) > 1e-3


@pytest.mark.parametrize("field", ["cos_grid", "energy_grid", "values"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tabulated_flux_rejects_non_finite(field, bad):
    arrays = {"cos_grid": np.linspace(0.0, 1.0, 3),
              "energy_grid": np.linspace(0.0, 1e-20, 4),
              "values": np.ones((3, 3, 4))}
    arrays[field].flat[1] = bad
    with pytest.raises(NonFinite):
        TabulatedFlux(**arrays)


def test_tabulated_flux_roundtrip(sphere_quad_coarse):
    q = sphere_quad_coarse
    cos_grid = np.linspace(-1, 1, 9)
    e_grid = np.linspace(0.0, 10 * KB * T_ROOM, 6)
    rng = stream(105, "test-tab-flux")
    values = rng.uniform(0.5, 2.0, (q.n_nodes, 9, 6))
    model = TabulatedFlux(cos_grid, e_grid, values)
    # interpolation hits tabulated values exactly at grid points
    v = model.interp(cos_grid[3], e_grid[2], 7)
    assert v == pytest.approx(values[7, 3, 2], rel=1e-14)
    # zero extrapolation beyond the energy grid
    assert model.interp(0.0, e_grid[-1] * 1.01, 0) == 0.0
    # node rates: exact bilinear integral
    gamma = total_rate(model, q)
    assert gamma > 0
    # sampler consistency in mu: chi-squared against the exact marginal
    # (area-weighted sum of the per-node piecewise-linear profiles)
    ev = EventSampler(model, q).draw(stream(106, "t"), size=200_000)
    mu = np.einsum("ia,ia->i", ev.directions, q.normals[ev.node_index])
    edges = cos_grid
    prof = np.einsum("i,ijk->jk", q.weights, values)
    marg = np.trapezoid(prof, e_grid, axis=-1)
    probs = np.array([0.5 * (marg[i] + marg[i + 1]) * (edges[i + 1] - edges[i])
                      for i in range(len(edges) - 1)])
    probs /= probs.sum()
    counts, _ = np.histogram(mu, bins=edges)
    expected = probs * len(mu)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, len(probs) - 1) > 1e-3


@pytest.mark.parametrize("entry", [
    lambda m, q: diffusion_tensor(m, q, 4.65e-26),
    lambda m, q: force_torque(m, q, 4.65e-26),
    lambda m, q: localization_rate(PosePair([1e-12, 0.0, 0.0]), m, q, 4.65e-26),
    EventSampler,
], ids=["diffusion_tensor", "force_torque", "localization_rate",
        "EventSampler"])
def test_table_node_count_mismatch_is_config_error(sphere_quad_coarse, entry):
    q = sphere_quad_coarse
    values = np.ones((q.n_nodes - 1, 3, 4))
    model = TabulatedFlux(np.linspace(0.0, 1.0, 3),
                          np.linspace(0.0, 5 * KB * T_ROOM, 4), values)
    with pytest.raises(ConfigError, match="nodes"):
        entry(model, q)


def test_tabulated_flux_joint_law(sphere_quad_coarse):
    # chi-squared of the sampled (mu, E) pairs, in bins that halve every
    # table cell, against the area-weighted bilinear interpolant. The
    # random table, with mu < 0, is scaled by a checkerboard, so within a
    # cell mu and E are strongly correlated and a sampler that draws them
    # independently from their cell marginals fails.
    q = sphere_quad_coarse
    cos_grid = np.array([-1.0, -0.4, 0.1, 0.45, 1.0])
    e_grid = KB * T_ROOM * np.array([0.0, 1.5, 3.0, 6.0])
    checker = np.where(np.add.outer(np.arange(5), np.arange(4)) % 2, 1.0, 0.05)
    values = checker * stream(9301, "test-tab-joint").uniform(
        0.5, 1.5, (q.n_nodes, len(cos_grid), len(e_grid)))
    model = TabulatedFlux(cos_grid, e_grid, values)
    ev = EventSampler(model, q).draw(stream(9302, "test-tab-joint"),
                                     size=200_000)
    mu = np.clip(np.einsum("ia,ia->i", ev.directions,
                           q.normals[ev.node_index]), -1.0, 1.0)
    mu_bins = np.union1d(cos_grid, 0.5 * (cos_grid[1:] + cos_grid[:-1]))
    e_bins = np.union1d(e_grid, 0.5 * (e_grid[1:] + e_grid[:-1]))
    counts, _, _ = np.histogram2d(mu, ev.energies, bins=(mu_bins, e_bins))
    # the interpolant is bilinear on every bin, so the midpoint rule
    # integrates it exactly
    prof = TabulatedFlux(cos_grid, e_grid,
                         np.einsum("i,ijk->jk", q.weights, values)[None])
    mid_mu = 0.5 * (mu_bins[1:] + mu_bins[:-1])
    mid_e = 0.5 * (e_bins[1:] + e_bins[:-1])
    probs = (prof.interp(mid_mu[:, None], mid_e[None, :], 0)
             * np.diff(mu_bins)[:, None] * np.diff(e_bins)[None, :])
    expected = probs / probs.sum() * len(mu)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, expected.size - 1) > 1e-3


def test_table_flat_marginal_cell_spreads_mu(sphere_quad_coarse):
    # f00 + f01 and f10 + f11 differ only by roundoff, so the mu marginal
    # of the cell is flat: mu must fill the cell, not sit on its edges
    q = sphere_quad_coarse
    values = np.broadcast_to([[0.1, 0.7], [0.3, 0.5]], (q.n_nodes, 2, 2))
    model = TabulatedFlux(np.array([0.0, 1.0]),
                          KB * T_ROOM * np.array([1.0, 2.0]), values)
    ev = EventSampler(model, q).draw(stream(9303, "test-tab-flat"),
                                     size=50_000)
    mu = np.einsum("ia,ia->i", ev.directions, q.normals[ev.node_index])
    assert np.mean((mu < 1e-9) | (mu > 1.0 - 1e-9)) == 0.0
    counts, _ = np.histogram(mu, bins=np.linspace(0.0, 1.0, 21))
    expected = len(mu) / 20
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, 19) > 1e-3


def test_table_cell_lookup_matches_per_event_search(sphere_quad_coarse):
    # reference: one searchsorted per event on its node's normalized CDF
    q = sphere_quad_coarse
    cos_grid = np.linspace(-1, 1, 5)
    e_grid = np.linspace(0.0, 10 * KB * T_ROOM, 4)
    rng = stream(107, "test-tab-cells")
    values = rng.uniform(0.0, 2.0, (q.n_nodes, 5, 4))
    values[::3] = 0.0                  # nodes that never emit
    values[1::3, :2, :] = 0.0          # empty leading cells
    values[2::3, -2:, :] = 0.0         # empty trailing cells
    sampler = EventSampler(TabulatedFlux(cos_grid, e_grid, values), q)
    cells = sampler._cells
    node = sampler.draw(rng, size=20_000).node_index
    u = rng.random(len(node))
    v = values
    masses = 0.25 * (v[:, :-1, :-1] + v[:, 1:, :-1] + v[:, :-1, 1:]
                     + v[:, 1:, 1:]) * np.diff(cos_grid)[None, :, None] \
        * np.diff(e_grid)[None, None, :]
    flat = masses.reshape(q.n_nodes, -1)
    expected = [np.searchsorted(np.cumsum(flat[i]) / flat[i].sum(), u_k,
                                side="right") for i, u_k in zip(node, u)]
    cell = cells.draw(node, u)
    np.testing.assert_array_equal(cell, expected)
    assert np.all(flat[node, cell] > 0.0)


_BELOW_ONE = np.nextafter(1.0, 0.0)


def _lookup_keys(cdf, scale, rng):
    """Keys in [0, 1) that probe a guide table: 0 and the largest double
    below 1, every bucket edge j / 2^k, every CDF value and its
    neighbours, and uniform variates."""
    keys = np.concatenate([[0.0, _BELOW_ONE], np.arange(int(scale)) / scale,
                           cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 2.0),
                           rng.random(4000)])
    return keys[(keys >= 0.0) & (keys < 1.0)]


def _node_lookup_matches(lam, rng):
    cdf = np.cumsum(lam) / np.sum(lam)
    table = GuideTable(cdf)
    keys = _lookup_keys(cdf, table.scale, rng)
    want = np.minimum(np.searchsorted(cdf, keys, side="right"), len(cdf) - 1)
    np.testing.assert_array_equal(table.search(keys), want)


@given(lam=st.lists(st.sampled_from([0.0, 0.0, 0.0, 1e-300, 1e-9, 0.3, 1.0,
                                     7.0]), min_size=2, max_size=300),
       seed=st.integers(0, 2**32 - 1))
def test_node_lookup_matches_searchsorted(lam, seed):
    # the guide table gives min(searchsorted(cdf, u, "right"), n - 1) for
    # every u, whatever the runs of zero rates
    assume(sum(lam) > 0.0)
    _node_lookup_matches(np.array(lam), np.random.default_rng(seed))


@pytest.mark.parametrize("lam", [
    [1.0] + [0.0] * 511,             # CDF 1, 1, ..., 1
    [0.0] * 511 + [1.0],             # CDF 0, 0, ..., 0, 1
    [1.0] + [0.0] * 510 + [1.0],     # one run of 0.5 over the whole CDF
    [0.0] * 200 + [1.0] * 3 + [0.0] * 300 + [2.0] * 9,
], ids=["first", "last", "ends", "runs"])
def test_node_lookup_zero_rate_runs(lam):
    _node_lookup_matches(np.array(lam), np.random.default_rng(len(lam)))


def test_node_lookup_cdf_ending_below_one():
    # a CDF whose last value rounds below 1: keys above it take node n - 1
    cdf = np.cumsum(np.full(7, 0.1)) / 0.7 * (1.0 - 1e-12)
    assert cdf[-1] < 1.0
    table = GuideTable(cdf)
    keys = _lookup_keys(cdf, table.scale, np.random.default_rng(5))
    keys = np.concatenate([keys, [cdf[-1], np.nextafter(cdf[-1], 2.0)]])
    want = np.minimum(np.searchsorted(cdf, keys, side="right"), len(cdf) - 1)
    np.testing.assert_array_equal(table.search(keys), want)


def test_sampler_one_node_reads_no_variate(sphere_quad_coarse):
    # a fixed direction and a line read nothing else from the stream
    site = SingleSite(np.zeros(3), FixedDirection([0.0, 0.0, 1.0]),
                      Monoenergetic(1e-20), 5.0)
    rng, fresh = stream(31, "one-node"), stream(31, "one-node")
    ev = EventSampler(site, sphere_quad_coarse).draw(rng, 9)
    assert np.array_equal(ev.node_index, np.zeros(9))
    assert rng.random() == fresh.random()


def test_sampler_nodes_match_searchsorted_on_sparse_rates(sphere_quad_coarse):
    # most nodes emit nothing: long runs of equal CDF values
    q = sphere_quad_coarse
    rate = lambda pts: np.where(np.abs(pts[:, 2]) > 0.9 * 75e-9, 1e3, 0.0)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), rate)
    ev = EventSampler(model, q).draw(stream(32, "sparse"), 5000)
    lam = split(model, q).node_rates
    cdf = np.cumsum(lam) / lam.sum()
    u = stream(32, "sparse").random(5000)
    want = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    np.testing.assert_array_equal(ev.node_index, want)
    assert np.all(lam[ev.node_index] > 0.0)


def test_table_cell_lookup_at_row_ends(sphere_quad_coarse):
    # reference: searchsorted of i + u on the row-offset CDF, i + CDF_i,
    # clamped to the node's last live cell; i + u rounds to i + 1 for the
    # largest u below 1, and keys sit exactly on CDF values
    q = sphere_quad_coarse
    cos_grid = np.linspace(-1, 1, 5)
    e_grid = np.linspace(0.0, 10 * KB * T_ROOM, 4)
    values = stream(33, "row-ends").uniform(0.0, 2.0, (q.n_nodes, 5, 4))
    values[::3] = 0.0
    values[1::3, -2:, :] = 0.0         # empty trailing cells
    cells = EventSampler(TabulatedFlux(cos_grid, e_grid, values), q)._cells
    v = values
    masses = 0.25 * (v[:, :-1, :-1] + v[:, 1:, :-1] + v[:, :-1, 1:]
                     + v[:, 1:, 1:]) * np.diff(cos_grid)[None, :, None] \
        * np.diff(e_grid)[None, None, :]
    flat = masses.reshape(q.n_nodes, -1)
    cdf = np.cumsum(flat, axis=1)
    total = cdf[:, -1:]
    cdf = np.divide(cdf, total, out=np.ones_like(cdf), where=total > 0)
    offset = (cdf + np.arange(q.n_nodes)[:, None]).ravel()
    live = np.flatnonzero(flat.sum(axis=1) > 0)
    node = np.repeat(live, flat.shape[1] + 3)
    u = np.concatenate([np.concatenate([[0.0, _BELOW_ONE, 0.5], cdf[i]])
                        for i in live])
    u = np.minimum(u, _BELOW_ONE)
    assert np.any(node + u == node + 1)
    last = flat.shape[1] - 1 - np.argmax(flat[:, ::-1] > 0, axis=1)
    want = np.minimum(np.searchsorted(offset, node + u, side="right")
                      - node * flat.shape[1], last[node])
    cell = cells.draw(node, u)
    np.testing.assert_array_equal(cell, want)
    assert np.all(flat[node, cell] > 0.0)


def _stream_model(kind, q):
    """One model of each kind, with a rate gradient on the surface kinds."""
    mb = MaxwellBoltzmannFlux(T_ROOM)
    rate = lambda pts: 1e3 * (1.0 + 0.8 * pts[:, 2] / 75e-9)
    site = np.array([1e-8, -2e-8, 7e-8])
    if kind == "cosine":
        return CosineLaw(mb, rate)
    if kind == "isotropic":
        return Isotropic(mb, rate)
    if kind == "site_isotropic":
        return SingleSite(site, IsotropicDirection(), mb, 5.0)
    if kind == "site_fixed":
        return SingleSite(site, FixedDirection([0.0, 0.6, 0.8]), mb, 5.0)
    if kind == "site_cosine":
        return SingleSite(site, CosineDirection(np.array([0.8, 0.0, -0.6])),
                          mb, 5.0)
    cos_grid = np.linspace(-0.5, 1.0, 4)
    e_grid = np.linspace(0.0, 10 * KB * T_ROOM, 5)
    values = stream(108, "test-stream-table").uniform(
        0.0, 2.0, (q.n_nodes, 4, 5))
    values[::4] = 0.0
    return TabulatedFlux(cos_grid, e_grid, values)


_MU_OF = {COSINE: np.sqrt, HEMISPHERE: lambda u: u,
          SPHERE: lambda u: 2.0 * u - 1.0}


@pytest.mark.parametrize("kind", ["cosine", "isotropic", "site_isotropic",
                                  "site_fixed", "site_cosine", "table"])
def test_sampler_stream_matches_per_event_formula(sphere_quad_coarse, kind):
    # the stream's order and every event's bits: node, then mu and phi
    # about the frame of that event's own axis, then the energy (a table
    # draws its (mu, E) before phi)
    q = sphere_quad_coarse
    model = _stream_model(kind, q)
    size = 3001
    drawn = stream(109, f"test-stream-{kind}")
    ev = EventSampler(model, q).draw(drawn, size)
    em = split(model, q)
    rng = stream(109, f"test-stream-{kind}")
    cdf = np.cumsum(em.node_rates) / em.node_rates.sum()
    if len(cdf) == 1:
        idx = np.zeros(size, dtype=np.intp)
    else:
        idx = np.minimum(np.searchsorted(cdf, rng.random(size), side="right"),
                         len(cdf) - 1)
    axes = em.axes[idx]
    if em.table is not None:
        mu, energies = _sample_table(em.table, _TableCells(em.table), idx, rng)
    elif not em.law.delta:
        mu = _MU_OF[em.law](rng.random(size))
    if em.table is None and em.law.delta:
        dirs = axes
    else:
        phi = 2.0 * np.pi * rng.random(size)
        e1, e2 = frames(axes)
        sin_t = np.sqrt(np.clip(1.0 - mu**2, 0.0, None))
        dirs = (mu[:, None] * axes
                + sin_t[:, None] * (np.cos(phi)[:, None] * e1
                                    + np.sin(phi)[:, None] * e2))
    if em.table is None:
        energies = em.spectrum.sample(rng, size)
    np.testing.assert_array_equal(ev.node_index, idx)
    for got, want in ((ev.directions, dirs), (ev.sites, em.points[idx]),
                      (ev.energies, energies)):
        assert got.tobytes() == np.ascontiguousarray(want).tobytes()
    assert drawn.random() == rng.random()    # both read the same stream


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rate_field_rejected(sphere_quad_coarse, bad):
    q = sphere_quad_coarse
    field = lambda pts: np.where(pts[:, 2] > 0, bad, 1e3)
    model = CosineLaw(MaxwellBoltzmannFlux(T_ROOM), field)
    with pytest.raises(NonFinite, match="rate_per_area"):
        total_rate(model, q)
    with pytest.raises(DesorbError):
        diffusion_tensor(model, q, 4.65e-26)


def test_outgas_rate_gold_value():
    area = np.pi * (150e-9) ** 2
    gamma = outgas_rate(8.5e-8 * TORR_L_PER_CM2_S, area, 295.0)
    assert gamma == pytest.approx(1966.7494527410327, rel=1e-12)
    assert abs(gamma - 2000.0) / 2000.0 < 0.15


def test_outgas_rate_linearity():
    area = np.pi * (150e-9) ** 2
    assert outgas_rate(2e-8, area, 295.0) == pytest.approx(
        2.0 * outgas_rate(1e-8, area, 295.0), rel=1e-15)


def test_outgas_rate_silica_hand_conversion():
    # hand unit conversion: 6.6e-9 Pa m^3/(s m^2) * pi d^2 / (kB 295 K)
    area = np.pi * (150e-9) ** 2
    gamma = outgas_rate(6.6e-9, area, 295.0)
    assert gamma == pytest.approx(0.1145436525443639, rel=1e-12)
    # documented discrepancy: the 0.33 Hz literature estimate is within 3x
    assert 0.33 / gamma < 3.0


def test_torr_conversion_roundtrip():
    x = 8.5e-8
    back = (x * TORR_L_PER_CM2_S) / TORR_L_PER_CM2_S
    assert back == pytest.approx(x, rel=1e-12)
    assert TORR_L_PER_CM2_S == pytest.approx(1333.22368, rel=1e-8)


def test_rate_field_that_overflows_is_nonfinite(sphere_quad_coarse):
    # the field is evaluated under np.errstate: an overflow stopped on a
    # raw RuntimeWarning, and is now the named NonFinite
    grad = np.array([0.0, 0.0, 1e6])
    model = CosineLaw(MaxwellBoltzmannFlux(300.0),
                      lambda s: 1.7e308 * (1.0 + s @ grad))
    with pytest.raises(NonFinite, match="not finite at some surface nodes"):
        total_rate(model, sphere_quad_coarse)

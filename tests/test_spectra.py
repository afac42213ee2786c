import numpy as np
import pytest
from scipy import integrate, special, stats

from desorb.constants import KB
from desorb.errors import NegativeEnergy, NonFinite
from desorb.rng import stream
from desorb.quadrules import SERIES_TERMS
from desorb.spectra import (MaxwellBoltzmannFlux, Monoenergetic,
                            TabulatedSpectrum, _gauss_fourier)

N2_MASS = 4.65e-26


def test_mb_density_normalized():
    spec = MaxwellBoltzmannFlux(300.0)
    val, err = integrate.quad(spec.density, 0, 60 * KB * 300.0)
    assert abs(val - 1.0) < 1e-9


def _mb_table(n_points, e_max_kt, temperature=300.0):
    """The thermal flux density sampled on n_points from 0 to e_max_kt kT."""
    kt = KB * temperature
    e = np.linspace(0.0, e_max_kt * kt, n_points)
    return TabulatedSpectrum(e, MaxwellBoltzmannFlux(temperature).density(e))


def _quad_momentum_moments(spec, edges, m_atom):
    """(j1, j2) by adaptive quadrature of density(E) (2 m E)^(k/2) on each
    interval of edges, in units of the first positive edge."""
    unit = edges[1]

    def moment(k):
        def f(x):
            return (spec.density(x * unit) * unit
                    * (2.0 * m_atom * x * unit) ** (0.5 * k))
        return sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13,
                                  limit=200)[0]
                   for a, b in zip(edges[:-1] / unit, edges[1:] / unit))

    return moment(1), moment(2)


@pytest.mark.parametrize("spec", [
    MaxwellBoltzmannFlux(300.0),
    MaxwellBoltzmannFlux(77.0),
    _mb_table(13, 12.0),          # starts at E = 0; j1 off by 5.3e-5 at 3 pts/E
    _mb_table(241, 12.0),
    TabulatedSpectrum([1e-21, 2e-21, 5e-21, 6e-21], [0.5, 2.0, 1.0, 0.0]),
], ids=["mb_300", "mb_77", "table_13", "table_241", "table_offset"])
def test_momentum_moments_match_quad(spec):
    if isinstance(spec, MaxwellBoltzmannFlux):
        edges = spec.kt * np.array([0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 400.0])
    else:
        edges = spec.energies
    ref = _quad_momentum_moments(spec, edges, N2_MASS)
    got = spec.momentum_moments(N2_MASS)
    for g, r in zip(got, ref):
        assert abs(g / r - 1.0) < 1e-12


def test_mb_sampler_mean():
    spec = MaxwellBoltzmannFlux(300.0)
    rng = stream(123, "test-mb-sample")
    e = spec.sample(rng, 1_000_000)
    mean = e.mean()
    stderr = e.std(ddof=1) / np.sqrt(len(e))
    assert abs(mean - 2.0 * KB * 300.0) < 3.0 * stderr


def test_mb_sampler_matches_density_chi2():
    spec = MaxwellBoltzmannFlux(250.0)
    rng = stream(321, "test-mb-chi2")
    e = spec.sample(rng, 1_000_000)
    kt = KB * 250.0
    edges = np.linspace(0.0, 12.0 * kt, 25)
    counts, _ = np.histogram(e, bins=edges)
    # Gamma(2) CDF: 1 - (1 + x) exp(-x), x = E / kT
    x = edges / kt
    cdf = 1.0 - (1.0 + x) * np.exp(-x)
    probs = np.diff(cdf)
    tail = len(e) - counts.sum()
    expected = probs * len(e)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    # include the overflow bin
    tail_expected = (1.0 - cdf[-1]) * len(e)
    chi2 += (tail - tail_expected) ** 2 / tail_expected
    p = stats.chi2.sf(chi2, len(probs))
    assert p > 1e-3


def test_monoenergetic_rule_and_sampler():
    spec = Monoenergetic(3.2e-21)
    p = np.sqrt(2.0 * N2_MASS * 3.2e-21)
    j1, j2 = spec.momentum_moments(N2_MASS)
    assert abs(j1 / p - 1.0) < 1e-12 and abs(j2 / p**2 - 1.0) < 1e-12
    rng = stream(9, "test-mono")
    assert np.all(spec.sample(rng, 10) == 3.2e-21)
    with pytest.raises(ValueError):
        spec.density(1e-21)


def test_monoenergetic_negative_rejected():
    with pytest.raises(NegativeEnergy):
        Monoenergetic(-1e-22)


def test_tabulated_normalization_and_rule():
    e_grid = np.linspace(0.0, 1.0e-20, 7)
    vals = np.array([0.0, 1.0, 3.0, 2.5, 1.0, 0.3, 0.0])
    spec = TabulatedSpectrum(e_grid, vals)
    # the normalized interpolant has unit mass, and the momentum moments
    # match a direct trapezoid of it (j2 = 2 m <E>)
    mass = integrate.quad(spec.density, 0.0, 1.0e-20, points=e_grid[1:-1],
                          epsabs=0.0, epsrel=1e-13)[0]
    assert mass == pytest.approx(1.0, rel=1e-12)
    fine = np.linspace(0, 1.0e-20, 20001)
    dens = spec.density(fine)
    j1, j2 = spec.momentum_moments(N2_MASS)
    p = np.sqrt(2.0 * N2_MASS * fine)
    assert j1 == pytest.approx(np.trapezoid(p * dens, fine), rel=1e-6)
    assert j2 == pytest.approx(np.trapezoid(p * p * dens, fine), rel=1e-6)


def test_tabulated_sampler_chi2():
    e_grid = np.linspace(0.0, 1.0e-20, 6)
    vals = np.array([0.2, 1.0, 0.4, 2.0, 0.8, 0.1])
    spec = TabulatedSpectrum(e_grid, vals)
    rng = stream(17, "test-tab-sample")
    samples = spec.sample(rng, 500_000)
    edges = np.linspace(0.0, 1.0e-20, 21)
    counts, _ = np.histogram(samples, bins=edges)
    probs = np.empty(len(edges) - 1)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        probs[i], _ = integrate.quad(spec.density, a, b)
    expected = probs * len(samples)
    chi2 = np.sum((counts - expected) ** 2 / expected)
    assert stats.chi2.sf(chi2, len(probs) - 1) > 1e-3


def test_tabulated_sampler_near_flat_segment():
    # a slope at roundoff level must still give a uniform law on the
    # segment, not draws piled on its end points
    spec = TabulatedSpectrum([0.0, 1.0], [1.0, 1.0 + 2.2e-16])
    samples = spec.sample(stream(19, "test-tab-flat"), 100_000)
    assert len(np.unique(samples)) > 99_000
    assert abs(samples.mean() - 0.5) < 5.0 / np.sqrt(12 * len(samples))


def test_tabulated_rejects_bad_grids():
    with pytest.raises(ValueError):
        TabulatedSpectrum([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        TabulatedSpectrum([0.0, 1.0], [0.0, 0.0])
    with pytest.raises(NegativeEnergy):
        TabulatedSpectrum([-1.0, 1.0], [1.0, 1.0])


@pytest.mark.parametrize("energies,values", [
    ([0.0, 1.0, 2.0], [1.0, np.nan, 1.0]),
    ([0.0, 1.0, 2.0], [1.0, np.inf, 1.0]),
    ([0.0, 1.0, np.inf], [1.0, 1.0, 1.0]),
    ([0.0, np.nan, 2.0], [1.0, 1.0, 1.0]),
])
def test_tabulated_rejects_non_finite(energies, values):
    with pytest.raises(NonFinite):
        TabulatedSpectrum(energies, values)


@pytest.mark.parametrize("make,value", [
    (MaxwellBoltzmannFlux, np.nan), (MaxwellBoltzmannFlux, np.inf),
    (MaxwellBoltzmannFlux, -np.inf), (Monoenergetic, np.nan),
    (Monoenergetic, np.inf), (Monoenergetic, -np.inf),
])
def test_spectrum_rejects_non_finite(make, value):
    with pytest.raises(NonFinite):
        make(value)


def test_spectrum_keeps_sign_errors():
    for t in (0.0, -300.0):
        with pytest.raises(ValueError):
            MaxwellBoltzmannFlux(t)
    with pytest.raises(NegativeEnergy):
        Monoenergetic(-1e-22)


def _faddeeva_j(t):
    """J_0..J_2 from scipy's Faddeeva function and the upward recurrence."""
    j0 = 0.5 * np.sqrt(np.pi) * special.wofz(0.5 * t)
    j1 = 0.5 + 0.5j * t * j0
    return np.stack([j0, j1, 0.5 * (j0 + 1j * t * j1)])


def test_gauss_fourier_matches_faddeeva():
    # dense on |t| < 20, geometric down to 1e-9, both sides of the
    # Dawson series switch (|x| = |t|/2 = 0.2) and of the asymptotic
    # branch (|t| = 20)
    edges = [0.4, 20.0]
    t = np.concatenate([np.linspace(-19.99, 19.99, 4000),
                        np.geomspace(1e-9, 19.99, 300),
                        [np.nextafter(e, d) for e in edges
                         for d in (0.0, np.inf)], edges])
    t = np.concatenate([t, -t])
    got, ref = _gauss_fourier(t, 2), _faddeeva_j(t)
    # J_0 pointwise, and its imaginary part, Dawson's integral, on its own:
    # near t = 0 the real part sqrt(pi)/2 would hide it
    assert np.max(np.abs(got[0] - ref[0]) / np.abs(ref[0])) <= 2e-14
    assert np.max(np.abs(got[0].imag - ref[0].imag)
                  / np.abs(ref[0].imag)) <= 2e-14
    # J_1, J_2 relative to their largest value, J_n(0): near |t| = 20 the
    # recurrence, shared with the oracle, cancels to J_n ~ t^-(n+1), so
    # either side's pointwise error there is about t^2 eps
    scale = np.abs(_faddeeva_j(np.zeros(1)))[1:]
    assert np.max(np.abs(got[1:] - ref[1:]) / scale) <= 2e-14


def test_gauss_fourier_zero_argument():
    # under filterwarnings = error a RuntimeWarning would fail here
    t = np.array([0.0, -0.0, 5e-324])
    j = _gauss_fourier(t, 2 + SERIES_TERMS)
    assert np.all(j[0] == 0.5 * np.sqrt(np.pi))
    assert j[1, 0] == 0.5 and j[2, 0] == 0.25 * np.sqrt(np.pi)
    assert np.all(np.isfinite(j))
    spec = MaxwellBoltzmannFlux(300.0)
    m = spec.panel_moments(N2_MASS, 0.0, 0.0)
    assert np.allclose(m, [2.0, 0.0, 2.0 / 3.0], rtol=0, atol=1e-15)

import numpy as np
import pytest
from scipy import integrate, stats

from desorb.constants import KB
from desorb.errors import NegativeEnergy, NonFinite
from desorb.rng import stream
from desorb.spectra import (MaxwellBoltzmannFlux, Monoenergetic,
                            TabulatedSpectrum, spectral_moment)


def test_mb_density_normalized():
    spec = MaxwellBoltzmannFlux(300.0)
    val, err = integrate.quad(spec.density, 0, 60 * KB * 300.0)
    assert abs(val - 1.0) < 1e-9


def test_mb_energy_rule_normalized():
    spec = MaxwellBoltzmannFlux(300.0)
    assert spectral_moment(spec, lambda e: np.ones_like(e)) == pytest.approx(
        1.0, abs=1e-9)


def test_mb_mean_energy_rule():
    spec = MaxwellBoltzmannFlux(77.0)
    mean = spectral_moment(spec, lambda e: e)
    assert mean == pytest.approx(2.0 * KB * 77.0, rel=1e-9)


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
    e, w = spec.energy_rule()
    assert e.tolist() == [3.2e-21] and w.tolist() == [1.0]
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
    assert spectral_moment(spec, lambda e: np.ones_like(e)) == pytest.approx(
        1.0, rel=1e-12)
    # mean against direct trapezoid of the normalized interpolant
    fine = np.linspace(0, 1.0e-20, 20001)
    mean_ref = np.trapezoid(fine * spec.density(fine), fine)
    assert spectral_moment(spec, lambda e: e) == pytest.approx(mean_ref,
                                                               rel=1e-6)


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

"""Every flux model through the one emitter protocol of desorb.flux.

For each of the six model kinds the rates, the moments and the Monte
Carlo kicks must agree, and the consumers of the protocol (moments,
decoherence, montecarlo) must never name a model or direction-law class.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import desorb
from conftest import N2_MASS, SPHERE_RADIUS
from desorb.constants import KB
from desorb.flux import (CosineDirection, CosineLaw, EventSampler,
                         FixedDirection, Isotropic, IsotropicDirection,
                         SingleSite, TabulatedFlux, split, total_rate)
from desorb.moments import diffusion_tensor, force_torque
from desorb.montecarlo import compare_to_prediction, simulate_ensemble
from desorb.rng import stream
from desorb.spectra import MaxwellBoltzmannFlux

MB = MaxwellBoltzmannFlux(300.0)
EVENTS = 12.0                                  # mean events per trajectory
SITE = np.array([2e-8, -3e-8, 5e-8])
GRADIENT = np.array([0.3, -0.5, 0.6]) / SPHERE_RADIUS


def _surface(cls, q):
    base = EVENTS / (cls.law.integral * q.total_area)
    return cls(MB, lambda pts: base * (1.0 + pts @ GRADIENT))


def _table(q):
    # non-separable: independent values per (node, cos, E)
    rng = stream(8101, "protocol-table")
    cos_grid = np.linspace(0.0, 1.0, 4)
    e_grid = KB * 300.0 * np.linspace(0.0, 10.0, 6)
    values = rng.uniform(0.2, 1.0, (q.n_nodes, len(cos_grid), len(e_grid)))
    table = TabulatedFlux(cos_grid, e_grid, values)
    return TabulatedFlux(cos_grid, e_grid,
                         values * EVENTS / total_rate(table, q))


KINDS = {
    "cosine": lambda q: _surface(CosineLaw, q),
    "isotropic": lambda q: _surface(Isotropic, q),
    "table": _table,
    "site_isotropic": lambda q: SingleSite(SITE, IsotropicDirection(), MB,
                                           EVENTS),
    "site_cosine": lambda q: SingleSite(SITE, CosineDirection([0.0, 0.6, 0.8]),
                                        MB, EVENTS),
    "site_fixed": lambda q: SingleSite(SITE, FixedDirection([0.6, 0.0, 0.8]),
                                       MB, EVENTS),
}


@pytest.fixture(scope="module")
def checked(sphere_quad_coarse):
    """kind -> (total rate, ensemble, comparison report), made once."""
    q, cache = sphere_quad_coarse, {}

    def run(kind):
        if kind not in cache:
            model = KINDS[kind](q)
            d = diffusion_tensor(model, q, N2_MASS)
            f = force_torque(model, q, N2_MASS)
            em = simulate_ensemble(model, q, N2_MASS, 1.0, 20_000,
                                   seed=8111 + list(KINDS).index(kind))
            cache[kind] = total_rate(model, q), em, compare_to_prediction(
                em, d, f)
        return cache[kind]
    return run


@pytest.mark.parametrize("kind", KINDS)
def test_every_model_kind_is_consistent(sphere_quad_coarse, checked, kind):
    q = sphere_quad_coarse
    model = KINDS[kind](q)
    gamma, em, report = checked(kind)
    assert gamma == np.sum(split(model, q).node_rates)
    assert EventSampler(model, q).total == gamma
    assert gamma == pytest.approx(EVENTS, rel=1e-12)
    n = em.n_trajectories
    assert abs(em.event_counts.mean() - gamma) < 5.0 * np.sqrt(gamma / n)
    assert report.max_abs_z < 4.0, report.summary()


# compare_to_prediction adds the squares of its 27 z-scores as if they were
# independent. At a single site J = s x P for every event, so they are
# linearly dependent and chi2/dof is over-dispersed: p < 1e-3 came up for
# 1 in 12 seeds of each site kind. The seed of site_cosine draws one
# (chi2/dof = 60.4/27, p = 2.4e-4, max|z| = 2.32).
_OVERDISPERSED = pytest.mark.xfail(
    strict=True, reason="chi2 over dependent z-scores of a single site")


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=_OVERDISPERSED if kind == "site_cosine" else ())
    for kind in KINDS])
def test_every_model_kind_passes_moment_comparison(checked, kind):
    report = checked(kind)[2]
    assert report.passed, report.summary()


_MODEL_CLASSES = {"CosineLaw", "Isotropic", "SingleSite", "TabulatedFlux",
                  "IsotropicDirection", "FixedDirection", "CosineDirection"}


@pytest.mark.parametrize("module", ["moments", "decoherence", "montecarlo"])
def test_consumers_name_no_model_class(module):
    tree = ast.parse((Path(desorb.__file__).parent / f"{module}.py")
                     .read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            named |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert not named & _MODEL_CLASSES


def test_decoherence_reads_the_table_only_in_parts():
    # a table differs from a law only in how _parts splits it; every other
    # function of decoherence sees parts, never the table
    tree = ast.parse((Path(desorb.__file__).parent / "decoherence.py")
                     .read_text(encoding="utf-8"))
    def reads(top):
        return [node for node in ast.walk(top)
                if isinstance(node, ast.Attribute) and node.attr == "table"]

    parts, = [fn for fn in tree.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "_parts"]
    assert reads(parts) and len(reads(tree)) == len(reads(parts))

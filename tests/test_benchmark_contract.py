"""The names and call shapes that perfbench/ reads from desorb.

perfbench/run.py turns a command's DesorbError into a failed check, but
any other exception, such as a renamed function or a changed signature,
aborts the benchmark. This test calls every shape it uses on a tiny
sphere and a 2 x 2 flux table, so such a change fails here first.
"""

import importlib.util
import json
import pathlib

import numpy as np

import desorb.cli
from desorb.config import load_config, parse_locmap_block
from desorb.constants import KB
from desorb.decoherence import DecoherenceQuadrature
from desorb.flux import CosineLaw, total_rate
from desorb.geometry import BodySpec, Sphere, build_quadrature
from desorb.moments import (diffusion_tensor, force_torque,
                            spectral_momentum_moments)
from desorb.rng import stream
from desorb.spectra import (MaxwellBoltzmannFlux, Monoenergetic,
                            TabulatedSpectrum)

N2 = 4.65e-26
PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = _tracer_module()
    for name, module, path in tracer.LAYERS:
        owner, attr = tracer._resolve(module, path)
        assert callable(owner.__dict__[attr]), name


def _write_configs(tmp_path):
    base = {
        "seed": 5,
        "atom": {"mass_kg": N2},
        "body": {"shape": "sphere", "radius_m": 7.5e-8},
        "quadrature": {"surface_resolution": 4},
        "locmap": {"pairs": [{"delta_x_m": [1e-12, 0.0, 0.0]}],
                   "n_mu_panels": 8, "n_azimuth": 8},
        "simulate": {"duration_s": 1.0, "n_trajectories": 8,
                     "n_times": 2, "compare": False},
    }
    cosine = dict(base, flux={
        "model": "cosine", "rate_per_area_hz_m2": 1e3,
        "spectrum": {"kind": "maxwell_boltzmann", "temperature_k": 300.0}})
    n_nodes = build_quadrature(BodySpec(Sphere(7.5e-8)), 4).n_nodes
    e_max = 12.0 * KB * 300.0
    rows = ["node_index,cos_theta,E_joule,value"]
    rows += [f"{node},{c},{e},{1e3 * c / (np.pi * e_max)}"
             for node in range(n_nodes) for c in (0.0, 1.0)
             for e in (0.0, e_max)]
    (tmp_path / "flux.csv").write_text("\n".join(rows) + "\n")
    table = dict(base, flux={"model": "tabulated",
                             "csv_path": str(tmp_path / "flux.csv")})
    paths = []
    for name, cfg in (("cosine.json", cosine), ("table.json", table)):
        (tmp_path / name).write_text(json.dumps(cfg))
        paths.append(str(tmp_path / name))
    return paths


def test_benchmark_call_shapes(tmp_path, monkeypatch):
    for path in _write_configs(tmp_path):
        cfg = load_config(path)
        pairs, quad, times = parse_locmap_block(cfg)
        assert len(pairs) == 1 and times == []
        for level in (quad, quad.refined()):
            assert isinstance(level, DecoherenceQuadrature)
            assert min(level.n_mu_panels, level.n_azimuth, level.energy_nodes,
                       level.node_chunk) >= 1
        q, m = cfg.quadrature, cfg.atom_mass
        assert total_rate(cfg.flux, q) > 0.0
        diffusion_tensor(cfg.flux, q, m)
        force_torque(cfg.flux, q, m)
        diffusion_tensor(cfg.flux, q, m, cfg.angular, cfg.energy,
                         check_convergence=False)
        force_torque(cfg.flux, q, m, cfg.angular, cfg.energy,
                     check_convergence=False)

    spectrum = TabulatedSpectrum(np.array([0.0, 1e-21]), np.array([1.0, 2.0]))
    assert len(spectral_momentum_moments(spectrum, N2)) == 2
    model = CosineLaw(spectrum, lambda pts: 1e3 + 0.0 * pts[:, 0])
    assert total_rate(model, cfg.quadrature) > 0.0
    rng = stream(1, "benchmark-contract")
    for spec in (spectrum, MaxwellBoltzmannFlux(300.0), Monoenergetic(1e-21)):
        assert spec.sample(rng, 3).shape == (3,)

    # the simulate command looks simulate_ensemble up in desorb.cli
    calls = []
    original = desorb.cli.simulate_ensemble
    monkeypatch.setattr(desorb.cli, "simulate_ensemble",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    out = tmp_path / "sim.csv"
    assert desorb.cli.main(["simulate", "--config", path,
                            "--out", str(out)]) == 0
    assert calls == [1] and out.read_text().startswith("# desorb")

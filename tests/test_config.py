import json
import re

import numpy as np
import pytest

from desorb.config import (parse_config, parse_locmap_block,
                           parse_outgas_block, parse_simulate_block)
from desorb.errors import ConfigError
from desorb.flux import TabulatedFlux, read_flux_csv, total_rate
from desorb.geometry import BodySpec, Sphere, build_quadrature

N2 = 4.65e-26


def base_raw():
    return {
        "seed": 7,
        "atom": {"mass_kg": N2},
        "body": {"shape": "sphere", "radius_m": 7.5e-8},
        "flux": {"model": "cosine", "rate_per_area_hz_m2": 100.0,
                 "spectrum": {"kind": "maxwell_boltzmann",
                              "temperature_k": 300.0}},
        "quadrature": {"surface_resolution": 8},
    }


def test_parse_roundtrip_and_hash_stability():
    raw = base_raw()
    cfg1 = parse_config(raw)
    cfg2 = parse_config(json.loads(json.dumps(raw)))
    assert cfg1.config_hash == cfg2.config_hash
    assert cfg1.atom_mass == N2
    assert cfg1.quadrature.n_nodes == 8 * 16


@pytest.mark.parametrize("mutate,key", [
    (lambda r: r.update(extra=1), "extra"),
    (lambda r: r["atom"].update(massive=1), "atom.massive"),
    (lambda r: r["flux"].update(site_m=[0, 0, 0]), "flux.site_m"),
    (lambda r: r["flux"]["spectrum"].update(t=1), "flux.spectrum.t"),
    (lambda r: r["quadrature"].update(angular=2), "quadrature.angular"),
])
def test_unknown_keys_rejected_with_path(mutate, key):
    raw = base_raw()
    mutate(raw)
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert key in str(err.value)


@pytest.mark.parametrize("path,value", [
    ("seed", "x"),
    ("atom.mass_kg", "4.65e-26"),
    pytest.param("atom.mass_kg", 10**400, id="atom.mass_kg-huge_int"),
    ("quadrature.surface_resolution", "abc"),
    ("quadrature.surface_resolution", 2.7),
    ("quadrature.angular_polar", "abc"),
    ("quadrature.angular_polar", -5),
    ("quadrature.energy_nodes", None),
    ("tensors", 5),
    ("tensors.typo_key", 1),
    ("locmap.n_mu_panels", 0),
    ("locmap.n_mu_panels", "abc"),
    ("locmap.n_azimuth", 0),
    ("locmap.convergence_tol", -1),
    ("locmap.random.count", "x"),
    ("locmap.random.max_angle_rad", -1),
    pytest.param("locmap.visibility_times_s", [1.0, -1.0],
                 id="locmap.visibility_times_s-negative"),
    ("simulate.n_trajectories", "abc"),
    ("simulate.n_trajectories", 8.9),
    ("simulate.n_times", 2.5),
    ("simulate.compare", "no"),
    ("locmap.check_convergence", "false"),
    ("locmap.pairs", 5),
    ("body.center_of_mass_m", "abc"),
    ("body.inertia_body_kg_m2", "abc"),
    pytest.param("body.inertia_body_kg_m2", [[1.0, 0.0], [0.0, 1.0]],
                 id="body.inertia_body_kg_m2-2x2"),
    pytest.param("body.inertia_body_kg_m2",
                 [[1.0, 0.0, 0.0], [0.0, float("nan"), 0.0], [0.0, 0.0, 1.0]],
                 id="body.inertia_body_kg_m2-nan"),
])
def test_malformed_numbers_rejected_with_key(path, value):
    raw = base_raw()
    raw["locmap"] = {"random": {"count": 1, "delta_x_scale_m": 1e-9}}
    raw["simulate"] = {"duration_s": 1.0, "n_trajectories": 8}
    *parents, key = path.split(".")
    block = raw
    for name in parents:
        block = block.setdefault(name, {})
    block[key] = value
    with pytest.raises(ConfigError) as err:
        cfg = parse_config(raw)
        parse_locmap_block(cfg)
        parse_simulate_block(cfg)
    assert path in str(err.value)


@pytest.mark.parametrize("mutate,message", [
    (lambda r: r.update(atom=5), "'atom' must be an object"),
    (lambda r: r.update(quadrature=5), "'quadrature' must be an object"),
    (lambda r: r.update(locmap=5), "'locmap' must be an object"),
    (lambda r: r.update(simulate=5), "'simulate' must be an object"),
    (lambda r: r["locmap"].update(pairs=[5]),
     "'locmap.pairs[0]' must be an object"),
    (lambda r: r["locmap"].update(visibility_times_s=[1.0, "x"]),
     "'locmap.visibility_times_s[1]' must be a finite number"),
    (lambda r: r["locmap"].update(ray={"direction": [1, 0, 0],
                                       "lengths_m": ["1e-9"]}),
     "'locmap.ray.lengths_m[0]' must be a finite number"),
    (lambda r: r["locmap"]["random"].update(delta_x_scale_m="x"),
     "'locmap.random.delta_x_scale_m' must be a finite number"),
    (lambda r: r["locmap"]["random"].update(max_angle_rad="x"),
     "'locmap.random.max_angle_rad' must be a finite number"),
    (lambda r: r["locmap"].update(pairs=[{"delta_x_m": [0, 0, 0],
                                          "w": [4.0, 0, 0]}]),
     "'locmap.pairs[0].w': |w| = 4 not below pi"),
    (lambda r: r["locmap"].update(pairs=[{"delta_x_m": [0, 0, 0]},
                                         {"delta_x_m": [0, 0, 0],
                                          "w_prime": [0, -3.5, 0]}]),
     "'locmap.pairs[1].w_prime': |w| = 3.5 not below pi"),
    (lambda r: r["locmap"].update(pairs=[{"delta_x_m": [0, 0, 0],
                                          "w": [1.5707965, 0, 0],
                                          "w_prime": [-1.5707965, 0, 0]}]),
     "'locmap.pairs[0]': relative angle"),
    (lambda r: r.pop("atom"), "missing key 'atom'"),
    (lambda r: r.update(body={"shape": "cylinder", "radius_m": 5e-8,
                              "half_length_m": 1.1e-7, "capped": "false"}),
     "'body.capped' must be true or false"),
    (lambda r: r.update(body={"shape": "mesh", "obj_path": 987654}),
     "'body.obj_path' must be a string"),
    (lambda r: r.update(body={"shape": "mesh", "obj_path": "no/such.obj"}),
     "body.obj_path: "),
    (lambda r: r.update(flux={"model": "tabulated", "csv_path": 987654}),
     "'flux.csv_path' must be a string"),
], ids=["atom", "quadrature", "locmap", "simulate", "pair", "times", "lengths",
        "dx_scale", "max_angle", "w", "w_prime", "w_rel_near_pi",
        "missing_top_key", "capped", "obj_path",
        "obj_missing", "csv_path"])
def test_malformed_blocks_fail_at_the_boundary(mutate, message):
    raw = base_raw()
    raw["locmap"] = {"random": {"count": 1, "delta_x_scale_m": 1e-9}}
    raw["simulate"] = {"duration_s": 1.0, "n_trajectories": 8}
    mutate(raw)
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg = parse_config(raw)
        parse_locmap_block(cfg)
        parse_simulate_block(cfg)


def test_negative_seed_accepted():
    # streams take the seed modulo 2**64, so any integer names one
    raw = base_raw()
    raw["seed"] = -1
    assert parse_config(raw).seed == -1


def test_rate_gradient_field():
    raw = base_raw()
    raw["flux"]["rate_per_area_hz_m2"] = {"base": 100.0,
                                          "gradient_1_m": [0.0, 0.0, 4e6]}
    cfg = parse_config(raw)
    gamma = total_rate(cfg.flux, cfg.quadrature)
    # odd part integrates away: same total as the uniform base rate
    assert gamma == pytest.approx(100.0 * cfg.quadrature.total_area, rel=1e-9)


def test_negative_gradient_rate_rejected():
    raw = base_raw()
    raw["flux"]["rate_per_area_hz_m2"] = {"base": 100.0,
                                          "gradient_1_m": [0.0, 0.0, 5e7]}
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_locmap_generators():
    raw = base_raw()
    raw["locmap"] = {
        "pairs": [{"delta_x_m": [1e-9, 0, 0], "w": [0.1, 0, 0]}],
        "ray": {"direction": [0, 0, 2.0], "lengths_m": [1e-9, 2e-9]},
        "random": {"count": 5, "delta_x_scale_m": 1e-9, "max_angle_rad": 1.0},
        "visibility_times_s": [0.5],
    }
    cfg = parse_config(raw)
    pairs, quad, times = parse_locmap_block(cfg)
    assert len(pairs) == 1 + 2 + 5
    assert times == [0.5]
    np.testing.assert_allclose(pairs[1].delta_x, [0, 0, 1e-9])
    # generated pairs are deterministic in the seed
    pairs2, _, _ = parse_locmap_block(parse_config(raw))
    for a, b in zip(pairs, pairs2):
        np.testing.assert_array_equal(a.delta_x, b.delta_x)
        np.testing.assert_array_equal(a.rotation, b.rotation)


def test_outgas_preset_override_temperature():
    raw = base_raw()
    del raw["flux"]
    raw["outgas"] = {"preset": "gold", "gas_temperature_k": 300.0}
    rate, temperature, area, note = parse_outgas_block(parse_config(raw))
    assert temperature == 300.0
    assert note is not None


def test_outgas_preset_must_be_a_string():
    raw = base_raw()
    del raw["flux"]
    raw["outgas"] = {"preset": [5]}
    with pytest.raises(ConfigError,
                       match=re.escape("'outgas.preset' must be a string")):
        parse_outgas_block(parse_config(raw))


def test_read_flux_csv_by_node_index(tmp_path):
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 4)
    lines = ["node_index,cos_theta,E_joule,value"]
    for node in range(q.n_nodes):
        for c in (-1.0, 0.0, 1.0):
            for e in (0.0, 1e-21):
                val = 1.0 + max(c, 0.0) + node * 0.01
                lines.append(f"{node},{c},{e},{val}")
    path = tmp_path / "flux.csv"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    model = read_flux_csv(path, q)
    assert isinstance(model, TabulatedFlux)
    assert model.values.shape == (q.n_nodes, 3, 2)
    assert model.interp(0.0, 1e-21, 2) == pytest.approx(1.02, rel=1e-12)
    assert total_rate(model, q) > 0


def test_read_flux_csv_by_position(tmp_path):
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 2)
    s0 = q.points[3]
    lines = ["s_x,s_y,s_z,cos_theta,E_joule,value"]
    for c in (0.0, 1.0):
        for e in (0.0, 1e-21):
            lines.append(f"{s0[0]},{s0[1]},{s0[2]},{c},{e},2.5")
    path = tmp_path / "flux.csv"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    model = read_flux_csv(path, q)
    # only the matched node emits
    rates = model.node_spectral_rate()
    assert rates[3] > 0
    assert np.all(rates[np.arange(q.n_nodes) != 3] == 0.0)


def test_read_flux_csv_partial_grid_rejected(tmp_path):
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 2)
    lines = ["node_index,cos_theta,E_joule,value",
             "0,0.0,0.0,1.0", "0,1.0,0.0,1.0", "0,1.0,1e-21,1.0"]
    path = tmp_path / "flux.csv"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(ValueError):
        read_flux_csv(path, q)


def _write_index_csv(tmp_path, rows):
    path = tmp_path / "flux.csv"
    path.write_text("\n".join(["cos_theta,value,E_joule,node_index"] + rows)
                    + "\n", encoding="ascii")
    return path


def test_read_flux_csv_later_duplicate_wins(tmp_path):
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 2)
    rows = [f"{c},1.0,{e},1" for c in (0.0, 1.0) for e in (0.0, 1e-21)]
    path = _write_index_csv(tmp_path, rows + ["1.0,7.5,0.0,1", "1.0,4.0,0.0,1"])
    model = read_flux_csv(path, q)
    assert model.values[1, 1, 0] == 4.0
    assert model.values[1, 0, 1] == 1.0
    assert np.all(model.values[np.arange(q.n_nodes) != 1] == 0.0)


@pytest.mark.parametrize("node", ["-1", "8", "1.5"])
def test_read_flux_csv_rejects_bad_node_index(tmp_path, node):
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 2)
    assert q.n_nodes == 8
    rows = [f"{c},1.0,{e},{n}" for n in ("0", node)
            for c in (0.0, 1.0) for e in (0.0, 1e-21)]
    with pytest.raises(ValueError):
        read_flux_csv(_write_index_csv(tmp_path, rows), q)


def test_read_flux_csv_rejects_empty(tmp_path):
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 2)
    with pytest.raises(ValueError, match="empty"):
        read_flux_csv(_write_index_csv(tmp_path, []), q)
    path = tmp_path / "blank.csv"
    path.write_text("", encoding="ascii")
    with pytest.raises(ValueError, match="columns"):
        read_flux_csv(path, q)


def test_missing_required_keys():
    raw = base_raw()
    del raw["atom"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "atom" in str(err.value)
    raw = base_raw()
    del raw["body"]["radius_m"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "radius_m" in str(err.value)


@pytest.mark.parametrize("key,value,scale", [
    ("surface_resolution", 8, 1e308), ("surface_resolution", 8, float("nan")),
    ("surface_resolution", 10**400, 1.0), ("energy_nodes", 10**400, 1.0)],
    ids=["scale_1e308", "scale_nan", "huge_resolution", "huge_energy_nodes"])
def test_overflowing_order_is_config_error(key, value, scale):
    # the scaled order fails before any rule is built
    raw = base_raw()
    raw["quadrature"][key] = value
    with pytest.raises(ConfigError, match=f"quadrature.{key}"):
        parse_config(raw, resolution_scale=scale)

import json
import pathlib
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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


def test_simulate_bounds_are_per_trajectory_and_per_time():
    # 10^8 trajectories x 16 report times passed the old bound of 10^8 on
    # their product; no array of that product is held any more
    raw = base_raw()
    for n_traj, n_times in ((10**8, 16), (10**9, 10**5)):
        raw["simulate"] = {"duration_s": 1e-3, "n_trajectories": n_traj,
                           "n_times": n_times}
        got = parse_simulate_block(parse_config(raw))
        assert got[1:3] == (n_traj, n_times)


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


@pytest.mark.parametrize("key,value,message", [
    ("energies_j", {}, "'flux.spectrum.energies_j' must be a list"),
    ("energies_j", [{}, 1e-21],
     "'flux.spectrum.energies_j[0]' must be a finite number"),
    ("values", [1.0, [2.0]], "'flux.spectrum.values[1]' must be a finite number"),
    ("values", [1.0, True], "'flux.spectrum.values[1]' must be a finite number"),
    ("values", [1.0, 2.0, 3.0], "flux.spectrum: need matching 1D"),
    ("energies_j", [1e-21, 0.0], "flux.spectrum: energy grid must be strictly"),
    ("energies_j", [-1e-21, 0.0], "flux.spectrum: tabulated energies must be >= 0"),
])
def test_tabulated_spectrum_arrays_fail_at_the_boundary(key, value, message):
    # element faults name the element; shape faults come from the spectrum
    raw = base_raw()
    raw["flux"]["spectrum"] = {"kind": "tabulated", "energies_j": [0.0, 1e-21],
                               "values": [1.0, 2.0]}
    raw["flux"]["spectrum"][key] = value
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(raw)


@pytest.mark.parametrize("block,first,second", [
    ({"preset": "gold", "specific_rate_pa_m3_s_m2": 1.0},
     "outgas.preset", "outgas.specific_rate_pa_m3_s_m2"),
    ({"preset": "silica", "specific_rate_torr_l_cm2_s": 1e-9},
     "outgas.preset", "outgas.specific_rate_torr_l_cm2_s"),
    ({"specific_rate_pa_m3_s_m2": 1.0, "specific_rate_torr_l_cm2_s": 1e-9,
      "gas_temperature_k": 295.0},
     "outgas.specific_rate_pa_m3_s_m2", "outgas.specific_rate_torr_l_cm2_s"),
])
def test_outgas_rate_sources_exclude_each_other(block, first, second):
    raw = base_raw()
    raw["outgas"] = block
    with pytest.raises(ConfigError, match=re.escape(
            f"'{first}' and '{second}' exclude each other")):
        parse_outgas_block(parse_config(raw))


def test_flux_direction_must_be_a_unit_vector():
    raw = base_raw()
    raw["flux"] = {"model": "single_site", "site_m": [7.5e-8, 0, 0],
                   "rate_hz": 1.0, "direction": {"law": "fixed",
                                                 "direction": [1, 1, 0]},
                   "spectrum": {"kind": "monoenergetic", "energy_j": 1e-21}}
    with pytest.raises(ConfigError, match=re.escape(
            "'flux.direction.direction': direction must be a unit vector")):
        parse_config(raw)


# -- the boundary: every leaf of configs that set every optional key ------

def _full_configs(obj_path, csv_path):
    """Valid configs that together set every key of the schema: the first
    sets every optional key, the others swap in the remaining kinds."""
    full = {
        "seed": 7, "threads": 1, "atom": {"mass_kg": N2, "species": "N2"},
        "body": {"shape": "cylinder", "radius_m": 5e-8, "half_length_m": 1e-7,
                 "capped": True, "mass_kg": 1e-18,
                 "center_of_mass_m": [0.0, 0.0, 1e-9],
                 "inertia_body_kg_m2": [[1e-33, 0.0, 0.0], [0.0, 1e-33, 0.0],
                                        [0.0, 0.0, 1e-33]]},
        "flux": {"model": "cosine",
                 "rate_per_area_hz_m2": {"base": 1e3,
                                         "gradient_1_m": [0.0, 0.0, 1e6]},
                 "spectrum": {"kind": "tabulated", "energies_j": [0.0, 1e-21],
                              "values": [1.0, 0.5]}},
        "quadrature": {"surface_resolution": 2, "angular_polar": 4,
                       "energy_nodes": 4},
        "tensors": {},
        "locmap": {"pairs": [{"delta_x_m": [1e-9, 0.0, 0.0], "w": [0.1, 0.0, 0.0],
                              "w_prime": [0.0, 0.1, 0.0]}],
                   "ray": {"direction": [0, 0, 1], "lengths_m": [1e-9]},
                   "random": {"count": 1, "delta_x_scale_m": 1e-9,
                              "max_angle_rad": 1.0},
                   "visibility_times_s": [0.1], "n_mu_panels": 8,
                   "n_azimuth": 8, "check_convergence": False,
                   "convergence_tol": 1e-3},
        "simulate": {"duration_s": 1.0, "n_trajectories": 8, "n_times": 2,
                     "compare": False},
        "outgas": {"preset": "gold", "gas_temperature_k": 300.0,
                   "area_m2": 1e-13},
    }
    site = {"model": "single_site", "site_m": [5e-8, 0.0, 0.0], "rate_hz": 5.0}
    mb = {"kind": "maxwell_boltzmann", "temperature_k": 300.0}
    line = {"kind": "monoenergetic", "energy_j": 1e-21}
    sphere = {"shape": "sphere", "radius_m": 5e-8}
    return {
        "full": full,
        "mesh": dict(full, body={"shape": "mesh", "obj_path": obj_path},
                     flux=dict(site, spectrum=mb, direction={
                         "law": "fixed", "direction": [1.0, 0.0, 0.0]}),
                     outgas={"specific_rate_pa_m3_s_m2": 1e-5,
                             "gas_temperature_k": 300.0}),
        "box": dict(full, body={"shape": "box", "half_extents_m": [5e-8] * 3},
                    flux=dict(site, spectrum=line, direction={
                        "law": "cosine", "axis": [1, 0, 0]}),
                    outgas={"specific_rate_torr_l_cm2_s": 1e-9,
                            "gas_temperature_k": 300.0}),
        "sphere": dict(full, body=sphere, flux=dict(
            site, spectrum=line, direction={"law": "isotropic"})),
        "table": dict(full, body=sphere,
                      flux={"model": "tabulated", "csv_path": csv_path}),
    }


def _leaves(node, path=()):
    """Every key path and list index below node, as tuples."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _leaves(value, path + (key,))


def _dotted(path):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in path).lstrip(".")


# every leaf of "full", and the leaves of the blocks the other configs swap in
LEAVES = [(name, path) for name, raw in _full_configs("", "").items()
          for path in _leaves(raw)
          if name == "full" or path[0] in ("body", "flux", "outgas")]
PATH_KEYS = {"obj_path", "csv_path"}
# orders and counts take small numbers only: a large valid one is slow
SIZE_KEYS = {"surface_resolution", "angular_polar", "energy_nodes", "count",
             "n_mu_panels", "n_azimuth"}


@pytest.fixture(scope="module")
def full_configs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("schema")
    obj = tmp / "tet.obj"
    obj.write_text("v 1e-7 1e-7 1e-7\nv 1e-7 -1e-7 -1e-7\nv -1e-7 1e-7 -1e-7\n"
                   "v -1e-7 -1e-7 1e-7\nf 1 2 3\nf 1 4 2\nf 1 3 4\nf 2 4 3\n",
                   encoding="ascii")
    csv = tmp / "flux.csv"
    csv.write_text("node_index,cos_theta,E_joule,value\n0,0,0,1\n0,0,1e-21,1\n"
                   "0,1,0,1\n0,1,1e-21,1\n", encoding="ascii")
    return _full_configs(str(obj), str(csv))


def _parse_all(raw):
    cfg = parse_config(raw)
    parse_locmap_block(cfg)
    parse_simulate_block(cfg)
    parse_outgas_block(cfg)


def _with_leaf(raw, path, value):
    raw = json.loads(json.dumps(raw))
    node = raw
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return raw


def _json_type(value):
    for name, types in (("null", type(None)), ("bool", bool), ("string", str),
                        ("number", (int, float)), ("list", list),
                        ("object", dict)):
        if isinstance(value, types):
            return name


WRONG_TYPES = {"null": None, "string": "x", "number": 2.5, "bool": True,
               "list": [], "object": {}}


def test_full_configs_parse(full_configs):
    for raw in full_configs.values():
        _parse_all(raw)


@pytest.mark.parametrize("name,path", LEAVES,
                         ids=[f"{n}:{_dotted(p)}" for n, p in LEAVES])
def test_every_leaf_rejects_other_json_types(full_configs, name, path):
    raw = full_configs[name]
    node = raw
    for key in path:
        node = node[key]
    accepted = {_json_type(node)}
    if path == ("flux", "rate_per_area_hz_m2"):
        accepted.add("number")    # a uniform rate or a gradient field
    for kind, value in WRONG_TYPES.items():
        if kind in accepted:
            continue
        with pytest.raises(ConfigError) as err:
            _parse_all(_with_leaf(raw, path, value))
        assert _dotted(path) in str(err.value), (kind, str(err.value))


def _containers(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.text(max_size=3), inner, max_size=2))


def _json_values(numbers):
    scalars = st.none() | st.booleans() | st.text(max_size=3) | numbers
    return st.recursive(scalars, _containers, max_leaves=4)


SMALL_NUMBERS = st.integers(-3, 12) | st.floats(-12.0, 12.0)
NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf"),
                              10**400])
# Finite magnitudes stay within 1e+-30: beyond that the geometry and
# rotation code overflows (ROADMAP item 8). The leaves below WIDE take any
# finite double. NaN, infinities and integers that no float holds are
# config errors and are drawn too.
NUMBERS = (SMALL_NUMBERS
           | st.floats(-1e30, 1e30).filter(lambda x: x == 0 or abs(x) >= 1e-30)
           | NON_FINITE)
WIDE_NUMBERS = (SMALL_NUMBERS
                | st.floats(allow_nan=False, allow_infinity=False)
                | NON_FINITE)
WIDE = [("body", "center_of_mass_m"), ("locmap", "pairs", 0, "delta_x_m"),
        ("locmap", "pairs", 0, "w"), ("locmap", "pairs", 0, "w_prime"),
        ("locmap", "ray"), ("locmap", "random", "delta_x_scale_m"),
        ("flux", "site_m"), ("flux", "direction")]
SMALL_JSON, ANY_JSON = _json_values(SMALL_NUMBERS), _json_values(NUMBERS)
WIDE_JSON = _json_values(WIDE_NUMBERS)


def _json_for(path):
    if path[-1] in SIZE_KEYS:
        return SMALL_JSON
    return WIDE_JSON if any(path[:len(w)] == w for w in WIDE) else ANY_JSON


@st.composite
def leaf_values(draw):
    """A leaf of one of the full configs and a JSON value for it."""
    name, path = draw(st.sampled_from(LEAVES))
    value = draw(_json_for(path))
    # a path leaf never takes a string, so no random path is opened
    assume(not (path[-1] in PATH_KEYS and isinstance(value, str)))
    return name, path, value


TABLE = ("flux", "spectrum")


@settings(max_examples=150)
@given(leaf_values())
@example(("full", TABLE + ("energies_j",), {"": 0}))
@example(("full", TABLE + ("values", 1), float("nan")))
@example(("full", TABLE + ("energies_j", 0), -1.0))
@example(("mesh", ("flux", "direction", "direction"), [1, 1, 0]))
@example(("full", ("locmap", "pairs", 0, "w", 2), 1e300))
@example(("full", ("locmap", "random", "delta_x_scale_m"), 1e300))
@example(("full", ("body", "center_of_mass_m", 0), 1e300))
@example(("mesh", ("flux", "direction", "direction", 0), 1e300))
@example(("box", ("flux", "direction", "axis", 0), 1e300))
@example(("sphere", ("flux", "site_m", 0), 1e300))
def test_any_json_value_at_a_leaf_parses_or_is_a_config_error(
        full_configs, leaf):
    name, path, value = leaf
    try:
        _parse_all(_with_leaf(full_configs[name], path, value))
    except ConfigError:
        pass


def test_schema_keys_match_readme():
    # every key the reader allows is in README's schema block, and back
    import desorb.config as config
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config schema", 1)[1].split("```jsonc", 1)[1]
    documented = set(re.findall(r'"(\w+)":', block.split("```", 1)[0]))
    allowed = set()
    for value in vars(config).values():
        if isinstance(value, frozenset):
            allowed |= value
        elif isinstance(value, config._Kinds):
            allowed |= {value.tag} | value.common
            for keys, _ in value.kinds.values():
                allowed |= keys
    assert allowed == documented


@pytest.mark.parametrize("count", [10**400, 10**6 + 1],
                         ids=["1e400", "1e6_plus_1"])
def test_random_pair_count_is_bounded(count):
    # the pairs are drawn one by one before any row: an unbounded count
    # would never return
    raw = base_raw()
    raw["locmap"] = {"random": {"count": count, "delta_x_scale_m": 1e-9}}
    cfg = parse_config(raw)
    with pytest.raises(ConfigError,
                       match=re.escape("'locmap.random.count' must be <= "
                                       "1000000")):
        parse_locmap_block(cfg)


@pytest.mark.parametrize("body", [
    {"shape": "sphere", "radius_m": 1e300},
    {"shape": "sphere", "radius_m": 1e110},          # the volume overflows
    {"shape": "cylinder", "radius_m": 1e300, "half_length_m": 1e-7},
    {"shape": "cylinder", "radius_m": 5e-8, "half_length_m": 1e300},
    {"shape": "cylinder", "radius_m": 5e-8, "half_length_m": 1e300,
     "capped": False},
    {"shape": "box", "half_extents_m": [1e300, 1e-7, 1e-7]},
    {"shape": "box", "half_extents_m": [1e-7, 1e160, 1e160]},
], ids=["sphere", "sphere_volume", "cylinder_radius", "cylinder_length",
        "open_cylinder", "box", "box_area"])
def test_body_sizes_that_overflow_are_config_errors(body):
    raw = base_raw()
    raw["body"] = body
    with pytest.raises(ConfigError, match="^body: .*must be finite"):
        parse_config(raw)


@pytest.mark.parametrize("body", [
    {"shape": "sphere", "radius_m": 1e-300},
    {"shape": "sphere", "radius_m": 1e-300,
     "inertia_body_kg_m2": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
    {"shape": "box", "half_extents_m": [1e-320, 5e-8, 5e-8]},
], ids=["sphere", "sphere_inertia", "box"])
def test_body_sizes_whose_weights_underflow_are_config_errors(body):
    # the surface rule's node weights underflow to 0: a ValueError of the
    # quadrature, which escaped the config boundary
    raw = base_raw()
    raw["body"] = body
    with pytest.raises(ConfigError, match="^body: area weights must be positive"):
        parse_config(raw)


@pytest.mark.parametrize("block,message", [
    ({"locmap": {"pairs": [{"delta_x_m": [1e-9, 0, 0], "w": [0, 0, 1e300]}]}},
     "'locmap.pairs[0].w': |w| = inf not below pi"),
    ({"locmap": {"pairs": [{"delta_x_m": [0, 1e300, 0]}]}},
     "'locmap.pairs[0]': delta_x components must be within 1e+30 m"),
    ({"locmap": {"random": {"count": 2, "delta_x_scale_m": 1e300}}},
     "'locmap.random pair 0': delta_x"),
    ({"locmap": {"ray": {"direction": [0, 0, 1], "lengths_m": [1e-9, 1e31]}}},
     "'locmap.ray.lengths_m[1]': delta_x components must be within"),
    ({"body": {"shape": "sphere", "radius_m": 7.5e-8,
               "center_of_mass_m": [1e300, 0, 0]}},
     "body: center of mass must lie within the body's bounding box"),
    ({"body": {"shape": "box", "half_extents_m": [1e-7, 2e-7, 3e-7],
               "center_of_mass_m": [0, 0, -3.5e-7]}},
     "body: center of mass must lie within the body's bounding box"),
], ids=["w", "delta_x", "random_scale", "ray_length", "center_of_mass",
        "center_of_mass_outside_box"])
def test_extreme_magnitudes_are_config_errors(block, message):
    # each overflowed with a RuntimeWarning, or stopped as NonFinite in
    # the diffusion tensor, before it reached a named check
    raw = base_raw()
    raw.update(block)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_locmap_block(parse_config(raw))


def test_huge_ray_direction_keeps_the_unit_vector():
    # the direction is scaled by a power of two before its norm is taken
    rows = []
    for direction in ([1, -2, 0.5], [2e300, -4e300, 1e300], [1e-310, -2e-310,
                                                            5e-311]):
        raw = base_raw()
        raw["locmap"] = {"ray": {"direction": direction, "lengths_m": [3e-9]}}
        rows.append(parse_locmap_block(parse_config(raw))[0][0].delta_x)
    assert rows[0].tobytes() == rows[1].tobytes()
    # a subnormal input holds only about 40 significant bits
    np.testing.assert_allclose(rows[2], rows[0], rtol=1e-12)


def test_center_of_mass_on_the_bounding_box_parses():
    raw = base_raw()
    raw["body"] = {"shape": "cylinder", "radius_m": 5e-8, "half_length_m": 1e-7,
                   "center_of_mass_m": [-5e-8, 5e-8, 1e-7]}
    assert np.array_equal(parse_config(raw).body.center_of_mass,
                          [-5e-8, 5e-8, 1e-7])


def test_large_finite_body_sizes_still_parse():
    raw = base_raw()
    raw["body"] = {"shape": "box", "half_extents_m": [1e100, 1e-7, 1e-7]}
    assert np.isfinite(parse_config(raw).quadrature.total_area)


def test_parse_config_splits_the_flux_once(full_configs, monkeypatch):
    # the rate field and the transport scale are both checked by the
    # library, on the one split of the flux that parse_config takes
    import desorb.config as config
    calls = []
    split = config.split
    monkeypatch.setattr(config, "split",
                        lambda *args: calls.append(args) or split(*args))
    for raw in full_configs.values():
        calls.clear()
        parse_config(raw)
        assert len(calls) == 1

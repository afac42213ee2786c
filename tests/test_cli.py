import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import desorb.cli
import desorb.decoherence
import desorb.geometry
import desorb.moments
from desorb.cli import main
from desorb.constants import HBAR, KB
from desorb.geometry import BodySpec, Sphere, build_quadrature, cube_mesh

N2 = 4.65e-26

BASE_CONFIG = {
    "seed": 20240,
    "atom": {"mass_kg": N2, "species": "N2"},
    "body": {"shape": "sphere", "radius_m": 7.5e-8, "mass_kg": 1e-18},
    "flux": {"model": "cosine", "rate_per_area_hz_m2": 1000.0,
             "spectrum": {"kind": "maxwell_boltzmann", "temperature_k": 300.0}},
    "quadrature": {"surface_resolution": 48},
}


def write_config(tmp_path, extra, name="config.json", base=None):
    cfg = dict(BASE_CONFIG if base is None else base)
    cfg.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


def test_tensors_matches_golden(tmp_path):
    cfg = write_config(tmp_path, {"tensors": {}})
    out = tmp_path / "tensors.json"
    assert run(["tensors", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    # resolved from this file, so the suite runs from any directory
    golden = json.loads((pathlib.Path(__file__).parent / "data"
                         / "golden_sphere_cosine.json").read_text())
    assert doc["total_rate"] == pytest.approx(golden["total_rate"], rel=1e-6)
    # cross blocks vanish on the centered sphere up to roundoff: compare
    # them against the geometric mean of the diagonal-block scales
    cross_scale = np.sqrt(np.max(np.abs(np.array(golden["d_tt"])))
                          * np.max(np.abs(np.array(golden["d_rr"]))))
    for block in ("d_tt", "d_tr", "d_rt", "d_rr"):
        got = np.array(doc[block])
        ref = np.array(golden[block])
        scale = np.max(np.abs(ref))
        if block in ("d_tr", "d_rt"):
            scale = max(scale, cross_scale)
        assert np.max(np.abs(got - ref)) <= 1e-6 * scale
    assert "metadata" in doc and doc["metadata"]["config_sha256"]
    assert doc["units"]["d_tt"] == "(kg m/s)^2 / s"


def test_tensors_negative_radius_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tensors": {}})
    bad = json.loads(pathlib.Path(cfg).read_text())
    bad["body"]["radius_m"] = -1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["tensors", "--config", str(path), "--out", "-"]) == 2
    assert "body.radius_m" in capsys.readouterr().err


def test_tensors_unknown_key_exit2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"tensors": {}, "fluxx": 1})
    assert run(["tensors", "--config", cfg_path, "--out", "-"]) == 2
    assert "fluxx" in capsys.readouterr().err


def test_tensors_not_converged_exit3(tmp_path, capsys):
    # a flux table on one energy segment with 4 energy nodes: p = sqrt(2 m E)
    # is not polynomial there, and the 2x-refined energy rule moves the
    # force by 1.5e-4 of the momentum flux, above the default 1e-6
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 12)
    e_max = 12.0 * KB * 300.0
    rows = ["node_index,cos_theta,E_joule,value"]
    for node in np.flatnonzero(q.points[:, 2] < 0.0):   # the lower half emits
        rows += [f"{node},{c},{e},{1e3 * c / (np.pi * e_max)}"
                 for c in (0.0, 1.0) for e in (0.0, e_max)]
    csv_path = tmp_path / "flux.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, {
        "tensors": {},
        "flux": {"model": "tabulated", "csv_path": str(csv_path)},
        "quadrature": {"surface_resolution": 12, "energy_nodes": 4}})
    assert run(["tensors", "--config", cfg, "--out", "-"]) == 3
    assert "not converged" in capsys.readouterr().err


def test_exit_codes_match_readme():
    # README's "Exit codes:" sentence lists exactly the codes cli returns
    readme = (pathlib.Path(__file__).resolve().parents[1]
              / "README.md").read_text(encoding="utf-8")
    sentence = readme.split("Exit codes:", 1)[1].split(".", 1)[0]
    documented = {int(code) for code in re.findall(r"`(\d+)`", sentence)}
    codes = {value for name, value in vars(desorb.cli).items()
             if name.startswith("EXIT_")}
    assert documented == codes == {0, 2, 3, 4}


def test_tensors_resolution_scale_converged(tmp_path):
    cfg = write_config(tmp_path, {"tensors": {}})
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert run(["tensors", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["tensors", "--config", cfg, "--out", str(out2),
                "--resolution-scale", "2.0"]) == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    for block in ("d_tt", "d_rr"):
        ga, gb = np.array(a[block]), np.array(b[block])
        assert np.max(np.abs(ga - gb)) <= 1e-6 * np.max(np.abs(gb))


def test_tensors_coarse_separable_runs(tmp_path):
    # a separable model is exact in angle and energy: no order is too coarse
    cfg = write_config(tmp_path, {"tensors": {}})
    assert run(["tensors", "--config", cfg, "--out", str(tmp_path / "t.json"),
                "--resolution-scale", "0.25"]) == 0


@pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
def test_resolution_scale_rejected_exit2(tmp_path, capsys, scale):
    cfg = write_config(tmp_path, {"tensors": {}})
    assert run(["tensors", "--config", cfg, "--out", str(tmp_path / "t.json"),
                f"--resolution-scale={scale}"]) == 2
    assert "--resolution-scale" in capsys.readouterr().err


def test_resolution_scale_below_minimum_exit2(tmp_path, capsys):
    # 48 x 1e-6 rounds to 0 surface rings: refused, not clamped to 1
    cfg = write_config(tmp_path, {"tensors": {}})
    assert run(["tensors", "--config", cfg, "--out", str(tmp_path / "t.json"),
                "--resolution-scale", "1e-6"]) == 2
    assert "quadrature.surface_resolution" in capsys.readouterr().err


def test_tensors_table_one_contraction_per_level(tmp_path, monkeypatch):
    # D and F of a table come from one pass and one contraction, which
    # also carries the refined energy weights of the check
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 4)
    e_max = 12.0 * KB * 300.0
    rows = ["node_index,cos_theta,E_joule,value"]
    rows += [f"{node},{c},{e},{1e3 * c / (np.pi * e_max)}"
             for node in range(q.n_nodes) for c in (0.0, 1.0)
             for e in (0.0, e_max)]
    csv_path = tmp_path / "flux.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, {
        "flux": {"model": "tabulated", "csv_path": str(csv_path)},
        "quadrature": {"surface_resolution": 4}})
    calls = []
    contract = desorb.moments._table_surface_moments
    monkeypatch.setattr(desorb.moments, "_table_surface_moments",
                        lambda *a: calls.append(1) or contract(*a))
    assert run(["tensors", "--config", cfg, "--out",
                str(tmp_path / "t.json")]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("cos_grid,e_grid", [
    ((0.5,), (0.0, 1e-21, 2e-21)), ((0.0, 0.5, 1.0), (1e-21,))],
    ids=["cos_theta", "E_joule"])
def test_one_point_table_grid_exit2(tmp_path, capsys, cos_grid, e_grid):
    # a grid of one point has no cell to interpolate in: it read as a zero
    # rate and a NaN localization rate
    q = build_quadrature(BodySpec(Sphere(7.5e-8)), 4)
    rows = ["node_index,cos_theta,E_joule,value"]
    rows += [f"{node},{c},{e},1e20" for node in range(q.n_nodes)
             for c in cos_grid for e in e_grid]
    csv_path = tmp_path / "flux.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = write_config(tmp_path, {
        "tensors": {}, "flux": {"model": "tabulated", "csv_path": str(csv_path)},
        "quadrature": {"surface_resolution": 4}})
    assert run(["tensors", "--config", cfg, "--out", "-"]) == 2
    assert "flux.csv_path: tabulation grids need at least 2 points" \
        in capsys.readouterr().err


def test_locmap_rows(tmp_path):
    e0 = 5e-28
    p0 = np.sqrt(2 * N2 * e0)
    lam = 1.5e3
    cfg = write_config(tmp_path, {
        "flux": {"model": "cosine", "rate_per_area_hz_m2": 1000.0,
                 "spectrum": {"kind": "monoenergetic", "energy_j": e0}},
        "quadrature": {"surface_resolution": 12},
        "locmap": {
            "pairs": [
                {"delta_x_m": [0.0, 0.0, 0.0]},
                {"delta_x_m": [3e-8, 0.0, 0.0], "w": [0.0, 0.4, 0.0]},
                {"delta_x_m": [-3e-8, 0.0, 0.0], "w_prime": [0.0, 0.4, 0.0]},
            ],
            "ray": {"direction": [0.0, 0.0, 1.0],
                    "lengths_m": [lam * HBAR / p0]},
            "visibility_times_s": [0.001],
            "check_convergence": False,
        },
    })
    out = tmp_path / "locmap.csv"
    assert run(["locmap", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# desorb")
    assert lines[1].split(",")[:8] == ["dx", "dy", "dz", "w_rel_x", "w_rel_y",
                                      "w_rel_z", "re_rate_hz", "im_rate_hz"]
    rows = [line.split(",") for line in lines[2:]]
    # diagonal pair: exactly zero rate, visibility 1
    assert float(rows[0][6]) == 0.0 and float(rows[0][7]) == 0.0
    assert float(rows[0][8]) == 1.0
    # swapped pair symmetry: re equal, im negated
    gamma = 1000.0 * 4 * np.pi * (7.5e-8) ** 2
    assert abs(float(rows[1][6]) - float(rows[2][6])) < 1e-10 * gamma
    assert abs(float(rows[1][7]) + float(rows[2][7])) < 1e-10 * gamma
    # saturation ray row approaches the total emission rate within 1%
    assert abs(float(rows[3][6]) / gamma - 1.0) < 0.01


def test_locmap_out_of_bounds_row_is_annotated(tmp_path, monkeypatch,
                                               capsys):
    # a rate outside [0, 2 Gamma] is a named error: the middle row reads
    # nan and the row after it is still written
    pair_terms = desorb.decoherence._pair_terms

    def above_bound(pair, em, m_atom, levels):
        if pair.delta_x[1] != 0.0:
            return [(1e30, 0.0)] * len(levels)
        return pair_terms(pair, em, m_atom, levels)

    monkeypatch.setattr(desorb.decoherence, "_pair_terms", above_bound)
    cfg = write_config(tmp_path, {
        "quadrature": {"surface_resolution": 4},
        "locmap": {"pairs": [{"delta_x_m": [1e-12, 0.0, 0.0]},
                             {"delta_x_m": [0.0, 1e-12, 0.0]},
                             {"delta_x_m": [2e-12, 0.0, 0.0]}],
                   "check_convergence": False}})
    out = tmp_path / "locmap.csv"
    assert run(["locmap", "--config", cfg, "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 3
    assert rows[1][6:] == ["nan", "nan"]
    assert 0.0 < float(rows[0][6]) < float(rows[2][6])
    assert "RateOutOfBounds" in capsys.readouterr().err


def test_simulate_reproducible_and_report(tmp_path):
    cfg = write_config(tmp_path, {
        "flux": {"model": "cosine", "rate_per_area_hz_m2":
                 30.0 / (4 * np.pi * (7.5e-8) ** 2),
                 "spectrum": {"kind": "maxwell_boltzmann",
                              "temperature_k": 300.0}},
        "quadrature": {"surface_resolution": 12},
        "simulate": {"duration_s": 1.0, "n_trajectories": 3000, "n_times": 8},
    })
    outs = []
    for threads, name in ((1, "s1.csv"), (4, "s4.csv"), (16, "s16.csv")):
        out = tmp_path / name
        assert run(["simulate", "--config", cfg, "--out", str(out),
                    "--threads", str(threads)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]
    report = json.loads((tmp_path / "s1.csv.report.json").read_text())
    assert report["passed"] is True
    assert report["total_events"] > 0
    header = outs[0].decode().splitlines()[1].split(",")
    assert header[0] == "t_s"
    assert "cov_PxJz" in header and "stderr_cov_JzJz" in header


def test_simulate_zero_trajectories_exit2(tmp_path):
    cfg = write_config(tmp_path, {
        "simulate": {"duration_s": 1.0, "n_trajectories": 0}})
    assert run(["simulate", "--config", cfg, "--out", "-"]) == 2


def test_unwritable_out_exit2(tmp_path, capsys, monkeypatch):
    # the paths are checked before anything is computed
    def never(*args, **kwargs):
        raise AssertionError("computed before the output path was checked")

    monkeypatch.setattr(desorb.cli, "transport", never)
    monkeypatch.setattr(desorb.cli, "simulate_ensemble", never)
    cfg = write_config(tmp_path, {"quadrature": {"surface_resolution": 8},
                                  "simulate": {"duration_s": 1.0,
                                               "n_trajectories": 10}})
    missing = tmp_path / "missing" / "t.json"
    for command, out in (("tensors", missing), ("tensors", tmp_path),
                         ("simulate", missing), ("outgas", missing),
                         ("validate", missing)):
        assert run([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--out '{out}' cannot be written" in err
    # a report path that is a directory fails before the CSV is written
    out = tmp_path / "s.csv"
    (tmp_path / "s.csv.report.json").mkdir()
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert f"--out '{out}.report.json'" in capsys.readouterr().err
    assert not out.exists() and not missing.parent.exists()


def test_locmap_zero_azimuth_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"locmap": {
        "pairs": [{"delta_x_m": [1e-9, 0.0, 0.0]}], "n_azimuth": 0}})
    assert run(["locmap", "--config", cfg,
                "--out", str(tmp_path / "map.csv")]) == 2
    assert "locmap.n_azimuth" in capsys.readouterr().err


def test_locmap_block_not_an_object_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"locmap": 5})
    assert run(["locmap", "--config", cfg,
                "--out", str(tmp_path / "map.csv")]) == 2
    assert "'locmap' must be an object" in capsys.readouterr().err


@pytest.mark.parametrize("energies", [{"a": 1}, [{}, 1e-21]],
                         ids=["object", "object_entry"])
def test_tabulated_spectrum_object_exit2(tmp_path, capsys, energies):
    flux = dict(BASE_CONFIG["flux"], spectrum={
        "kind": "tabulated", "energies_j": energies, "values": [1.0, 0.5]})
    cfg = write_config(tmp_path, {"flux": flux, "tensors": {}})
    assert run(["tensors", "--config", cfg, "--out", "-"]) == 2
    assert "'flux.spectrum.energies_j" in capsys.readouterr().err


def test_commands_load_no_scipy(tmp_path):
    # loading scipy costs most of the start-up of every command; only
    # validate (scipy.integrate.quad as its oracle) may load it
    cfg = write_config(tmp_path, {
        "quadrature": {"surface_resolution": 8},
        "tensors": {},
        "locmap": {"pairs": [{"delta_x_m": [1e-11, 0.0, 0.0]},
                             {"delta_x_m": [0.0, 0.0, 0.0],
                              "w": [0.0, 0.01, 0.0]}]},
        "simulate": {"duration_s": 1.0, "n_trajectories": 64, "n_times": 2,
                     "compare": True},
    })
    argvs = [[cmd, "--config", cfg, "--out", str(tmp_path / f"{cmd}.out")]
             for cmd in ("tensors", "locmap", "simulate")]
    code = """if True:
        import json, sys
        import desorb.cli
        def scipy():
            return sorted(m for m in sys.modules
                          if m == "scipy" or m.startswith("scipy."))
        loaded = {"import": scipy()}
        for argv in json.loads(sys.argv[1]):
            assert desorb.cli.main(argv) == 0, argv
            loaded[argv[0]] = scipy()
        print(json.dumps(loaded))
    """
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert json.loads(out.strip().splitlines()[-1]) == {
        "import": [], "tensors": [], "locmap": [], "simulate": []}


def test_outgas_presets(tmp_path):
    body_150nm = {"shape": "sphere", "radius_m": 75e-9, "mass_kg": 1e-18}
    for preset, expected, rel in (("gold", 1966.7494527410327, 1e-6),
                                  ("silica", 0.1145436525443639, 1e-6)):
        cfg = write_config(tmp_path, {"body": body_150nm,
                                      "outgas": {"preset": preset}},
                           name=f"{preset}.json")
        out = tmp_path / f"{preset}.out.json"
        assert run(["outgas", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["emission_rate"] == pytest.approx(expected, rel=rel)
    silica = json.loads((tmp_path / "silica.out.json").read_text())
    assert "0.33" in silica["note"] and "0.115" in silica["note"]
    gold = json.loads((tmp_path / "gold.out.json").read_text())
    assert abs(gold["emission_rate"] - 2000.0) / 2000.0 < 0.15


def test_outgas_explicit_rate_roundtrip(tmp_path):
    from desorb.constants import TORR_L_PER_CM2_S
    rate_torr = 8.5e-8
    cfg1 = write_config(tmp_path, {
        "outgas": {"specific_rate_torr_l_cm2_s": rate_torr,
                   "gas_temperature_k": 295.0}}, name="a.json")
    cfg2 = write_config(tmp_path, {
        "outgas": {"specific_rate_pa_m3_s_m2": rate_torr * TORR_L_PER_CM2_S,
                   "gas_temperature_k": 295.0}}, name="b.json")
    out1, out2 = tmp_path / "o1.json", tmp_path / "o2.json"
    assert run(["outgas", "--config", cfg1, "--out", str(out1)]) == 0
    assert run(["outgas", "--config", cfg2, "--out", str(out2)]) == 0
    r1 = json.loads(out1.read_text())["emission_rate"]
    r2 = json.loads(out2.read_text())["emission_rate"]
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_validate_command(tmp_path):
    out = tmp_path / "validate.txt"
    assert run(["validate", "--out", str(out)]) == 0
    text = out.read_text()
    assert "PASS" in text and "FAIL" not in text


def test_metadata_header_in_outputs(tmp_path):
    cfg = write_config(tmp_path, {"tensors": {}})
    out = tmp_path / "t.json"
    run(["tensors", "--config", cfg, "--out", str(out)])
    doc = json.loads(out.read_text())
    meta = doc["metadata"]
    assert meta["tool"] == "desorb"
    assert meta["command"] == "tensors"
    assert len(meta["config_sha256"]) == 64
    assert meta["seed"] == 20240


@pytest.mark.parametrize("extra", [
    {"body": {"shape": "sphere", "radius_m": 1e300}},
    {"body": {"shape": "cylinder", "radius_m": 5e-8, "half_length_m": 1e300}},
    {"body": {"shape": "box", "half_extents_m": [1e-7, 1e300, 1e-7]}},
    {"body": {"shape": "sphere", "radius_m": 1e100}},
], ids=["radius_m", "half_length_m", "half_extents_m", "finite_area_radius_m"])
def test_tensors_overflowing_body_exit2(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, {**extra, "tensors": {}})
    assert run(["tensors", "--config", cfg, "--out", "-"]) == 2
    assert "body: " in capsys.readouterr().err


_RES4 = {"surface_resolution": 4}
# 12 emission events per second on the 75 nm sphere
_TWELVE_HZ = dict(BASE_CONFIG["flux"],
                  rate_per_area_hz_m2=12.0 / (4 * np.pi * 7.5e-8 ** 2))
_SITE = {"model": "single_site", "site_m": [7.5e-8, 0, 0], "rate_hz": 5.0,
         "direction": {"law": "isotropic"},
         "spectrum": {"kind": "maxwell_boltzmann", "temperature_k": 300.0}}


@pytest.mark.parametrize("command,extra,key", [
    ("locmap", {"locmap": {"pairs": [{"delta_x_m": [1e-12, 0, 0],
                                      "w": [0, 0, 1e300]}]}},
     "locmap.pairs[0].w"),
    ("locmap", {"locmap": {"random": {"count": 2, "delta_x_scale_m": 1e300}}},
     "locmap.random pair 0"),
    ("tensors", {"body": {"shape": "sphere", "radius_m": 7.5e-8,
                          "center_of_mass_m": [1e300, 0, 0]}, "tensors": {}},
     "body: center of mass"),
    ("tensors", {"flux": dict(_SITE, direction={
        "law": "fixed", "direction": [1e300, 0, 0]}), "tensors": {}},
     "'flux.direction.direction': direction must be a unit vector"),
    ("tensors", {"flux": dict(_SITE, direction={
        "law": "cosine", "axis": [1e300, 0, 0]}), "tensors": {}},
     "'flux.direction.axis': direction must be a unit vector"),
    ("tensors", {"flux": dict(_SITE, site_m=[1e300, 0, 0]), "tensors": {}},
     "'flux.site_m' must lie within the body's bounding box"),
    ("tensors", {"flux": dict(BASE_CONFIG["flux"], spectrum={
        "kind": "tabulated", "energies_j": [0, 1.7e308], "values": [1, 1]}),
        "quadrature": _RES4, "tensors": {}}, "flux.spectrum: "),
    ("tensors", {"flux": dict(BASE_CONFIG["flux"], spectrum={
        "kind": "tabulated", "energies_j": [0, 1e-320], "values": [1, 1]}),
        "quadrature": _RES4, "tensors": {}}, "flux.spectrum: "),
    ("tensors", {"flux": dict(BASE_CONFIG["flux"], rate_per_area_hz_m2={
        "base": 1.7e308, "gradient_1_m": [0, 0, 1e6]}),
        "quadrature": _RES4, "tensors": {}}, "'flux.rate_per_area_hz_m2'"),
    ("tensors", {"flux": dict(BASE_CONFIG["flux"], rate_per_area_hz_m2=1e300),
                 "atom": {"mass_kg": 1e300}, "quadrature": _RES4,
                 "tensors": {}}, "'atom.mass_kg'"),
    ("tensors", {"flux": dict(BASE_CONFIG["flux"], spectrum={
        "kind": "tabulated", "energies_j": [0, 1e-300], "values": [1, 0.5]}),
        "quadrature": _RES4, "tensors": {}}, "flux.spectrum: "),
    ("simulate", {"flux": _TWELVE_HZ, "quadrature": _RES4, "simulate": {
        "duration_s": 1e12, "n_trajectories": 4096}}, "'simulate.duration_s'"),
    ("simulate", {"flux": _TWELVE_HZ, "quadrature": _RES4, "simulate": {
        "duration_s": 1e300, "n_trajectories": 4096}},
     "'simulate.duration_s'"),
    ("simulate", {"quadrature": _RES4, "simulate": {
        "duration_s": 1.0, "n_trajectories": 10**15}},
     "'simulate.n_trajectories'"),
    ("simulate", {"quadrature": _RES4, "simulate": {
        "duration_s": 1.0, "n_trajectories": 4096, "n_times": 10**12}},
     "'simulate.n_times'"),
], ids=["w", "delta_x_scale_m", "center_of_mass_m", "direction", "axis",
        "site_m", "spectrum_energy_huge", "spectrum_energy_tiny",
        "gradient_base", "rate_and_atom_mass", "spectrum_slope",
        "simulate_duration", "simulate_duration_huge",
        "simulate_trajectories", "simulate_times"])
def test_extreme_finite_magnitudes_exit2(tmp_path, capsys, command, extra, key):
    # these overflowed (exit 1 under -W error), stopped as NonFinite
    # (exit 4) or asked numpy at once for more memory than any machine has
    # (PiB for the sizes of simulate); warnings are errors in this suite
    cfg = write_config(tmp_path, extra)
    assert run([command, "--config", cfg, "--out", "-"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, size", [("n_trajectories", 10**9 + 1),
                                       ("n_times", 10**5 + 1)])
def test_simulate_past_the_size_bounds_exit2(tmp_path, capsys, key, size):
    # 8 B of event count per trajectory, one block's bins per report time
    cfg = write_config(tmp_path, {"quadrature": _RES4, "simulate": {
        "duration_s": 1.0, "n_trajectories": 4096, key: size}})
    assert run(["simulate", "--config", cfg, "--out", "-"]) == 2
    assert f"'simulate.{key}' must be <=" in capsys.readouterr().err


def test_locmap_unbounded_random_count_exit2(tmp_path, capsys):
    cfg = write_config(tmp_path, {"locmap": {"random": {
        "count": 10**400, "delta_x_scale_m": 1e-9}}})
    assert run(["locmap", "--config", cfg, "--out", "-"]) == 2
    assert "locmap.random.count" in capsys.readouterr().err


def test_locmap_output_does_not_depend_on_the_blas_pool(tmp_path):
    # a rotation with a displacement at res 8, under one and two OpenBLAS
    # threads, each in a fresh interpreter
    cfg = write_config(tmp_path, {
        "quadrature": {"surface_resolution": 8},
        "locmap": {"pairs": [{"delta_x_m": [2e-12, 1e-12, 0.0],
                              "w": [0.0, 0.0, 0.01]}]}})
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas_{threads}.csv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "desorb.cli", "locmap",
                        "--config", cfg, "--out", str(out)],
                       env=env, check=True, capture_output=True)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert b"nan" not in outputs[0]


def _obj_text(mesh, faces):
    return ("".join(f"v {float(x)!r} {float(y)!r} {float(z)!r}\n"
                    for x, y, z in mesh.vertices)
            + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in faces))


_CUBE = cube_mesh(5e-8)


@pytest.mark.parametrize("text, message", [
    (_obj_text(_CUBE, _CUBE.faces).replace("f 1 ", "foo\nf 1 ", 1),
     "unsupported OBJ content at line 9: 'foo'"),
    (_obj_text(_CUBE, _CUBE.faces[1:]),
     "boundary or flipped edge (0, 3); mesh not closed"),
    (_obj_text(_CUBE, np.vstack([_CUBE.faces[:1, ::-1], _CUBE.faces[1:]])),
     "directed edge (0, 3) repeated; inconsistent orientation"),
    ("v 0 0 0\nv 1e-7 0 0\nv 0 1e-7 0\nv 0 0 1e-7\nf 1 2 3\n",
     "mesh orientation inverted (signed volume <= 0)"),
], ids=["malformed_line", "open", "flipped", "open_tetrahedron"])
def test_broken_mesh_file_exit2(tmp_path, capsys, text, message):
    # these were internal errors (exit 4) that did not name the key; the
    # library's messages are those of test_broken_cube_meshes_keep_their_
    # messages and read_obj
    obj = tmp_path / "broken.obj"
    obj.write_text(text, encoding="ascii")
    cfg = write_config(tmp_path, {"body": {"shape": "mesh",
                                           "obj_path": str(obj)},
                                  "tensors": {}})
    assert run(["tensors", "--config", cfg, "--out", "-"]) == 2
    assert capsys.readouterr().err == \
        f"config error: body.obj_path: {message}\n"


@pytest.mark.parametrize("rate", [
    1e-320, {"base": 1e-320, "gradient_1_m": [0.0, 0.0, 1e6]}],
    ids=["uniform", "gradient"])
def test_simulate_zero_total_rate_exit2(tmp_path, capsys, rate):
    # node rates that underflow to 0 stopped simulate with a traceback
    # (exit 1); tensors and locmap write the zeros they compute
    cfg = write_config(tmp_path, {
        "flux": dict(BASE_CONFIG["flux"], rate_per_area_hz_m2=rate),
        "quadrature": _RES4, "tensors": {},
        "locmap": {"pairs": [{"delta_x_m": [1e-12, 0.0, 0.0]}]},
        "simulate": {"duration_s": 1.0, "n_trajectories": 64}})
    out = tmp_path / "s.csv"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 2
    assert "'flux.rate_per_area_hz_m2' gives a total rate of 0" in \
        capsys.readouterr().err
    assert not out.exists()
    tensors = tmp_path / "t.json"
    assert run(["tensors", "--config", cfg, "--out", str(tensors)]) == 0
    doc = json.loads(tensors.read_text())
    assert doc["total_rate"] == 0.0 and not np.any(doc["d_tt"])
    locmap = tmp_path / "l.csv"
    assert run(["locmap", "--config", cfg, "--out", str(locmap)]) == 0
    assert locmap.read_text().splitlines()[2].split(",")[6:] == ["0", "0"]


def test_simulate_zero_table_exit2(tmp_path, capsys):
    flux_csv = tmp_path / "zero.csv"
    flux_csv.write_text("node_index,cos_theta,E_joule,value\n0,0,0,0\n"
                        "0,0,1e-21,0\n0,1,0,0\n0,1,1e-21,0\n",
                        encoding="ascii")
    cfg = write_config(tmp_path, {
        "flux": {"model": "tabulated", "csv_path": str(flux_csv)},
        "quadrature": _RES4,
        "simulate": {"duration_s": 1.0, "n_trajectories": 64}})
    assert run(["simulate", "--config", cfg, "--out", "-"]) == 2
    assert "'flux.csv_path' gives a total rate of 0" in capsys.readouterr().err


def test_simulate_overflowing_jackknife_exit4(tmp_path, capsys):
    # the fourth-order sums of a 1e200 kg atom's kicks overflow: this wrote
    # 15 NaN columns and "chi2": null and exited 0
    cfg = write_config(tmp_path, {
        "atom": {"mass_kg": 1e200},
        "flux": dict(_SITE, site_m=[0.0, 0.0, 0.0]), "quadrature": _RES4,
        "simulate": {"duration_s": 1.0, "n_trajectories": 64}})
    out = tmp_path / "s.csv"
    assert run(["simulate", "--config", cfg, "--out", str(out)]) == 4
    assert "jackknife errors of the covariance are not finite" in \
        capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "s.csv.report.json").exists()


@pytest.mark.parametrize("quadrature, locmap, scale, key", [
    ({"surface_resolution": 513}, {}, "1", "quadrature.surface_resolution"),
    ({"surface_resolution": 300}, {}, "2", "quadrature.surface_resolution"),
    ({"surface_resolution": 10**8}, {}, "1", "quadrature.surface_resolution"),
    ({"energy_nodes": 2049}, {}, "1", "quadrature.energy_nodes"),
    ({"energy_nodes": 1500}, {}, "1.5", "quadrature.energy_nodes"),
    ({}, {"n_mu_panels": 4097}, "1", "locmap.n_mu_panels"),
    ({}, {"n_mu_panels": 8193, "check_convergence": False}, "1",
     "locmap.n_mu_panels"),
    ({}, {"n_mu_panels": 10**30}, "1", "locmap.n_mu_panels"),
    ({}, {"n_azimuth": 513}, "1", "locmap.n_azimuth"),
    ({}, {"n_azimuth": 10**8}, "1", "locmap.n_azimuth"),
], ids=["resolution", "resolution_scaled", "resolution_1e8", "energy",
        "energy_scaled", "mu_checked", "mu_unchecked", "mu_1e30",
        "azimuth", "azimuth_1e8"])
def test_orders_past_their_bounds_exit2(tmp_path, capsys, monkeypatch,
                                        quadrature, locmap, scale, key):
    # resolution 1e8 raised a raw MemoryError (71 PiB), n_mu_panels 1e8
    # asked for 71.5 GiB and 1e30 stopped on a raw ValueError; each order
    # is refused where the library first takes it, before any array of its
    # size is allocated
    def never(*args, **kwargs):
        raise AssertionError("an order past its bound was used")

    if quadrature:
        monkeypatch.setattr(desorb.geometry.Sphere, "quadrature", never)
    monkeypatch.setattr(desorb.decoherence, "localization_rate", never)
    cfg = write_config(tmp_path, {
        "quadrature": quadrature,
        "locmap": {"pairs": [{"delta_x_m": [1e-12, 0.0, 0.0]}], **locmap}})
    assert run(["locmap", "--config", cfg, "--out", "-",
                "--resolution-scale", scale]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: '{key}': ")
    assert " must be <= " in err


def _stdout_and_file(tmp_path, capsys, argv, name):
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv + ["--out", "-"]) == 0
    return capsys.readouterr().out, out.read_bytes().decode("utf-8")


def test_out_dash_prints_the_bytes_of_the_file(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "flux": _TWELVE_HZ, "quadrature": {"surface_resolution": 8},
        "tensors": {},
        "locmap": {"pairs": [{"delta_x_m": [2e-12, 0.0, 0.0]},
                             {"delta_x_m": [0.0, 0.0, 0.0],
                              "w": [0.0, 0.0, 0.01]}],
                   "visibility_times_s": [1e-3]},
        "simulate": {"duration_s": 1.0, "n_trajectories": 64, "n_times": 3,
                     "compare": False},
        "outgas": {"preset": "gold"}})
    for command in ("tensors", "locmap", "simulate", "outgas", "validate"):
        printed, written = _stdout_and_file(
            tmp_path, capsys, [command, "--config", cfg], f"{command}.out")
        assert printed == written, command
        assert written.endswith("\n") and len(written.splitlines()) > 1


def test_seed_flag_overrides_the_config_seed(tmp_path, capsys):
    # streams take the seed modulo 2**64: -1 and 2**64 - 1 name one stream,
    # and only the seed echoed in the metadata differs
    sim = {"duration_s": 1.0, "n_trajectories": 64, "n_times": 3,
           "compare": False}
    extra = {"flux": _TWELVE_HZ, "quadrature": _RES4, "simulate": sim}
    cfg = write_config(tmp_path, extra)
    argv = ["simulate", "--config", cfg, "--out", "-", "--seed"]
    outputs = {}
    for seed in ("-1", "18446744073709551615", "5", "6"):
        assert run(argv + [seed]) == 0
        outputs[seed] = capsys.readouterr().out
    low, high = outputs["-1"], outputs["18446744073709551615"]
    assert low.replace('"seed":-1', '"seed":18446744073709551615') == high
    assert low != outputs["5"] != outputs["6"]
    # --seed N gives the bytes of the config's own seed N
    seeded = write_config(tmp_path, dict(extra, seed=5), name="seeded.json")
    assert run(["simulate", "--config", seeded, "--out", "-"]) == 0
    own = capsys.readouterr().out
    assert run(["simulate", "--config", seeded, "--out", "-",
                "--seed", "5"]) == 0
    assert capsys.readouterr().out == own
    # the config differs only in its seed, so only its hash differs
    assert own.splitlines()[1:] == outputs["5"].splitlines()[1:]

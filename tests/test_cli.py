import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import desorb.cli
import desorb.decoherence
import desorb.moments
from desorb.cli import main
from desorb.constants import HBAR, KB
from desorb.geometry import BodySpec, Sphere, build_quadrature

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
    with open("tests/data/golden_sphere_cosine.json") as fh:
        golden = json.load(fh)
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

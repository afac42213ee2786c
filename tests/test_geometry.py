import ast
import re
import json
from pathlib import Path

import numpy as np
import pytest

import desorb.geometry
from conftest import SPHERE_RADIUS, rel_err
from desorb.cli import main
from desorb.config import load_config
from desorb.errors import BlockTooLarge, DegenerateMesh
from desorb.geometry import (BodySpec, Box, Cylinder, Mesh, Sphere,
                             build_quadrature, cube_mesh, read_obj,
                             surface_moment)
from desorb.rng import stream
from desorb.rotations import random_rotation


def test_sphere_total_area(sphere_quad):
    exact = 4.0 * np.pi * SPHERE_RADIUS**2
    assert abs(sphere_quad.total_area / exact - 1.0) < 1e-9


@pytest.mark.parametrize("body,res", [
    (BodySpec(Sphere(75e-9)), 32),
    (BodySpec(Cylinder(5e-8, 1.2e-7, capped=True)), 32),
    (BodySpec(Box([4e-8, 6e-8, 9e-8])), 16),
    (BodySpec(cube_mesh(0.5)), 1),
])
def test_closed_surface_normals_cancel(body, res):
    q = build_quadrature(body, res)
    assert q.closure_defect() < 1e-6


def test_unit_cube_mesh_exact_integrals():
    q = build_quadrature(BodySpec(cube_mesh(0.5)), 1)
    assert q.total_area == pytest.approx(6.0, rel=1e-12)
    # divergence theorem: closed-surface integral of s . n = 3 * volume
    flux = surface_moment(q, lambda s, n: np.einsum("ia,ia->i", s, n))
    assert flux == pytest.approx(3.0, rel=1e-12)


def test_cylinder_area():
    r, h = 5e-8, 1.2e-7
    q = build_quadrature(BodySpec(Cylinder(r, h, capped=True)), 32)
    exact = 2 * np.pi * r * 2 * h + 2 * np.pi * r**2
    assert abs(q.total_area / exact - 1.0) < 1e-12
    q_open = build_quadrature(BodySpec(Cylinder(r, h, capped=False)), 32)
    assert abs(q_open.total_area / (2 * np.pi * r * 2 * h) - 1.0) < 1e-12


def test_surface_moment_constant(sphere_quad):
    val = surface_moment(sphere_quad, lambda s, n: np.ones(len(s)))
    assert val == pytest.approx(sphere_quad.total_area, rel=1e-12)


def test_surface_moment_odd_vanishes(sphere_quad):
    val = surface_moment(sphere_quad, lambda s, n: s)
    bound = 1e-6 * SPHERE_RADIUS * sphere_quad.total_area
    assert np.all(np.abs(val) <= bound)


def test_surface_moment_normal_outer(sphere_quad):
    # analytic angular integral: int n (x) n dA = (area / 3) * identity
    val = surface_moment(sphere_quad,
                         lambda s, n: np.einsum("ia,ib->iab", n, n))
    assert rel_err(val, sphere_quad.total_area / 3.0 * np.eye(3)) < 1e-12


@pytest.mark.parametrize("body,res", [
    (BodySpec(Sphere(75e-9)), 24),
    (BodySpec(Cylinder(5e-8, 1.2e-7)), 24),
    (BodySpec(Box([4e-8, 6e-8, 9e-8])), 12),
])
def test_quadrature_convergence_degree4(body, res):
    def integrand(s, n):
        x = s / 2e-7  # fixed length scale so the integrand is resolution-free
        return x[:, 0]**2 * x[:, 2]**2 + x[:, 1] * x[:, 0] + n[:, 2]**2

    coarse = surface_moment(build_quadrature(body, res), integrand)
    fine = surface_moment(build_quadrature(body, 2 * res), integrand)
    assert abs(fine - coarse) < 1e-8 * abs(fine)


def test_rotation_covariance_mesh():
    rng = stream(21, "test-geom-rot")
    mesh = cube_mesh(1.0)
    q = build_quadrature(BodySpec(mesh), 1)

    def tensor_integrand(s, n):
        return np.einsum("ia,ib->iab", s, n)

    base = surface_moment(q, tensor_integrand)
    for _ in range(5):
        rot = random_rotation(rng)
        rotated = Mesh(mesh.vertices @ rot.T, mesh.faces)
        q_rot = build_quadrature(BodySpec(rotated), 1)
        val = surface_moment(q_rot, tensor_integrand)
        assert rel_err(val, rot @ base @ rot.T) < 1e-9


def test_points_relative_to_center_of_mass():
    com = np.array([1e-8, -2e-8, 3e-8])
    body = BodySpec(Sphere(75e-9), center_of_mass=com)
    q = build_quadrature(body, 16)
    # shifted sphere: mean of s over the surface is -com
    mean_s = surface_moment(q, lambda s, n: s) / q.total_area
    np.testing.assert_allclose(mean_s, -com, atol=1e-15)


def test_mesh_volume_centroid_default():
    mesh = cube_mesh(0.5, center=(0.2, 0.0, -0.1))
    body = BodySpec(mesh)
    np.testing.assert_allclose(body.center_of_mass, [0.2, 0.0, -0.1],
                               atol=1e-15)


def test_degenerate_zero_area_triangle():
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 1]])
    faces = np.array([[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]])
    with pytest.raises(DegenerateMesh):
        build_quadrature(BodySpec(Mesh(verts, faces), center_of_mass=[0, 0, 0]),
                         1)


def test_inverted_orientation_rejected():
    mesh = cube_mesh(0.5)
    flipped = Mesh(mesh.vertices, mesh.faces[:, ::-1])
    with pytest.raises(DegenerateMesh):
        build_quadrature(BodySpec(flipped, center_of_mass=[0, 0, 0]), 1)


def test_inconsistent_edge_orientation_rejected():
    mesh = cube_mesh(0.5)
    faces = mesh.faces.copy()
    faces[0] = faces[0][::-1]  # one face wound backwards
    with pytest.raises(DegenerateMesh):
        build_quadrature(BodySpec(Mesh(mesh.vertices, faces),
                                  center_of_mass=[0, 0, 0]), 1)


def test_mesh_config_checks_its_mesh_once(tmp_path, monkeypatch):
    mesh = cube_mesh(0.5e-7)
    obj = tmp_path / "cube.obj"
    obj.write_text("".join([f"v {x} {y} {z}\n" for x, y, z in mesh.vertices]
                           + [f"f {a + 1} {b + 1} {c + 1}\n"
                              for a, b, c in mesh.faces]), encoding="ascii")
    calls = []
    check = desorb.geometry._check_mesh
    monkeypatch.setattr(desorb.geometry, "_check_mesh",
                        lambda m: calls.append(m) or check(m))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "atom": {"mass_kg": 4.65e-26},
        "body": {"shape": "mesh", "obj_path": str(obj)}}))
    cfg = load_config(str(path))
    assert cfg.quadrature.n_nodes == 3 * len(mesh.faces)
    assert len(calls) == 1


def test_inertia_must_be_spd(tmp_path, capsys):
    # the inertia is checked, then ignored: a matrix that is not symmetric
    # positive definite is a config error of the body
    for inertia in (-np.eye(3), [[1, 2, 0], [0, 1, 0], [0, 0, 1]]):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "atom": {"mass_kg": 4.65e-26}, "tensors": {},
            "body": {"shape": "sphere", "radius_m": 1e-8,
                     "inertia_body_kg_m2": np.asarray(inertia).tolist()}}))
        assert main(["tensors", "--config", str(path), "--out", "-"]) == 2
        assert "body: inertia tensor must be" in capsys.readouterr().err


def test_read_obj_roundtrip(tmp_path):
    mesh = cube_mesh(0.5)
    path = tmp_path / "cube.obj"
    lines = [f"v {v[0]} {v[1]} {v[2]}" for v in mesh.vertices]
    lines += [f"f {f[0]+1} {f[1]+1} {f[2]+1}" for f in mesh.faces]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    loaded = read_obj(path)
    q1 = build_quadrature(BodySpec(mesh), 1)
    q2 = build_quadrature(BodySpec(loaded), 1)
    np.testing.assert_allclose(q1.points, q2.points)
    assert q1.total_area == q2.total_area


@pytest.mark.parametrize("bad_line", [
    "vn 0 0 1",
    "# comment",
    "f 1 2 3 4",
    "v 1.0 2.0",
    "f 0 1 2",
])
def test_read_obj_rejects_other_content(tmp_path, bad_line):
    mesh = cube_mesh(0.5)
    lines = [f"v {v[0]} {v[1]} {v[2]}" for v in mesh.vertices]
    lines += [f"f {f[0]+1} {f[1]+1} {f[2]+1}" for f in mesh.faces]
    lines.insert(3, bad_line)
    path = tmp_path / "bad.obj"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    with pytest.raises(DegenerateMesh):
        read_obj(path)


def test_geometry_dispatches_through_its_shapes():
    # each shape answers for its own bounds, area, volume, centroid and
    # quadrature, so geometry never asks which shape it holds
    tree = ast.parse(Path(desorb.geometry.__file__).read_text(encoding="utf-8"))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "isinstance"]
    assert not calls


@pytest.mark.parametrize("make, name", [
    (lambda: Sphere(-75e-9), "sphere radius"),
    (lambda: Sphere(float("nan")), "sphere radius"),
    (lambda: Cylinder(-5e-8, 1e-7), "cylinder radius"),
    (lambda: Cylinder(5e-8, -1e-7), "cylinder half_length"),
    (lambda: Cylinder(5e-8, float("inf")), "cylinder half_length"),
    (lambda: Box([5e-8, float("nan"), 5e-8]), "box half extents"),
    (lambda: Box([5e-8, 0.0, 5e-8]), "box half extents"),
], ids=["sphere", "sphere_nan", "cylinder_radius", "cylinder_length",
        "cylinder_inf", "box_nan", "box_zero"])
def test_shapes_refuse_their_own_sizes(make, name):
    # Sphere(-r) was refused only by BodySpec, as a center of mass outside
    # the bounding box, and Box(nan) only by its non-finite area
    with pytest.raises(ValueError, match=f"^{name} must be finite and "
                                         f"positive"):
        make()


@pytest.mark.parametrize("change, message", [
    (lambda f: f[1:], "boundary or flipped edge (0, 3); mesh not closed"),
    (lambda f: np.vstack([f[:1], f]),
     "directed edge (0, 1) repeated; inconsistent orientation"),
    # a flipped face repeats its neighbours' edges
    (lambda f: np.vstack([f[:1, ::-1], f[1:]]),
     "directed edge (0, 3) repeated; inconsistent orientation"),
], ids=["open", "repeated", "flipped"])
def test_broken_cube_meshes_keep_their_messages(change, message):
    cube = cube_mesh(0.5)
    with pytest.raises(DegenerateMesh, match=f"^{re.escape(message)}$"):
        build_quadrature(BodySpec(Mesh(cube.vertices, change(cube.faces)),
                                  center_of_mass=[0, 0, 0]), 1)


def test_resolution_is_bounded_before_a_rule_is_built(sphere_body,
                                                        monkeypatch):
    # resolution 1e8 raised a raw MemoryError: numpy asked for 71 PiB
    def never(self, resolution):
        raise AssertionError("a rule was built past the bound")

    monkeypatch.setattr(Sphere, "quadrature", never)
    for resolution in (513, 10**8):
        with pytest.raises(BlockTooLarge, match="^resolution must be <= 512$"):
            build_quadrature(sphere_body, resolution)

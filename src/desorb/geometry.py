"""Nanoparticle surface representation as a quadrature rule.

A SurfaceQuadrature is a discrete set of surface points s (measured from
the center of mass), outward unit normals, and area weights. Analytic
shapes use product rules; triangle meshes use a symmetric 3-point rule
per face. All downstream surface integrals run over these nodes with a
fixed summation order, so results are bitwise reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateMesh
from .quadrules import gauss_legendre


@dataclass(frozen=True)
class SurfaceQuadrature:
    """Discretized closed surface: nodes s [m], outward normals, area weights [m^2]."""

    points: np.ndarray     # (n, 3), relative to the center of mass
    normals: np.ndarray    # (n, 3), unit outward
    weights: np.ndarray    # (n,), sum equals total_area

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        nrm = np.atleast_2d(np.asarray(self.normals, dtype=float))
        wts = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if pts.shape != nrm.shape or pts.shape[0] != wts.shape[0]:
            raise ValueError("points, normals, weights shapes are inconsistent")
        norm_err = np.abs(np.linalg.norm(nrm, axis=1) - 1.0)
        if np.any(norm_err > 1e-12):
            raise ValueError("normals must be unit vectors within 1e-12")
        if np.any(wts <= 0.0):
            raise ValueError("area weights must be positive")
        for name, arr in (("points", pts), ("normals", nrm), ("weights", wts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def total_area(self) -> float:
        return float(np.sum(self.weights))

    @property
    def n_nodes(self) -> int:
        return len(self.weights)

    def max_radius(self) -> float:
        """Largest |s| over the nodes."""
        return float(np.max(np.linalg.norm(self.points, axis=1)))

    def closure_defect(self) -> float:
        """|sum w n| / area; ~0 for a closed surface (divergence theorem)."""
        return float(np.linalg.norm(self.weights @ self.normals)) / self.total_area

    def rotated(self, rotation: np.ndarray) -> "SurfaceQuadrature":
        """The same surface rigidly rotated (s -> Q s, n -> Q n)."""
        q = np.asarray(rotation, dtype=float)
        return SurfaceQuadrature(self.points @ q.T, self.normals @ q.T,
                                 self.weights.copy())


def surface_moment(quadrature: SurfaceQuadrature,
                   f: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> np.ndarray:
    """Sum of weight * f(s, n_s) over the nodes.

    f is called once with the full (n,3) point and normal arrays and must
    return an array whose leading axis runs over nodes; any trailing
    (tensor) shape is allowed. Summation order is the fixed node order.
    """
    values = np.asarray(f(quadrature.points, quadrature.normals), dtype=float)
    if values.shape[0] != quadrature.n_nodes:
        raise ValueError("integrand must return one value per node")
    w = quadrature.weights.reshape((-1,) + (1,) * (values.ndim - 1))
    return np.sum(w * values, axis=0)


# ---------------------------------------------------------------------------
# Body specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sphere:
    radius: float


@dataclass(frozen=True)
class Cylinder:
    radius: float
    half_length: float
    capped: bool = True


@dataclass(frozen=True)
class Box:
    half_extents: np.ndarray

    def __post_init__(self):
        he = np.asarray(self.half_extents, dtype=float)
        if he.shape != (3,) or np.any(he <= 0):
            raise ValueError("box needs three positive half extents")
        object.__setattr__(self, "half_extents", he)


@dataclass(frozen=True)
class Mesh:
    """Closed triangle mesh; faces are 0-based indices, CCW from outside."""
    vertices: np.ndarray
    faces: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        f = np.asarray(self.faces, dtype=int)
        if v.ndim != 2 or v.shape[1] != 3 or f.ndim != 2 or f.shape[1] != 3:
            raise ValueError("mesh needs (n,3) vertices and (m,3) faces")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "faces", f)


Shape = Sphere | Cylinder | Box | Mesh


@dataclass(frozen=True)
class BodySpec:
    """Shape plus mass properties. Positions are interpreted relative to
    center_of_mass, which defaults to the uniform-density centroid."""

    shape: Shape
    mass: float = 1.0
    center_of_mass: Optional[np.ndarray] = None
    inertia_body: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.mass <= 0:
            raise ValueError("mass must be positive")
        lo, hi = _bounds(self.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            area, volume = _area_volume(self.shape)
            # D's rotational block integrates |s|^2 over the area: the area
            # times the squared extent bounds it (a 1e100 m sphere overflows)
            sizes = (area, area * np.max(np.abs([lo, hi])) ** 2, volume)
            com = self.center_of_mass
            if com is None:
                com = _default_centroid(self.shape)
            inertia = self.inertia_body
            if inertia is None:
                inertia = _uniform_inertia(self.shape, self.mass)
        com = np.asarray(com, dtype=float)
        inertia = np.asarray(inertia, dtype=float)
        if not (np.all(np.isfinite(sizes)) and np.all(np.isfinite(com))
                and np.all(np.isfinite(inertia))):
            raise ValueError("area, its second moment, volume, centroid and "
                             "inertia must be finite")
        # the centre of mass of a nonnegative density lies in the body's
        # convex hull, so in its bounding box
        if np.any(com < lo) or np.any(com > hi):
            raise ValueError("center of mass must lie within the body's "
                             "bounding box")
        object.__setattr__(self, "center_of_mass", com)
        if not np.allclose(inertia, inertia.T, rtol=0, atol=1e-12 * abs(inertia).max()):
            raise ValueError("inertia tensor must be symmetric")
        if np.any(np.linalg.eigvalsh(inertia) <= 0):
            raise ValueError("inertia tensor must be positive definite")
        object.__setattr__(self, "inertia_body", inertia)

    @property
    def box(self):
        """Corners (lo, hi) of the body's bounding box, measured from its
        center of mass [m]."""
        lo, hi = _bounds(self.shape)
        return lo - self.center_of_mass, hi - self.center_of_mass


def _bounds(shape: Shape):
    """Corners (lo, hi) of the shape's axis-aligned bounding box [m]."""
    if isinstance(shape, Sphere):
        hi = np.full(3, float(shape.radius))
    elif isinstance(shape, Cylinder):
        hi = np.array([shape.radius, shape.radius, shape.half_length], float)
    elif isinstance(shape, Box):
        hi = shape.half_extents
    else:
        return shape.vertices.min(axis=0), shape.vertices.max(axis=0)
    return -hi, hi


def _default_centroid(shape: Shape) -> np.ndarray:
    if isinstance(shape, Mesh):
        return _mesh_volume_centroid(shape)[1]
    return np.zeros(3)


def _area_volume(shape: Shape):
    """Surface area [m^2] and enclosed volume [m^3] of a shape, in float64:
    inf where they overflow."""
    if isinstance(shape, Sphere):
        r = np.float64(shape.radius)
        return 4.0 * np.pi * r * r, (4.0 / 3.0) * np.pi * r * r * r
    if isinstance(shape, Cylinder):
        r, h = np.float64(shape.radius), np.float64(shape.half_length)
        return (2.0 * np.pi * r * (2.0 * h + (r if shape.capped else 0.0)),
                2.0 * np.pi * r * r * h)
    if isinstance(shape, Box):
        a, b, c = shape.half_extents
        return 8.0 * (a * b + b * c + c * a), 8.0 * a * b * c
    return (float(np.sum(_mesh_face_geometry(shape)[4])),
            _mesh_volume_centroid(shape)[0])


def _uniform_inertia(shape: Shape, mass: float) -> np.ndarray:
    if isinstance(shape, Sphere):
        return (2.0 / 5.0) * mass * np.float64(shape.radius)**2 * np.eye(3)
    if isinstance(shape, Cylinder):
        r, h = np.float64(shape.radius), np.float64(shape.half_length)
        ixx = mass * (3.0 * r**2 + 4.0 * h**2) / 12.0
        return np.diag([ixx, ixx, 0.5 * mass * r**2])
    if isinstance(shape, Box):
        a, b, c = shape.half_extents
        return (mass / 3.0) * np.diag([b**2 + c**2, a**2 + c**2, a**2 + b**2])
    return _mesh_inertia(shape, mass)


# ---------------------------------------------------------------------------
# Quadrature construction
# ---------------------------------------------------------------------------

def build_quadrature(body: BodySpec, resolution: int = 64) -> SurfaceQuadrature:
    """Surface quadrature for a body; `resolution` scales node counts.

    Sphere: GL in cos(theta) x uniform phi (resolution x 2*resolution).
    Cylinder: uniform phi x GL in z, plus radial GL disk rules on caps.
    Box: GL x GL patches per face. Mesh: symmetric 3-point rule per
    triangle (resolution is ignored).
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    shape = body.shape
    if isinstance(shape, Sphere):
        quad = _sphere_quadrature(shape, resolution)
    elif isinstance(shape, Cylinder):
        quad = _cylinder_quadrature(shape, resolution)
    elif isinstance(shape, Box):
        quad = _box_quadrature(shape, resolution)
    elif isinstance(shape, Mesh):
        quad = _mesh_quadrature(shape)
    else:
        raise TypeError(f"unsupported shape {type(shape).__name__}")
    com = body.center_of_mass
    if np.any(com != 0.0):
        quad = SurfaceQuadrature(quad.points - com, quad.normals, quad.weights)
    return quad


def _sphere_quadrature(shape: Sphere, resolution: int) -> SurfaceQuadrature:
    n_polar = resolution
    n_phi = 2 * resolution
    mu, wmu = gauss_legendre(n_polar)
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi
    s = np.sqrt(1.0 - mu**2)
    n = np.stack([np.outer(s, np.cos(phi)),
                  np.outer(s, np.sin(phi)),
                  np.broadcast_to(mu[:, None], (n_polar, n_phi))], axis=-1)
    n = n.reshape(-1, 3)
    w = np.broadcast_to((wmu * wphi * shape.radius**2)[:, None],
                        (n_polar, n_phi)).reshape(-1)
    return SurfaceQuadrature(shape.radius * n, n, w.copy())


def _cylinder_quadrature(shape: Cylinder, resolution: int) -> SurfaceQuadrature:
    r, h = shape.radius, shape.half_length
    n_phi = 2 * resolution
    n_z = resolution
    phi = 2.0 * np.pi * (np.arange(n_phi) + 0.5) / n_phi
    wphi = 2.0 * np.pi / n_phi
    z, wz = gauss_legendre(n_z, -h, h)
    cp, sp = np.cos(phi), np.sin(phi)

    pts = [np.stack([r * np.tile(cp, n_z),
                     r * np.tile(sp, n_z),
                     np.repeat(z, n_phi)], axis=1)]
    nrm = [np.stack([np.tile(cp, n_z), np.tile(sp, n_z),
                     np.zeros(n_z * n_phi)], axis=1)]
    wts = [np.repeat(wz, n_phi) * wphi * r]

    if shape.capped:
        n_r = max(resolution // 2, 2)
        rr, wr = gauss_legendre(n_r, 0.0, r)
        for sign in (+1.0, -1.0):
            pts.append(np.stack([np.outer(rr, cp).ravel(),
                                 np.outer(rr, sp).ravel(),
                                 np.full(n_r * n_phi, sign * h)], axis=1))
            nrm.append(np.broadcast_to([0.0, 0.0, sign], (n_r * n_phi, 3)).copy())
            wts.append(np.repeat(wr * rr, n_phi) * wphi)
    return SurfaceQuadrature(np.vstack(pts), np.vstack(nrm), np.concatenate(wts))


def _box_quadrature(shape: Box, resolution: int) -> SurfaceQuadrature:
    he = shape.half_extents
    n1 = max(resolution // 2, 2)
    pts, nrm, wts = [], [], []
    for axis in range(3):
        u_axis, v_axis = (axis + 1) % 3, (axis + 2) % 3
        u, wu = gauss_legendre(n1, -he[u_axis], he[u_axis])
        v, wv = gauss_legendre(n1, -he[v_axis], he[v_axis])
        uu, vv = np.meshgrid(u, v, indexing="ij")
        ww = np.outer(wu, wv).ravel()
        for sign in (+1.0, -1.0):
            p = np.zeros((n1 * n1, 3))
            p[:, axis] = sign * he[axis]
            p[:, u_axis] = uu.ravel()
            p[:, v_axis] = vv.ravel()
            n = np.zeros((n1 * n1, 3))
            n[:, axis] = sign
            pts.append(p)
            nrm.append(n)
            wts.append(ww)
    return SurfaceQuadrature(np.vstack(pts), np.vstack(nrm), np.concatenate(wts))


def _mesh_face_geometry(mesh: Mesh):
    v = mesh.vertices
    f = mesh.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    cross = np.cross(p1 - p0, p2 - p0)
    areas = 0.5 * np.linalg.norm(cross, axis=1)
    return p0, p1, p2, cross, areas


def _check_mesh(mesh: Mesh) -> None:
    _, _, _, _, areas = _mesh_face_geometry(mesh)
    scale = float(np.max(areas)) if len(areas) else 0.0
    if scale == 0.0 or np.any(areas <= 1e-14 * scale):
        raise DegenerateMesh("mesh contains a zero-area triangle")
    if _mesh_volume_centroid(mesh)[0] <= 0.0:
        raise DegenerateMesh("mesh orientation inverted (signed volume <= 0)")
    # every directed edge must be matched by its reverse exactly once
    edges = {}
    for tri in mesh.faces:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (int(a), int(b))
            if key in edges:
                raise DegenerateMesh(f"directed edge {key} repeated; inconsistent orientation")
            edges[key] = True
    for a, b in edges:
        if (b, a) not in edges:
            raise DegenerateMesh(f"boundary or flipped edge {(a, b)}; mesh not closed")


def _mesh_volume_centroid(mesh: Mesh):
    p0, p1, p2, _, _ = _mesh_face_geometry(mesh)
    det = np.einsum("ij,ij->i", p0, np.cross(p1, p2))
    volume = float(np.sum(det)) / 6.0
    if volume == 0.0:
        return 0.0, np.zeros(3)
    centroid = np.sum(det[:, None] * (p0 + p1 + p2), axis=0) / (24.0 * volume)
    return volume, centroid


def _mesh_inertia(mesh: Mesh, mass: float) -> np.ndarray:
    """Inertia about the centroid for uniform density (tetra decomposition)."""
    _check_mesh(mesh)
    volume, centroid = _mesh_volume_centroid(mesh)
    p0, p1, p2, _, _ = _mesh_face_geometry(mesh)
    p0, p1, p2 = p0 - centroid, p1 - centroid, p2 - centroid
    det = np.einsum("ij,ij->i", p0, np.cross(p1, p2))
    # integral of x_a x_b over each tetra (0, p0, p1, p2)
    second = np.zeros((3, 3))
    for a in range(3):
        for b in range(3):
            term = (np.einsum("i,i->", det, p0[:, a] * p0[:, b] + p1[:, a] * p1[:, b]
                              + p2[:, a] * p2[:, b])
                    + np.einsum("i,i->", det, (p0[:, a] + p1[:, a] + p2[:, a])
                                * (p0[:, b] + p1[:, b] + p2[:, b])))
            second[a, b] = term / 120.0
    rho = mass / volume
    return rho * (np.trace(second) * np.eye(3) - second)


def _mesh_quadrature(mesh: Mesh) -> SurfaceQuadrature:
    _check_mesh(mesh)
    p0, p1, p2, cross, areas = _mesh_face_geometry(mesh)
    normals = cross / (2.0 * areas)[:, None]
    # symmetric 3-point (edge-midpoint) rule, exact for quadratics
    mids = np.stack([(p0 + p1) / 2.0, (p1 + p2) / 2.0, (p2 + p0) / 2.0], axis=1)
    pts = mids.reshape(-1, 3)
    nrm = np.repeat(normals, 3, axis=0)
    wts = np.repeat(areas / 3.0, 3)
    return SurfaceQuadrature(pts, nrm, wts)


# ---------------------------------------------------------------------------
# OBJ mesh input (ASCII subset: "v x y z" in meters, "f i j k" 1-based CCW)
# ---------------------------------------------------------------------------

def read_obj(path) -> Mesh:
    """Parse the restricted OBJ subset; any other line content is rejected."""
    vertices, faces = [], []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "v" and len(parts) == 4:
                try:
                    vertices.append([float(x) for x in parts[1:]])
                    continue
                except ValueError:
                    pass
            elif parts[0] == "f" and len(parts) == 4:
                try:
                    idx = [int(x) for x in parts[1:]]
                except ValueError:
                    idx = None
                if idx is not None and all(i >= 1 for i in idx):
                    faces.append([i - 1 for i in idx])
                    continue
            raise DegenerateMesh(f"unsupported OBJ content at line {lineno}: {line!r}")
    if not vertices or not faces:
        raise DegenerateMesh("OBJ file has no vertices or no faces")
    faces_arr = np.asarray(faces, dtype=int)
    if np.any(faces_arr >= len(vertices)):
        raise DegenerateMesh("face index out of range")
    return Mesh(np.asarray(vertices, dtype=float), faces_arr)


def cube_mesh(half_extent: float = 0.5, center=(0.0, 0.0, 0.0)) -> Mesh:
    """Axis-aligned cube as 12 outward-oriented triangles."""
    h = float(half_extent)
    c = np.asarray(center, dtype=float)
    corners = np.array([[sx, sy, sz] for sx in (-h, h) for sy in (-h, h)
                        for sz in (-h, h)]) + c
    # index layout: bit2 = x, bit1 = y, bit0 = z
    quads = [
        (0, 1, 3, 2, [-1, 0, 0]), (4, 6, 7, 5, [1, 0, 0]),
        (0, 4, 5, 1, [0, -1, 0]), (2, 3, 7, 6, [0, 1, 0]),
        (0, 2, 6, 4, [0, 0, -1]), (1, 5, 7, 3, [0, 0, 1]),
    ]
    faces = []
    for a, b, cc, d, _n in quads:
        faces.append([a, b, cc])
        faces.append([a, cc, d])
    return Mesh(corners, np.asarray(faces, dtype=int))

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
from .quadrules import check_order, gauss_legendre

#: largest surface resolution: numpy's Gauss-Legendre rule of order n
#: takes an n x n matrix (2 MB at the bound), and the largest rule, a
#: capped cylinder's, holds 4 n^2 nodes of 56 B (59 MB at the bound, 184 MB
#: peak while it is built); 1e8 asked for 71 PiB
MAX_RESOLUTION = 512


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
# Shapes. Each answers for its own geometry: bounds() gives the corners
# (lo, hi) of its axis-aligned bounding box [m], area_volume() its surface
# area [m^2] and volume [m^3] in float64 (inf where they overflow),
# centroid() its uniform-density centroid [m], and quadrature(resolution)
# its surface rule in its own frame, node counts scaled by resolution.
# ---------------------------------------------------------------------------

def _check_sizes(what: str, sizes) -> None:
    """Refuse sizes that are not finite and positive, with a ValueError
    that names them."""
    sizes = np.asarray(sizes, dtype=float)
    if not np.all(np.isfinite(sizes) & (sizes > 0)):
        raise ValueError(f"{what} must be finite and positive, got "
                         f"{sizes.tolist()}")


@dataclass(frozen=True)
class Sphere:
    radius: float

    def __post_init__(self):
        _check_sizes("sphere radius", self.radius)

    def bounds(self):
        hi = np.full(3, float(self.radius))
        return -hi, hi

    def area_volume(self):
        r = np.float64(self.radius)
        return 4.0 * np.pi * r * r, (4.0 / 3.0) * np.pi * r * r * r

    def centroid(self) -> np.ndarray:
        return np.zeros(3)

    def quadrature(self, resolution: int) -> SurfaceQuadrature:
        """GL in cos(theta) x uniform phi (resolution x 2*resolution)."""
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
        w = np.broadcast_to((wmu * wphi * self.radius**2)[:, None],
                            (n_polar, n_phi)).reshape(-1)
        return SurfaceQuadrature(self.radius * n, n, w.copy())


@dataclass(frozen=True)
class Cylinder:
    radius: float
    half_length: float
    capped: bool = True

    def __post_init__(self):
        _check_sizes("cylinder radius", self.radius)
        _check_sizes("cylinder half_length", self.half_length)

    def bounds(self):
        hi = np.array([self.radius, self.radius, self.half_length], float)
        return -hi, hi

    def area_volume(self):
        r, h = np.float64(self.radius), np.float64(self.half_length)
        return (2.0 * np.pi * r * (2.0 * h + (r if self.capped else 0.0)),
                2.0 * np.pi * r * r * h)

    def centroid(self) -> np.ndarray:
        return np.zeros(3)

    def quadrature(self, resolution: int) -> SurfaceQuadrature:
        """Uniform phi x GL in z, plus radial GL disk rules on the caps."""
        r, h = self.radius, self.half_length
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

        if self.capped:
            n_r = max(resolution // 2, 2)
            rr, wr = gauss_legendre(n_r, 0.0, r)
            for sign in (+1.0, -1.0):
                pts.append(np.stack([np.outer(rr, cp).ravel(),
                                     np.outer(rr, sp).ravel(),
                                     np.full(n_r * n_phi, sign * h)], axis=1))
                nrm.append(np.broadcast_to([0.0, 0.0, sign], (n_r * n_phi, 3)).copy())
                wts.append(np.repeat(wr * rr, n_phi) * wphi)
        return SurfaceQuadrature(np.vstack(pts), np.vstack(nrm), np.concatenate(wts))


@dataclass(frozen=True)
class Box:
    half_extents: np.ndarray

    def __post_init__(self):
        he = np.asarray(self.half_extents, dtype=float)
        if he.shape != (3,):
            raise ValueError("box needs three half extents")
        _check_sizes("box half extents", he)
        object.__setattr__(self, "half_extents", he)

    def bounds(self):
        return -self.half_extents, self.half_extents

    def area_volume(self):
        a, b, c = self.half_extents
        return 8.0 * (a * b + b * c + c * a), 8.0 * a * b * c

    def centroid(self) -> np.ndarray:
        return np.zeros(3)

    def quadrature(self, resolution: int) -> SurfaceQuadrature:
        """GL x GL patches per face."""
        he = self.half_extents
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

    def bounds(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def area_volume(self):
        """Checks the mesh (DegenerateMesh) before its area and volume."""
        _check_mesh(self)
        return (float(np.sum(_mesh_face_geometry(self)[4])),
                _mesh_volume_centroid(self)[0])

    def centroid(self) -> np.ndarray:
        return _mesh_volume_centroid(self)[1]

    def quadrature(self, resolution: int) -> SurfaceQuadrature:
        """Symmetric 3-point rule per triangle (resolution is ignored). The
        mesh was checked by area_volume, which BodySpec calls."""
        p0, p1, p2, cross, areas = _mesh_face_geometry(self)
        normals = cross / (2.0 * areas)[:, None]
        # symmetric 3-point (edge-midpoint) rule, exact for quadratics
        mids = np.stack([(p0 + p1) / 2.0, (p1 + p2) / 2.0, (p2 + p0) / 2.0], axis=1)
        pts = mids.reshape(-1, 3)
        nrm = np.repeat(normals, 3, axis=0)
        wts = np.repeat(areas / 3.0, 3)
        return SurfaceQuadrature(pts, nrm, wts)


Shape = Sphere | Cylinder | Box | Mesh


@dataclass(frozen=True)
class BodySpec:
    """A shape, with positions interpreted relative to center_of_mass,
    which defaults to the uniform-density centroid."""

    shape: Shape
    center_of_mass: Optional[np.ndarray] = None

    def __post_init__(self):
        lo, hi = self.shape.bounds()
        with np.errstate(over="ignore", invalid="ignore"):
            area, volume = self.shape.area_volume()
            # D's rotational block integrates |s|^2 over the area: the area
            # times the squared extent bounds it (a 1e100 m sphere overflows)
            sizes = (area, area * np.max(np.abs([lo, hi])) ** 2, volume)
            com = self.center_of_mass
            if com is None:
                com = self.shape.centroid()
        com = np.asarray(com, dtype=float)
        if not (np.all(np.isfinite(sizes)) and np.all(np.isfinite(com))):
            raise ValueError("area, its second moment, volume and centroid "
                             "must be finite")
        # the centre of mass of a nonnegative density lies in the body's
        # convex hull, so in its bounding box
        if np.any(com < lo) or np.any(com > hi):
            raise ValueError("center of mass must lie within the body's "
                             "bounding box")
        object.__setattr__(self, "center_of_mass", com)

    @property
    def box(self):
        """Corners (lo, hi) of the body's bounding box, measured from its
        center of mass [m]."""
        lo, hi = self.shape.bounds()
        return lo - self.center_of_mass, hi - self.center_of_mass


# ---------------------------------------------------------------------------
# Quadrature construction
# ---------------------------------------------------------------------------

def build_quadrature(body: BodySpec, resolution: int = 64) -> SurfaceQuadrature:
    """Surface quadrature for a body, by its shape's rule; `resolution`
    scales node counts, up to MAX_RESOLUTION (BlockTooLarge past it)."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    check_order("resolution", resolution, MAX_RESOLUTION)
    quad = body.shape.quadrature(resolution)
    com = body.center_of_mass
    if np.any(com != 0.0):
        quad = SurfaceQuadrature(quad.points - com, quad.normals, quad.weights)
    return quad


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

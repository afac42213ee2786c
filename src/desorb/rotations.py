"""Rotation tensors, poses, and the small-angle (axis-angle) map.

Rotations are stored as explicit 3x3 orthonormal matrices with det = +1,
matching the tensor notation used by all observables in this package.
The small-angle vector ``w`` encodes a rotation as angle times unit axis;
it is the principal branch of the matrix logarithm and is only defined
for relative angles below pi.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AngleOutOfRange, NegativeEnergy, NonFinite

#: Largest relative angle accepted by :func:`w_from_rotations`.
MAX_ANGLE = np.pi - 1e-6

_ORTHO_TOL = 1e-12


def skew(v: np.ndarray) -> np.ndarray:
    """Skew-symmetric matrix [v]_x with [v]_x a = v x a."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def polar_project(m: np.ndarray) -> np.ndarray:
    """Nearest orthonormal matrix (polar decomposition via SVD)."""
    u, _, vt = np.linalg.svd(np.asarray(m, dtype=float))
    r = u @ vt
    if np.linalg.det(r) < 0.0:
        u[:, -1] *= -1.0
        r = u @ vt
    return r


def is_rotation(m: np.ndarray) -> bool:
    """Check orthonormality (R^T R = 1) and det = +1 entrywise within 1e-12."""
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        return False
    if not np.all(np.abs(m.T @ m - np.eye(3)) <= _ORTHO_TOL):
        return False
    return abs(np.linalg.det(m) - 1.0) <= _ORTHO_TOL


def check_rotation(m: np.ndarray) -> np.ndarray:
    """Return m as a validated rotation matrix, raising ValueError if invalid."""
    m = np.asarray(m, dtype=float)
    if not is_rotation(m):
        raise ValueError("not an orthonormal rotation tensor with det +1")
    return m


@dataclass(frozen=True)
class Pose:
    """Center-of-mass position [m] and orientation tensor of the particle."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))

    def __post_init__(self):
        object.__setattr__(self, "position", np.asarray(self.position, dtype=float))
        object.__setattr__(self, "rotation", check_rotation(self.rotation))


def rotation_from_w(w: np.ndarray) -> np.ndarray:
    """Rotation matrix exp([w]_x) for the axis-angle vector w (Rodrigues).

    Stable for small |w| via series coefficients; the result is polished
    back onto the orthogonal group to keep long composition chains clean.
    """
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):     # a huge w has |w| = inf
        theta = float(np.linalg.norm(w))
    if theta >= np.pi:
        raise AngleOutOfRange(f"|w| = {theta:.6g} not below pi")
    k = skew(w)
    if theta < 1e-4:
        # sin(t)/t and (1-cos t)/t^2 by series, exact at t = 0
        c1 = 1.0 - theta**2 / 6.0 + theta**4 / 120.0
        c2 = 0.5 - theta**2 / 24.0 + theta**4 / 720.0
    else:
        c1 = np.sin(theta) / theta
        c2 = (1.0 - np.cos(theta)) / theta**2
    r = np.eye(3) + c1 * k + c2 * (k @ k)
    return polar_project(r)


def w_from_rotations(reference: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Axis-angle vector w with exp([w]_x) = reference^T actual.

    Raises AngleOutOfRange when the relative angle reaches pi - 1e-6,
    where the principal log branch becomes ambiguous.
    """
    q = check_rotation(reference).T @ check_rotation(actual)
    cos_theta = np.clip((np.trace(q) - 1.0) / 2.0, -1.0, 1.0)
    theta = float(np.arccos(cos_theta))
    if theta >= MAX_ANGLE:
        raise AngleOutOfRange(
            f"relative angle {theta:.9g} >= pi - 1e-6; log branch ambiguous"
        )
    axis_vec = 0.5 * np.array([
        q[2, 1] - q[1, 2],
        q[0, 2] - q[2, 0],
        q[1, 0] - q[0, 1],
    ])
    if theta < 1e-4:
        # axis_vec = sin(theta) * axis; w = theta * axis
        return axis_vec * (1.0 + theta**2 / 6.0 + 7.0 * theta**4 / 360.0)
    return axis_vec * (theta / np.sin(theta))


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform random rotation (via a uniform unit quaternion)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    a, b, c, d = q
    return np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a - b * b + c * c - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a - b * b - c * c + d * d],
    ])


def check_atom_mass(m_atom: float) -> None:
    """Refuse an atom mass that is not finite (NonFinite) or not positive
    (ValueError): every entry point that takes m_atom calls this first."""
    if not np.isfinite(m_atom):
        raise NonFinite(f"atom mass must be finite, got {m_atom!r}")
    if m_atom <= 0.0:
        raise ValueError(f"atom mass must be positive, got {m_atom!r}")


def momentum_from_energy(energy: float, m_atom: float) -> float:
    """Momentum p(E) = sqrt(2 m E) of an emitted atom [kg m/s]."""
    check_atom_mass(m_atom)
    e = np.asarray(energy, dtype=float)
    if np.any(e < 0.0):
        raise NegativeEnergy("kinetic energy must be nonnegative")
    p = np.sqrt(2.0 * m_atom * e)
    return float(p) if np.isscalar(energy) else p

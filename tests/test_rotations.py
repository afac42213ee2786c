import numpy as np
import pytest

from desorb.errors import AngleOutOfRange, NegativeEnergy, NonFinite
from desorb.rng import stream
from desorb.rotations import (Pose, momentum_from_energy, polar_project,
                              random_rotation, rotation_from_w, skew,
                              w_from_rotations)


def rodrigues_reference(axis, angle):
    """Test-local Rodrigues formula, independent of the library path."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    k = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def test_w_identity_pair():
    r = rodrigues_reference([0.3, -1.0, 0.2], 1.1)
    assert np.allclose(w_from_rotations(r, r), 0.0, atol=1e-14)


def test_w_axis_angle_about_z():
    actual = rodrigues_reference([0, 0, 1], 0.1)
    w = w_from_rotations(np.eye(3), actual)
    np.testing.assert_allclose(w, [0.0, 0.0, 0.1], atol=1e-14)


def test_w_large_angle_oracle():
    # oracle: Rodrigues-built rotation, angle/axis extraction cross-checked
    # by re-exponentiation with the same test-local formula
    axis = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
    q = rodrigues_reference(axis, 1.9)
    theta = np.arccos((np.trace(q) - 1.0) / 2.0)
    assert abs(theta - 1.9) < 1e-12
    np.testing.assert_allclose(rodrigues_reference(axis, theta), q, atol=1e-12)
    w = w_from_rotations(np.eye(3), q)
    np.testing.assert_allclose(w, np.full(3, 1.096965511460289), rtol=1e-12)


def test_roundtrip_random_w():
    rng = stream(7, "test-roundtrip")
    worst = 0.0
    for _ in range(1000):
        w = rng.standard_normal(3)
        w *= rng.uniform(0, 3.0) / np.linalg.norm(w)
        back = w_from_rotations(np.eye(3), rotation_from_w(w))
        worst = max(worst, np.max(np.abs(back - w)))
    assert worst < 1e-10


def test_rotation_from_w_quarter_turn():
    r = rotation_from_w([0.0, 0.0, np.pi / 2.0])
    np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-15)


def test_rotation_from_w_identity():
    np.testing.assert_allclose(rotation_from_w([0, 0, 0]), np.eye(3), atol=0)


def test_angle_out_of_range():
    q = rodrigues_reference([0, 1, 0], np.pi - 1e-7)
    with pytest.raises(AngleOutOfRange):
        w_from_rotations(np.eye(3), q)
    with pytest.raises(AngleOutOfRange):
        rotation_from_w([np.pi, 0.0, 0.0])


def test_composition_stays_orthonormal():
    rng = stream(11, "test-compose")
    r = np.eye(3)
    for _ in range(500):
        r = polar_project(r @ random_rotation(rng))
    assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-11
    assert abs(np.linalg.det(r) - 1.0) < 1e-11


def test_pose_validates_rotation():
    with pytest.raises(ValueError):
        Pose(np.zeros(3), np.eye(3) * 1.001)


def test_skew_cross_product():
    rng = stream(3, "test-skew")
    a, b = rng.standard_normal(3), rng.standard_normal(3)
    np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-18)


def test_momentum_zero_energy():
    assert momentum_from_energy(0.0, 4.65e-26) == 0.0


def test_momentum_sqrt_scaling():
    p1 = momentum_from_energy(1.3e-21, 4.65e-26)
    p2 = momentum_from_energy(4 * 1.3e-21, 4.65e-26)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-15)


def test_momentum_thermal_value():
    # direct high-precision evaluation of sqrt(2 m kB 300)
    p = momentum_from_energy(4.141947e-21, 4.65e-26)
    assert p == pytest.approx(1.962653996505752e-23, rel=1e-14)


def test_momentum_negative_energy():
    with pytest.raises(NegativeEnergy):
        momentum_from_energy(-1e-25, 4.65e-26)


def test_momentum_homogeneity():
    rng = stream(5, "test-homog")
    for _ in range(50):
        e = float(rng.uniform(1e-24, 1e-20))
        m = float(rng.uniform(1e-27, 1e-25))
        k = float(rng.uniform(0.1, 10.0))
        assert momentum_from_energy(k * e, m) == pytest.approx(
            np.sqrt(k) * momentum_from_energy(e, m), rel=1e-13)
        assert momentum_from_energy(e, k * m) == pytest.approx(
            np.sqrt(k) * momentum_from_energy(e, m), rel=1e-13)


@pytest.mark.parametrize("m_atom", [float("nan"), float("inf")])
def test_momentum_refuses_a_mass_that_is_not_finite(m_atom):
    # NaN passed the old m_atom <= 0 test and returned NaN
    with pytest.raises(NonFinite, match="atom mass must be finite"):
        momentum_from_energy(1e-21, m_atom)

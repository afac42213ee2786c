import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from desorb.geometry import BodySpec, Sphere, build_quadrature

# property tests replay the same examples on every run and keep no example
# database; hypothesis's cache of source constants goes to the temp dir,
# so a test run writes no .hypothesis/ into the checkout
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("deterministic")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "desorb-hypothesis")

N2_MASS = 4.65e-26  # kg
SPHERE_RADIUS = 75e-9  # m


@pytest.fixture(scope="session")
def sphere_body():
    return BodySpec(Sphere(SPHERE_RADIUS), mass=1e-18)


@pytest.fixture(scope="session")
def sphere_quad(sphere_body):
    """Default-resolution sphere surface (64 x 128 nodes)."""
    return build_quadrature(sphere_body, 64)


@pytest.fixture(scope="session")
def sphere_quad_coarse(sphere_body):
    """Cheap sphere surface for Monte Carlo and decoherence tests."""
    return build_quadrature(sphere_body, 16)


def rel_err(value, reference):
    ref = np.asarray(reference, dtype=float)
    scale = np.max(np.abs(ref))
    if scale == 0.0:
        return np.max(np.abs(np.asarray(value)))
    return np.max(np.abs(np.asarray(value) - ref)) / scale

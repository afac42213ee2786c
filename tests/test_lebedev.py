"""The Lebedev-Laikov rules integrate every monomial of their degree."""

import math

import numpy as np
import pytest

from desorb.lebedev import AVAILABLE, DEGREE, lebedev_rule


def _sphere_monomial(a: int, b: int, c: int) -> float:
    """Integral of x^a y^b z^c over the unit sphere (zero unless all even)."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    return (2.0 * math.gamma((a + 1) / 2) * math.gamma((b + 1) / 2)
            * math.gamma((c + 1) / 2) / math.gamma((a + b + c + 3) / 2))


@pytest.mark.parametrize("n_points", AVAILABLE)
def test_rule_is_exact_to_its_degree(n_points):
    nodes, w = lebedev_rule(n_points)
    degree = DEGREE[n_points]
    # powers[k, i] = coordinate k of node i to each power 0..degree
    powers = nodes.T[:, None, :] ** np.arange(degree + 1)[None, :, None]
    worst = 0.0
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            xy = w * powers[0, a] * powers[1, b]
            got = powers[2, :degree + 1 - a - b] @ xy
            want = [_sphere_monomial(a, b, c) for c in range(degree + 1 - a - b)]
            worst = max(worst, np.max(np.abs(got - want)))
    assert worst <= 1e-13

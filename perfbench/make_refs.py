"""Reference localization rates for the locmap_sweep output checks.

    python3 perfbench/make_refs.py      # writes perfbench/locmap_ref.json

Computed once, with every quadrature level of the workload refined:
surface resolution 32 instead of 16, twice the polar panels and azimuth
points of DecoherenceQuadrature(), and 8x its 40 energy nodes, with the
convergence check off. Energy is refined further than 2x because the
energy rule is what fails to resolve the recoil phase at dX >= 1 nm. For
the 1 nm pair, 320, 640 and 1280 energy nodes agree on Re F to 1e-9
Gamma, while 80 nodes give a value 1.1e-3 Gamma higher.

The workload's sphere with a uniform cosine law is rotation invariant,
so the references are taken along x with the rotation about z; gen.py
draws a congruent geometry for every seed.
Rates are stored divided by the total emission rate.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
from desorb import (BodySpec, CosineLaw, DecoherenceQuadrature,  # noqa: E402
                    MaxwellBoltzmannFlux, PosePair, Sphere, build_quadrature,
                    localization_rate, rotation_from_w, total_rate)

RESOLUTION = 2 * gen.RES


def main() -> None:
    q = build_quadrature(BodySpec(Sphere(gen.SPHERE_R)), RESOLUTION)
    model = CosineLaw(MaxwellBoltzmannFlux(gen.T_GAS),
                      gen.EVENTS / (4.0 * np.pi * gen.SPHERE_R**2))
    gamma = total_rate(model, q)
    default = DecoherenceQuadrature()
    quad = replace(default, n_mu_panels=2 * default.n_mu_panels,
                   n_azimuth=2 * default.n_azimuth,
                   energy_nodes=8 * default.energy_nodes,
                   check_convergence=False, node_chunk=16)
    u, axis = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])
    pairs = {}
    for label, dx, angle in gen.LOCMAP_PAIRS:
        pair = PosePair(dx * u, rotation_from_w(angle * axis))
        rate = localization_rate(pair, model, q, gen.N2_MASS, quad)
        pairs[label] = {"re_over_gamma": rate.re / gamma,
                        "im_over_gamma": rate.im / gamma}
        print(label, pairs[label], flush=True)
    doc = {"surface_resolution": RESOLUTION,
           "n_mu_panels": quad.n_mu_panels, "n_azimuth": quad.n_azimuth,
           "energy_nodes": quad.energy_nodes, "pairs": pairs}
    with open(os.path.join(HERE, "locmap_ref.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()

"""Run configuration: JSON schema validation and object builders.

The schema is strict: unknown keys are rejected with the full key path,
so typos cannot silently fall back to defaults. See README for the
documented schema.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .decoherence import DecoherenceQuadrature, PosePair
from .errors import AngleOutOfRange, ConfigError
from .flux import (CosineDirection, CosineLaw, FixedDirection, FluxModel,
                   Isotropic, IsotropicDirection, SingleSite, read_flux_csv)
from .geometry import (BodySpec, Box, Cylinder, Sphere, SurfaceQuadrature,
                       build_quadrature, read_obj)
from .moments import AngularQuadrature, EnergyQuadrature
from .rng import stream
from .rotations import random_rotation, rotation_from_w
from .spectra import MaxwellBoltzmannFlux, Monoenergetic, TabulatedSpectrum

#: empirical outgassing presets: (specific rate, Torr-l flag, T [K], label)
OUTGAS_PRESETS = {
    "gold": {"specific_rate": 8.5e-8, "torr_l_per_cm2_s": True,
             "gas_temperature_k": 295.0,
             "note": "untreated bulk gold at room temperature"},
    "silica": {"specific_rate": 6.6e-9, "torr_l_per_cm2_s": False,
               "gas_temperature_k": 295.0,
               "note": "baked bulk silica at room temperature"},
}


def _check_keys(block: dict, allowed: set, path: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be an object" if path
                          else "config root must be a JSON object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{path}.{key}'" if path
                              else f"unknown key '{key}'")


def _get(block: dict, key: str, path: str, required: bool = True,
         default: Any = None) -> Any:
    if key not in block:
        if required:
            raise ConfigError(f"missing key '{path}.{key}'" if path
                              else f"missing key '{key}'")
        return default
    return block[key]


def _number(value, path: str) -> float:
    """A finite JSON number (booleans, strings and huge integers fail)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{path}' must be a finite number, got {value!r}")
    return float(value)


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list")
    return value


def _numbers(value, path: str) -> list:
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(_list(value, path))]


def _positive(value, path: str) -> float:
    v = _number(value, path)
    if v <= 0:
        raise ConfigError(f"'{path}' must be positive, got {value}")
    return v


def _nonnegative(value, path: str) -> float:
    v = _number(value, path)
    if v < 0:
        raise ConfigError(f"'{path}' must be >= 0, got {value}")
    return v


def _integer(value, path: str, minimum: Optional[int] = None) -> int:
    """An integral JSON number >= minimum, if one is given (8.0 passes,
    8.9 and "8" fail)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}, got {value}")
    return value


def _boolean(value, path: str) -> bool:
    """A JSON boolean (the string "false" fails rather than reading true)."""
    if not isinstance(value, bool):
        raise ConfigError(f"'{path}' must be true or false, got {value!r}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"'{path}' must be a string, got {value!r}")
    return value


def _vector3(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"'{path}' must be a finite 3-vector")
    return np.array(_numbers(value, path))


def _matrix3(value, path: str) -> np.ndarray:
    """A 3x3 matrix of finite JSON numbers, given as three rows."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"'{path}' must be a finite 3x3 matrix")
    return np.array([_vector3(row, f"{path}[{i}]")
                     for i, row in enumerate(value)])


@dataclass
class RunConfig:
    """Validated run configuration plus built model objects."""

    raw: dict
    seed: int
    atom_mass: float
    species: Optional[str]
    body: BodySpec
    quadrature: SurfaceQuadrature
    flux: Optional[FluxModel]
    angular: AngularQuadrature
    energy: EnergyQuadrature
    surface_resolution: int
    command_blocks: dict = field(default_factory=dict)

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


# "threads" is accepted and ignored: every command runs on one thread
_TOP_KEYS = {"seed", "threads", "atom", "body", "flux", "quadrature",
             "tensors", "locmap", "simulate", "outgas"}


def load_config(path, resolution_scale: float = 1.0,
                seed_override: Optional[int] = None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    return parse_config(raw, resolution_scale, seed_override)


def parse_config(raw: dict, resolution_scale: float = 1.0,
                 seed_override: Optional[int] = None) -> RunConfig:
    _check_keys(raw, _TOP_KEYS, "")
    seed = _integer(_get(raw, "seed", "", required=False, default=0), "seed")
    if seed_override is not None:
        seed = seed_override

    atom = _get(raw, "atom", "")
    _check_keys(atom, {"mass_kg", "species"}, "atom")
    atom_mass = _positive(_get(atom, "mass_kg", "atom"), "atom.mass_kg")
    species = _get(atom, "species", "atom", required=False)

    body = _parse_body(_get(raw, "body", ""))

    quad_block = _get(raw, "quadrature", "", required=False, default={})
    _check_keys(quad_block, {"surface_resolution", "angular_polar",
                             "energy_nodes"}, "quadrature")
    def order(key, default, minimum):
        path = f"quadrature.{key}"
        n = _integer(_get(quad_block, key, "quadrature", required=False,
                          default=default), path, minimum)
        try:
            scaled = int(round(n * resolution_scale))
        except (OverflowError, ValueError):   # round(inf), round(nan)
            raise ConfigError(f"'{path}' = {n} times --resolution-scale "
                              f"{resolution_scale:g} is not a finite "
                              f"order") from None
        if scaled < minimum:
            raise ConfigError(f"'{path}' = {n} times --resolution-scale "
                              f"{resolution_scale:g} is {scaled}, below "
                              f"its minimum {minimum}")
        return scaled

    resolution = order("surface_resolution", 64, 1)
    # "angular_polar" is validated and ignored: a table's cos rule is exact
    angular = AngularQuadrature(n_polar=order("angular_polar", 32, 2))
    energy = EnergyQuadrature(n_nodes=order("energy_nodes", 40, 4))

    quadrature = build_quadrature(body, resolution)

    flux = None
    if "flux" in raw:
        flux = _parse_flux(raw["flux"], quadrature)

    _check_keys(raw.get("tensors", {}), set(), "tensors")
    blocks = {name: raw[name] for name in ("tensors", "locmap", "simulate",
                                           "outgas") if name in raw}
    return RunConfig(raw=raw, seed=seed, atom_mass=atom_mass,
                     species=species, body=body, quadrature=quadrature,
                     flux=flux, angular=angular, energy=energy,
                     surface_resolution=resolution, command_blocks=blocks)


def _parse_body(block) -> BodySpec:
    if not isinstance(block, dict):
        raise ConfigError("'body' must be an object")
    shape_name = _get(block, "shape", "body")
    common = {"shape", "mass_kg", "center_of_mass_m", "inertia_body_kg_m2"}
    mass = _positive(_get(block, "mass_kg", "body", required=False,
                          default=1e-18), "body.mass_kg")
    com = block.get("center_of_mass_m")
    if com is not None:
        com = _vector3(com, "body.center_of_mass_m")
    inertia = block.get("inertia_body_kg_m2")
    if inertia is not None:
        inertia = _matrix3(inertia, "body.inertia_body_kg_m2")
    if shape_name == "sphere":
        _check_keys(block, common | {"radius_m"}, "body")
        shape = Sphere(_positive(_get(block, "radius_m", "body"), "body.radius_m"))
    elif shape_name == "cylinder":
        _check_keys(block, common | {"radius_m", "half_length_m", "capped"}, "body")
        shape = Cylinder(
            _positive(_get(block, "radius_m", "body"), "body.radius_m"),
            _positive(_get(block, "half_length_m", "body"), "body.half_length_m"),
            _boolean(_get(block, "capped", "body", required=False,
                          default=True), "body.capped"))
    elif shape_name == "box":
        _check_keys(block, common | {"half_extents_m"}, "body")
        he = _vector3(_get(block, "half_extents_m", "body"), "body.half_extents_m")
        if np.any(he <= 0):
            raise ConfigError("'body.half_extents_m' must be positive")
        shape = Box(he)
    elif shape_name == "mesh":
        _check_keys(block, common | {"obj_path"}, "body")
        path = _string(_get(block, "obj_path", "body"), "body.obj_path")
        try:
            shape = read_obj(path)
        except OSError as exc:
            raise ConfigError(f"body.obj_path: {exc}") from None
    else:
        raise ConfigError(f"'body.shape' unknown: {shape_name!r}")
    try:
        return BodySpec(shape, mass=mass, center_of_mass=com, inertia_body=inertia)
    except ValueError as exc:
        raise ConfigError(f"body: {exc}") from None


def _parse_spectrum(block, path: str):
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be an object")
    kind = _get(block, "kind", path)
    if kind == "maxwell_boltzmann":
        _check_keys(block, {"kind", "temperature_k"}, path)
        return MaxwellBoltzmannFlux(_positive(_get(block, "temperature_k", path),
                                              f"{path}.temperature_k"))
    if kind == "monoenergetic":
        _check_keys(block, {"kind", "energy_j"}, path)
        return Monoenergetic(_positive(_get(block, "energy_j", path),
                                       f"{path}.energy_j"))
    if kind == "tabulated":
        _check_keys(block, {"kind", "energies_j", "values"}, path)
        try:
            return TabulatedSpectrum(np.asarray(_get(block, "energies_j", path),
                                                dtype=float),
                                     np.asarray(_get(block, "values", path),
                                                dtype=float))
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    raise ConfigError(f"'{path}.kind' unknown: {kind!r}")


def _parse_rate_field(value, path: str):
    if isinstance(value, dict):
        _check_keys(value, {"base", "gradient_1_m"}, path)
        base = _positive(_get(value, "base", path), f"{path}.base")
        grad = _vector3(_get(value, "gradient_1_m", path), f"{path}.gradient_1_m")

        def rate(points, _b=base, _g=grad):
            return _b * (1.0 + points @ _g)

        return rate
    return _positive(value, path)


def _parse_flux(block, q: SurfaceQuadrature) -> FluxModel:
    if not isinstance(block, dict):
        raise ConfigError("'flux' must be an object")
    model = _get(block, "model", "flux")
    if model in ("cosine", "isotropic"):
        _check_keys(block, {"model", "rate_per_area_hz_m2", "spectrum"}, "flux")
        rate = _parse_rate_field(_get(block, "rate_per_area_hz_m2", "flux"),
                                 "flux.rate_per_area_hz_m2")
        spectrum = _parse_spectrum(_get(block, "spectrum", "flux"), "flux.spectrum")
        cls = CosineLaw if model == "cosine" else Isotropic
        built = cls(spectrum, rate)
        if callable(rate) and np.any(rate(q.points) < 0):
            raise ConfigError("'flux.rate_per_area_hz_m2' is negative at "
                              "some surface nodes")
        return built
    if model == "single_site":
        _check_keys(block, {"model", "site_m", "rate_hz", "direction",
                            "spectrum"}, "flux")
        direction = _parse_direction(_get(block, "direction", "flux"),
                                     "flux.direction")
        return SingleSite(
            _vector3(_get(block, "site_m", "flux"), "flux.site_m"),
            direction,
            _parse_spectrum(_get(block, "spectrum", "flux"), "flux.spectrum"),
            _positive(_get(block, "rate_hz", "flux"), "flux.rate_hz"))
    if model == "tabulated":
        _check_keys(block, {"model", "csv_path"}, "flux")
        try:
            return read_flux_csv(_string(_get(block, "csv_path", "flux"),
                                         "flux.csv_path"), q)
        except (ValueError, OSError) as exc:
            raise ConfigError(f"flux.csv_path: {exc}") from None
    raise ConfigError(f"'flux.model' unknown: {model!r}")


def _parse_direction(block, path: str):
    if not isinstance(block, dict):
        raise ConfigError(f"'{path}' must be an object")
    law = _get(block, "law", path)
    if law == "isotropic":
        _check_keys(block, {"law"}, path)
        return IsotropicDirection()
    if law == "fixed":
        _check_keys(block, {"law", "direction"}, path)
        return FixedDirection(_vector3(_get(block, "direction", path),
                                       f"{path}.direction"))
    if law == "cosine":
        _check_keys(block, {"law", "axis"}, path)
        return CosineDirection(_vector3(_get(block, "axis", path), f"{path}.axis"))
    raise ConfigError(f"'{path}.law' unknown: {law!r}")


# ---------------------------------------------------------------------------
# Command blocks
# ---------------------------------------------------------------------------

def parse_locmap_block(cfg: RunConfig):
    """(pairs, DecoherenceQuadrature, visibility times) from the locmap block."""
    block = cfg.command_blocks.get("locmap")
    if block is None:
        raise ConfigError("missing 'locmap' block")
    _check_keys(block, {"pairs", "ray", "random", "visibility_times_s",
                        "n_mu_panels", "n_azimuth", "check_convergence",
                        "convergence_tol"}, "locmap")
    pairs = []
    for i, p in enumerate(_list(block.get("pairs", []), "locmap.pairs")):
        path = f"locmap.pairs[{i}]"
        _check_keys(p, {"delta_x_m", "w", "w_prime"}, path)
        dx = _vector3(_get(p, "delta_x_m", path), f"{path}.delta_x_m")
        pairs.append(_pose_pair(dx, _rotation(p, "w", path),
                                _rotation(p, "w_prime", path), path))
    if "ray" in block:
        ray = block["ray"]
        _check_keys(ray, {"direction", "lengths_m"}, "locmap.ray")
        direction = _vector3(_get(ray, "direction", "locmap.ray"),
                             "locmap.ray.direction")
        norm = np.linalg.norm(direction)
        if norm == 0:
            raise ConfigError("'locmap.ray.direction' must be nonzero")
        direction = direction / norm
        for length in _numbers(_get(ray, "lengths_m", "locmap.ray"),
                               "locmap.ray.lengths_m"):
            pairs.append(PosePair(length * direction))
    if "random" in block:
        rnd = block["random"]
        _check_keys(rnd, {"count", "delta_x_scale_m", "max_angle_rad"},
                    "locmap.random")
        count = _integer(_get(rnd, "count", "locmap.random"),
                         "locmap.random.count", 0)
        scale = _number(_get(rnd, "delta_x_scale_m", "locmap.random"),
                        "locmap.random.delta_x_scale_m")
        max_angle = _nonnegative(_get(rnd, "max_angle_rad", "locmap.random",
                                      required=False, default=3.0),
                                 "locmap.random.max_angle_rad")
        rng = stream(cfg.seed, "locmap-pairs")
        for k in range(count):
            dx = scale * rng.standard_normal(3)
            pairs.append(_pose_pair(dx, _random_small_rotation(rng, max_angle),
                                    _random_small_rotation(rng, max_angle),
                                    f"locmap.random pair {k}"))
    if not pairs:
        raise ConfigError("locmap block defines no pose pairs")
    quad = DecoherenceQuadrature(
        n_mu_panels=_integer(block.get("n_mu_panels", 96),
                             "locmap.n_mu_panels", 1),
        n_azimuth=_integer(block.get("n_azimuth", 64), "locmap.n_azimuth", 1),
        energy_nodes=cfg.energy.n_nodes,
        check_convergence=_boolean(block.get("check_convergence", True),
                                   "locmap.check_convergence"),
        convergence_tol=_positive(block.get("convergence_tol", 1e-3),
                                  "locmap.convergence_tol"))
    times = [_nonnegative(t, f"locmap.visibility_times_s[{i}]")
             for i, t in enumerate(_list(block.get("visibility_times_s", []),
                                         "locmap.visibility_times_s"))]
    return pairs, quad, times


def _rotation(pair: dict, key: str, path: str) -> np.ndarray:
    """The rotation exp([w]_x) of an optional axis-angle key, |w| < pi."""
    if key not in pair:
        return np.eye(3)
    w = _vector3(pair[key], f"{path}.{key}")
    try:
        return rotation_from_w(w)
    except AngleOutOfRange as exc:
        raise ConfigError(f"'{path}.{key}': {exc}") from None


def _pose_pair(dx, rot, rot_prime, name: str) -> PosePair:
    """A pose pair whose relative rotation the locmap CSV can encode (a
    ray's pairs need no check: R = R' = I)."""
    pair = PosePair(dx, rot, rot_prime)
    try:
        pair.relative_angle_vector()
    except AngleOutOfRange as exc:
        raise ConfigError(f"'{name}': {exc}") from None
    return pair


def _random_small_rotation(rng, max_angle):
    if max_angle >= np.pi:
        return random_rotation(rng)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rotation_from_w(rng.uniform(0.0, max_angle) * axis)


def parse_simulate_block(cfg: RunConfig):
    block = cfg.command_blocks.get("simulate")
    if block is None:
        raise ConfigError("missing 'simulate' block")
    _check_keys(block, {"duration_s", "n_trajectories", "n_times", "compare"},
                "simulate")
    duration = _positive(_get(block, "duration_s", "simulate"),
                         "simulate.duration_s")
    n_traj = _integer(_get(block, "n_trajectories", "simulate"),
                      "simulate.n_trajectories", 4)
    n_times = _integer(_get(block, "n_times", "simulate", required=False,
                            default=16), "simulate.n_times", 1)
    compare = _boolean(_get(block, "compare", "simulate", required=False,
                            default=True), "simulate.compare")
    return duration, n_traj, n_times, compare


def parse_outgas_block(cfg: RunConfig):
    """(specific_rate_pa_m3_s_m2, temperature, area, provenance note)."""
    block = cfg.command_blocks.get("outgas")
    if block is None:
        raise ConfigError("missing 'outgas' block")
    _check_keys(block, {"preset", "specific_rate_pa_m3_s_m2",
                        "specific_rate_torr_l_cm2_s", "gas_temperature_k",
                        "area_m2"}, "outgas")
    from .constants import TORR_L_PER_CM2_S
    note = None
    if "preset" in block:
        preset = _string(block["preset"], "outgas.preset")
        if preset not in OUTGAS_PRESETS:
            raise ConfigError(f"'outgas.preset' unknown: {preset!r}")
        p = OUTGAS_PRESETS[preset]
        rate = p["specific_rate"] * (TORR_L_PER_CM2_S if p["torr_l_per_cm2_s"]
                                     else 1.0)
        temperature = block.get("gas_temperature_k", p["gas_temperature_k"])
        temperature = _positive(temperature, "outgas.gas_temperature_k")
        note = p["note"]
        if preset == "silica":
            note += ("; the ideal-gas conversion at 295 K over the sphere "
                     "area gives ~0.115 Hz for a 150 nm particle, a factor "
                     "~3 below the commonly quoted 0.33 Hz estimate, whose "
                     "temperature/area convention is not stated")
    else:
        if "specific_rate_pa_m3_s_m2" in block:
            rate = _positive(block["specific_rate_pa_m3_s_m2"],
                             "outgas.specific_rate_pa_m3_s_m2")
        elif "specific_rate_torr_l_cm2_s" in block:
            rate = TORR_L_PER_CM2_S * _positive(
                block["specific_rate_torr_l_cm2_s"],
                "outgas.specific_rate_torr_l_cm2_s")
        else:
            raise ConfigError("outgas needs a preset or a specific rate")
        temperature = _positive(_get(block, "gas_temperature_k", "outgas"),
                                "outgas.gas_temperature_k")
    area = block.get("area_m2")
    area = cfg.quadrature.total_area if area is None else _positive(
        area, "outgas.area_m2")
    return rate, temperature, area, note

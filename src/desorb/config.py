"""Run configuration: JSON schema validation and object builders.

The schema is strict: unknown keys are rejected with the full key path,
so typos cannot silently fall back to defaults. See README for the
documented schema. Each JSON object is read through a `_Block`: a present
key, `null` included, goes through its check, and an absent one takes its
default. A tag such as `body.shape` picks keys and builder from `_Kinds`.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .decoherence import DecoherenceQuadrature, PosePair
from .errors import (AngleOutOfRange, BlockTooLarge, ConfigError,
                     DegenerateMesh, NegativeEnergy, NonFinite, NotUnit)
from .flux import (CosineDirection, CosineLaw, FixedDirection, FluxModel,
                   Isotropic, IsotropicDirection, SingleSite, read_flux_csv,
                   split, total_rate)
from .geometry import (BodySpec, Box, Cylinder, Sphere, SurfaceQuadrature,
                       build_quadrature, read_obj)
from .moments import (AngularQuadrature, EnergyQuadrature,
                      check_transport_scale)
from .montecarlo import check_block_events, check_size
from .rng import stream
from .rotations import random_rotation, rotation_from_w
from .spectra import MaxwellBoltzmannFlux, Monoenergetic, TabulatedSpectrum

#: empirical outgassing presets: a specific rate under its outgas key,
#: the gas temperature [K] and a provenance note
OUTGAS_PRESETS = {
    "gold": {"specific_rate_torr_l_cm2_s": 8.5e-8, "gas_temperature_k": 295.0,
             "note": "untreated bulk gold at room temperature"},
    "silica": {"specific_rate_pa_m3_s_m2": 6.6e-9, "gas_temperature_k": 295.0,
               "note": "baked bulk silica at room temperature"},
}

_REQUIRED = object()


class _Block:
    """The JSON object at a key path ("" for the root), with its keys
    checked against `keys` (None leaves that to `allow`)."""

    def __init__(self, value, path: str, keys: Optional[frozenset] = None):
        if not isinstance(value, dict):
            raise ConfigError(f"'{path}' must be an object" if path
                              else "config root must be a JSON object")
        self.raw, self.path = value, path
        if keys is not None:
            self.allow(keys)

    def allow(self, keys) -> None:
        for key in self.raw:
            if key not in keys:
                raise ConfigError(f"unknown key '{self.at(key)}'")

    def at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def __call__(self, key: str, check: Callable, *args,
                 default: Any = _REQUIRED) -> Any:
        """check(value, path, *args) of a present key; an absent key
        takes `default`, or is missing if it has none."""
        if key not in self.raw:
            if default is _REQUIRED:
                raise ConfigError(f"missing key '{self.at(key)}'")
            return default
        return check(self.raw[key], self.at(key), *args)


class _Kinds(NamedTuple):
    """A check of a block whose `tag` picks (allowed keys, build) from
    `kinds`; every kind also allows `common`."""

    tag: str
    kinds: dict
    common: frozenset = frozenset()

    def __call__(self, value, path: str, *context):
        block = _Block(value, path)
        name = block(self.tag, lambda value, path: value)
        if not isinstance(name, str) or name not in self.kinds:
            raise ConfigError(f"'{block.at(self.tag)}' unknown: {name!r}")
        keys, build = self.kinds[name]
        block.allow(keys | self.common | {self.tag})
        return build(block, *context)


def _named(prefix: Optional[str], errors, call: Callable, *args, **kwargs):
    """call(*args, **kwargs), with `errors` raised as "<prefix>: <error>",
    or as they read without a prefix."""
    try:
        return call(*args, **kwargs)
    except errors as exc:
        raise ConfigError(str(exc) if prefix is None else f"{prefix}: {exc}") \
            from None


def _object_or(value, path: str, scalar: Callable, build: Callable):
    """A JSON object read by `build`, any other value by `scalar`."""
    return (build if isinstance(value, dict) else scalar)(value, path)


def _number(value, path: str) -> float:
    """A finite JSON number (booleans, strings and huge integers fail)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"'{path}' must be a finite number, got {value!r}")
    return float(value)


def _each(value, path: str, check: Callable) -> list:
    """A list whose i-th element passes check(element, "<path>[i]")."""
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' must be a list")
    return [check(v, f"{path}[{i}]") for i, v in enumerate(value)]


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


def _integer(value, path: str, minimum: Optional[int] = None,
             maximum: Optional[int] = None) -> int:
    """An integral JSON number within [minimum, maximum], where given (8.0
    passes, 8.9 and "8" fail)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"'{path}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"'{path}' must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"'{path}' must be <= {maximum}")
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
    return np.array(_each(value, path, _number))


def _matrix3(value, path: str) -> np.ndarray:
    """A 3x3 matrix of finite JSON numbers, given as three rows."""
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(f"'{path}' must be a finite 3x3 matrix")
    return np.array(_each(value, path, _vector3))


@dataclass
class RunConfig:
    """Validated run configuration plus built model objects."""

    raw: dict
    seed: int
    atom_mass: float
    body: BodySpec
    quadrature: SurfaceQuadrature
    flux: Optional[FluxModel]
    angular: AngularQuadrature
    energy: EnergyQuadrature
    surface_resolution: int

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.raw, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()


def _inertia(value, path: str) -> np.ndarray:
    """A symmetric positive-definite 3x3 matrix."""
    inertia = _matrix3(value, path)
    if not np.allclose(inertia, inertia.T, rtol=0, atol=1e-12 * abs(inertia).max()):
        raise ConfigError("body: inertia tensor must be symmetric")
    if np.any(np.linalg.eigvalsh(inertia) <= 0):
        raise ConfigError("body: inertia tensor must be positive definite")
    return inertia


def _body(b: _Block, shape) -> BodySpec:
    """The body of a shape, with the keys every shape shares. The mass and
    inertia are checked, then ignored: every result depends on the body
    only through its surface measured from the center of mass."""
    b("mass_kg", _positive, default=None)
    com = b("center_of_mass_m", _vector3, default=None)
    b("inertia_body_kg_m2", _inertia, default=None)
    return _named("body", ValueError, BodySpec, shape, center_of_mass=com)


def _mesh(b: _Block) -> BodySpec:
    """The body of the mesh in the OBJ file at obj_path: a file that cannot
    be read or parsed, and a mesh that is not closed and outward, are
    named under that key."""
    path = b("obj_path", _string)
    return _named("body.obj_path", (OSError, DegenerateMesh),
                  lambda: _body(b, read_obj(path)))


_SHAPES = _Kinds("shape", {
    "sphere": (frozenset({"radius_m"}),
               lambda b: _body(b, Sphere(b("radius_m", _positive)))),
    "cylinder": (frozenset({"radius_m", "half_length_m", "capped"}),
                 lambda b: _body(b, Cylinder(
                     b("radius_m", _positive), b("half_length_m", _positive),
                     b("capped", _boolean, default=True)))),
    "box": (frozenset({"half_extents_m"}), lambda b: _body(b, _named(
        "'body.half_extents_m'", ValueError, Box,
        b("half_extents_m", _vector3)))),
    "mesh": (frozenset({"obj_path"}), _mesh),
}, frozenset({"mass_kg", "center_of_mass_m", "inertia_body_kg_m2"}))


def _tabulated_spectrum(b: _Block) -> TabulatedSpectrum:
    energies = np.asarray(b("energies_j", _each, _number), dtype=float)
    values = np.asarray(b("values", _each, _number), dtype=float)
    return _named(b.path, (ValueError, NegativeEnergy), TabulatedSpectrum,
                  energies, values)


_SPECTRA = _Kinds("kind", {
    "maxwell_boltzmann": (frozenset({"temperature_k"}), lambda b:
                          MaxwellBoltzmannFlux(b("temperature_k", _positive))),
    "monoenergetic": (frozenset({"energy_j"}),
                      lambda b: Monoenergetic(b("energy_j", _positive))),
    "tabulated": (frozenset({"energies_j", "values"}), _tabulated_spectrum),
})


def _law(value, path: str, cls):
    """The direction law cls(v) of a unit vector v."""
    return _named(f"'{path}'", NotUnit, cls, _vector3(value, path))


_DIRECTIONS = _Kinds("law", {
    "isotropic": (frozenset(), lambda b: IsotropicDirection()),
    "fixed": (frozenset({"direction"}),
              lambda b: b("direction", _law, FixedDirection)),
    "cosine": (frozenset({"axis"}), lambda b: b("axis", _law, CosineDirection)),
})

_GRADIENT_KEYS = frozenset({"base", "gradient_1_m"})


def _rate_gradient(value, path: str):
    """{"base": r0, "gradient_1_m": g}: the rate r0 (1 + g . s) at s."""
    b = _Block(value, path, _GRADIENT_KEYS)
    base, grad = b("base", _positive), b("gradient_1_m", _vector3)
    return lambda points: base * (1.0 + points @ grad)


def _surface_law(b: _Block, cls) -> FluxModel:
    """A law of the rate field over the surface, whose values the library
    checks when the flux is split (flux._rates_at)."""
    rate = b("rate_per_area_hz_m2", _object_or, _positive, _rate_gradient)
    return cls(b("spectrum", _SPECTRA), rate)


def _site(value, path: str, body: BodySpec) -> np.ndarray:
    """A site in the body's bounding box, measured from its center of
    mass (a site on the surface lies there). This check is the config's
    own: a SingleSite has no body, and a box taken from the surface nodes
    would refuse a site at a sphere's pole, which res-64 nodes reach only
    to 0.9993 R."""
    site = _vector3(value, path)
    lo, hi = body.box
    if np.any(site < lo) or np.any(site > hi):
        raise ConfigError(f"'{path}' must lie within the body's bounding box")
    return site


_SURFACE_LAW_KEYS = frozenset({"rate_per_area_hz_m2", "spectrum"})
_FLUX_MODELS = _Kinds("model", {
    "cosine": (_SURFACE_LAW_KEYS,
               lambda b, q, body: _surface_law(b, CosineLaw)),
    "isotropic": (_SURFACE_LAW_KEYS,
                  lambda b, q, body: _surface_law(b, Isotropic)),
    "single_site": (frozenset({"site_m", "rate_hz", "direction", "spectrum"}),
                    lambda b, q, body: SingleSite(
                        b("site_m", _site, body), b("direction", _DIRECTIONS),
                        b("spectrum", _SPECTRA), b("rate_hz", _positive))),
    "tabulated": (frozenset({"csv_path"}), lambda b, q, body: _named(
        "flux.csv_path", (ValueError, OSError), read_flux_csv,
        b("csv_path", _string), q)),
})


# "threads" is accepted and ignored: every command runs on one thread
_TOP_KEYS = frozenset({"seed", "threads", "atom", "body", "flux",
                       "quadrature", "tensors", "locmap", "simulate",
                       "outgas"})
_ATOM_KEYS = frozenset({"mass_kg", "species"})
_QUADRATURE_KEYS = frozenset({"surface_resolution", "angular_polar",
                              "energy_nodes"})


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
    top = _Block(raw, "", _TOP_KEYS)
    seed = top("seed", _integer, default=0)
    if seed_override is not None:
        seed = seed_override
    top("threads", _integer, default=None)    # checked, then ignored

    atom = top("atom", _Block, _ATOM_KEYS)
    atom_mass = atom("mass_kg", _positive)
    atom("species", _string, default=None)    # checked, then ignored

    body = top("body", _SHAPES)

    quad = top("quadrature", _Block, _QUADRATURE_KEYS,
               default=_Block({}, "quadrature"))

    def order(key, default, minimum):
        path = quad.at(key)
        n = quad(key, _integer, minimum, default=default)
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
    angular = AngularQuadrature(
        n_polar=order("angular_polar", AngularQuadrature.n_polar, 2))
    energy = _named(f"'{quad.at('energy_nodes')}'", BlockTooLarge,
                    EnergyQuadrature,
                    order("energy_nodes", EnergyQuadrature.n_nodes, 4))

    # a body so small that its node weights underflow has no surface rule
    quadrature = _named("body", ValueError, _named,
                        f"'{quad.at('surface_resolution')}'", BlockTooLarge,
                        build_quadrature, body, resolution)
    flux = top("flux", _FLUX_MODELS, quadrature, body, default=None)
    if flux is not None:
        # only a surface law's rate field can fail the split
        em = _named("'flux.rate_per_area_hz_m2'", (NonFinite, ValueError),
                    split, flux, quadrature)
        _named("flux and 'atom.mass_kg'", NonFinite, check_transport_scale,
               em, atom_mass)

    top("tensors", _Block, frozenset(), default=None)
    return RunConfig(raw=raw, seed=seed, atom_mass=atom_mass, body=body,
                     quadrature=quadrature, flux=flux, angular=angular,
                     energy=energy, surface_resolution=resolution)


# ---------------------------------------------------------------------------
# Command blocks
# ---------------------------------------------------------------------------

_LOCMAP_KEYS = frozenset({"pairs", "ray", "random", "visibility_times_s",
                          "n_mu_panels", "n_azimuth", "check_convergence",
                          "convergence_tol"})
_PAIR_KEYS = frozenset({"delta_x_m", "w", "w_prime"})
_RAY_KEYS = frozenset({"direction", "lengths_m"})
_RANDOM_KEYS = frozenset({"count", "delta_x_scale_m", "max_angle_rad"})
# random pairs are drawn one by one before any row is computed; a million
# is already hours of rows
_MAX_RANDOM_PAIRS = 10**6
_SIMULATE_KEYS = frozenset({"duration_s", "n_trajectories", "n_times",
                            "compare"})
_OUTGAS_KEYS = frozenset({"preset", "specific_rate_pa_m3_s_m2",
                          "specific_rate_torr_l_cm2_s", "gas_temperature_k",
                          "area_m2"})


def _command(cfg: RunConfig, name: str, keys: frozenset) -> _Block:
    if name not in cfg.raw:
        raise ConfigError(f"missing '{name}' block")
    return _Block(cfg.raw[name], name, keys)


def parse_locmap_block(cfg: RunConfig):
    """(pairs, DecoherenceQuadrature, visibility times) from the locmap block."""
    b = _command(cfg, "locmap", _LOCMAP_KEYS)
    pairs = b("pairs", _each, _pair, default=[])
    ray = b("ray", _Block, _RAY_KEYS, default=None)
    if ray is not None:
        direction = ray("direction", _vector3)
        big = np.max(np.abs(direction))
        if big == 0:
            raise ConfigError("'locmap.ray.direction' must be nonzero")
        # a power-of-two scaling is exact: the norm cannot overflow, and
        # the unit vector is the one of the unscaled direction
        direction = np.ldexp(direction, -np.frexp(big)[1])
        direction = direction / np.linalg.norm(direction)
        for i, length in enumerate(ray("lengths_m", _each, _number)):
            pairs.append(_pose_pair(length * direction, np.eye(3), np.eye(3),
                                    f"locmap.ray.lengths_m[{i}]"))
    rnd = b("random", _Block, _RANDOM_KEYS, default=None)
    if rnd is not None:
        count = rnd("count", _integer, 0, _MAX_RANDOM_PAIRS)
        scale = rnd("delta_x_scale_m", _number)
        max_angle = rnd("max_angle_rad", _nonnegative, default=3.0)
        rng = stream(cfg.seed, "locmap-pairs")
        for k in range(count):
            with np.errstate(over="ignore"):    # inf, which PosePair refuses
                dx = scale * rng.standard_normal(3)
            pairs.append(_pose_pair(dx, _random_small_rotation(rng, max_angle),
                                    _random_small_rotation(rng, max_angle),
                                    f"locmap.random pair {k}"))
    if not pairs:
        raise ConfigError("locmap block defines no pose pairs")
    orders = {key: b(key, _integer, 1,
                     default=getattr(DecoherenceQuadrature, key))
              for key in ("n_mu_panels", "n_azimuth")}
    quad = DecoherenceQuadrature(
        energy_nodes=cfg.energy.n_nodes,
        check_convergence=b("check_convergence", _boolean,
                            default=DecoherenceQuadrature.check_convergence),
        convergence_tol=b("convergence_tol", _positive,
                          default=DecoherenceQuadrature.convergence_tol))
    # each order's bound is named under its key
    for key, n in orders.items():
        quad = _named(f"'{b.at(key)}'", BlockTooLarge, replace, quad,
                      **{key: n})
    times = b("visibility_times_s", _each, _nonnegative, default=[])
    return pairs, quad, times


def _pair(value, path: str) -> PosePair:
    p = _Block(value, path, _PAIR_KEYS)
    return _pose_pair(p("delta_x_m", _vector3),
                      p("w", _rotation, default=np.eye(3)),
                      p("w_prime", _rotation, default=np.eye(3)), path)


def _rotation(value, path: str) -> np.ndarray:
    """The rotation exp([w]_x) of an axis-angle vector w, |w| < pi."""
    return _named(f"'{path}'", AngleOutOfRange, rotation_from_w,
                  _vector3(value, path))


def _pose_pair(dx, rot, rot_prime, name: str) -> PosePair:
    """A pose pair with a displacement that PosePair takes and a relative
    rotation that the locmap CSV can encode."""
    pair = _named(f"'{name}'", (ValueError, NonFinite), PosePair, dx, rot,
                  rot_prime)
    _named(f"'{name}'", AngleOutOfRange, pair.relative_angle_vector)
    return pair


def _random_small_rotation(rng, max_angle):
    if max_angle >= np.pi:
        return random_rotation(rng)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    return rotation_from_w(rng.uniform(0.0, max_angle) * axis)


def parse_simulate_block(cfg: RunConfig):
    """(duration, n_trajectories, n_times, compare) from the simulate
    block, refused where the run could not be held: each trajectory's
    event count takes 8 B, one block's bins 96 KB per report time, and a
    block's events about 0.2 KB each while they are drawn and binned
    (2048 Gamma duration_s of them on average)."""
    b = _command(cfg, "simulate", _SIMULATE_KEYS)
    duration = b("duration_s", _positive)
    n_traj = _named(None, ValueError, check_size, "n_trajectories",
                    b("n_trajectories", _integer, 4),
                    "simulate.n_trajectories")
    n_times = _named(None, ValueError, check_size, "n_times",
                     b("n_times", _integer, 1, default=16), "simulate.n_times")
    compare = b("compare", _boolean, default=True)
    if cfg.flux is not None:
        rate = total_rate(cfg.flux, cfg.quadrature)
        if rate == 0.0:
            # a rate field so small that the node rates underflow, or a
            # table of zeros: a site's rate_hz cannot round to 0
            key = ("csv_path" if cfg.raw["flux"]["model"] == "tabulated"
                   else "rate_per_area_hz_m2")
            raise ConfigError(f"'flux.{key}' gives a total rate of 0 on this "
                              f"surface, so simulate has no events to draw")
        _named(None, BlockTooLarge, check_block_events, rate, duration,
               "simulate.duration_s")
    return duration, n_traj, n_times, compare


def parse_outgas_block(cfg: RunConfig):
    """(specific_rate_pa_m3_s_m2, temperature, area, provenance note)."""
    b = _command(cfg, "outgas", _OUTGAS_KEYS)
    from .constants import TORR_L_PER_CM2_S
    units = {"specific_rate_pa_m3_s_m2": 1.0,
             "specific_rate_torr_l_cm2_s": TORR_L_PER_CM2_S}
    sources = [key for key in ("preset", *units) if key in b.raw]
    if len(sources) > 1:
        raise ConfigError(f"'{b.at(sources[0])}' and '{b.at(sources[1])}' "
                          f"exclude each other")
    if not sources:
        raise ConfigError("outgas needs a preset or a specific rate")
    note, temperature = None, _REQUIRED
    if sources[0] == "preset":
        preset = b("preset", _string)
        if preset not in OUTGAS_PRESETS:
            raise ConfigError(f"'outgas.preset' unknown: {preset!r}")
        p = OUTGAS_PRESETS[preset]
        key, = units.keys() & p.keys()
        rate = units[key] * p[key]
        temperature, note = p["gas_temperature_k"], p["note"]
        if preset == "silica":
            note += ("; the ideal-gas conversion at 295 K over the sphere "
                     "area gives ~0.115 Hz for a 150 nm particle, a factor "
                     "~3 below the commonly quoted 0.33 Hz estimate, whose "
                     "temperature/area convention is not stated")
    else:
        rate = units[sources[0]] * b(sources[0], _positive)
    # a preset's temperature is a default that the block may override
    temperature = b("gas_temperature_k", _positive, default=temperature)
    area = b("area_m2", _positive, default=cfg.quadrature.total_area)
    return rate, temperature, area, note

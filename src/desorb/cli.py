"""Batch command-line front end.

Subcommands: tensors, locmap, simulate, outgas, validate. Every command
is a pure function of (config, seed): identical inputs give byte-identical
outputs. `--threads` is accepted and ignored. Exit codes: 0 ok, 2 config error,
3 quadrature not converged, 4 internal error / failed validation.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

import numpy as np

from . import __version__
from .config import (RunConfig, load_config, parse_locmap_block,
                     parse_outgas_block, parse_simulate_block)
from .decoherence import coherence_map
from .errors import ConfigError, DesorbError, QuadratureNotConverged
from .flux import outgas_rate, total_rate
# perfbench/tracer.py patches diffusion_tensor and force_torque in this module
from .moments import diffusion_tensor, force_torque, transport  # noqa: F401
from .montecarlo import compare_to_prediction, simulate_ensemble

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_INTERNAL = 4

_LABELS = ("Px", "Py", "Pz", "Jx", "Jy", "Jz")


def fmt(x: float) -> str:
    """17 significant digits: lossless double round-trip, stable bytes."""
    return format(float(x), ".17g")


def _emit_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with .17g floats (insertion-ordered keys)."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f"{inner}{json.dumps(str(k))}: "
                           f"{_emit_json(v, indent + 1)}" for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, np.ndarray):
        return _emit_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ", ".join(_emit_json(v, indent + 1) for v in obj)
        return "[" + items + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        return fmt(float(obj)) if np.isfinite(obj) else "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if obj is None:
        return "null"
    return json.dumps(obj)


def _unwritable(out_path, reason: str) -> ConfigError:
    return ConfigError(f"--out '{out_path}' cannot be written: {reason}")


def _check_out(out_path) -> None:
    """Fail before any computation on an output path that cannot be
    written. It only looks: nothing is created or truncated."""
    if out_path in (None, "-"):
        return
    folder = os.path.dirname(out_path) or os.curdir
    if not os.path.isdir(folder):
        code = errno.ENOTDIR if os.path.exists(folder) else errno.ENOENT
    elif os.path.isdir(out_path):
        code = errno.EISDIR
    elif not os.access(folder, os.W_OK | os.X_OK):
        code = errno.EACCES
    else:
        return
    raise _unwritable(out_path, os.strerror(code))


def _open_out(out_path):
    try:
        return open(out_path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise _unwritable(out_path, exc.strerror) from None


def _stream_text(out_path, chunks) -> None:
    """Write the chunks to out_path, or to stdout for "-", each flushed
    as it is written, so locmap rows stream out as they are computed."""
    out = (contextlib.nullcontext(sys.stdout) if out_path in (None, "-")
           else _open_out(out_path))
    with out as fh:
        for chunk in chunks:
            fh.write(chunk)
            fh.flush()


def _metadata(cfg: RunConfig, command: str) -> dict:
    return {
        "tool": "desorb",
        "version": __version__,
        "command": command,
        "config_sha256": cfg.config_hash,
        "seed": cfg.seed,
        "surface_resolution": cfg.surface_resolution,
        "surface_nodes": cfg.quadrature.n_nodes,
        "angular": {"n_polar": cfg.angular.n_polar},
        "energy_nodes": cfg.energy.n_nodes,
    }


def _metadata_comment(cfg: RunConfig, command: str) -> str:
    meta = _metadata(cfg, command)
    flat = json.dumps(meta, sort_keys=True, separators=(",", ":"))
    return f"# desorb {flat}\n"


def _require_flux(cfg: RunConfig):
    if cfg.flux is None:
        raise ConfigError("missing 'flux' block")
    return cfg.flux


def cmd_tensors(cfg: RunConfig, out_path) -> int:
    model = _require_flux(cfg)
    d, ft = transport(model, cfg.quadrature, cfg.atom_mass, energy=cfg.energy)
    doc = {
        "metadata": _metadata(cfg, "tensors"),
        "units": {
            "total_rate": "1/s",
            "d_tt": "(kg m/s)^2 / s",
            "d_tr": "(kg m/s)(kg m^2/s) / s",
            "d_rt": "(kg m^2/s)(kg m/s) / s",
            "d_rr": "(kg m^2/s)^2 / s",
            "force": "N",
            "torque": "N m",
        },
        "total_rate": total_rate(model, cfg.quadrature),
        "d_tt": d.d_tt, "d_tr": d.d_tr, "d_rt": d.d_rt, "d_rr": d.d_rr,
        "force": ft.force, "torque": ft.torque,
    }
    _stream_text(out_path, [_emit_json(doc) + "\n"])
    return EXIT_OK


def cmd_locmap(cfg: RunConfig, out_path) -> int:
    model = _require_flux(cfg)
    pairs, quad, times = parse_locmap_block(cfg)
    header = "dx,dy,dz,w_rel_x,w_rel_y,w_rel_z,re_rate_hz,im_rate_hz"
    header += "".join(f",visibility_{fmt(t)}s" for t in times)

    def rows():
        # one pair at a time so rows stream out as they are computed
        yield _metadata_comment(cfg, "locmap")
        yield header + "\n"
        for pair in pairs:
            row = coherence_map([pair], model, cfg.quadrature, cfg.atom_mass,
                                quad)[0]
            dx = row.pair.delta_x
            w_rel = row.pair.relative_angle_vector()
            cols = [fmt(v) for v in (*dx, *w_rel)]
            if row.rate is None:
                cols += ["nan", "nan"] + ["nan"] * len(times)
                sys.stderr.write(f"locmap row failed: {row.error}\n")
            else:
                cols += [fmt(row.rate.re), fmt(row.rate.im)]
                cols += [fmt(v) for v in row.visibilities(times)]
            yield ",".join(cols) + "\n"

    _stream_text(out_path, rows())
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, out_path) -> int:
    model = _require_flux(cfg)
    duration, n_traj, n_times, compare = parse_simulate_block(cfg)
    report_path = None if out_path in (None, "-") else out_path + ".report.json"
    if compare:
        _check_out(report_path)
    em = simulate_ensemble(model, cfg.quadrature, cfg.atom_mass, duration,
                           n_traj, cfg.seed, n_times=n_times)
    lines = [_metadata_comment(cfg, "simulate")]
    triu = [(i, j) for i in range(6) for j in range(i, 6)]
    header = ["t_s"]
    header += [f"mean_{l}" for l in _LABELS]
    header += [f"cov_{_LABELS[i]}{_LABELS[j]}" for i, j in triu]
    header += [f"stderr_mean_{l}" for l in _LABELS]
    header += [f"stderr_cov_{_LABELS[i]}{_LABELS[j]}" for i, j in triu]
    lines.append(",".join(header) + "\n")
    for k, t in enumerate(em.times):
        cols = [fmt(t)]
        cols += [fmt(v) for v in em.mean[k]]
        cols += [fmt(em.cov[k][i, j]) for i, j in triu]
        cols += [fmt(v) for v in em.stderr_mean[k]]
        cols += [fmt(em.stderr_cov[k][i, j]) for i, j in triu]
        lines.append(",".join(cols) + "\n")
    _stream_text(out_path, ["".join(lines)])

    if compare:
        d, ft = transport(model, cfg.quadrature, cfg.atom_mass,
                          energy=cfg.energy)
        report = compare_to_prediction(em, d, ft)
        doc = {
            "metadata": _metadata(cfg, "simulate"),
            "total_events": int(em.event_counts.sum()),
            "z_mean": report.z_mean,
            "z_cov_upper_triangle": report.z_cov,
            "chi2": report.chi2,
            "dof": report.dof,
            "p_value": report.p_value,
            "passed": report.passed,
            "max_abs_z": report.max_abs_z,
        }
        _stream_text(report_path, [_emit_json(doc) + "\n"])
        sys.stdout.write(report.summary() + "\n")
    return EXIT_OK


def cmd_outgas(cfg: RunConfig, out_path) -> int:
    rate, temperature, area, note = parse_outgas_block(cfg)
    emission = outgas_rate(rate, area, temperature)
    doc = {
        "metadata": _metadata(cfg, "outgas"),
        "units": {"specific_rate": "Pa m^3 / (s m^2)", "area": "m^2",
                  "gas_temperature": "K", "emission_rate": "1/s"},
        "specific_rate": rate,
        "area": area,
        "gas_temperature": temperature,
        "emission_rate": emission,
    }
    if note:
        doc["note"] = note
    _stream_text(out_path, [_emit_json(doc) + "\n"])
    return EXIT_OK


def cmd_validate(cfg, out_path) -> int:
    from .validate import run_validation
    results = run_validation()
    width = max(len(name) for name, _, _ in results)
    lines = ["check".ljust(width) + "  status  detail\n"]
    all_ok = True
    for name, ok, detail in results:
        all_ok &= ok
        lines.append(f"{name.ljust(width)}  {'PASS' if ok else 'FAIL'}    "
                     f"{detail}\n")
    _stream_text(out_path, ["".join(lines)])
    return EXIT_OK if all_ok else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desorb",
        description="Recoil diffusion and decoherence observables of an "
                    "adsorbate-emitting nanoparticle.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("tensors", True), ("locmap", True),
                               ("simulate", True), ("outgas", True),
                               ("validate", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_config,
                       help="JSON run configuration")
        p.add_argument("--out", default="-", help="output path (default stdout)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="accepted and ignored; one thread runs "
                            "every command")
        p.add_argument("--resolution-scale", type=float, default=1.0,
                       help="scale surface_resolution and energy_nodes "
                            "(angular_polar too, which nothing reads); a "
                            "finite number > 0, and an order scaled below "
                            "its minimum is a config error")
    return parser


_COMMANDS = {
    "tensors": cmd_tensors,
    "locmap": cmd_locmap,
    "simulate": cmd_simulate,
    "outgas": cmd_outgas,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 0.0 < args.resolution_scale < np.inf:
            raise ConfigError("--resolution-scale must be finite and > 0")
        _check_out(args.out)
        if args.command == "validate" and args.config is None:
            cfg = None
        else:
            cfg = load_config(args.config, resolution_scale=args.resolution_scale,
                              seed_override=args.seed)
        return _COMMANDS[args.command](cfg, args.out)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except QuadratureNotConverged as exc:
        sys.stderr.write(f"quadrature not converged: {exc}\n")
        return EXIT_CONVERGENCE
    except DesorbError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

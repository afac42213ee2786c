"""Benchmark of the desorb command-line interface.

    python3 perfbench/run.py --workload mc_kicks --seed 1 --seconds 25
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout (the package is imported from
`src/`). One process per workload run: it generates the inputs from the
seed (perfbench/gen.py), measures set-up, then repeats the workload's
CLI commands in this process for `--seconds` seconds and checks every
output. Times are normalized to a reference machine speed
(perfbench/calibrate.py). The last line of standard output is one JSON
object with keys correct, attempted, failed and metrics. With
`--trace 1` the layers of desorb are timed through spans
(perfbench/tracer.py) on alternate passes, and the per-layer metrics are
reported instead of the end-to-end ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

import gen  # noqa: E402  (perfbench/ is on sys.path as the script's dir)

HBAR = 1.054571817e-34          # J s
SETUPS = 3                      # set-ups per run; setup_s is their median
LOCMAP_TOL = 1e-3               # |F - reference| / Gamma; the CLI's own tol
DIFFUSIVE_TOL = 1e-3            # relative, 0.1 pm row vs dX^T D_tt dX / hbar^2
TENSOR_TOL = 1e-9               # relative per 3x3 block, tabulated tensors
FORCE_TOL = 1e-3                # of Gamma <p> (force) and Gamma <p> R (torque)

# Spans of a traced pass beyond the untraced probe, and of a traced set-up.
TRACE_ONLY = ["montecarlo.compare_to_prediction", "moments.diffusion_tensor",
              "moments.force_torque", "rng.stream", "spectra.sample",
              "flux.EventSampler.draw", "flux.TabulatedFlux.interp",
              "decoherence.localization_rate", "quadrules.filon_moments"]
SETUP_LAYERS = ["config.load_config", "geometry.build_quadrature",
                "flux.read_flux_csv"]
# Calibration kernel of each command (see calibrate.py).
CALIBRATION = {"simulate": "python", "locmap": "vector", "tensors": "vector"}


# ---------------------------------------------------------------------------
# Environment and set-up
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
    }


def import_desorb() -> float:
    if not os.path.isfile(os.path.join(SRC, "desorb", "__init__.py")):
        sys.stderr.write(f"perfbench: no desorb package under {SRC}; run "
                         "from the root of a desorb source checkout\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import desorb.cli  # noqa: F401  (what the `desorb` command imports)
    return time.perf_counter() - t0


def setup_once(import_s: float, paths, tracer) -> dict:
    """One set-up sample: the import time given, load_config of every
    config, then a calibration run that normalizes both."""
    import desorb.config
    from calibrate import REFERENCE_S, calibrate
    if tracer is not None:
        tracer.reset()
    t0 = time.perf_counter()
    for path in paths:
        desorb.config.load_config(path)
    load_s = time.perf_counter() - t0
    speed = REFERENCE_S["python"] / calibrate("python")
    out = {"wall_s": import_s + load_s, "setup_s": (import_s + load_s) * speed,
           "import.desorb_s": import_s}
    if tracer is not None:
        for name in SETUP_LAYERS:
            count, total, _ = tracer.totals(name)
            out[name + "_s"] = total
            out[name + "_calls"] = count
        tracer.reset()
    return out


def workload_configs(workload: str, work: str):
    return [os.path.join(work, c) for c in gen.WORKLOADS[workload]]


def setup_probe(args) -> None:
    """Child-process set-up sample, printed as JSON."""
    import_s = import_desorb()
    from tracer import Tracer
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(SETUP_LAYERS)
    paths = workload_configs(args.workload, args.setup_probe)
    print(json.dumps(setup_once(import_s, paths, tracer)))


def setup_samples(args, work, first: dict) -> list:
    """The main process's own set-up plus SETUPS - 1 fresh interpreters."""
    samples = [first]
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--trace", str(args.trace), "--setup-probe", work],
            capture_output=True, text=True, timeout=170, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError("set-up probe failed")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

class Tally:
    """Checks attempted and failed. A refusal is a row the program
    declined to compute (QuadratureNotConverged): it counts as failed but
    is not a wrong answer, so it does not clear `correct`."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes = {}

    def check(self, ok: bool, what: str, refused: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += not refused
            key = ("refused: " if refused else "FAILED: ") + what
            self.notes[key] = self.notes.get(key, 0) + 1
        return ok


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class Checker:
    """Output checks; references are computed once per run, before any
    timing or tracing."""

    def __init__(self, workload: str, work: str, params: dict):
        from desorb.config import load_config
        self.first = {}        # output path -> bytes of the first pass
        self.params = params
        if workload == "locmap_sweep":
            from desorb.flux import total_rate
            from desorb.moments import diffusion_tensor
            cfg = load_config(workload_configs(workload, work)[0])
            self.gamma = total_rate(cfg.flux, cfg.quadrature)
            self.d_tt = diffusion_tensor(cfg.flux, cfg.quadrature,
                                         cfg.atom_mass).d_tt
            with open(os.path.join(HERE, "locmap_ref.json"),
                      encoding="utf-8") as fh:
                self.ref = json.load(fh)["pairs"]
        elif workload == "tabulated_flux":
            self._tabulated_reference(load_config(
                workload_configs(workload, work)[0]))

    def _tabulated_reference(self, cfg) -> None:
        """The table is cosine x piecewise-linear Maxwell-Boltzmann, so a
        CosineLaw with the same TabulatedSpectrum must give the same D
        (both rules are exact for it) and nearly the same force."""
        from desorb.flux import CosineLaw, total_rate
        from desorb.moments import (diffusion_tensor, force_torque,
                                    spectral_momentum_moments)
        from desorb.spectra import TabulatedSpectrum
        _, energies, _, rate_field = gen.tabulated_table(
            self.params["gradient"])
        spectrum = TabulatedSpectrum(energies,
                                     gen.mb_density(gen.TAB_ENERGY_KT))
        model = CosineLaw(spectrum, rate_field)
        q = cfg.quadrature
        self.d_ref = diffusion_tensor(model, q, cfg.atom_mass)
        self.ft_ref = force_torque(model, q, cfg.atom_mass)
        pbar, _ = spectral_momentum_moments(spectrum, cfg.atom_mass)
        self.f_scale = total_rate(model, q) * pbar
        self.t_scale = self.f_scale * q.max_radius()

    def check(self, tally: Tally, cmd: "Command", code: int,
              stderr: str) -> None:
        name = os.path.basename(cmd.outputs[0])
        if not tally.check(code == 0, f"{name}: exit code {code}"):
            return
        data = [_read(path) for path in cmd.outputs]
        for path, blob in zip(cmd.outputs, data):
            if path not in self.first:
                self.first[path] = blob
            else:
                tally.check(blob == self.first[path],
                            f"{os.path.basename(path)} differs from the "
                            "first pass of the same (config, seed)")
        if cmd.kind == "simulate":
            doc = json.loads(data[1])
            tally.check(bool(doc["passed"]),
                        f"{name}: compare_to_prediction failed "
                        f"(max|z| {doc['max_abs_z']}, p {doc['p_value']})")
        elif cmd.kind == "locmap":
            self._locmap_row(tally, cmd.label, data[0], stderr)
        else:
            self._tensors(tally, data[0])

    def _locmap_row(self, tally: Tally, label: str, data: bytes,
                    stderr: str) -> None:
        import numpy as np
        lines = [ln for ln in data.decode("utf-8").splitlines()
                 if not ln.startswith("#")]
        rows = list(csv.DictReader(lines))
        if not tally.check(len(rows) == 1, f"locmap {label}: one row"):
            return
        re_f = float(rows[0]["re_rate_hz"])
        im_f = float(rows[0]["im_rate_hz"])
        if not (np.isfinite(re_f) and np.isfinite(im_f)):
            refused = "QuadratureNotConverged" in stderr
            for what in ("converged", "0 <= Re F <= 2 Gamma",
                         "matches reference"):
                tally.check(False, f"locmap {label}: {what}", refused)
            return
        tally.check(True, f"locmap {label}: converged")
        tally.check(0.0 <= re_f <= 2.0 * self.gamma,
                    f"locmap {label}: 0 <= Re F <= 2 Gamma")
        if label == "dx_0.1pm":
            d = {lb: dx for lb, dx, _ in gen.LOCMAP_PAIRS}[label] \
                * self.params["u"]
            pred = float(d @ self.d_tt @ d) / HBAR**2
            ok = abs(re_f - pred) <= DIFFUSIVE_TOL * pred
        else:
            ref = self.ref[label]
            ok = (abs(re_f / self.gamma - ref["re_over_gamma"]) <= LOCMAP_TOL
                  and abs(im_f / self.gamma - ref["im_over_gamma"])
                  <= LOCMAP_TOL)
        tally.check(ok, f"locmap {label}: matches reference")

    def _tensors(self, tally: Tally, data: bytes) -> None:
        import numpy as np
        doc = json.loads(data)
        worst = 0.0
        for block in ("d_tt", "d_tr", "d_rt", "d_rr"):
            want = getattr(self.d_ref, block)
            worst = max(worst, np.abs(np.array(doc[block]) - want).max()
                        / max(np.abs(want).max(), 1e-300))
        tally.check(worst <= TENSOR_TOL,
                    f"tensors: diffusion blocks off by {worst:.2e}")
        df = np.abs(np.array(doc["force"]) - self.ft_ref.force).max()
        dt = np.abs(np.array(doc["torque"]) - self.ft_ref.torque).max()
        tally.check(df <= FORCE_TOL * self.f_scale
                    and dt <= FORCE_TOL * self.t_scale,
                    "tensors: force/torque off reference")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass
class Command:
    kind: str          # CLI subcommand
    config: str
    outputs: list      # files the command writes; outputs[0] is --out
    label: str = ""    # locmap pair label

    @property
    def argv(self):
        return [self.kind, "--config", self.config, "--out", self.outputs[0]]


def commands(workload: str, work: str):
    """The CLI commands of one pass of the workload."""
    configs = workload_configs(workload, work)
    if workload == "mc_kicks":
        return [Command("simulate", c, [c + ".csv", c + ".csv.report.json"])
                for c in configs]
    if workload == "locmap_sweep":
        return [Command("locmap", c, [c + ".csv"], label)
                for c, (label, _, _) in zip(configs, gen.LOCMAP_PAIRS)]
    (c,) = configs
    return [Command("tensors", c, [c + ".tensors.json"]),
            Command("simulate", c, [c + ".csv", c + ".csv.report.json"])]


def run_cli(argv):
    """desorb.cli.main in this process; (exit code, seconds, stderr)."""
    import desorb.cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = desorb.cli.main(argv)
        dt = time.perf_counter() - t0
    return code, dt, err.getvalue()


@dataclass
class Pass:
    """Times of one pass: wall, and normalized by calibration."""
    traced: bool
    wall: float = 0.0
    norm: float = 0.0
    per_command: list = field(default_factory=list)  # (kind, wall, norm, sim)
    calibration: list = field(default_factory=list)  # (kernel, seconds)


def run_pass(cmds, checker: Checker, tally: Tally, tracer, trace: bool,
             traced: bool) -> Pass:
    """One pass: each command between two calibration runs, then checks.
    Spans are enabled during the commands of a traced pass, and the probe
    alone during every pass of an untraced run."""
    from calibrate import REFERENCE_S, calibrate
    result = Pass(traced)
    outcomes = []
    previous = None            # (calibration kind, time) just measured
    for cmd in cmds:
        cal = CALIBRATION[cmd.kind]
        before = previous[1] if previous and previous[0] == cal \
            else calibrate(cal)
        tracer.enabled = traced or not trace
        code, dt, stderr = run_cli(cmd.argv)
        tracer.enabled = False
        after = calibrate(cal)
        previous = (cal, after)
        result.calibration.append((cal, after))
        speed = REFERENCE_S[cal] / (0.5 * (before + after))
        sim = 0.0
        if cmd.kind == "simulate" and not trace:
            sim = tracer.durations["montecarlo.simulate_ensemble"][-1] * speed
        result.wall += dt
        result.norm += dt * speed
        result.per_command.append((cmd.kind, dt, dt * speed, sim))
        outcomes.append((cmd, code, stderr))
    for cmd, code, stderr in outcomes:
        checker.check(tally, cmd, code, stderr)
    return result


def measure(args, cmds, checker, tally, tracer) -> list:
    """Passes until --seconds have elapsed. With --trace 1 they alternate
    between spans disabled and enabled, at least one of each."""
    passes = []
    t_start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(cmds, checker, tally, tracer, bool(args.trace),
                               traced))
        if (time.perf_counter() - t_start >= args.seconds
                and (not args.trace or len(passes) >= 2)):
            return passes


def unchecked_ratios(workload, work, passes, tracer) -> dict:
    """check_ratio: checked span time per traced pass, over the time of one
    extra unchecked call per tensor or pair of a pass, made untraced."""
    from dataclasses import replace
    from desorb.config import load_config, parse_locmap_block
    from desorb.decoherence import localization_rate
    from desorb.moments import diffusion_tensor, force_torque
    n = sum(p.traced for p in passes)
    out = {"moments.check_ratio": 0.0, "decoherence.check_ratio": 0.0,
           "decoherence.grid_samples": 0}
    checked = (tracer.totals("moments.diffusion_tensor")[1]
               + tracer.totals("moments.force_torque")[1]) / n
    unchecked = 0.0
    for cmd in commands(workload, work):
        if cmd.kind == "locmap":
            continue
        cfg = load_config(cmd.config)
        t0 = time.perf_counter()
        diffusion_tensor(cfg.flux, cfg.quadrature, cfg.atom_mass, cfg.angular,
                         cfg.energy, check_convergence=False)
        force_torque(cfg.flux, cfg.quadrature, cfg.atom_mass, cfg.angular,
                     cfg.energy, check_convergence=False)
        unchecked += time.perf_counter() - t0
    if unchecked > 0.0:
        out["moments.check_ratio"] = checked / unchecked
    if workload != "locmap_sweep":
        return out
    checked = tracer.totals("decoherence.localization_rate")[1] / n
    unchecked = 0.0
    for cmd in commands(workload, work):
        cfg = load_config(cmd.config)
        pairs, quad, _ = parse_locmap_block(cfg)
        t0 = time.perf_counter()
        localization_rate(pairs[0], cfg.flux, cfg.quadrature, cfg.atom_mass,
                          replace(quad, check_convergence=False))
        unchecked += time.perf_counter() - t0
    out["decoherence.check_ratio"] = checked / unchecked
    levels = (quad, quad.refined()) if quad.check_convergence else (quad,)
    out["decoherence.grid_samples"] = sum(
        cfg.quadrature.n_nodes * (2 * lv.n_mu_panels + 1) * lv.n_azimuth
        * lv.energy_nodes for lv in levels)
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples above it, or None while that percentile is not above the
    median (fewer than 21 samples)."""
    if len(values) < 21:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def report_line(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def end_to_end_metrics(workload, setups, passes) -> dict:
    """The BENCHMARK.json metrics, plus workload-specific ones printed."""
    from calibrate import REFERENCE_S
    setup_s = statistics.median(s["setup_s"] for s in setups)
    total_s = statistics.median(p.norm for p in passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    note = f" (median of {len(passes)} passes)"
    report_line("setup_s", setup_s, "s", f" (median of {len(setups)})")
    report_line("total_s", total_s, "s", note)
    report_line("peak_rss_mb", rss_mb, "MB")
    report_line("setup_wall_s", statistics.median(s["wall_s"]
                                                  for s in setups), "s")
    report_line("total_wall_s", statistics.median(p.wall for p in passes),
                "s", note)
    for kernel in sorted({k for p in passes for k, _ in p.calibration}):
        report_line(f"calibration.{kernel}_s", statistics.median(
            t for p in passes for k, t in p.calibration if k == kernel), "s",
            f" (reference {REFERENCE_S[kernel]} s)")

    def per_pass(kind, index):
        return [sum(c[index] for c in p.per_command if c[0] == kind)
                for p in passes]

    if workload != "locmap_sweep":
        n_traj = (gen.MC_TRAJECTORIES * len(gen.WORKLOADS["mc_kicks"])
                  if workload == "mc_kicks" else gen.TAB_TRAJECTORIES)
        report_line("traj_per_s",
                    n_traj / statistics.median(per_pass("simulate", 3)),
                    "1/s", note)
    if workload == "tabulated_flux":
        report_line("tensors_s", statistics.median(per_pass("tensors", 2)),
                    "s", note)
    if workload == "locmap_sweep":
        pairs = [c[2] for p in passes for c in p.per_command]
        report_line("pair_s", statistics.median(pairs), "s",
                    f" (median, n={len(pairs)})")
        hi = tail(pairs)
        if hi is not None:
            report_line(f"pair_s.p{hi[0]:.0f}", hi[1], "s",
                        f" (n={len(pairs)})")
    return {"setup_s": {"value": setup_s, "unit": "s"},
            "total_s": {"value": total_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}


def layer_metrics(setups, passes, tracer, extras) -> dict:
    """The per-layer metrics: set-up layers per set-up (median), the rest
    per traced pass. Span times are wall time."""
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in ("import.desorb", *SETUP_LAYERS):
        put(name + "_s", statistics.median(s[name + "_s"] for s in setups),
            "s")
        if name != "import.desorb":
            put(name + "_calls", setups[0][name + "_calls"], "count")
    n = sum(p.traced for p in passes)
    for name in ("montecarlo.simulate_ensemble", *TRACE_ONLY):
        count, total, _ = tracer.totals(name)
        put(name + "_s", total / n, "s")
        put(name + "_calls", count / n, "count")
    for name in ("montecarlo.simulate_ensemble",
                 "decoherence.localization_rate"):
        put(name + ".self_s", tracer.totals(name)[2] / n, "s")
    put("flux.events", tracer.events / n, "count")
    for name, value in extras.items():
        put(name, value, "count" if name.endswith("samples") else "ratio")
    on = statistics.median(p.norm for p in passes if p.traced)
    off = statistics.median(p.norm for p in passes if not p.traced)
    put("trace.overhead_s", on - off, "s")
    put("trace.overhead_frac", (on - off) / off, "ratio")
    for row in tracer.table():
        print("# span name=%s parent=%s count=%d total_s=%.6f self_s=%.6f"
              % row)
    for name, metric in metrics.items():
        report_line(name, metric["value"], metric["unit"])
    return metrics


def run_all(args) -> int:
    """Every workload, one child process each, output passed through."""
    worst = 0
    for workload in gen.WORKLOADS:
        print(f"# workload {workload}", flush=True)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)], check=False)
        worst = max(worst, proc.returncode)
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description="desorb CLI benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        setup_probe(args)
        return 0
    if args.workload == "all":
        return run_all(args)

    import_s = import_desorb()
    from tracer import PROBES, Tracer
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        params = gen.generate(args.seed, work)
        tracer = Tracer()
        tracer.install(SETUP_LAYERS if args.trace else ())
        first = setup_once(import_s, workload_configs(args.workload, work),
                           tracer if args.trace else None)
        setups = setup_samples(args, work, first)
        tracer.uninstall()
        checker = Checker(args.workload, work, params)
        tracer.install([*PROBES, *TRACE_ONLY] if args.trace else PROBES)
        tally = Tally()
        cmds = commands(args.workload, work)
        passes = measure(args, cmds, checker, tally, tracer)
        extras = (unchecked_ratios(args.workload, work, passes, tracer)
                  if args.trace else {})
        tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("# env " + json.dumps(environment(args), sort_keys=True))
    for note, count in sorted(tally.notes.items()):
        print(f"# check {note} (x{count})")
    for i, p in enumerate(passes):
        print(f"# pass {i} traced={int(p.traced)} wall_s={p.wall:.4f} "
              f"total_s={p.norm:.4f}")
    if args.trace:
        metrics = layer_metrics(setups, passes, tracer, extras)
    else:
        metrics = end_to_end_metrics(args.workload, setups, passes)
        report_line("failed_frac", tally.failed / tally.attempted, "1",
                    f" ({tally.failed} of {tally.attempted} checks)")
    print(json.dumps({"correct": tally.wrong == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

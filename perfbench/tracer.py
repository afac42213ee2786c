"""Spans around desorb's public functions, recorded from outside.

The tracer replaces a function where its caller looks it up (for example
`desorb.montecarlo.stream`, which `simulate_ensemble` calls) with a
wrapper that times the call. Spans are kept in memory as count, total
time and self time per (name, parent); self time is the span's duration
minus the durations of the traced spans it directly contains.
"""

from __future__ import annotations

import importlib
from time import perf_counter

# (layer name, module, attribute path) for every traced function. The
# module is where the caller looks the name up.
LAYERS = [
    ("config.load_config", "desorb.cli", "load_config"),
    ("config.load_config", "desorb.config", "load_config"),
    ("geometry.build_quadrature", "desorb.config", "build_quadrature"),
    ("flux.read_flux_csv", "desorb.config", "read_flux_csv"),
    ("montecarlo.simulate_ensemble", "desorb.cli", "simulate_ensemble"),
    ("montecarlo.compare_to_prediction", "desorb.cli",
     "compare_to_prediction"),
    ("rng.stream", "desorb.montecarlo", "stream"),
    ("flux.EventSampler.draw", "desorb.flux", "EventSampler.draw"),
    ("spectra.sample", "desorb.spectra", "MaxwellBoltzmannFlux.sample"),
    ("spectra.sample", "desorb.spectra", "Monoenergetic.sample"),
    ("spectra.sample", "desorb.spectra", "TabulatedSpectrum.sample"),
    ("flux.TabulatedFlux.interp", "desorb.flux", "TabulatedFlux.interp"),
    ("moments.diffusion_tensor", "desorb.cli", "diffusion_tensor"),
    ("moments.force_torque", "desorb.cli", "force_torque"),
    ("decoherence.localization_rate", "desorb.decoherence",
     "localization_rate"),
    ("quadrules.filon_moments", "desorb.decoherence", "filon_moments"),
]

# The only span of an untraced run: one call per `simulate` command, so its
# cost is negligible. It gives the trajectories per second.
PROBES = ("montecarlo.simulate_ensemble",)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span statistics; install() patches, uninstall() restores."""

    def __init__(self):
        self.enabled = True
        self.stats = {}       # (name, parent) -> [count, total_s, self_s]
        self.durations = {}   # probe name -> list of call durations [s]
        self.events = 0       # emission events returned by EventSampler.draw
        self._stack = []      # open spans: [name, time in direct children]
        self._patched = []

    def install(self, names) -> None:
        for name, module, path in LAYERS:
            if name in names:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.stats.clear()
        self.durations.clear()
        self.events = 0

    def _wrap(self, name: str, fn):
        keep_durations = name in PROBES
        count_events = name == "flux.EventSampler.draw"

        def span(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                st = self.stats.get((name, parent))
                if st is None:
                    st = self.stats[(name, parent)] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                if keep_durations:
                    self.durations.setdefault(name, []).append(dt)
            if count_events:
                self.events += len(result.energies)
            return result

        return span

    def totals(self, name: str):
        """(count, total_s, self_s) of a name summed over its parents."""
        count, total, self_time = 0, 0.0, 0.0
        for (n, _), (c, t, s) in self.stats.items():
            if n == name:
                count += c
                total += t
                self_time += s
        return count, total, self_time

    def table(self):
        """Rows (name, parent, count, total_s, self_s), sorted by name."""
        return sorted((n, p or "-", c, t, s)
                      for (n, p), (c, t, s) in self.stats.items())

"""Spans around calls into cyclewalk's public functions, recorded from outside.

The package imports with ``from .x import y``, so one function object is
bound under its name in several modules (``step`` lives in ``walk`` and is
looked up from ``cli``, ``thermo`` and ``spectral``).  :meth:`Tracer.install`
replaces every such binding with one wrapper, so a call is counted once
whichever module made it.  Only traced repetitions install wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# The layers' public functions that get a span, by module.
TARGETS = {
    "walk": ("step", "evolve"),
    "spectral": ("decompose", "amplitudes_at"),
    "thermo": (
        "averaged_trajectory_closed",
        "asymptotic_density",
        "coin_density",
        "transient_temperature",
        "entanglement_entropy",
        "temperature_from_chi",
        "averaged_density_numeric",
    ),
    "times": ("convergence_sweep",),
    "markov": ("markov_solution", "markov_beta", "markov_thermalization_time"),
}


def _decompose_work(args):
    return {"sites": args[0].n_sites}


def _trajectory_work(args):
    n_sites, n_times = args[0].n_sites, int(np.size(args[1]))
    return {"time_points": n_times, "mode_exps": n_sites * n_times}


# Work counts computed from the positional arguments of a call, by span name.
WORK = {
    "spectral.decompose": _decompose_work,
    "thermo.averaged_trajectory_closed": _trajectory_work,
}


class Tracer:
    """Call counts, self time and work counts per span name.

    A span's self time is its duration minus the time its child spans
    cover; the stack holds, for each open span, the child time seen so far.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.work: Counter = Counter()
        self._child_time: list[float] = []

    def span(self, name, fn, *args, **kwargs):
        self._child_time.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            child = self._child_time.pop()
            self.calls[name] += 1
            self.self_s[name] += duration - child
            if self._child_time:
                self._child_time[-1] += duration

    def _wrap(self, name, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if work is not None:
                for key, value in work(args).items():
                    self.work[f"{name}.{key}"] += value
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Rebind every target, in every loaded module of ``cyclewalk``."""
        modules = [
            mod
            for mod_name, mod in list(sys.modules.items())
            if mod_name == "cyclewalk" or mod_name.startswith("cyclewalk.")
        ]
        for layer, names in TARGETS.items():
            home = sys.modules[f"cyclewalk.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    bound = [k for k, v in vars(mod).items() if v is original]
                    for attr in bound:
                        setattr(mod, attr, wrapper)

    def report(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "work": dict(self.work),
        }

"""The benchmark's workloads and the seeded draw of their inputs.

Every workload is a list of ``cyclewalk`` CLI invocations at fixed sizes.
The seed picks only the Bloch start (gamma, phi) of ``sweep``,
``large_cycle`` and ``trajectory`` and the ``selftest`` seed;
``closed_forms`` is the same for every seed.

The draw, fixed for every later comparison:

* seed 0 is the paper's start (pi/3, pi/6);
* seed s > 0 draws from ``random.Random(s)``: u, v uniform in [0, 1),
  gamma = acos(1 - 2u) and phi = 2*pi*v, i.e. uniform on the Bloch sphere;
* a draw whose asymptotic chi (``chi_isotherm``) is below
  ``MIN_CHI_SHARE`` of the reference chi (the gamma = pi start) at any of
  ``DRAW_SIZES`` is discarded and the next pair is drawn.  chi_inf = 0
  (two points of the sphere at theta = pi/4) means infinite temperature;
  there ``mixing-sweep`` correctly exits 2.  Redrawing near those points
  keeps every invocation of every seed an expected exit 0; in 150 trial
  draws, starts down to 0.4% of the reference chi still exited 0.
"""

from __future__ import annotations

import math
import random

THETA = math.pi / 4
PAPER_START = (math.pi / 3, math.pi / 6)
MIN_CHI_SHARE = 0.01
DRAW_SIZES = (100, 200, 300, 1000, 4096)

# the theta ladder of scripts/run_markov.py
MARKOV_THETAS = (
    ("pi_over_8", math.pi / 8),
    ("pi_over_4", math.pi / 4),
    ("pi_over_3", math.pi / 3),
)


def bloch_start(seed: int) -> tuple[float, float]:
    """(gamma, phi) of the localized start for ``seed``; see the module doc."""
    if seed == 0:
        return PAPER_START
    from cyclewalk.thermo import chi_isotherm, chi_reference
    from cyclewalk.walk import WalkParams

    rng = random.Random(seed)
    while True:
        gamma = math.acos(1.0 - 2.0 * rng.random())
        phi = 2.0 * math.pi * rng.random()
        if all(
            chi_isotherm(WalkParams(n, THETA, gamma, phi))
            >= MIN_CHI_SHARE * chi_reference(n, THETA)
            for n in DRAW_SIZES
        ):
            return gamma, phi


def calls(name: str, seed: int) -> list[list[str]]:
    """The CLI argv lists of one repetition of workload ``name``.

    Outputs go to files named after the workload in the working directory,
    except ``selftest``, which reports on stdout.
    """
    gamma, phi = bloch_start(seed) if name != "closed_forms" else PAPER_START
    start = ["--theta", repr(THETA), "--gamma", repr(gamma), "--phi", repr(phi)]
    if name == "sweep":
        eps = ["--epsilon", "1e-2", "--epsilon", "1e-3", "--epsilon", "1e-4"]
        return [
            ["mixing-sweep", "--n-range", "100:300:100", "--t-max", "100000", *eps, *start,
             "--out", "sweep.csv"]
        ]
    if name == "large_cycle":
        eps = ["--epsilon", "1e-2", "--epsilon", "1e-3"]
        return [
            ["mixing-sweep", "--n", "4096", "--t-max", "2000", *eps, *start,
             "--out", "large_cycle.csv"]
        ]
    if name == "trajectory":
        return [
            ["simulate", "--n", "1000", "--t-max", "10000", *start, "--out", "simulate.csv"],
            ["selftest", "--seed", str(seed)],
        ]
    if name == "closed_forms":
        iso = ["isotherms", "--n", "100", "--grid", "181x181", "--theta", repr(THETA)]
        return [
            [*iso, "--out", "isotherms.csv"],
            [*iso, "--format", "json", "--out", "isotherms.json"],
            *(
                ["markov", "--theta", repr(theta), "--gamma", "0", "--t-max", "100",
                 "--out", f"markov_{label}.csv"]
                for label, theta in MARKOV_THETAS
            ),
        ]
    raise ValueError(f"unknown workload {name!r}")

import argparse
import math

import numpy as np
import pytest

from cyclewalk import WalkState, cli, localized_initial_state
from cyclewalk.spectral import decompose
from cyclewalk.walk import coin, coin_entries, iterate_arrays


@pytest.fixture
def rng():
    return np.random.default_rng(20230814)


def random_state(rng, n_sites: int) -> WalkState:
    """Haar-ish random normalized walk state on n_sites sites."""
    amps = rng.normal(size=(4, n_sites))
    a = amps[0] + 1j * amps[1]
    b = amps[2] + 1j * amps[3]
    norm = np.sqrt(np.sum(np.abs(a) ** 2 + np.abs(b) ** 2))
    return WalkState(a / norm, b / norm)


def decompose_localized(params):
    """The alpha/beta spectral solution of the localized start of ``params``."""
    return decompose(localized_initial_state(params), params.theta)


def direct_densities(states, theta, t_max):
    """Coin density entries (p_left, p_right, q), each (t_max + 1, B), of B
    states on one cycle after 0..t_max direct steps, summed one step at a
    time, so walks too long to store take O(B N) memory."""
    a, b = np.stack([s.a for s in states]), np.stack([s.b for s in states])
    entries = [coin_entries(*amplitudes) for amplitudes in iterate_arrays(a, b, coin(theta), t_max)]
    return tuple(np.array(x) for x in zip(*entries))


def hadamard_f_closed(n_sites: int) -> float:
    """The paper's closed form of the lattice sum f(N, pi/4), in powers of
    1 +- sqrt(2); it overflows for odd N >= 807 and even N >= 1612."""
    m = n_sites if n_sites % 2 else n_sites // 2
    plus = (1.0 + math.sqrt(2.0)) ** m
    minus = (1.0 - math.sqrt(2.0)) ** m
    return (plus + minus) / (plus - minus) * math.sqrt(2.0)


class _ReferenceParser(argparse.ArgumentParser):
    """Raises a ParameterError where argparse would exit with status 2."""

    def error(self, message):
        raise cli.ParameterError(message)


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI once parsed with, built from the same
    tables (``cli._SETTINGS``, ``cli._COMMANDS``) with the flags of every
    command, and with abbreviations off, as ``cli._parse_argv`` reads flags."""
    parser = _ReferenceParser(
        prog="cyclewalk",
        description="Coined quantum walks on N-cycles: simulations and sweeps.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, settings, _) in cli._COMMANDS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key in settings.split():
            p.add_argument("--" + key.replace("_", "-"), **cli._SETTINGS[key][2])
    return parser

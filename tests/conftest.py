import argparse
import math
import sys

import numpy as np
import pytest

from cyclewalk import (
    DegenerateSpectrumError,
    ParameterError,
    WalkState,
    cli,
    localized_initial_state,
)
from cyclewalk import spectral
from cyclewalk.spectral import decompose
from cyclewalk.thermo import chi_of_density
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


def count_spectral_calls(monkeypatch, names) -> dict:
    """{name: calls} of the ``cyclewalk.spectral`` functions ``names``,
    counted through every binding of them in a loaded ``cyclewalk`` module."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(spectral, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in [m for key, m in sys.modules.items() if key.split(".")[0] == "cyclewalk"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


def decompose_localized(params):
    """The alpha/beta spectral solution of the localized start of ``params``."""
    return decompose(localized_initial_state(params), params.theta)


def density_seminorm(rho1, rho2) -> float:
    """Distance |lambda+(rho1) - lambda+(rho2)| between two coin densities."""
    return abs(math.sqrt(chi_of_density(rho1)) - math.sqrt(chi_of_density(rho2)))


def direct_densities(states, theta, t_max):
    """Coin density entries (p_left, p_right, q), each (t_max + 1, B), of B
    states on one cycle after 0..t_max direct steps, summed one step at a
    time, so walks too long to store take O(B N) memory."""
    a, b = np.stack([s.a for s in states]), np.stack([s.b for s in states])
    entries = [coin_entries(*amplitudes) for amplitudes in iterate_arrays(a, b, coin(theta), t_max)]
    return tuple(np.array(x) for x in zip(*entries))


def long_double_densities(s0, theta, t_max):
    """Reference: (p_left, p_right, q) of direct steps in long double, whose
    coin takes cos and sin of theta in long double, so it is unitary to
    about 1e-19 per step."""
    c, s = np.cos(np.longdouble(theta)), np.sin(np.longdouble(theta))
    a, b = s0.a.astype(np.clongdouble), s0.b.astype(np.clongdouble)
    return np.array([coin_entries(*amplitudes) for amplitudes in iterate_arrays(a, b, (c, s), t_max)]).T


def rotation(a, b, sign):
    """R = Ad(X) as a (3, 3, ...) array: X rho X^dagger turns the Bloch vector
    (x, y, z) of rho by R, for X = [[a, b], [s conj(b), -s conj(a)]].

    Products of rounded step matrices carry |a|^2 + |b|^2 != 1, as
    fl(cos theta)^2 + fl(sin theta)^2 != 1, and R scales with it; dividing
    by it keeps R a rotation to roundoff.  The components broadcast.
    """
    def abs2(x):
        return x.real**2 + x.imag**2

    ab, cross, diff, total = a * b, a * b.conj(), b * b - a * a, a * a + b * b
    rot = np.array([
        [sign * diff.real, -sign * total.imag, 2 * sign * ab.real],
        [-sign * diff.imag, -sign * total.real, -2 * sign * ab.imag],
        [2 * cross.real, 2 * cross.imag, abs2(a) - abs2(b)],
    ])
    return rot / (abs2(a) + abs2(b))


def power_of_walk(theta: float, n_sites: int, t: int):
    """Giant-step oracle: M_k^t for every mode k as (a, b, s), from t direct
    steps of a delta, with :func:`rotation` turning it into Ad(M_k^t).

    The column (a, s conj(b)) of M_k^t is the unnormalized transform of the
    walk that starts on site 0 with left chirality.  The shift is exact on
    sites, so this M^t is as accurate as t direct steps.  The walk reaches
    sites -t..t only, so it runs on a cycle of 2t + 1 sites (or n_sites, if
    fewer) and is then laid onto the n_sites-cycle.
    """
    width = min(n_sites, 2 * t + 1)
    delta = np.zeros(width)
    delta[0] = 1.0
    # the real coin keeps the real delta real, so it steps as float arrays
    for walked_a, walked_b in iterate_arrays(delta, np.zeros(width), coin(theta), t):
        pass
    reach = np.arange(-t, t + 1)
    a = np.zeros(n_sites, complex)
    b = np.zeros(n_sites, complex)
    a[reach % n_sites], b[reach % n_sites] = walked_a[reach % width], walked_b[reach % width]
    sign = (-1.0) ** (t + 1)
    return np.fft.fft(a), sign * np.fft.fft(b).conj(), sign


def phase_base(n_sites: int, theta: float, steps: int) -> np.ndarray:
    """Base oracle: e^{i steps alpha_k} of the folded modes k of
    ``spectral._folded_modes`` on an n_sites-cycle, through the phase angle.

    omega_k = atan2(c sin phi_k, hypot(s, c cos phi_k)), with (c, s) = (cos
    theta, sin theta) and phi_k = 2*pi*k/N, and then alpha_k = -(2 omega_k +
    pi) gives (-1)^steps (cos 2 steps omega_k - i sin 2 steps omega_k), all
    in long double and rounded once to complex.
    """
    m = n_sites // 2 if n_sites % 2 == 0 else n_sites
    k = np.arange(m // 2 + 1)
    pi = 4 * np.arctan(np.longdouble(1))
    c, s = np.cos(np.longdouble(theta)), np.sin(np.longdouble(theta))
    sin_phi, cos_phi = np.sin(pi * np.stack([4 * k, n_sites - 4 * k]) / (2 * n_sites))
    angle = 2 * steps * np.arctan2(c * sin_phi, np.hypot(s, c * cos_phi))
    return ((-1) ** steps * (np.cos(angle) - 1j * np.sin(angle))).astype(complex)


def f_g_h(n_sites: int, theta: float) -> tuple[float, float, float]:
    """The paper's lattice sums of the localized-start asymptotics, an
    oracle of ``thermo._limit_sums``: m = (h + f) / 2 and a_yy = sin^2(theta) g.

    f is the mean of 1/(1 - cos^2(theta) sin^2(2*pi*k/N)) over the N modes;
    g and h are the derived combinations (f - 1)/cos^2(theta) and
    2/cos^2(theta) + (1 - 2/cos^2(theta)) f.  g and h are undefined at
    theta = pi/2; the sum itself is singular only at theta = 0 on a cycle
    divisible by 4.
    """
    if n_sites < 3:
        raise ParameterError(f"n_sites must be >= 3, got {n_sites}")
    k = np.arange(n_sites)
    denom = 1.0 - np.cos(theta) ** 2 * np.sin(2 * np.pi * k / n_sites) ** 2
    if np.any(denom < 1e-15):
        raise DegenerateSpectrumError(
            "singular term in the lattice sum (theta = 0, n_sites divisible by 4)"
        )
    f = float(np.mean(1.0 / denom))
    cos_sq = math.cos(theta) ** 2
    if cos_sq < 1e-15:
        raise ParameterError("g and h are undefined at theta = pi/2")
    g = (f - 1.0) / cos_sq
    h = 2.0 / cos_sq + (1.0 - 2.0 / cos_sq) * f
    return f, g, h


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

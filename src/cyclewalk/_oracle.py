"""Oracle checks shared by ``cyclewalk selftest`` and the acceptance tests.

Each check compares one route to a quantity with an independent one (direct
iteration, the spectral limit, the iterated chain) and returns its worst
absolute deviation; the callers draw the inputs and hold the bounds.  The
walk checks take states at time 0 on one cycle and ``direct``, their
:func:`direct_series`; :func:`direct_densities` streams the coin densities
of the same walk in O(B N) memory, for walks too long to store.
"""

from __future__ import annotations

import math

import numpy as np

from .markov import MarkovState, markov_solution, markov_step
from .spectral import amplitudes_trajectory, coin_trajectory, decompose
from .thermo import (
    asymptotic_density,
    asymptotic_density_localized,
    averaged_trajectory_closed,
    chi_isotherm,
    chi_of_density,
    decompose_localized,
)
from .walk import WalkParams, WalkState, coin_entries, iterate_arrays


def bloch_points(rng, count: int = 20) -> list[tuple[float, float]]:
    """``count`` Bloch angles (gamma, phi), uniform in [0, pi] x [0, 2*pi),
    from ``rng.uniform`` (:class:`random.Random` or a numpy Generator)."""
    return [
        (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(count)
    ]


def _walk(states: list[WalkState], theta: float, t_max: int):
    """The (B, N) amplitudes of B states on one cycle after 0..t_max steps."""
    a, b = np.stack([s.a for s in states]), np.stack([s.b for s in states])
    return iterate_arrays(a, b, theta, t_max)


def direct_series(states: list[WalkState], theta: float, t_max: int) -> tuple[np.ndarray, ...]:
    """(t_max + 1, B, N) amplitudes (a, b) of B states on one cycle; row t
    holds every state after t direct steps."""
    a, b = zip(*_walk(states, theta, t_max))
    return np.stack(a), np.stack(b)


def direct_densities(states: list[WalkState], theta: float, t_max: int) -> tuple[np.ndarray, ...]:
    """Coin density entries (p_left, p_right, q), each (t_max + 1, B), of
    the walk of :func:`direct_series`, summed one step at a time."""
    entries = [coin_entries(*amplitudes) for amplitudes in _walk(states, theta, t_max)]
    return tuple(np.array(x) for x in zip(*entries))


def _worst(per_state, direct) -> float:
    """Largest deviation between per-state results, each a tuple of (T, ...)
    arrays, and the (T, B, ...) direct arrays they correspond to."""
    stacked = (np.stack(x, axis=1) for x in zip(*per_state))
    return max(float(np.abs(x - y).max()) for x, y in zip(stacked, direct))


def series_vs_direct(states: list[WalkState], theta: float, direct) -> float:
    """:func:`coin_trajectory` against the densities of ``direct``."""
    series = (coin_trajectory(s, theta, len(direct[0]) - 1) for s in states)
    return _worst(series, coin_entries(*direct))


def closed_amplitudes_vs_direct(states: list[WalkState], theta: float, direct) -> float:
    """:func:`amplitudes_trajectory` against ``direct``."""
    ts = np.arange(len(direct[0]))
    closed = (amplitudes_trajectory(decompose(s, theta), ts) for s in states)
    return _worst(closed, direct)


def closed_average_vs_direct(states: list[WalkState], theta: float, direct) -> float:
    """:func:`averaged_trajectory_closed` against running averages of the
    densities of ``direct``: the average at t = 1..T takes rows 0..t-1."""
    ts = np.arange(1, len(direct[0]))
    closed = (averaged_trajectory_closed(decompose(s, theta), ts) for s in states)
    densities = coin_entries(direct[0][:-1], direct[1][:-1])
    return _worst(closed, (np.cumsum(x, axis=0) / ts[:, None] for x in densities))


def localized_vs_spectral(params: list[WalkParams]) -> tuple[float, float]:
    """:func:`asymptotic_density_localized` and :func:`chi_isotherm` against
    the spectral limit :func:`asymptotic_density`: (density dev, chi dev)."""
    worst = worst_chi = 0.0
    for p in params:
        closed = asymptotic_density_localized(p)
        limit = asymptotic_density(decompose_localized(p))
        worst = max(
            worst,
            abs(closed.p_left - limit.p_left),
            abs(closed.p_right - limit.p_right),
            abs(closed.q - limit.q),
        )
        worst_chi = max(worst_chi, abs(chi_of_density(limit) - chi_isotherm(p)))
    return worst, worst_chi


def markov_vs_iterated(chains: list[tuple[float, float]], t_max: int) -> float:
    """:func:`markov_solution` against the iterated :func:`markov_step`,
    t = 0..t_max, for each (theta, p_left at t = 0) of ``chains``."""
    worst = 0.0
    for theta, p0 in chains:
        start = walked = MarkovState(p0, 1 - p0)
        for t in range(t_max + 1):
            solved = markov_solution(start, theta, t)
            worst = max(
                worst, abs(solved.p_left - walked.p_left), abs(solved.p_right - walked.p_right)
            )
            walked = markov_step(walked, theta)
    return worst

"""Oracle checks shared by ``cyclewalk selftest`` and the acceptance tests.

Each check compares one route to a quantity with an independent one (direct
iteration, the spectral limit, the iterated chain) and returns its worst
absolute deviation; the callers draw the inputs and hold the bounds.  The
walk checks take states at time 0 on one cycle and step them together
through :func:`direct_series`.
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
from .walk import WalkParams, WalkState, step_arrays


def bloch_points(rng, count: int = 20) -> list[tuple[float, float]]:
    """``count`` Bloch angles (gamma, phi), uniform in [0, pi] x [0, 2*pi),
    from ``rng.uniform`` (:class:`random.Random` or a numpy Generator)."""
    return [
        (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(count)
    ]


def direct_series(
    states: list[WalkState], theta: float, t_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(t_max + 1, B, N) amplitudes (a, b) of B states on one cycle; row t
    holds every state after t direct steps."""
    a = np.empty((t_max + 1, len(states), states[0].n_sites), complex)
    b = np.empty_like(a)
    a[0], b[0] = [s.a for s in states], [s.b for s in states]
    for t in range(t_max):
        a[t + 1], b[t + 1] = step_arrays(a[t], b[t], theta)
    return a, b


def _direct_densities(states: list[WalkState], theta: float, t_max: int) -> tuple[np.ndarray, ...]:
    """Coin density entries (p_left, p_right, q) of the directly stepped
    states, each (t_max + 1, B)."""
    a, b = direct_series(states, theta, t_max)
    return (
        np.sum(np.abs(a) ** 2, axis=-1),
        np.sum(np.abs(b) ** 2, axis=-1),
        np.sum(a * np.conj(b), axis=-1),
    )


def _worst(per_state, direct) -> float:
    """Largest deviation between per-state results, each a tuple of (T, ...)
    arrays, and the (T, B, ...) direct arrays they correspond to."""
    stacked = (np.stack(x, axis=1) for x in zip(*per_state))
    return max(float(np.abs(x - y).max()) for x, y in zip(stacked, direct))


def series_vs_direct(states: list[WalkState], theta: float, t_max: int) -> float:
    """:func:`coin_trajectory` against the directly stepped densities, t = 0..t_max."""
    series = (coin_trajectory(s, theta, t_max) for s in states)
    return _worst(series, _direct_densities(states, theta, t_max))


def closed_amplitudes_vs_direct(states: list[WalkState], theta: float, t_max: int) -> float:
    """:func:`amplitudes_trajectory` against direct stepping, t = 0..t_max."""
    ts = np.arange(t_max + 1)
    closed = (amplitudes_trajectory(decompose(s, theta), ts) for s in states)
    return _worst(closed, direct_series(states, theta, t_max))


def closed_average_vs_direct(states: list[WalkState], theta: float, t_max: int) -> float:
    """:func:`averaged_trajectory_closed` against running averages of the
    directly stepped densities, t = 1..t_max (steps 0..t-1)."""
    ts = np.arange(1, t_max + 1)
    closed = (averaged_trajectory_closed(decompose(s, theta), ts) for s in states)
    direct = _direct_densities(states, theta, t_max - 1)
    return _worst(closed, (np.cumsum(x, axis=0) / ts[:, None] for x in direct))


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

"""Oracle checks shared by ``cyclewalk selftest`` and the acceptance tests.

Each check compares one route to a quantity with an independent one (direct
iteration, the spectral limit, the iterated chain) and returns its worst
absolute deviation; the callers draw the inputs and hold the bounds.  The
walk checks take the starts at time 0 on one cycle, or their spectral
decompositions, and ``direct``, their series from :func:`direct_walks`,
which walks several cycles in one stepping loop.  :func:`walk_checks` runs
the four walk checks as ``selftest`` does.
"""

from __future__ import annotations

import math

import numpy as np

from .markov import MarkovState, markov_solution, markov_step
from .spectral import (
    SpectralDecomposition,
    _folded_modes,
    coin_trajectory,
    decompose,
    inverse_fourier,
    mode_values_at,
)
from .thermo import asymptotic_density_localized, averaged_trajectory_closed, chi_isotherm
from .walk import WalkParams, WalkState, coin, coin_entries, iterate_arrays, localized_initial_state


def bloch_points(rng, count: int = 20) -> list[tuple[float, float]]:
    """``count`` Bloch angles (gamma, phi), uniform in [0, pi] x [0, 2*pi),
    from ``rng.uniform`` (:class:`random.Random` or a numpy Generator)."""
    return [
        (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi)))
        for _ in range(count)
    ]


def direct_walks(walks: list[tuple[list[WalkState], float]], t_max: int) -> list[tuple]:
    """The (t_max + 1, B, N) amplitudes (a, b) of the B states of each
    (states, theta) of ``walks``; row t holds every state after t direct
    steps.  One stepping loop walks them all: every state is a cycle of its
    own on one flat site axis, back to back, with its own coin."""
    states = [s for group, _ in walks for s in group]
    sizes = [s.n_sites for s in states]
    last = np.cumsum(sizes) - 1
    thetas = [theta for group, theta in walks for _ in group]
    site_coin = tuple(np.repeat(x, sizes) for x in zip(*map(coin, thetas)))
    a = np.concatenate([s.a for s in states])
    b = np.concatenate([s.b for s in states])
    # filled row by row: stacking a list of the rows would hold them twice
    a_b = np.empty((2, t_max + 1, a.size), complex)
    for t, row in enumerate(iterate_arrays(a, b, site_coin, t_max, (last + 1 - sizes, last))):
        a_b[:, t] = row
    a, b = a_b
    series, lo = [], 0
    for group, _ in walks:
        hi = lo + sum(s.n_sites for s in group)
        shape = (t_max + 1, len(group), -1)
        series.append((a[:, lo:hi].reshape(shape), b[:, lo:hi].reshape(shape)))
        lo = hi
    return series


def _worst(got, direct) -> float:
    """Largest deviation between two tuples of (T, B, ...) arrays."""
    return max(float(np.abs(x - y).max()) for x, y in zip(got, direct))


def _stacked(per_state):
    """Per-state results, each a tuple of (T, ...) arrays, as (T, B, ...) arrays."""
    return [np.stack(x, axis=1) for x in zip(*per_state)]


def series_vs_direct(states: list[WalkState], theta: float, direct) -> float:
    """:func:`coin_trajectory` of the batch ``states`` against the densities of ``direct``."""
    series = coin_trajectory(states, theta, len(direct[0]) - 1)
    return _worst([x.T for x in series], coin_entries(*direct))


def closed_amplitudes_vs_direct(decomps: list[SpectralDecomposition], direct) -> float:
    """The :func:`mode_values_at` amplitudes of each start's decomposition against ``direct``."""
    ts = np.arange(len(direct[0]))
    return _worst(_stacked(inverse_fourier(*mode_values_at(d, ts)) for d in decomps), direct)


def closed_average_vs_direct(decomps: list[SpectralDecomposition], direct) -> float:
    """:func:`averaged_trajectory_closed` against running averages of the
    densities of ``direct``: the average at t = 1..T takes rows 0..t-1."""
    ts = np.arange(1, len(direct[0]))
    closed = _stacked(averaged_trajectory_closed(d, ts) for d in decomps)
    densities = coin_entries(direct[0][:-1], direct[1][:-1])
    return _worst(closed, [np.cumsum(x, axis=0) / ts[:, None] for x in densities])


def localized_vs_spectral(groups: list[list[WalkParams]]) -> tuple[float, float]:
    """:func:`asymptotic_density_localized` and :func:`chi_isotherm`, one map
    of each start's Bloch vector, against the limit that the scans read, r_inf
    of one fold per group, the starts of one cycle: (density dev, chi dev)."""
    worst = worst_chi = 0.0
    for group in groups:
        folded = _folded_modes([localized_initial_state(p) for p in group], group[0].theta)
        for p, r in zip(group, folded[4]):
            rho = asymptotic_density_localized(p)
            limit = ((1.0 + r[2]) / 2, (1.0 - r[2]) / 2, complex(r[0], -r[1]) / 2)
            worst = max(worst, *(abs(x - y) for x, y in zip((rho.p_left, rho.p_right, rho.q), limit)))
            worst_chi = max(worst_chi, abs(math.hypot(*r) ** 2 / 4 - chi_isotherm(p)))
    return worst, worst_chi


def walk_checks(groups: list[list[WalkParams]], t_max: int) -> list[float]:
    """The worst deviations of the four walk checks above, over the localized
    starts of ``groups``, one cycle each: every cycle is walked for t_max
    steps in one stepping loop, and each start is decomposed once (checks 2-3)."""
    walks = [([localized_initial_state(p) for p in group], group[0].theta) for group in groups]
    directs = direct_walks(walks, t_max)
    decomps = [[decompose(s, theta) for s in states] for states, theta in walks]
    return [
        max(series_vs_direct(*walk, direct) for walk, direct in zip(walks, directs)),
        max(map(closed_amplitudes_vs_direct, decomps, directs)),
        max(map(closed_average_vs_direct, decomps, directs)),
        max(localized_vs_spectral(groups)),
    ]


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

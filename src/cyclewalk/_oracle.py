"""Oracle checks shared by ``cyclewalk selftest`` and the acceptance tests.

Each check compares one route to a quantity with an independent one (direct
iteration, an exact identity, the spectral limit, the iterated chain) and
returns its worst absolute deviation; the callers draw the inputs and hold
the bounds.  The walk checks read :func:`coin_trajectory` of localized
starts, the one spectral route of the commands: against ``direct``, their
series from :func:`direct_walks`, which walks several cycles in one stepping
loop, and on the cycles of the light cone and the fold.  :func:`walk_checks`
runs the four walk checks as ``selftest`` does.
"""

from __future__ import annotations

import math

import numpy as np

from .markov import MarkovState, markov_solution, markov_step
from .spectral import _folded_modes, coin_trajectory
from .thermo import asymptotic_density_localized, chi_isotherm
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
    """Largest deviation between two tuples of arrays."""
    return max(float(np.abs(x - y).max()) for x, y in zip(got, direct))


def series_vs_direct(states: list[WalkState], theta: float, direct) -> float:
    """:func:`coin_trajectory` of the batch ``states`` against the densities of ``direct``."""
    series = coin_trajectory(states, theta, len(direct[0]) - 1)
    return _worst([x.T for x in series], coin_entries(*direct))


def _series_on(group: list[WalkParams], n: int, t_max: int):
    """The :func:`coin_trajectory` of the localized starts of ``group`` on an n-cycle."""
    starts = [localized_initial_state(WalkParams(n, p.theta, p.gamma, p.phi, p.energy_scale))
              for p in group]
    return coin_trajectory(starts, group[0].theta, t_max)


def light_cone_odd_vs_even(group: list[WalkParams], t_max: int) -> float:
    """The series of ``group``'s starts on the cycles of 2 t_max + 1 and 2 t_max
    + 2 sites, of which only the even one folds mode k + N/2 onto k: from site
    0 the walk reaches sites -t..t only, so on both it is the line's (Nayak
    and Vishwanath, quant-ph/0010117)."""
    return _worst(_series_on(group, 2 * t_max + 1, t_max), _series_on(group, 2 * t_max + 2, t_max))


def fold_odd_vs_double(group: list[WalkParams], t_max: int) -> float:
    """The series of ``group``'s starts on the m-cycle and the 2m-cycle, m =
    N | 1 odd: at step t the 2m-cycle's walk from site 0 holds sites of t's
    parity only, which lay onto the m-cycle's sites one to one."""
    m = group[0].n_sites | 1
    return _worst(_series_on(group, m, t_max), _series_on(group, 2 * m, t_max))


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
    steps in one stepping loop (check 1), the light cone takes the first
    cycle's starts (check 2) and the fold every cycle's (check 3)."""
    walks = [([localized_initial_state(p) for p in group], group[0].theta) for group in groups]
    directs = direct_walks(walks, t_max)
    return [
        max(series_vs_direct(*walk, direct) for walk, direct in zip(walks, directs)),
        light_cone_odd_vs_even(groups[0], t_max),
        max(fold_odd_vs_double(group, t_max) for group in groups),
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

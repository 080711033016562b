"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest output.
"""

import inspect
import math

import numpy as np

from cyclewalk import (
    MarkovState,
    NonThermalizingError,
    WalkParams,
    asymptotic_density_localized,
    chi_of_density,
    chi_reference,
    f_g_h,
    localized_initial_state,
    markov_step,
    markov_thermalization_time,
    mixing_time,
    step,
    temperature_from_chi,
    thermalization_time,
    transient_temperature,
)
from cyclewalk._oracle import (
    bloch_points,
    closed_amplitudes_vs_direct,
    closed_average_vs_direct,
    direct_walks,
    localized_vs_spectral,
    markov_vs_iterated,
)
from cyclewalk.spectral import decompose
from cyclewalk.thermo import asymptotic_density, averaged_trajectory_closed
from cyclewalk.spectral import coin_trajectory
from cyclewalk.thermo import beta_of_chi, running_chi
from cyclewalk.times import _asymptotics
from cyclewalk.walk import coin, iterate_arrays

from conftest import decompose_localized, hadamard_f_closed

THETAS = (math.pi / 6, math.pi / 4, math.pi / 3, 1.3)
FIG3 = dict(theta=math.pi / 4, gamma=math.pi / 3, phi=math.pi / 6)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}  {name}  [{detail}]")
    assert ok, f"{name}: {detail}"


def bloch_states(rng, n, theta):
    """The localized starts at :func:`bloch_points` on one cycle."""
    return [localized_initial_state(WalkParams(n, theta, g, p)) for g, p in bloch_points(rng)]


def bloch_walk(rng, n, theta, t_max):
    """(decompositions, direct series) of :func:`bloch_states`, as the closed-form checks take them."""
    states = bloch_states(rng, n, theta)
    return [decompose(s, theta) for s in states], direct_walks([(states, theta)], t_max)[0]


def test_batched_step_is_walk_step():
    rng = np.random.default_rng(5)
    for n in (3, 4, 16):
        for theta in (0.0, *THETAS, math.pi / 2):
            states = bloch_states(rng, n, theta)
            for a, b in zip(*direct_walks([(states, theta)], n + 2)[0]):
                assert np.array_equal(a, np.stack([state.a for state in states]))
                assert np.array_equal(b, np.stack([state.b for state in states]))
                states = [step(state, theta) for state in states]


def test_direct_walks_are_the_per_cycle_series():
    # cycles of every size class, with unequal numbers of starts, laid back to back
    rng = np.random.default_rng(6)
    thetas = (0.0, *THETAS, math.pi / 2)
    for t_max in (0, 1, 40):
        walks = []
        for n, theta in zip((3, 4, 5, 12, 16, 7), thetas):
            states = bloch_states(rng, n, theta)[: 1 + len(walks)]
            walks.append((states, theta))
        for (states, theta), series in zip(walks, direct_walks(walks, t_max)):
            # each cycle on its own: one batch, the scalar coin and the default ends
            a, b = np.stack([s.a for s in states]), np.stack([s.b for s in states])
            alone = [np.stack(x) for x in zip(*iterate_arrays(a, b, coin(theta), t_max))]
            for got, want in zip(series, alone):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_spectral_direct_equivalence():
    rng = np.random.default_rng(1)
    worst = max(
        closed_amplitudes_vs_direct(*bloch_walk(rng, n, theta, 500))
        for n in range(3, 17)
        for theta in THETAS
    )
    verdict("spectral/direct equivalence", worst < 1e-10, f"max dev {worst:.3e}")


def test_closed_form_average_matches_numeric():
    rng = np.random.default_rng(2)
    worst = max(
        closed_average_vs_direct(*bloch_walk(rng, n, theta, 200))
        for n in range(3, 17)
        for theta in THETAS
    )
    verdict("closed-form average vs numeric", worst < 1e-10, f"max dev {worst:.3e}")


def test_hadamard_lattice_sums():
    dev3 = abs(f_g_h(3, math.pi / 4)[0] - 1.4)
    dev3c = abs(hadamard_f_closed(3) - 1.4)
    dev4 = abs(f_g_h(4, math.pi / 4)[0] - 1.5)
    dev4c = abs(hadamard_f_closed(4) - 1.5)
    dev_inf = abs(f_g_h(10**4, math.pi / 4)[0] - math.sqrt(2))
    ok = max(dev3, dev3c, dev4, dev4c) < 1e-12 and dev_inf < 1e-6
    verdict(
        "hadamard lattice sums f(3)=1.4, f(4)=1.5, f(inf)=sqrt(2)",
        ok,
        f"exact dev {max(dev3, dev3c, dev4, dev4c):.3e}, limit dev {dev_inf:.3e}",
    )


def test_localized_asymptotics_match_spectral():
    rng = np.random.default_rng(3)
    params = [
        WalkParams(n, theta, gamma, phi)
        for n in (3, 5, 8, 100)
        for theta in (math.pi / 6, math.pi / 4, math.pi / 3)
        for gamma, phi in bloch_points(rng)
    ]
    worst, _ = localized_vs_spectral(params)
    verdict("localized asymptotics vs spectral", worst < 1e-10, f"max dev {worst:.3e}")


def test_reference_chi_and_temperature():
    chi_line = (3 - 2 * math.sqrt(2)) / 4
    t_line = 2 / math.log(1 + math.sqrt(2))
    worst_chi = worst_t = 0.0
    for n in (100, 101, 200):
        oracle = asymptotic_density(
            decompose_localized(WalkParams(n, math.pi / 4, math.pi, 0.0))
        )
        chi = chi_of_density(oracle)
        worst_chi = max(worst_chi, abs(chi - chi_line))
        worst_t = max(worst_t, abs(temperature_from_chi(chi, 1.0) - t_line))
        worst_chi = max(worst_chi, abs(chi_reference(n, math.pi / 4) - chi_line))
    ok = worst_chi < 1e-6 and worst_t < 1e-4
    verdict(
        "reference chi and temperature at theta=pi/4",
        ok,
        f"chi dev {worst_chi:.3e}, T dev {worst_t:.3e} (T={t_line:.4f})",
    )


def _gamma_for_ratio(ratio, chi_ref, lo, hi):
    """Bisection for the phi=0 Bloch angle whose asymptotic T/T0 is ratio."""
    target = (math.tanh(math.atanh(2 * math.sqrt(chi_ref)) / ratio) / 2) ** 2

    def chi_at(g):
        return chi_of_density(
            asymptotic_density_localized(WalkParams(3, math.pi / 4, g, 0.0))
        )

    f_lo = chi_at(lo) - target
    for _ in range(80):
        mid = (lo + hi) / 2
        f_mid = chi_at(mid) - target
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_transient_temperature_settles():
    chi_ref = chi_reference(3, math.pi / 4)
    t_ref = temperature_from_chi(chi_ref, 1.0)
    starts = {
        0.8: _gamma_for_ratio(0.8, chi_ref, 1e-6, math.pi / 4),
        1.0: math.pi,
        1.1: _gamma_for_ratio(1.1, chi_ref, math.pi / 4, 3 * math.pi / 4),
    }
    worst = 0.0
    for ratio, gamma in starts.items():
        params = WalkParams(3, math.pi / 4, gamma, 0.0)
        dec = decompose_localized(params)
        asym_ratio = (
            transient_temperature(asymptotic_density(dec), 1.0).temperature / t_ref
        )
        assert abs(asym_ratio - ratio) < 1e-6
        ts = np.arange(200, 501)
        p_left, p_right, q = averaged_trajectory_closed(dec, ts)
        chi = np.maximum(0.25 - (p_left * p_right - np.abs(q) ** 2), 0.0)
        temps = 2.0 / np.log((1 + 2 * np.sqrt(chi)) / (1 - 2 * np.sqrt(chi)))
        worst = max(worst, float(np.abs(temps / t_ref - asym_ratio).max() / asym_ratio))
    verdict(
        "transient temperature within 2% of its limit by t=200",
        worst < 0.02,
        f"max rel dev {worst:.4f} over t in [200,500], ratios 0.8/1/1.1",
    )


def test_mixing_time_scaling():
    t_max = 10**4
    tau_coarse = mixing_time(WalkParams(100, **FIG3), 1e-2, t_max)
    tau_fine = mixing_time(WalkParams(100, **FIG3), 1e-3, t_max)
    ratio = tau_fine.tau / tau_coarse.tau
    ok_a = 5 <= ratio <= 20 and tau_fine.satisfied

    # The plateau in N sets in once N is large relative to the probed time
    # horizon ~1/eps; at eps = 1e-2 it holds from N = 50 onward.
    tau_50 = mixing_time(WalkParams(50, **FIG3), 1e-2, t_max).tau
    tau_200 = mixing_time(WalkParams(200, **FIG3), 1e-2, t_max).tau
    plateau = abs(tau_200 - tau_50) / tau_50
    ok_b = plateau < 0.1

    therm = thermalization_time(
        WalkParams(100, **FIG3), tau_fine.c_constant * 1e-3, t_max
    )
    cross = abs(tau_fine.tau - therm.tau)
    ok_c = cross <= max(3, 0.05 * tau_fine.tau)
    verdict(
        "mixing-time scaling (1/eps law, plateau, c-rescaled cross-check)",
        ok_a and ok_b and ok_c,
        f"ratio {ratio:.2f}, plateau {plateau:.3f}, cross dev {cross}",
    )


def test_eigenvalue_beta_linearization():
    params = WalkParams(100, **FIG3)
    lam_inf, beta_inf, c, _ = _asymptotics(params)
    chi = running_chi(*coin_trajectory(localized_initial_state(params), params.theta, 10**5 - 1))
    lam_plus, beta = 0.5 + np.sqrt(chi), beta_of_chi(chi, params.energy_scale)
    # t = 10^3..10^5
    x = (beta[10**3 - 1 :] - beta_inf) / c
    y = lam_plus[10**3 - 1 :] - lam_inf
    slope = float(np.dot(x, y) / np.dot(x, x))
    verdict(
        "eigenvalue/beta linearization slope",
        abs(slope - 1.0) < 0.05,
        f"slope {slope:.5f}",
    )


def test_markov_suite():
    rng = np.random.default_rng(4)
    chains = [(rng.uniform(0, math.pi / 2), rng.uniform(0, 1)) for _ in range(5)]
    worst = markov_vs_iterated(chains, 1000)
    ok_solution = worst < 1e-14

    one_step = markov_step(MarkovState(1.0, 0.0), math.pi / 4)
    ok_hadamard = abs(one_step.p_left - 0.5) < 1e-15

    try:
        markov_thermalization_time(MarkovState(1.0, 0.0), math.pi / 2, 1e-4)
        ok_flip_flop = False
    except NonThermalizingError:
        ok_flip_flop = True

    worst_gap = 0.0
    for theta in (0.5, math.pi / 3, 1.2):
        for eps in (1e-3, 1e-4, 1e-5):
            formula, empirical = markov_thermalization_time(
                MarkovState(0.95, 0.05), theta, eps
            )
            worst_gap = max(worst_gap, abs(empirical - formula))
    ok_formula = worst_gap <= 1.0 + 1e-9

    sig = inspect.signature(markov_thermalization_time)
    ok_no_n = not any("n" == p or "site" in p for p in sig.parameters)

    ok = ok_solution and ok_hadamard and ok_flip_flop and ok_formula and ok_no_n
    verdict(
        "markov suite (closed solution, hadamard, flip-flop, formula, no N)",
        ok,
        f"solution dev {worst:.3e}, formula gap {worst_gap:.3f}",
    )


def test_antipodal_temperature_symmetry():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.uniform(0, math.pi))
        phi = float(rng.uniform(0, math.pi))
        t1 = temperature_from_chi(
            min(
                chi_of_density(
                    asymptotic_density_localized(WalkParams(7, math.pi / 4, gamma, phi))
                ),
                0.25,
            ),
            1.0,
        )
        t2 = temperature_from_chi(
            min(
                chi_of_density(
                    asymptotic_density_localized(
                        WalkParams(7, math.pi / 4, math.pi - gamma, phi + math.pi)
                    )
                ),
                0.25,
            ),
            1.0,
        )
        worst = max(worst, abs(t1 - t2))
    verdict(
        "antipodal Bloch symmetry of the asymptotic temperature",
        worst < 1e-12,
        f"max dev {worst:.3e}",
    )

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cyclewalk.times
from cyclewalk import (
    CoinDensity,
    ParameterError,
    WalkParams,
    mixing_time,
    thermalization_time,
)
from cyclewalk.spectral import _folded_modes, coin_trajectory
from cyclewalk.thermo import (
    _limit_sums,
    asymptotic_density,
    averaged_trajectory_closed,
    beta_of_chi,
    chi_reference,
    running_chi,
)
from cyclewalk.times import (
    _asymptotics,
    _beta_band,
    _horizon,
    _therm_last,
    convergence_sweep,
)
from cyclewalk.walk import MAX_STEPS, localized_initial_state

from conftest import count_spectral_calls, decompose_localized, density_seminorm

FIG3_PARAMS = dict(theta=math.pi / 4, gamma=math.pi / 3, phi=math.pi / 6)


class TestSeminorm:
    def test_identical_zero(self):
        rho = CoinDensity(0.6, 0.4, 0.1)
        assert density_seminorm(rho, rho) == 0.0

    def test_pure_vs_mixed(self):
        assert abs(density_seminorm(CoinDensity(1, 0, 0), CoinDensity(0.5, 0.5, 0)) - 0.5) < 1e-15

    def test_symmetric(self):
        r1, r2 = CoinDensity(0.7, 0.3, 0.05), CoinDensity(0.55, 0.45, 0.2)
        assert density_seminorm(r1, r2) == density_seminorm(r2, r1)

    def test_subadditive_on_trajectory(self):
        # |lam+(r1) - lam+(r3)| <= |lam+(r1) - lam+(r2)| + |lam+(r2) - lam+(r3)|
        dec = decompose_localized(WalkParams(5, **FIG3_PARAMS))
        from cyclewalk.thermo import averaged_density_closed

        r = [averaged_density_closed(dec, t) for t in (3, 17, 80)]
        assert density_seminorm(r[0], r[2]) <= (
            density_seminorm(r[0], r[1]) + density_seminorm(r[1], r[2]) + 1e-15
        )


class TestMixingTime:
    def test_huge_epsilon_immediate(self):
        params = WalkParams(5, **FIG3_PARAMS)
        report = mixing_time(params, 0.5, 100)
        assert report.tau == 1
        assert report.satisfied

    def test_tau_is_last_violation_plus_one(self):
        params = WalkParams(50, **FIG3_PARAMS)
        report = mixing_time(params, 1e-2, 5000)
        assert report.tau == report.last_violation + 1
        assert report.satisfied
        # the step just before tau violates, everything at/after tau does not
        dec = decompose_localized(params)
        limit = asymptotic_density(dec)
        from cyclewalk.thermo import averaged_density_closed

        if report.tau > 1:
            before = averaged_density_closed(dec, report.tau - 1)
            assert density_seminorm(before, limit) > 1e-2

    def test_monotone_in_epsilon(self):
        params = WalkParams(30, **FIG3_PARAMS)
        taus = [mixing_time(params, e, 20000).tau for e in (1e-2, 3e-3, 1e-3)]
        assert taus[0] <= taus[1] <= taus[2]

    def test_inverse_epsilon_scaling(self):
        params = WalkParams(100, **FIG3_PARAMS)
        tau_coarse = mixing_time(params, 1e-2, 10**4).tau
        tau_fine = mixing_time(params, 1e-3, 10**4).tau
        assert 5 <= tau_fine / tau_coarse <= 20

    def test_large_n_plateau(self):
        tau_50 = mixing_time(WalkParams(50, **FIG3_PARAMS), 1e-2, 10**4).tau
        tau_200 = mixing_time(WalkParams(200, **FIG3_PARAMS), 1e-2, 10**4).tau
        assert abs(tau_200 - tau_50) / tau_50 < 0.1

    def test_invalid_arguments(self):
        params = WalkParams(5, **FIG3_PARAMS)
        with pytest.raises(ParameterError):
            mixing_time(params, 0.0, 100)
        with pytest.raises(ParameterError):
            mixing_time(params, 1e-2, 0)
        for scan in (mixing_time, thermalization_time):
            for epsilon in (math.nan, math.inf):
                with pytest.raises(ParameterError):
                    scan(params, epsilon, 1000)

    def test_empty_epsilon_list_rejected(self):
        # all([]) is true, so an empty list used to reach min() in _horizon
        with pytest.raises(ParameterError, match="at least one threshold"):
            convergence_sweep(WalkParams(5, math.pi / 4, 1.0, 1.0), [], 100)


class TestThermalizationTime:
    def test_huge_epsilon_immediate(self):
        # the single-term average is a pure coin, read as e0*beta(1) =
        # atanh(1 - 2**-53); only a threshold above that makes every t compliant
        report = thermalization_time(WalkParams(5, **FIG3_PARAMS), 25.0, 100)
        assert report.tau == 1

    @pytest.mark.parametrize(
        "gamma, phi",
        [(math.pi / 3, math.pi / 6), (1.6212106872922651, 5.498651053948909)],
        ids=["fig3", "chi1-below-quarter"],
    )
    def test_pure_coin_at_t1(self, gamma, phi):
        # e0*beta(1) is read as atanh(1 - 2**-53) = 18.715 whatever the
        # roundoff of chi(1); the second start's chi(1) is 1/4 - 8.3e-17,
        # which alone would read as 18.37
        params = WalkParams(5, math.pi / 4, gamma, phi)
        e0_beta_inf = _asymptotics(params)[1]
        assert thermalization_time(params, 18.5 - e0_beta_inf, 100).tau == 2
        assert thermalization_time(params, 18.8 - e0_beta_inf, 100).tau == 1

    def test_c_constant(self):
        params = WalkParams(20, **FIG3_PARAMS)
        report = thermalization_time(params, 1e-2, 1000)
        from cyclewalk import chi_of_density, transient_temperature

        limit = asymptotic_density(decompose_localized(params))
        beta_inf = transient_temperature(limit, params.energy_scale).beta
        assert abs(report.c_constant - 2 * math.cosh(beta_inf) ** 2) < 1e-12

    def test_relates_to_mixing_time(self):
        params = WalkParams(100, **FIG3_PARAMS)
        eps = 1e-3
        mix = mixing_time(params, eps, 10**4)
        therm_scaled = thermalization_time(params, mix.c_constant * eps, 10**4)
        assert abs(mix.tau - therm_scaled.tau) <= max(3, 0.05 * mix.tau)

    def test_infinite_asymptotic_temperature_flagged(self):
        # gamma/phi chosen so chi_inf = 0: cos(phi) sin(g) sin(th) = -cos(g) cos(th)
        # with phi = 0, theta = pi/4: g = 3 pi / 4.
        params = WalkParams(7, math.pi / 4, 3 * math.pi / 4, 0.0)
        report = thermalization_time(params, 1e-3, 100)
        assert not report.satisfied
        # the other end: at theta = 0 the coin stays pure and beta_inf is
        # infinite, so every t up to t_max violates and c is infinite too
        report = thermalization_time(WalkParams(5, 0.0, 0.0, 0.0), 1e-2, 100)
        assert (report.tau, report.last_violation) == (101, 100)
        assert report.c_constant == math.inf
        assert not report.satisfied

    def test_zero_asymptotic_chi_has_a_horizon(self):
        # at theta = 0 every mode turns about +-e_z, and on a 6-cycle every
        # mode turns, so the x-polarized start keeps nothing: r_inf is
        # exactly 0 (beta_inf = 0, c = 2).  d(t) = |r(t)|/2 <= K/(2t), so
        # the scan stops at t*_axis = floor(K/tanh(epsilon)) + 1
        params = WalkParams(6, 0.0, math.pi / 2, 0.0)
        assert _asymptotics(params)[3][2] == 0.0
        recs = convergence_sweep(params, [1e-2, 1e-3], 10**5)
        keys = ("tau_mix", "tau_therm", "tau_therm_scaled", "c", "satisfied")
        rows = [tuple(r[k] for k in keys) for r in recs]
        assert rows == [(50, 100, 51, 2.0, True), (501, 1000, 501, 2.0, True)]
        # brute force: e0*beta(t) of the series' averages, t = 1..2*10^4
        series = coin_trajectory(localized_initial_state(params), params.theta, 2 * 10**4 - 1)
        beta = beta_of_chi(running_chi(*series), 1.0)
        for eps, tau in [(1e-2, 100), (1e-3, 1000)]:
            report = thermalization_time(params, eps, 10**5)
            assert (report.tau, report.satisfied) == (tau, True)
            assert report.tau == _last_violation(beta, eps) + 1


def test_linearization_slope():
    # eigenvalue deviation vs (1/c) * beta deviation: slope 1 for large t
    params = WalkParams(100, **FIG3_PARAMS)
    lam_inf, beta_inf, c, _ = _asymptotics(params)
    chi = running_chi(*coin_trajectory(localized_initial_state(params), params.theta, 99999))
    lam_plus, beta = 0.5 + np.sqrt(chi), beta_of_chi(chi, 1.0)
    # t = 1000..100000
    x = (beta[999:] - beta_inf) / c
    y = lam_plus[999:] - lam_inf
    slope = float(np.dot(x, y) / np.dot(x, x))
    assert abs(slope - 1.0) < 0.05


# the (gamma, phi) Bloch starts of the benchmark's seeds 0-3
SEED_STARTS = {
    "fig3": (math.pi / 3, math.pi / 6),
    "seed1": (0.7506120838291039, 5.324583204732311),
    "seed2": (2.719097182267897, 5.955375740432253),
    "seed3": (1.0191726709033764, 3.4194930721172536),
}
# (tau_mix, tau_therm, tau_therm_scaled, satisfied) per epsilon; N = 100 scans
# 1e-2, 1e-3, 1e-4 to t_max = 6000 (the Fig. 3 values are the same at 1e5),
# N = 4096 scans 1e-2, 1e-3 to t_max = 2000
SWEEP_PINS = {
    ("fig3", 100): [(14, 42, 14, True), (146, 518, 146, True), (1730, 5429, 1730, True)],
    ("seed1", 100): [(14, 30, 14, True), (113, 326, 113, True), (1446, 3765, 1446, True)],
    ("seed2", 100): [(6, 15, 6, True), (75, 219, 75, True), (1108, 2613, 1108, True)],
    ("seed3", 100): [(15, 31, 15, True), (154, 327, 154, True), (1663, 3559, 1663, True)],
    ("fig3", 4096): [(14, 42, 14, True), (138, 378, 138, True)],
    ("seed1", 4096): [(14, 30, 14, True), (102, 262, 102, True)],
    ("seed2", 4096): [(6, 15, 6, True), (67, 131, 67, True)],
    ("seed3", 4096): [(15, 31, 15, True), (131, 255, 131, True)],
}


@pytest.mark.parametrize("start, n", list(SWEEP_PINS), ids=[f"{s}-n{n}" for s, n in SWEEP_PINS])
def test_convergence_sweep_matches_individual_scans(start, n):
    # the three scans share one code path, so pin the values as well as
    # checking the scans against each other
    epsilons, t_max = ([1e-2, 1e-3, 1e-4], 6000) if n == 100 else ([1e-2, 1e-3], 2000)
    params = WalkParams(n, math.pi / 4, *SEED_STARTS[start])
    recs = convergence_sweep(params, epsilons, t_max)
    rows = [(r["tau_mix"], r["tau_therm"], r["tau_therm_scaled"], r["satisfied"]) for r in recs]
    assert rows == SWEEP_PINS[start, n]
    for rec in recs:
        eps = rec["epsilon"]
        assert rec["tau_mix"] == mixing_time(params, eps, t_max).tau
        assert rec["tau_therm"] == thermalization_time(params, eps, t_max).tau
        scaled = thermalization_time(params, rec["c"] * eps, t_max).tau
        assert rec["tau_therm_scaled"] == scaled


def _full_cycle_last_violations(params, epsilons, t_max):
    """(last mixing violations, last beta violations or None, c) of a scan
    over all of 1..t_max of the series on the n_sites-cycle itself: the
    beta list holds epsilons, then c * epsilons."""
    lam_inf, e0_beta_inf, c, _ = _asymptotics(params)
    beta_eps = [*epsilons, *(c * e for e in epsilons)] if e0_beta_inf < math.inf else []
    bands = [(-e, e) for e in epsilons] + [_beta_band(lam_inf, e0_beta_inf, e) for e in beta_eps]
    series = coin_trajectory(localized_initial_state(params), params.theta, t_max - 1)
    dev = np.sqrt(running_chi(*series)) + 0.5 - lam_inf
    last = []
    for lo, hi in bands:
        outside = np.flatnonzero((dev < lo) | (dev > hi))
        last.append(int(outside[-1]) + 1 if outside.size else 0)
    beta = [_therm_last(t, e, e0_beta_inf) for t, e in zip(last[len(epsilons) :], beta_eps)]
    return last[: len(epsilons)], beta or None, c


# (n, theta, start, epsilons, t_max, sites of the scanned series): a scan
# of s steps reads the series of the (2s + 2)-cycle when that is smaller
# than n; each triple n = 2s + 1, 2s + 2, 2s + 3 straddles that boundary.
# At theta = 0 with 4 | n one mode does not turn (on the 64-cycle too)
LIGHT_CONE_CASES = [
    (4096, math.pi / 4, "fig3", [1e-2, 1e-3], 2000, 1602),
    (4096, math.pi / 4, "seed1", [1e-2, 1e-3], 2000, 1580),
    (4096, math.pi / 4, "seed2", [1e-2, 1e-3], 2000, 1448),
    (4096, math.pi / 4, "seed3", [1e-2, 1e-3], 2000, 1302),
    (4097, math.pi / 4, "fig3", [1e-2, 1e-3], 2000, 1602),
    (1601, math.pi / 4, "fig3", [1e-2, 1e-3], 2000, 1601),
    (1602, math.pi / 4, "fig3", [1e-2, 1e-3], 2000, 1602),
    (1603, math.pi / 4, "fig3", [1e-2, 1e-3], 2000, 1602),
    (2081, 0.3, "fig3", [1e-2, 1e-3], 2000, 2081),
    (2082, 0.3, "fig3", [1e-2, 1e-3], 2000, 2082),
    (2083, 0.3, "fig3", [1e-2, 1e-3], 2000, 2082),
    (1365, 1.2, "seed1", [1e-2, 1e-3], 2000, 1365),
    (1366, 1.2, "seed1", [1e-2, 1e-3], 2000, 1366),
    (1367, 1.2, "seed1", [1e-2, 1e-3], 2000, 1366),
    (4096, 0.0, "fig3", [1e-2, 1e-3], 2000, 318),
    (100, 0.0, "fig3", [1e-2], 2000, 64),
    # t_max cuts the scan before its horizon, and 1e-3 is still violated
    (4096, math.pi / 4, "fig3", [1e-3], 100, 200),
]


@pytest.mark.parametrize("n, theta, start, epsilons, t_max, sites", LIGHT_CONE_CASES)
def test_light_cone_scan_is_the_full_cycle_scan(
    monkeypatch, n, theta, start, epsilons, t_max, sites
):
    # the series of a start on site 0 reaches sites -t..t only, so up to
    # step s every cycle of 2s + 1 sites or more has the same one; the
    # limit, c and the bands stay the n-cycle's
    scanned = []
    series = cyclewalk.times._series

    def recording(folded, steps):
        scanned.append(folded[0][0].n_sites)
        return series(folded, steps)

    monkeypatch.setattr(cyclewalk.times, "_series", recording)
    params = WalkParams(n, theta, *SEED_STARTS[start])
    mix, beta, c = _full_cycle_last_violations(params, epsilons, t_max)
    recs = convergence_sweep(params, epsilons, t_max)
    assert scanned == [sites]
    for i, (e, rec) in enumerate(zip(epsilons, recs)):
        therm, scaled = (beta[i], beta[len(epsilons) + i]) if beta else (t_max, t_max)
        taus = (therm + 1, scaled + 1) if beta else (None, None)
        assert (rec["tau_mix"], rec["tau_therm"], rec["tau_therm_scaled"]) == (mix[i] + 1, *taus)
        assert rec["satisfied"] == (beta is not None and max(mix[i], therm) < t_max)
        assert rec["c"] == c
        reports = [mixing_time(params, e, t_max), thermalization_time(params, e, t_max)]
        for report, last in zip(reports, (mix[i], therm)):
            assert (report.tau, report.last_violation) == (last + 1, last)
            assert (report.satisfied, report.c_constant) == (last < t_max, c)


@pytest.mark.parametrize("n", [10**5, 10**6])
def test_large_n_plateau_pins(n):
    # the Fig. 3 times stop depending on N: at 1e-2 and 1e-3, N = 10^5 and
    # 10^6 read the N = 4096 pins.  The series runs on the light-cone cycle
    # of 15,984 sites (7991 steps), and only the limit and envelope read the
    # ~N/4 folded modes; at N = 10^6 the traced peak was 191 MiB with the
    # series on the N-cycle and is 134 MiB now: 150 MiB leaves 16 MiB
    tracemalloc.start()
    try:
        recs = convergence_sweep(WalkParams(n, **FIG3_PARAMS), [1e-2, 1e-3, 1e-4], 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = [(r["tau_mix"], r["tau_therm"], r["tau_therm_scaled"], r["satisfied"]) for r in recs]
    assert rows == [(14, 42, 14, True), (138, 378, 138, True), (1290, 3638, 1290, True)]
    assert peak < 150 * 2**20


def test_no_decomposition_per_sweep(monkeypatch):
    # the limit and K come from the folded modes: one fold, one mode geometry
    # and one axis limit per sweep and no alpha/beta decomposition, through
    # any module's binding; the series reads the same fold and geometry, and
    # the limit map of T0 forms the geometry alone, with no start to fold
    names = ["decompose", "_axis_limit", "_folded_modes", "_mode_geometry"]
    calls = count_spectral_calls(monkeypatch, names)
    params = WalkParams(30, **FIG3_PARAMS)
    convergence_sweep(params, [1e-2, 1e-3], 500)
    assert calls == {"decompose": 0, "_axis_limit": 1, "_folded_modes": 1, "_mode_geometry": 1}
    calls.update(_folded_modes=0, _mode_geometry=0)
    coin_trajectory(localized_initial_state(params), params.theta, 500)
    assert (calls["_folded_modes"], calls["_mode_geometry"]) == (1, 1)
    calls.update(_folded_modes=0, _mode_geometry=0)
    _limit_sums.cache_clear()
    chi_reference(params.n_sites, params.theta)
    assert (calls["_folded_modes"], calls["_mode_geometry"]) == (0, 1)


def test_scan_stops_at_horizon(monkeypatch):
    # the horizon of these thresholds is min(t*_axis, t*_proj) =
    # min(11,073, 7,995), far below t_max
    scanned = []
    series = cyclewalk.times._series

    def counting(folded, t_max):
        scanned.append(t_max + 1)
        return series(folded, t_max)

    monkeypatch.setattr(cyclewalk.times, "_series", counting)
    recs = convergence_sweep(WalkParams(100, **FIG3_PARAMS), [1e-2, 1e-3, 1e-4], 10**5)
    assert scanned == [7_995]
    taus = [(r["tau_mix"], r["tau_therm"], r["tau_therm_scaled"]) for r in recs]
    assert taus == [(14, 42, 14), (146, 518, 146), (1730, 5429, 1730)]


def test_tiny_epsilon_scans_to_t_max():
    # K/delta overflows (or delta underflows) here: the horizon is infinite
    (rec,) = convergence_sweep(WalkParams(5, **FIG3_PARAMS), [5e-324], 10)
    assert (rec["tau_mix"], rec["tau_therm"], rec["satisfied"]) == (11, 11, False)


def test_series_beyond_step_ceiling_raises():
    # an infinite horizon leaves t_max as the end; the averages up to
    # t = MAX_STEPS + 1 need MAX_STEPS steps, one more step is refused
    with pytest.raises(ParameterError, match=f"needs {MAX_STEPS + 1} steps"):
        convergence_sweep(WalkParams(5, **FIG3_PARAMS), [5e-324], MAX_STEPS + 2)


def _mean_value_horizon(k, lam_inf, lam_eps, beta_eps):
    """t* from the mean-value bound e0*|beta - beta_inf| <= delta / (1 - (r_inf + delta)^2)."""
    r_inf = 2.0 * lam_inf - 1.0
    slack = 1.0 - r_inf**2
    deltas = [2.0 * e for e in lam_eps]
    for e in beta_eps:
        # root of delta / (1 - (r_inf + delta)^2) = e, free of cancellation
        b = 1.0 + 2.0 * e * r_inf
        deltas.append(2.0 * e * slack / (b + math.sqrt(b * b + 4.0 * e * e * slack)))
    bound = k / (min(deltas) * (1.0 - 1e-9))
    return math.floor(bound) + 1 if bound < math.inf else math.inf


def _last_violation(dev: np.ndarray, eps: float) -> int:
    bad = np.nonzero(dev > eps)[0]
    return int(bad[-1]) + 1 if bad.size else 0


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 64),
    theta=st.floats(0.05, math.pi / 2 - 0.05),
    cos_gamma=st.floats(-1.0, 1.0),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    eps=st.sampled_from([1e-2, 1e-3]),
)
def test_envelope_bound_and_horizon(n, theta, cos_gamma, phi, eps):
    params = WalkParams(n, theta, math.acos(cos_gamma), phi)
    dec = decompose_localized(params)
    lam_inf, e0_beta_inf, c, envelope = _asymptotics(params)
    k = envelope[0]
    beta_ok = e0_beta_inf < math.inf
    beta_eps = [eps, c * eps] if beta_ok else []
    bands = [(-eps, eps)] + [_beta_band(lam_inf, e0_beta_inf, e) for e in beta_eps]
    t_star = _horizon(envelope, bands)
    t_axis = _horizon((k, math.inf, envelope[2]), bands)  # no projected bound
    # t* is the smaller of two proven horizons; the exact band edge is at
    # least the mean-value root, so t*_axis only shrinks
    assert t_star <= t_axis <= _mean_value_horizon(k, lam_inf, [eps], beta_eps)

    # |r(t) - r_inf| <= K/t for the closed-form averages, with r_z = p_left -
    # p_right and r_x - i r_y = 2q, and r_inf the axis limit the scans read
    ts = np.arange(1, 4 * t_axis + 1)
    p_left, p_right, q = averaged_trajectory_closed(dec, ts)
    r_x, r_y, r_z = _folded_modes(localized_initial_state(params), params.theta)[4][0]
    dr = np.sqrt((p_left - p_right - r_z) ** 2 + 4.0 * np.abs(q - complex(r_x, -r_y) / 2) ** 2)
    assert np.all(ts * dr <= k)

    # the sweep equals a brute-force scan over all of [1, t_max]
    chi = np.maximum(0.25 - (p_left * p_right - np.abs(q) ** 2), 0.0)
    lam_dev = np.abs(0.5 + np.sqrt(chi) - lam_inf)
    beta_dev = np.abs(np.arctanh(np.minimum(2.0 * np.sqrt(chi), 1.0 - 1e-16)) - e0_beta_inf)
    for t_max in (max(1, t_star // 2), 2 * t_axis):
        (rec,) = convergence_sweep(params, [eps], t_max)
        assert rec["tau_mix"] == _last_violation(lam_dev[:t_max], eps) + 1
        if beta_ok:
            assert rec["tau_therm"] == _last_violation(beta_dev[:t_max], eps) + 1
            scaled = _last_violation(beta_dev[:t_max], c * eps) + 1
            assert rec["tau_therm_scaled"] == scaled


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 130),
    theta=st.floats(0.02, math.pi / 2 - 0.02),
    cos_gamma=st.floats(-1.0, 1.0),
    phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    log_eps=st.floats(-3.5, -1.5),
)
@example(n=12, theta=0.0, cos_gamma=0.5, phi=2.0, log_eps=-2.0)
@example(n=16, theta=0.0, cos_gamma=0.5, phi=2.0, log_eps=-3.0)
@example(n=12, theta=1e-6, cos_gamma=0.5, phi=2.0, log_eps=-2.0)
@example(n=30, theta=math.pi / 4, cos_gamma=math.cos(3 * math.pi / 4 + 1e-3), phi=0.0, log_eps=-3.0)
def test_no_band_left_from_horizon(n, theta, cos_gamma, phi, log_eps):
    # t* = min(t*_axis, t*_proj): on the series run to t*_axis, itself a
    # proof, no band of a sweep is left at or after t*.  theta = 0 with 4 | N
    # has a standing mode, theta = 1e-6 nearly one (K ~ 2e5, so the series
    # stops at 10^5 there), and the last start has chi_inf near 0, where
    # the K^2/(4|r_inf| t^2) term is large
    params = WalkParams(n, theta, math.acos(cos_gamma), phi)
    eps = 10.0**log_eps
    lam_inf, e0_beta_inf, c, envelope = _asymptotics(params)
    bands = [(-eps, eps)]
    if e0_beta_inf < math.inf:
        bands += [_beta_band(lam_inf, e0_beta_inf, e) for e in (eps, c * eps)]
    t_star = _horizon(envelope, bands)
    t_axis = _horizon((envelope[0], math.inf, envelope[2]), bands)
    assert t_star <= t_axis
    t_end = min(t_axis, 10**5)
    chi = running_chi(*coin_trajectory(localized_initial_state(params), theta, t_end - 1))
    dev = np.sqrt(chi) + 0.5 - lam_inf  # the scan's d(t), t = 1..t_end
    for lo, hi in bands:
        outside = np.flatnonzero((dev < lo) | (dev > hi)) + 1
        assert outside.size == 0 or outside[-1] < t_star

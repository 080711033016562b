import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cyclewalk.thermo
import cyclewalk.times
from cyclewalk import (
    CoinDensity,
    ParameterError,
    WalkParams,
    asymptotic_density,
    averaged_trajectory_closed,
    decompose_localized,
    density_seminorm,
    mixing_time,
    thermalization_time,
)
from cyclewalk.thermo import envelope_constant
from cyclewalk.times import _asymptotics, _horizon, _lambda_beta_series, convergence_sweep

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
        from cyclewalk import averaged_density_closed

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
        from cyclewalk import averaged_density_closed

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


class TestThermalizationTime:
    def test_huge_epsilon_immediate(self):
        # the single-term average is a pure coin, so beta(1) is clipped near
        # atanh(1); only a threshold above that makes every t compliant
        report = thermalization_time(WalkParams(5, **FIG3_PARAMS), 25.0, 100)
        assert report.tau == 1

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


def test_linearization_slope():
    # eigenvalue deviation vs (1/c) * beta deviation: slope 1 for large t
    params = WalkParams(100, **FIG3_PARAMS)
    records = convergence_sweep(params, [1e-2], 10)  # warm nothing; direct series below
    dec = decompose_localized(params)
    lam_inf, beta_inf, c = _asymptotics(dec, params.energy_scale)
    xs, ys = [], []
    for ts, lam_plus, beta in _lambda_beta_series(dec, params.energy_scale, 1000, 100000):
        xs.append((beta - beta_inf) / c)
        ys.append(lam_plus - lam_inf)
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    slope = float(np.dot(x, y) / np.dot(x, x))
    assert abs(slope - 1.0) < 0.05


def test_convergence_sweep_matches_individual_scans():
    # the three scans share one code path, so pin the Fig. 3 values (the
    # same at t_max = 1e5) as well as checking the scans against each other
    params = WalkParams(100, **FIG3_PARAMS)
    recs = convergence_sweep(params, [1e-2, 1e-3, 1e-4], 6000)
    taus = [(r["tau_mix"], r["tau_therm"], r["tau_therm_scaled"]) for r in recs]
    assert taus == [(14, 42, 14), (146, 518, 146), (1730, 5429, 1730)]
    assert all(r["satisfied"] for r in recs)
    for rec in recs:
        eps = rec["epsilon"]
        assert rec["tau_mix"] == mixing_time(params, eps, 6000).tau
        assert rec["tau_therm"] == thermalization_time(params, eps, 6000).tau
        scaled = thermalization_time(params, rec["c"] * eps, 6000).tau
        assert rec["tau_therm_scaled"] == scaled


def test_one_decomposition_per_sweep(monkeypatch):
    calls = []
    decompose = cyclewalk.thermo.decompose

    def counting(*args):
        calls.append(args)
        return decompose(*args)

    monkeypatch.setattr(cyclewalk.thermo, "decompose", counting)
    convergence_sweep(WalkParams(30, **FIG3_PARAMS), [1e-2, 1e-3], 500)
    assert len(calls) == 1


def test_scan_stops_at_horizon(monkeypatch):
    # the envelope horizon of these thresholds is 14,401, far below t_max
    scanned = []
    closed = cyclewalk.times.averaged_trajectory_closed

    def counting(decomp, times):
        scanned.append(len(times))
        return closed(decomp, times)

    monkeypatch.setattr(cyclewalk.times, "averaged_trajectory_closed", counting)
    recs = convergence_sweep(WalkParams(100, **FIG3_PARAMS), [1e-2, 1e-3, 1e-4], 10**5)
    assert sum(scanned) <= 15_000
    taus = [(r["tau_mix"], r["tau_therm"], r["tau_therm_scaled"]) for r in recs]
    assert taus == [(14, 42, 14), (146, 518, 146), (1730, 5429, 1730)]


def test_tiny_epsilon_scans_to_t_max():
    # K/delta overflows (or delta underflows) here: the horizon is infinite
    (rec,) = convergence_sweep(WalkParams(5, **FIG3_PARAMS), [5e-324], 10)
    assert (rec["tau_mix"], rec["tau_therm"], rec["satisfied"]) == (11, 11, False)


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
    lam_inf, beta_inf, c = _asymptotics(dec, params.energy_scale)
    beta_ok = 0.0 < beta_inf < math.inf
    t_star = _horizon(dec, lam_inf, [eps], [eps, c * eps] if beta_ok else [])

    # |r(t) - r_inf| <= K/t, with r_z = p_left - p_right and r_x - i r_y = 2q
    ts = np.arange(1, 4 * t_star + 1)
    p_left, p_right, q = averaged_trajectory_closed(dec, ts)
    limit = asymptotic_density(dec)
    dr_z = (p_left - p_right) - (limit.p_left - limit.p_right)
    dr = np.sqrt(dr_z**2 + 4.0 * np.abs(q - limit.q) ** 2)
    assert np.all(ts * dr <= envelope_constant(dec))

    # the sweep equals a brute-force scan over all of [1, t_max]
    chi = np.maximum(0.25 - (p_left * p_right - np.abs(q) ** 2), 0.0)
    lam_dev = np.abs(0.5 + np.sqrt(chi) - lam_inf)
    beta_dev = np.abs(np.arctanh(np.minimum(2.0 * np.sqrt(chi), 1.0 - 1e-16)) - beta_inf)
    for t_max in (max(1, t_star // 2), 2 * t_star):
        (rec,) = convergence_sweep(params, [eps], t_max)
        assert rec["tau_mix"] == _last_violation(lam_dev[:t_max], eps) + 1
        if beta_ok:
            assert rec["tau_therm"] == _last_violation(beta_dev[:t_max], eps) + 1
            scaled = _last_violation(beta_dev[:t_max], c * eps) + 1
            assert rec["tau_therm_scaled"] == scaled

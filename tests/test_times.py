import math

import numpy as np
import pytest

from cyclewalk import (
    CoinDensity,
    ParameterError,
    WalkParams,
    asymptotic_density,
    decompose_localized,
    density_seminorm,
    mixing_time,
    thermalization_time,
)
from cyclewalk.times import convergence_sweep

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
    from cyclewalk.times import _asymptotics, _lambda_beta_series

    lam_inf, beta_inf, c = _asymptotics(params)
    xs, ys = [], []
    for ts, lam_plus, beta in _lambda_beta_series(params, 1000, 100000):
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

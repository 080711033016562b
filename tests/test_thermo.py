import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclewalk import (
    CoinDensity,
    DegenerateSpectrumError,
    InvalidDensityError,
    ParameterError,
    UndefinedAverageError,
    WalkParams,
    asymptotic_density_localized,
    beta_of_chi,
    chi_isotherm,
    chi_of_density,
    chi_of_entries,
    chi_reference,
    coin_density,
    entanglement_entropy,
    entropy_of_chi,
    fourier_coefficients,
    localized_initial_state,
    step,
    temperature_from_chi,
    transient_temperature,
)
from cyclewalk._oracle import bloch_points, localized_vs_spectral
from cyclewalk.spectral import decompose
from cyclewalk.thermo import (
    _limit_sums,
    asymptotic_density,
    averaged_density_closed,
    averaged_density_numeric,
)

from conftest import decompose_localized, direct_densities, f_g_h, hadamard_f_closed, random_state

CHI_HADAMARD_LINE = (3 - 2 * math.sqrt(2)) / 4


def asymptotic_density_from_initial_modes(s0, theta):
    """Oracle: the limit of the averaged density through the t = 0 and t = 1
    mode values, an independent check of the coefficient inversion."""
    n = s0.n_sites
    omega = np.arcsin(math.cos(theta) * np.sin(2 * np.pi * np.arange(n) / n))
    cos2 = 2 * np.cos(omega) ** 2
    sin_om = np.sin(omega)
    l0, r0 = fourier_coefficients(s0)
    l1, r1 = fourier_coefficients(step(s0, theta))
    p_left = np.sum(
        (np.abs(l1) ** 2 + np.abs(l0) ** 2) / cos2
        + 1j * sin_om * (l1 * np.conj(l0) - np.conj(l1) * l0) / cos2
    )
    p_right = np.sum(
        (np.abs(r1) ** 2 + np.abs(r0) ** 2) / cos2
        + 1j * sin_om * (r1 * np.conj(r0) - np.conj(r1) * r0) / cos2
    )
    q = np.sum(
        (l0 * np.conj(r0) + l1 * np.conj(r1)) / cos2
        + 1j * sin_om * (l1 * np.conj(r0) - l0 * np.conj(r1)) / cos2
    )
    return CoinDensity(float(p_left.real), float(p_right.real), complex(q))


class TestCoinDensity:
    def test_pure_left_start(self):
        s = localized_initial_state(WalkParams(4, 0.5, gamma=0.0, phi=0.0))
        rho = coin_density(s)
        assert (rho.p_left, rho.p_right, rho.q) == (1.0, 0.0, 0.0)

    def test_equator_start(self):
        s = localized_initial_state(WalkParams(4, 0.5, gamma=math.pi / 2, phi=0.0))
        rho = coin_density(s)
        assert abs(rho.p_left - 0.5) < 1e-14
        assert abs(rho.p_right - 0.5) < 1e-14
        assert abs(rho.q - 0.5) < 1e-14

    def test_trace_and_positivity(self, rng):
        for n in (3, 7, 12):
            rho = coin_density(random_state(rng, n))
            assert abs(rho.p_left + rho.p_right - 1.0) < 1e-12
            assert rho.p_left * rho.p_right - abs(rho.q) ** 2 >= -1e-12

    def test_invalid_rejected(self):
        with pytest.raises(InvalidDensityError):
            CoinDensity(0.9, 0.2, 0.0)
        with pytest.raises(InvalidDensityError):
            CoinDensity(0.5, 0.5, 0.9)


class TestDensitySeries:
    def test_matches_scalar_checks(self, rng):
        rhos = [coin_density(random_state(rng, int(n))) for n in rng.integers(3, 12, 50)]
        rhos += [CoinDensity(1.0, 0.0, 0.0), CoinDensity(0.5, 0.5, 0.5), CoinDensity(0.5, 0.5, 0)]
        p_left, p_right, q = (
            np.array([getattr(r, x) for r in rhos]) for x in ("p_left", "p_right", "q")
        )
        chi = chi_of_entries(p_left, p_right, q)
        # bit for bit against a scalar loop of the same arithmetic
        want = [max(0.25 - (r.p_left * r.p_right - abs(r.q) ** 2), 0.0) for r in rhos]
        assert chi.tolist() == want
        assert [chi_of_density(r) for r in rhos] == want
        for value, rho in zip(entropy_of_chi(chi), rhos):
            want = -sum(lam * math.log(lam) for lam in rho.eigenvalues() if lam > 0.0)
            assert abs(value - want) <= 1e-15
            assert entanglement_entropy(rho) == value

    def test_invalid_entry_rejected(self):
        p_left, p_right, q = np.full(5, 0.6), np.full(5, 0.4), np.zeros(5, complex)
        chi_of_entries(p_left, p_right, q)
        bad_trace = p_left.copy()
        bad_trace[3] = 0.7
        with pytest.raises(InvalidDensityError, match="trace"):
            chi_of_entries(bad_trace, p_right, q)
        not_psd = q.copy()
        not_psd[1] = 0.5
        with pytest.raises(InvalidDensityError, match="positive semidefinite"):
            chi_of_entries(p_left, p_right, not_psd)
        # trace within its tolerance, but the determinant above 1/4
        half = np.full(2, 0.5 + 4e-10)
        with pytest.raises(InvalidDensityError, match="exceeds 1/4"):
            chi_of_entries(half, half, np.zeros(2))

    @pytest.mark.parametrize("entry, check", [
        ("p_left", "trace"), ("p_right", "trace"), ("q", "positive semidefinite"),
    ])
    def test_nan_entry_rejected(self, entry, check):
        # NaN fails every comparison, so each check is written to fail on it
        entries = {"p_left": np.full(5, 0.6), "p_right": np.full(5, 0.4), "q": np.zeros(5, complex)}
        entries[entry][2] = math.nan
        with pytest.raises(InvalidDensityError, match=rf"{check}.*\(entry 2\)"):
            chi_of_entries(**entries)


class TestEntropy:
    def test_pure_state_zero(self):
        assert entanglement_entropy(CoinDensity(1.0, 0.0, 0.0)) == 0.0

    def test_maximally_mixed(self):
        assert abs(entanglement_entropy(CoinDensity(0.5, 0.5, 0.0)) - math.log(2)) < 1e-14

    def test_pure_with_coherence(self):
        # eigenvalues are 1 and 0
        assert abs(entanglement_entropy(CoinDensity(0.5, 0.5, 0.5))) < 1e-12


class TestAveragedDensity:
    def test_single_term_average(self):
        params = WalkParams(5, 0.8, 1.0, 0.5)
        avg = averaged_density_numeric(params, 1)
        rho0 = coin_density(localized_initial_state(params))
        assert abs(avg.p_left - rho0.p_left) < 1e-14
        assert abs(avg.q - rho0.q) < 1e-14

    def test_t_zero_rejected(self):
        params = WalkParams(5, 0.8)
        with pytest.raises(UndefinedAverageError):
            averaged_density_numeric(params, 0)
        with pytest.raises(UndefinedAverageError):
            averaged_density_closed(decompose_localized(params), 0)

    def test_closed_matches_numeric(self, rng):
        for _ in range(5):
            n = int(rng.integers(3, 10))
            theta = float(rng.uniform(0.1, math.pi / 2 - 0.05))
            params = WalkParams(
                n, theta, float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))
            )
            dec = decompose_localized(params)
            for t in (1, 7, 100):
                closed = averaged_density_closed(dec, t)
                numeric = averaged_density_numeric(params, t)
                assert abs(closed.p_left - numeric.p_left) < 1e-10
                assert abs(closed.p_right - numeric.p_right) < 1e-10
                assert abs(closed.q - numeric.q) < 1e-10

    def test_large_t_near_limit(self):
        dec = decompose_localized(WalkParams(3, math.pi / 4, math.pi / 3, math.pi / 6))
        limit = asymptotic_density(dec)
        late = averaged_density_closed(dec, 10**6)
        assert abs(late.p_left - limit.p_left) < 1e-5
        assert abs(late.q - limit.q) < 1e-5

    def test_one_over_t_envelope_bounded(self):
        dec = decompose_localized(WalkParams(7, 1.0, 2.0, 0.3))
        limit = asymptotic_density(dec)
        bound = 0.0
        for t in (10, 100, 1000, 10**4, 10**5):
            avg = averaged_density_closed(dec, t)
            bound = max(bound, t * abs(avg.p_left - limit.p_left))
        assert bound < 10.0


class TestAsymptoticDensity:
    def test_both_forms_agree(self, rng):
        for n in (3, 6, 13):
            theta = float(rng.uniform(0.1, math.pi / 2 - 0.05))
            s0 = random_state(rng, n)
            a_form = asymptotic_density(decompose(s0, theta))
            c_form = asymptotic_density_from_initial_modes(s0, theta)
            assert abs(a_form.p_left - c_form.p_left) < 1e-12
            assert abs(a_form.p_right - c_form.p_right) < 1e-12
            assert abs(a_form.q - c_form.q) < 1e-12

    def test_trace_one(self, rng):
        dec = decompose(random_state(rng, 8), 0.6)
        limit = asymptotic_density(dec)
        assert abs(limit.p_left + limit.p_right - 1.0) < 1e-12

    def test_extrapolated_numeric_average(self):
        # Independent oracle: least-squares fit rho_avg(t) = rho_inf + A/t
        # over a late window of directly iterated averages.
        params = WalkParams(3, math.pi / 4, math.pi / 3, math.pi / 6)
        horizon = 4000
        densities = direct_densities([localized_initial_state(params)], params.theta, horizon - 1)
        ts = np.arange(1, horizon + 1)
        series = np.cumsum(np.hstack(densities), axis=0) / ts[:, None]
        window = ts >= 2000
        design = np.vstack([np.ones(window.sum()), 1.0 / ts[window]]).T
        intercept = np.linalg.lstsq(design, series[window], rcond=None)[0][0]
        limit = asymptotic_density(decompose_localized(params))
        assert abs(intercept[0] - limit.p_left) < 1e-6
        assert abs(intercept[2] - limit.q) < 1e-6


class TestLatticeSums:
    def test_hadamard_three_sites(self):
        f, g, h = f_g_h(3, math.pi / 4)
        assert abs(f - 1.4) < 1e-12
        assert abs(hadamard_f_closed(3) - 1.4) < 1e-12

    def test_hadamard_four_sites(self):
        f, _, _ = f_g_h(4, math.pi / 4)
        assert abs(f - 1.5) < 1e-12
        assert abs(hadamard_f_closed(4) - 1.5) < 1e-12

    def test_closed_form_matches_sum(self):
        for n in range(3, 65):
            f, _, _ = f_g_h(n, math.pi / 4)
            assert abs(f - hadamard_f_closed(n)) < 1e-12

    def test_large_n_limit(self):
        f, _, _ = f_g_h(10**4, math.pi / 4)
        assert abs(f - math.sqrt(2)) < 1e-6
        f3, _, _ = f_g_h(10**4, math.pi / 3)
        assert abs(f3 - 1 / math.sin(math.pi / 3)) < 1e-5

    def test_limit_map_reads_the_lattice_sums(self):
        # the paper's form of the limit map: m = (h + f) / 2, a_yy = sin^2(theta) g
        for n in (3, 4, 7, 10, 64):
            for theta in (0.3, math.pi / 4, 1.2):
                f, g, h = f_g_h(n, theta)
                m, a_yy, d = _limit_sums(n, theta)
                assert abs(m - (h + f) / 2) < 1e-12
                assert abs(a_yy - math.sin(theta) ** 2 * g) < 1e-12
                assert d == 0.0

    def test_theta_half_pi_rejected(self):
        with pytest.raises(ParameterError):
            f_g_h(5, math.pi / 2)

    def test_singular_term_rejected(self):
        with pytest.raises(DegenerateSpectrumError):
            f_g_h(8, 0.0)


def limit_fsum(n, theta, gamma, phi):
    """Reference: (chi, p_left, p_right, q) of the localized start's limit,
    its mode sums as math.fsum of their non-negative terms, with cos phi_k
    exactly 0 at 4k = N (mod 2N).  The terms are cos^2 phi_k / D_k and
    s^2 sin^2 phi_k / D_k with D_k = s^2 + c^2 cos^2 phi_k, taken as squared
    ratios to sqrt(D_k), which does not underflow; a mode with D_k = 0 does
    not turn and keeps its share of r0."""
    c, s = math.cos(theta), math.sin(theta)
    m, a_yy, still = [], [], 0
    for k in range(n):
        cos_phi = 0.0 if 4 * k % (2 * n) == n else math.cos(2 * math.pi * k / n)
        root = math.hypot(s, c * cos_phi)
        if root == 0.0:
            still += 1
        else:
            m.append((cos_phi / root) ** 2)
            a_yy.append((s * math.sin(2 * math.pi * k / n) / root) ** 2)
    m, a_yy, d = math.fsum(m) / n, math.fsum(a_yy) / n, still / n
    x0, y0, z0 = math.sin(gamma) * math.cos(phi), math.sin(gamma) * math.sin(phi), math.cos(gamma)
    along = m * (s * x0 + c * z0)
    r = (along * s + d * x0, (a_yy + d) * y0, along * c + d * z0)
    chi = math.fsum(x * x for x in r) / 4
    return chi, (1 + r[2]) / 2, (1 - r[2]) / 2, complex(r[0], -r[1]) / 2


def assert_limit_matches_fsum(params):
    chi, *density = limit_fsum(params.n_sites, params.theta, params.gamma, params.phi)
    rho = asymptotic_density_localized(params)
    assert abs(chi_isotherm(params) - chi) <= 1e-13 * chi
    # p = (1 +- r_z) / 2 is relative to the trace: both routes round 1 +- r_z
    p_left, p_right, q = density
    assert max(abs(rho.p_left - p_left), abs(rho.p_right - p_right)) <= 1e-13
    assert abs(rho.q - q) <= 1e-13 * abs(q)


class TestLocalizedLimitAccuracy:
    """The limit map against plain sums: each term of the mode sums is
    non-negative, so nothing cancels as theta nears 0 or pi/2."""

    @pytest.mark.parametrize("theta", [1e-8, 1e-6, 0.3, math.pi / 4, 1.2, math.pi / 2 - 1e-6])
    def test_matches_fsum(self, rng, theta):
        for n in (*range(3, 21), 100, 101, 4098):
            for gamma, phi in bloch_points(rng, 2):
                assert_limit_matches_fsum(WalkParams(n, theta, gamma, phi))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 64),
        theta=st.floats(0.0, math.pi / 2),
        gamma=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2 * math.pi, exclude_max=True),
    )
    def test_matches_fsum_everywhere(self, n, theta, gamma, phi):
        assert_limit_matches_fsum(WalkParams(n, theta, gamma, phi))

    @pytest.mark.parametrize("n", [3, 4, 7, 100, 1001, 4096])
    def test_reference_at_half_pi(self, n):
        # at theta = fl(pi/2), cos theta = 6.1e-17 and chi_ref = (m cos
        # theta)^2 / 4 to a relative 1e-33; a rounded sin(pi) = 1.2e-16 in
        # the start's Bloch vector would add about (a_yy sin(pi))^2 / 4
        theta = math.pi / 2
        m, _, _ = _limit_sums(n, theta)
        want = (m * math.cos(theta)) ** 2 / 4
        assert abs(chi_reference(n, theta) - want) <= 1e-15 * want


class TestLocalizedAsymptotics:
    def test_hadamard_line_values(self):
        rho = asymptotic_density_localized(WalkParams(2000, math.pi / 4, math.pi, 0.0))
        assert abs(rho.p_right - (1 - math.sqrt(2) / 4)) < 1e-4
        assert abs(rho.q - (-(4 - 2 * math.sqrt(2)) / 8)) < 1e-4

    def test_matches_spectral_limit(self, rng):
        # one group of starts per cycle, each folded as one batch
        groups = [
            [WalkParams(n, theta, gamma, phi) for gamma, phi in bloch_points(rng, 3)]
            for n in (3, 5, 8, 16)
            for theta in (math.pi / 6, math.pi / 4, math.pi / 3)
        ] + [
            # theta = 0 on a cycle divisible by 4: the modes at 4k = N do not turn
            [WalkParams(n, 0.0, gamma, phi) for gamma, phi in bloch_points(rng, 3)]
            for n in (8, 12, 16, 100)
        ]
        worst, _ = localized_vs_spectral(groups)
        assert worst < 1e-10

    def test_antipodal_symmetry(self):
        p1 = WalkParams(9, 0.8, gamma=0.4, phi=1.2)
        p2 = WalkParams(9, 0.8, gamma=math.pi - 0.4, phi=1.2 + math.pi)
        chi1 = chi_of_density(asymptotic_density_localized(p1))
        chi2 = chi_of_density(asymptotic_density_localized(p2))
        assert abs(chi1 - chi2) < 1e-12


class TestChi:
    def test_maximally_mixed(self):
        assert chi_of_density(CoinDensity(0.5, 0.5, 0.0)) == 0.0

    def test_pure(self):
        assert abs(chi_of_density(CoinDensity(1.0, 0.0, 0.0)) - 0.25) < 1e-15

    def test_hadamard_line_value(self):
        rho = asymptotic_density_localized(WalkParams(2000, math.pi / 4, math.pi, 0.0))
        assert abs(chi_of_density(rho) - CHI_HADAMARD_LINE) < 1e-4

    def test_isotherm_reference_point(self):
        params = WalkParams(11, 0.7, gamma=math.pi, phi=2.5)
        assert abs(chi_isotherm(params) - chi_reference(11, 0.7)) < 1e-14

    def test_isotherm_antipodal_invariance(self):
        p1 = WalkParams(6, 1.1, gamma=2.0, phi=0.7)
        p2 = WalkParams(6, 1.1, gamma=math.pi - 2.0, phi=0.7 + math.pi)
        assert abs(chi_isotherm(p1) - chi_isotherm(p2)) < 1e-14

    def test_isotherm_matches_density_chi(self, rng):
        for theta in (math.pi / 6, math.pi / 4, 1.3):
            for _ in range(8):
                params = WalkParams(
                    int(rng.integers(3, 20)),
                    theta,
                    float(rng.uniform(0, math.pi)),
                    float(rng.uniform(0, 2 * math.pi)),
                )
                direct = chi_of_density(asymptotic_density_localized(params))
                assert abs(chi_isotherm(params) - direct) < 1e-10


class TestTemperature:
    def test_hadamard_line_reference(self):
        t0 = temperature_from_chi(CHI_HADAMARD_LINE, 1.0)
        assert abs(t0 - 2 / math.log(1 + math.sqrt(2))) < 1e-12
        assert abs(t0 - 2.2691853) < 1e-4

    def test_infinite_at_zero_chi(self):
        assert temperature_from_chi(0.0, 1.0) == math.inf

    def test_zero_at_quarter(self):
        assert temperature_from_chi(0.25, 1.0) == 0.0

    def test_out_of_range(self):
        with pytest.raises(ParameterError):
            temperature_from_chi(0.3, 1.0)
        with pytest.raises(ParameterError):
            temperature_from_chi(-0.01, 1.0)

    @settings(max_examples=50, deadline=None)
    @given(
        chi1=st.floats(1e-6, 0.24),
        chi2=st.floats(1e-6, 0.24),
        e0=st.floats(0.1, 10.0),
    )
    def test_monotone_decreasing_in_chi(self, chi1, chi2, e0):
        lo, hi = sorted((chi1, chi2))
        if hi - lo > 1e-9:
            assert temperature_from_chi(lo, e0) > temperature_from_chi(hi, e0)


class TestBetaOfChi:
    @settings(max_examples=100, deadline=None)
    @given(
        chi=st.lists(st.floats(0.0, 0.25 + 1e-15), min_size=1, max_size=20),
        e0=st.floats(0.1, 10.0),
    )
    def test_one_map(self, chi, e0):
        chi = np.array([0.0, 0.25, *chi])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = beta_of_chi(chi, e0)
            scalar = [beta_of_chi(float(c), e0) for c in chi]
        assert np.array_equal(beta, scalar)
        assert beta[0] == 0.0 and beta[1] == math.inf
        assert np.all(beta[chi > 0.25] == math.inf)
        assert np.all(np.abs(np.tanh(beta * e0) - 2 * np.sqrt(np.minimum(chi, 0.25))) <= 1e-12)


class TestTransientTemperature:
    def test_consistent_with_asymptotic(self):
        dec = decompose_localized(WalkParams(5, 0.9, 1.3, 0.2))
        limit = asymptotic_density(dec)
        ts = transient_temperature(limit, 1.0)
        assert abs(ts.temperature - temperature_from_chi(chi_of_density(limit), 1.0)) < 1e-12

    def test_maximally_mixed_infinite(self):
        ts = transient_temperature(CoinDensity(0.5, 0.5, 0.0), 1.0)
        assert ts.beta == 0.0
        assert ts.temperature == math.inf

    def test_tanh_identity(self, rng):
        for n in (3, 8):
            dec = decompose(random_state(rng, n), 0.8)
            from cyclewalk.thermo import averaged_density_closed

            for t in (5, 50, 500):
                rho = averaged_density_closed(dec, t)
                ts = transient_temperature(rho, 1.0)
                gap = math.sqrt(
                    1 - 4 * (rho.p_left * rho.p_right - abs(rho.q) ** 2)
                )
                assert abs(math.tanh(ts.beta * 1.0) - gap) < 1e-12

    def test_eigenvalue_identities(self, rng):
        rho = coin_density(random_state(rng, 6))
        lam_p, lam_m = rho.eigenvalues()
        assert abs(lam_p + lam_m - 1.0) < 1e-12
        assert abs(lam_p * lam_m - (rho.p_left * rho.p_right - abs(rho.q) ** 2)) < 1e-12

    def test_pure_coin_zero_temperature(self):
        ts = transient_temperature(CoinDensity(1.0, 0.0, 0.0), 1.0)
        assert ts.beta == math.inf
        assert ts.temperature == 0.0


def test_fig2_style_settling():
    # N=3 Hadamard trajectories settle near their asymptotic ratio by t ~ 100
    params = WalkParams(3, math.pi / 4, math.pi / 3, math.pi / 6)
    dec = decompose_localized(params)
    t0 = temperature_from_chi(chi_reference(3, math.pi / 4), 1.0)
    asym = transient_temperature(asymptotic_density(dec), 1.0).temperature / t0
    at_100 = (
        transient_temperature(averaged_density_closed(dec, 100), 1.0).temperature / t0
    )
    assert abs(at_100 - asym) / asym < 0.05

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyclewalk import (
    DegenerateSpectrumError,
    ParameterError,
    WalkParams,
    WalkState,
    coin_density,
    coin_trajectory,
    evolve,
    fourier_coefficients,
    localized_initial_state,
    step,
)
from cyclewalk._oracle import bloch_points, fold_odd_vs_double, light_cone_odd_vs_even
from cyclewalk.spectral import (
    _axis_limit,
    _folded_modes,
    _mode_geometry,
    _turn_power,
    amplitudes_at,
    decompose,
    inverse_fourier,
    mode_values_at,
)
from cyclewalk.thermo import asymptotic_density
from cyclewalk.walk import coin

from conftest import (
    count_spectral_calls,
    direct_densities,
    long_double_densities,
    phase_base,
    power_of_walk,
    random_state,
    rotation,
)


def dense_dft(n_sites):
    """Oracle: the unitary matrix with entries exp(2*pi*i*k*l/N)/sqrt(N)."""
    k = np.arange(n_sites)
    return np.exp(2j * np.pi * np.outer(k, k) / n_sites) / np.sqrt(n_sites)


class TestFourierCoefficients:
    def test_delta_transforms_flat(self):
        s = localized_initial_state(WalkParams(5, 0.5, 0.0, 0.0))
        c_l, c_r = fourier_coefficients(s)
        np.testing.assert_allclose(c_l, np.full(5, 1 / math.sqrt(5)), atol=1e-14)
        np.testing.assert_allclose(c_r, 0, atol=1e-14)

    def test_pure_mode_is_delta(self):
        mode = np.exp(2j * np.pi * np.arange(4) / 4) / 2
        s = WalkState(mode, np.zeros(4))
        c_l, _ = fourier_coefficients(s)
        np.testing.assert_allclose(c_l, [0, 1, 0, 0], atol=1e-14)

    def test_parseval(self, rng):
        s = random_state(rng, 9)
        c_l, c_r = fourier_coefficients(s)
        total = np.sum(np.abs(c_l) ** 2) + np.sum(np.abs(c_r) ** 2)
        assert abs(total - 1.0) < 1e-12

    def test_round_trip(self, rng):
        s = random_state(rng, 8)
        a, b = inverse_fourier(*fourier_coefficients(s))
        np.testing.assert_allclose(a, s.a, atol=1e-12)
        np.testing.assert_allclose(b, s.b, atol=1e-12)

    def test_fft_path_agrees(self, rng):
        for n in (3, 12, 257):
            v = dense_dft(n)
            s = random_state(rng, n)
            c_l, c_r = fourier_coefficients(s)
            np.testing.assert_allclose(c_l, v.conj().T @ s.a, atol=1e-12)
            np.testing.assert_allclose(c_r, v.conj().T @ s.b, atol=1e-12)
            a, b = inverse_fourier(c_l, c_r)
            np.testing.assert_allclose(a, v @ c_l, atol=1e-12)
            np.testing.assert_allclose(b, v @ c_r, atol=1e-12)
            dec = decompose(s, 0.7)
            ts = np.array([0, 1, 5, 42, 199])
            a_all, b_all = inverse_fourier(*mode_values_at(dec, ts))
            for i, t in enumerate(ts):
                m_l, m_r = mode_values_at(dec, int(t))
                np.testing.assert_allclose(a_all[i], v @ m_l, atol=1e-12)
                np.testing.assert_allclose(b_all[i], v @ m_r, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 5, 89, 100, 101, 103, 4096, 4099])
    def test_origin_state_transforms_exactly_flat(self, n):
        # numpy's FFT of a delta is not exactly flat at sizes with a prime
        # factor of 89 or more (Bluestein's algorithm); the modes of a state
        # on site 0 alone are its amplitudes over sqrt(N), bit for bit
        delta = np.eye(1, n)[0]
        starts = [
            localized_initial_state(WalkParams(n, 0.3, 1.0, 2.0)),
            localized_initial_state(WalkParams(n, 0.3, 0.0, 0.0)),
            WalkState(0 * delta, (0.6 - 0.8j) * delta),
        ]
        for s in starts:
            for got, amp in zip(fourier_coefficients(s), (s.a, s.b)):
                assert got.dtype == np.complex128
                assert np.array_equal(got, np.full(n, amp[0]) / np.sqrt(n))

    @pytest.mark.parametrize("channel", ["a", "b"])
    @pytest.mark.parametrize("n", [5, 89, 103])
    def test_any_amplitude_off_the_origin_takes_the_fft(self, n, channel):
        s = localized_initial_state(WalkParams(n, 0.3, 1.0, 2.0))
        amps = {"a": s.a.copy(), "b": s.b.copy()}
        amps[channel][n // 2] = 0.25 - 0.5j
        off = WalkState(amps["a"], amps["b"])
        v = dense_dft(n)
        c_l, c_r = fourier_coefficients(off)
        np.testing.assert_allclose(c_l, v.conj().T @ off.a, atol=1e-12)
        np.testing.assert_allclose(c_r, v.conj().T @ off.b, atol=1e-12)


class TestDecompose:
    def test_phase_defining_relation(self, rng):
        for n, theta in [(3, 0.4), (8, 1.2), (16, math.pi / 4)]:
            dec = decompose(random_state(rng, n), theta)
            k = np.arange(n)
            np.testing.assert_allclose(
                np.sin(dec.omega),
                math.cos(theta) * np.sin(2 * np.pi * k / n),
                atol=1e-14,
            )

    def test_reconstructs_first_two_steps(self, rng):
        s0 = random_state(rng, 7)
        theta = 0.9
        dec = decompose(s0, theta)
        at0 = amplitudes_at(dec, 0)
        np.testing.assert_allclose(at0.a, s0.a, atol=1e-12)
        np.testing.assert_allclose(at0.b, s0.b, atol=1e-12)
        s1 = step(s0, theta)
        at1 = amplitudes_at(dec, 1)
        np.testing.assert_allclose(at1.a, s1.a, atol=1e-12)
        np.testing.assert_allclose(at1.b, s1.b, atol=1e-12)

    def test_theta_half_pi_coefficients(self, rng):
        # cos(theta) = 0 makes every omega_k vanish.
        s0 = random_state(rng, 6)
        dec = decompose(s0, math.pi / 2)
        np.testing.assert_allclose(dec.omega, 0, atol=1e-14)
        c_l0, _ = fourier_coefficients(s0)
        c_l1, _ = fourier_coefficients(step(s0, math.pi / 2))
        np.testing.assert_allclose(dec.alpha_l, (c_l1 + c_l0) / 2, atol=1e-13)
        np.testing.assert_allclose(dec.beta_l, (c_l0 - c_l1) / 2, atol=1e-13)

    def test_degenerate_spectrum_refused(self):
        s = localized_initial_state(WalkParams(4, 0.0, 0.0, 0.0))
        with pytest.raises(DegenerateSpectrumError):
            decompose(s, 0.0)

    def test_requires_time_zero(self, rng):
        s = step(random_state(rng, 5), 0.3)
        with pytest.raises(ParameterError):
            decompose(s, 0.3)


class TestAmplitudesAt:
    def test_rejects_negative_time(self, rng):
        dec = decompose(random_state(rng, 5), 0.8)
        with pytest.raises(ParameterError):
            amplitudes_at(dec, -1)

    def test_matches_direct_iteration(self, rng):
        for n in (3, 5, 11, 16):
            theta = rng.uniform(0.05, math.pi / 2)
            s0 = random_state(rng, n)
            dec = decompose(s0, theta)
            for t in (0, 1, 2, 50, 500):
                direct = evolve(s0, theta, t)
                closed = amplitudes_at(dec, t)
                np.testing.assert_allclose(closed.a, direct.a, atol=1e-10)
                np.testing.assert_allclose(closed.b, direct.b, atol=1e-10)

    def test_normalized(self, rng):
        dec = decompose(random_state(rng, 9), 1.1)
        for t in (3, 77, 400):
            assert abs(amplitudes_at(dec, t).norm_squared - 1.0) < 1e-10

    def test_memory_linear_in_n(self):
        # an N x N transform matrix at N = 4096 alone would take 256 MB
        s0 = localized_initial_state(WalkParams(4096, math.pi / 4, 1.0, 0.5))
        tracemalloc.start()
        try:
            amplitudes_at(decompose(s0, math.pi / 4), 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_trajectory_matches_pointwise(self, rng):
        dec = decompose(random_state(rng, 6), 0.7)
        ts = np.array([0, 1, 5, 42, 199])
        a_all, b_all = inverse_fourier(*mode_values_at(dec, ts))
        for i, t in enumerate(ts):
            single = amplitudes_at(dec, int(t))
            np.testing.assert_allclose(a_all[i], single.a, atol=1e-12)
            np.testing.assert_allclose(b_all[i], single.b, atol=1e-12)


def test_fundamental_mode_recurrence(rng):
    # c_k(t+1) - c_k(t-1) = 2i cos(theta) sin(2 pi k / N) c_k(t)
    for n, theta in [(5, 0.6), (12, math.pi / 4)]:
        dec = decompose(random_state(rng, n), theta)
        lam = 2j * math.cos(theta) * np.sin(2 * np.pi * np.arange(n) / n)
        for t in range(1, 101):
            c_prev = np.concatenate(mode_values_at(dec, t - 1))
            c_now = np.concatenate(mode_values_at(dec, t))
            c_next = np.concatenate(mode_values_at(dec, t + 1))
            lam2 = np.concatenate([lam, lam])
            np.testing.assert_allclose(c_next - c_prev, lam2 * c_now, atol=1e-12)


def test_mode_energy_conserved(rng):
    dec = decompose(random_state(rng, 10), 0.95)
    for t in (0, 9, 123, 1000):
        c_l, c_r = mode_values_at(dec, t)
        total = np.sum(np.abs(c_l) ** 2) + np.sum(np.abs(c_r) ** 2)
        assert abs(total - 1.0) < 1e-12


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 16),
    theta=st.floats(0.05, math.pi / 2 - 0.01),
    t=st.integers(0, 200),
    seed=st.integers(0, 2**31),
)
def test_spectral_direct_equivalence_property(n, theta, t, seed):
    s0 = random_state(np.random.default_rng(seed), n)
    closed = amplitudes_at(decompose(s0, theta), t)
    direct = evolve(s0, theta, t)
    assert np.abs(closed.a - direct.a).max() < 1e-10
    assert np.abs(closed.b - direct.b).max() < 1e-10


def assert_matches_direct(s0, theta, t_max, tol=1e-10):
    series = coin_trajectory(s0, theta, t_max)
    for got, want in zip(series, direct_densities([s0], theta, t_max)):
        assert got.shape == (t_max + 1,)
        assert np.abs(got - want[:, 0]).max() < tol


class TestCoinTrajectory:
    @pytest.mark.parametrize("t_max", [0, 1, 2, 14, 15, 16, 98, 99, 100])
    def test_block_edges(self, rng, t_max):
        # t_max + 1 at, just below and just above a perfect square
        assert_matches_direct(random_state(rng, 7), 0.9, t_max)

    def test_large_cycle_long_run(self):
        s0 = localized_initial_state(WalkParams(1000, math.pi / 4, math.pi / 3, math.pi / 6))
        assert_matches_direct(s0, math.pi / 4, 10**4)

    def test_start_row_is_the_site_density(self, rng):
        # bit for bit, so that a localized start keeps its exactly pure coin
        for s0 in (random_state(rng, 9), localized_initial_state(WalkParams(12, 0.3, 2.0, 1.0))):
            rho = coin_density(s0)
            p_left, p_right, q = coin_trajectory(s0, 0.3, 5)
            assert (p_left[0], p_right[0], q[0]) == (rho.p_left, rho.p_right, rho.q)

    def test_rejects_negative_t_max(self, rng):
        with pytest.raises(ParameterError):
            coin_trajectory(random_state(rng, 5), 0.4, -1)

    @pytest.mark.parametrize("n", [3, 4, 6, 7, 12, 1000, 4096])
    @pytest.mark.parametrize("theta", [0.0, 0.3, math.pi / 4])
    def test_batch_is_the_per_start_calls_bit_for_bit(self, rng, n, theta):
        # t_max = 0 and 2 have one giant row; N = 1000 takes two blocks of
        # modes; at N = 4096 a sum over the sites of a (B, N) stack is not
        # bit for bit the sum of each row.  The fold's limit r_inf and the
        # envelope (K, K_proj) of each start are its own fold's, too
        for t_max in (0, 2, 200, 2000) if n < 1000 else (0, 200):
            starts = [random_state(rng, n) for _ in range(4)]
            starts.append(localized_initial_state(WalkParams(n, theta, 2.0, 1.0)))
            batch = coin_trajectory(starts, theta, t_max)
            for got in batch:
                assert got.shape == (len(starts), t_max + 1)
            folded = _folded_modes(starts, theta)
            limits = (folded[4], *_axis_limit(folded))
            for i, s0 in enumerate(starts):
                for got, one in zip(batch, coin_trajectory(s0, theta, t_max)):
                    assert got[i].tobytes() == one.tobytes()
                own = _folded_modes(s0, theta)
                for got, one in zip(limits, (own[4], *_axis_limit(own))):
                    assert got[i].tobytes() == one[0].tobytes()

    def test_batch_of_one(self, rng):
        s0 = random_state(rng, 9)
        for got, one in zip(coin_trajectory([s0], 0.8, 50), coin_trajectory(s0, 0.8, 50)):
            assert got.shape == (1, 51)
            assert got[0].tobytes() == one.tobytes()

    def test_rejects_empty_or_mixed_batches(self, rng):
        for starts in ([], [random_state(rng, 5), random_state(rng, 6)]):
            with pytest.raises(ParameterError):
                coin_trajectory(starts, 0.4, 10)

    def test_memory_bounded_by_block_cap(self):
        # one block of all 1000 modes peaks at about 27 MB here
        s0 = localized_initial_state(WalkParams(1000, math.pi / 4, 1.0, 0.5))
        tracemalloc.start()
        try:
            coin_trajectory(s0, math.pi / 4, 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 64),
    theta=st.floats(0.0, math.pi / 2),
    t_max=st.integers(0, 3000),
    seed=st.integers(0, 2**31),
)
@example(n=12, theta=0.0, t_max=3000, seed=1)
@example(n=12, theta=1e-6, t_max=3000, seed=2)
def test_coin_trajectory_direct_equivalence_property(n, theta, t_max, seed):
    # theta = 0 and 1e-6 at N = 12 are where the two-frequency closed form fails
    assert_matches_direct(random_state(np.random.default_rng(seed), n), theta, t_max)



@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 64), theta=st.floats(0.0, math.pi / 2), seed=st.integers(0, 2**31))
@example(n=12, theta=0.0, seed=1)
@example(n=16, theta=0.0, seed=2)
@example(n=12, theta=1e-6, seed=3)
@example(n=4, theta=2.2250738585e-313, seed=0)
def test_axis_limit_and_envelope(n, theta, seed):
    # at theta = 0 with 4 | N one mode stands still, and at theta = 1e-6 it
    # nearly does: there the alpha/beta form fails.  The theta = 0 walk
    # returns to its start after 2N steps, so its limit is the mean over
    # them; everywhere both envelopes are checked against running averages
    rng = np.random.default_rng(seed)
    starts = [random_state(rng, n), localized_initial_state(WalkParams(n, theta, 1.0, 2.0))]
    folded = _folded_modes(starts, theta)
    r_inf, (k, k_proj) = folded[4], _axis_limit(folded)
    phi = 2 * np.pi * np.arange(n) / n
    cos_omega = np.hypot(math.sin(theta), math.cos(theta) * np.cos(phi))
    ts = np.arange(1, 2001)
    for i, s0 in enumerate(starts):
        series = coin_trajectory(s0, theta, 2000)
        if cos_omega.min() > 1e-3 or theta == 0.0:
            if theta == 0.0:
                p_left, p_right, q = (x[: 2 * n].mean() for x in series)
            else:
                limit = asymptotic_density(decompose(s0, theta))
                p_left, p_right, q = limit.p_left, limit.p_right, limit.q
            want = [2 * q.real, -2 * q.imag, p_left - p_right]
            assert np.abs(r_inf[i] - want).max() < 1e-10
        p_left, p_right, q = (np.cumsum(x[:-1]) / ts for x in series)
        r_x, r_y, r_z = r_inf[i]
        e = np.stack([2 * q.real - r_x, -2 * q.imag - r_y, p_left - p_right - r_z])
        # |e(t)| <= K/t and |r_inf_hat . e(t)| <= K_proj/t for e = r_avg - r_inf,
        # up to 1e-13 of roundoff in the sums
        r_hat = r_inf[i] / np.linalg.norm(r_inf[i])
        assert np.all(ts * (np.sqrt(np.sum(e**2, axis=0)) - 1e-13) <= k[i])
        assert np.all(ts * (np.abs(r_hat @ e) - 1e-13) <= k_proj[i])

def edge_start(rng, n, start):
    """A normalized random state on all sites, on the odd sites only, or on
    one site away from the origin."""
    s0 = random_state(rng, n)
    sites = np.arange(n)
    keep = {"random": sites >= 0, "odd sites": sites % 2 == 1, "off origin": sites == n - 2}[start]
    a, b = s0.a * keep, s0.b * keep
    norm = math.sqrt(np.sum(np.abs(a) ** 2 + np.abs(b) ** 2))
    return WalkState(a / norm, b / norm)


@pytest.mark.parametrize("start", ["random", "odd sites", "off origin"])
@pytest.mark.parametrize("theta", [0.0, math.pi / 2, 0.9])
@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 10])
def test_mode_symmetry_edge_cases(rng, n, theta, start):
    # odd N has no fold; N = 2 (mod 4) folds to an odd number of modes, with
    # one self-paired mode, and 4 | N to an even number, with two
    assert_matches_direct(edge_start(rng, n, start), theta, 60)


@pytest.mark.parametrize("start", ["random", "localized"])
def test_trace_is_the_norm_at_every_step(rng, start):
    # the trace is the constant weight of the modes, so it carries none of
    # the norm drift of fl(cos theta)^2 + fl(sin theta)^2 != 1 over 10^4 steps
    if start == "random":
        s0 = random_state(rng, 1000)
    else:
        s0 = localized_initial_state(WalkParams(1000, math.pi / 4, math.pi / 3, math.pi / 6))
    p_left, p_right, _ = coin_trajectory(s0, math.pi / 4, 10**4)
    assert np.abs(p_left + p_right - s0.norm_squared).max() <= 1e-15


long_double_only = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= 1e-18,
    reason="long double is no wider than double on this platform, so the "
    "oracle's coin would carry the same norm drift as the one under test",
)


@long_double_only
def test_matches_a_unitary_long_double_walk(rng):
    # a double stepper shares the drift of fl(cos theta)^2 + fl(sin theta)^2
    # != 1; the series takes no step and stays closer to the unitary walk
    s0 = random_state(rng, 64)
    want = long_double_densities(s0, 0.7, 2000)
    for got, exact in zip(coin_trajectory(s0, 0.7, 2000), want):
        assert np.abs(got - exact).max() < 5e-14


@long_double_only
@pytest.mark.parametrize(
    "n, theta, t_max",
    [
        (7, 0.3, 20000),
        (12, 0.0, 3000),
        (12, 1e-6, 3000),
        (13, 0.0, 3000),
        (25, math.pi / 2 - 1e-6, 3000),
        (64, 0.7, 2000),
    ],
)
def test_localized_series_is_the_long_double_walk(n, theta, t_max):
    # the roundoff grows with the rows of the phasor tables, not with t_max;
    # at N = 12 one mode stands still (theta = 0) or nearly does (1e-6)
    s0 = localized_initial_state(WalkParams(n, theta, 1.0, 2.0))
    for got, exact in zip(coin_trajectory(s0, theta, t_max), long_double_densities(s0, theta, t_max)):
        assert np.abs(got - exact).max() < 1e-14


@long_double_only
@pytest.mark.parametrize("n", [89, 103, 202])
def test_fig3_series_at_bluestein_sizes(n):
    # at sizes with a prime factor of 89 or more numpy's FFT takes
    # Bluestein's algorithm, and its transform of a delta is not exactly flat
    s0 = localized_initial_state(WalkParams(n, math.pi / 4, math.pi / 3, math.pi / 6))
    want = long_double_densities(s0, math.pi / 4, 2000)
    for got, exact in zip(coin_trajectory(s0, math.pi / 4, 2000), want):
        assert np.abs(got - exact).max() < 1e-14


@pytest.mark.parametrize("theta", [0.0, 1e-6, 0.3, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("n", [3, 4, 7, 12, 100, 1000])
def test_giant_turn_is_the_rotation_of_direct_steps(n, theta):
    # the giant step turns each folded mode by B alpha_k about its axis,
    # n n^T + cos(B alpha) (I - n n^T) + sin(B alpha) [n]x, with the base
    # the B-th power of the long double turn e^{i alpha_k}; it must be
    # Ad(M_k^B) of B direct steps.  Their coin (fl(cos theta), fl(sin
    # theta)) turns at an angle off theta by `offset`, which moves B alpha_k
    # by up to 2 B offset (4.8e-17 at pi/4: 9.6e-14 at B = 1001)
    assert np.finfo(np.longdouble).nmant >= 63, (
        "coin_trajectory takes its turns from np.longdouble, which needs a "
        "64-bit significand (the 80-bit x87 format of x86-64 Linux, or wider)"
    )
    start = localized_initial_state(WalkParams(n, theta, 1.0, 2.0))
    _, u, _, (axis, _, turn), _, _ = _folded_modes(start, theta)
    reps = np.arange(u.shape[-1])
    outer = axis[:, None] * axis[None]
    x, y, z = axis
    cross = np.array([[0 * x, -z, y], [z, 0 * x, -x], [-y, x, 0 * x]])
    c, s = coin(theta)
    offset = float(abs(np.arctan2(np.longdouble(s), np.longdouble(c)) - np.longdouble(theta)))
    for steps in (1, 2, 15, 90, 1001):
        base = _turn_power(turn, steps)
        got = outer + base.real * (np.eye(3)[:, :, None] - outer) + base.imag * cross
        a, b, sign = power_of_walk(theta, n, steps)
        want = rotation(a[reps], b[reps], sign)
        assert np.abs(got - want).max() < 1e-13 + 2 * steps * offset


@pytest.mark.parametrize("theta", [0.0, 1e-6, 0.3, math.pi / 4, math.pi / 2])
@pytest.mark.parametrize("n", [3, 4, 7, 12, 100, 1000, 4096])
def test_bases_by_squaring_are_the_phase_angle_bases(n, theta):
    # the table bases are powers of the turn e^{i alpha_k}, taken by squaring
    # from cos omega_k and sin omega_k; the angle route takes cos and sin of
    # 2 B omega_k.  Both carry about B long double roundoffs before the one
    # rounding to double, so they differ by at most a few ulp
    start = localized_initial_state(WalkParams(n, theta, 1.0, 2.0))
    _, _, _, (_, _, turn), _, _ = _folded_modes(start, theta)
    for steps in (1, 2, 15, 29, 90, 101, 1001):
        got = _turn_power(turn, steps)
        assert np.abs(got - phase_base(n, theta, steps)).max() < 4.5e-16


# the two exact identities of the series that selftest checks 2 and 3 read
IDENTITY_THETAS = [0.0, 1e-9, 0.3, math.pi / 4, math.pi / 2]


@pytest.mark.parametrize("t_max", [200, 201])
@pytest.mark.parametrize("theta", IDENTITY_THETAS)
def test_cycles_past_the_light_cone_share_the_series(theta, t_max):
    # a walk from site 0 stays on sites -t..t, so the cycles of 2T + 1 and
    # 2T + 2 sites both carry the line's series; at T = 201 the even cycle
    # has 404 sites, and at theta = 0 its mode 4k = N does not turn
    group = [WalkParams(3, theta, g, p) for g, p in bloch_points(np.random.default_rng(30), 5)]
    assert light_cone_odd_vs_even(group, t_max) < 1e-14


@pytest.mark.parametrize("t_max", [200, 201])
@pytest.mark.parametrize("theta", IDENTITY_THETAS)
def test_odd_cycle_and_its_double_share_the_series(theta, t_max):
    # m = N | 1: the odd sizes 3, 5, 13 and 25 against 6, 10, 26 and 50
    rng = np.random.default_rng(31)
    for n in (3, 4, 12, 25):
        group = [WalkParams(n, theta, g, p) for g, p in bloch_points(rng, 5)]
        assert fold_odd_vs_double(group, t_max) < 1e-14


def _n_length_fold(starts, theta):
    """The fold of ``_folded_modes`` through N-length mode vectors, for any
    starts: (modes (2, B, N), Bloch stack (3, B, N), its fold sum (3, B, m),
    and the tuple ``_folded_modes`` returns)."""
    n = starts[0].n_sites
    v_l, v_r = (np.array(v) for v in zip(*map(fourier_coefficients, starts)))
    cross = 2 * v_l * v_r.conj()
    m = n // 2 if n % 2 == 0 else n
    abs2 = [x.real**2 + x.imag**2 for x in (v_l, v_r)]
    stack = np.stack([cross.real, -cross.imag, abs2[0] - abs2[1]])
    bloch = stack.reshape(3, len(starts), -1, m).sum(axis=2)
    reps = np.arange(m // 2 + 1)
    partner = bloch[..., -reps % m] * np.array([1.0, -1.0, 1.0])[:, None, None]
    partner[..., reps == -reps % m] = 0.0
    u = np.stack([bloch[..., reps] + partner, bloch[..., reps] - partner], axis=2)
    u = u.reshape(3, -1, reps.size)
    geometry = axis, cos_omega, _ = _mode_geometry(n, reps, theta)
    kept = np.where(cos_omega == 0.0, u, axis[:, None] * (axis[:, None] * u).sum(axis=0))
    parts, columns = np.arange(3), 2 * np.arange(len(starts))[:, None] + [0, 1, 0]
    phasor = (u - kept - 1j * np.cross(axis[:, None], u, axis=0))[parts, columns]
    r_inf = np.array([kept[parts, column].sum(axis=-1) for column in columns])
    return np.stack([v_l, v_r]), stack, bloch, (list(starts), u, kept, geometry, r_inf, phasor)


def _same(x, y):
    """Equal shapes and values, zero signs included."""
    parts = [(f(x), f(y)) for f in (np.real, np.imag)]
    return x.shape == y.shape and all(np.array_equal(a, b) for a, b in parts) and all(
        np.array_equal(np.signbit(a), np.signbit(b)) for a, b in parts
    )


@pytest.mark.parametrize("theta", [0.0, 1e-9, 0.3, math.pi / 4, math.pi / 2])
def test_site_0_fold_is_the_n_length_fold(monkeypatch, theta):
    # starts on site 0 fold their flat per-start vector, n // m times itself,
    # broadcast over the folded modes; every array equals the one the
    # N-length mode vectors give, zero signs included, alone and in a batch,
    # and no start of theirs is transformed.  A start off site 0 takes the
    # N-length route, so a batch that holds one does too
    transforms = count_spectral_calls(monkeypatch, ["fourier_coefficients"])
    for n in [*range(3, 41), 100, 101, 4096, 4097]:
        delta = np.eye(1, n)[0]
        angles = ((1.0, 2.0), (0.0, 0.0), (math.pi, 1.5))
        starts = [localized_initial_state(WalkParams(n, theta, g, p)) for g, p in angles]
        starts += [
            WalkState(0 * delta, (0.6 - 0.8j) * delta),
            WalkState(-0.6 * delta, 0.8j * delta),
            WalkState(-0.0 * delta, -0.0 * delta),
        ]
        m = n // 2 if n % 2 == 0 else n
        for batch in [*([s] for s in starts), starts]:
            modes, stack, summed, want = _n_length_fold(batch, theta)
            assert np.array_equal(modes, np.broadcast_to(modes[..., :1], modes.shape))
            assert np.array_equal(stack, np.broadcast_to(stack[..., :1], stack.shape))
            assert np.array_equal(summed, np.broadcast_to(stack[..., :1] * (n // m), summed.shape))
            transforms["fourier_coefficients"] = 0
            got = _folded_modes(batch, theta)
            assert transforms["fourier_coefficients"] == 0
            assert got[0] == want[0]
            for g, w in zip([*got[1:3], *got[3], *got[4:]], [*want[1:3], *want[3], *want[4:]]):
                assert _same(g, w)
        mixed = [*starts[:2], random_state(np.random.default_rng(n), n)]
        transforms["fourier_coefficients"] = 0
        got = _folded_modes(mixed, theta)
        assert transforms["fourier_coefficients"] == len(mixed)
        want = _n_length_fold(mixed, theta)[3]
        for g, w in zip([*got[1:3], *got[4:]], [*want[1:3], *want[4:]]):
            assert _same(g, w)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclewalk import (
    ParameterError,
    WalkParams,
    WalkState,
    coin_density,
    evolve,
    localized_initial_state,
    step,
)

from cyclewalk.spectral import amplitudes_at, decompose
from cyclewalk.walk import step_arrays

from conftest import random_state

SQRT_HALF = math.sqrt(2) / 2


class TestWalkParams:
    def test_valid(self):
        WalkParams(3, math.pi / 4, math.pi / 3, math.pi / 6, 2.0)

    @pytest.mark.parametrize("n_sites", [5, np.int64(5), np.int32(5), np.uint8(5)])
    def test_numpy_integer_sizes(self, n_sites):
        params = WalkParams(n_sites, 0.5)
        assert params.n_sites == 5 and type(params.n_sites) is int
        assert params == WalkParams(5, 0.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sites": 2},
            {"theta": -0.1},
            {"theta": math.pi / 2 + 0.1},
            {"gamma": math.pi + 0.1},
            {"phi": 2 * math.pi},
            {"energy_scale": 0.0},
            {"energy_scale": math.inf},
            {"energy_scale": math.nan},
            {"n_sites": 3.5},
            {"n_sites": math.nan},
            {"n_sites": 5.0},
            {"n_sites": "5"},
            {"n_sites": np.float64(5.0)},
        ],
    )
    def test_rejects_out_of_domain(self, kwargs):
        base = dict(n_sites=3, theta=0.5, gamma=0.5, phi=0.5, energy_scale=1.0)
        base.update(kwargs)
        with pytest.raises(ParameterError):
            WalkParams(**base)


class TestLocalizedInitialState:
    def test_left_pole(self):
        s = localized_initial_state(WalkParams(3, 0.5, gamma=0.0, phi=0.0))
        assert s.a[0] == 1.0
        assert np.all(s.b == 0)
        assert np.all(s.a[1:] == 0)
        assert s.time == 0

    def test_right_pole(self):
        s = localized_initial_state(WalkParams(3, 0.5, gamma=math.pi, phi=0.0))
        assert abs(s.a[0]) < 1e-16
        assert abs(s.b[0] - 1.0) < 1e-15

    def test_equator(self):
        s = localized_initial_state(
            WalkParams(5, 0.5, gamma=math.pi / 2, phi=math.pi / 2)
        )
        assert abs(s.a[0] - SQRT_HALF) < 1e-15
        assert abs(s.b[0] - 1j * SQRT_HALF) < 1e-15

    def test_normalized(self):
        s = localized_initial_state(WalkParams(7, 0.3, gamma=1.0, phi=2.0))
        assert abs(s.norm_squared - 1.0) < 1e-12

    def test_start_is_not_copied(self):
        # the two N-length arrays hold 30.5 MiB at N = 10**6; the state takes
        # them as built, so the start peaks there, not at twice that
        tracemalloc.start()
        try:
            s = localized_initial_state(WalkParams(10**6, 0.3, gamma=1.0, phi=2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert s.a.dtype == s.b.dtype == np.complex128 and s.a.shape == s.b.shape == (10**6,)
        for x in (s.a, s.b):
            assert not x.flags.writeable and x.base is None
            with pytest.raises(ValueError):
                x[1] = 1.0

    def test_state_copies_caller_arrays(self):
        a, b = np.zeros(4, complex), np.zeros(4, complex)
        a[0] = 1.0
        s = WalkState(a, b)
        a[0], b[1] = 0.5, 0.5
        assert s.a.tolist() == [1, 0, 0, 0] and not s.b.any()
        frozen = np.array([1, 0, 0, 0], complex)
        frozen.setflags(write=False)
        assert WalkState(frozen, b).a is not frozen


class TestStep:
    def test_hadamard_from_left(self):
        s = localized_initial_state(WalkParams(3, math.pi / 4, 0.0, 0.0))
        out = step(s, math.pi / 4)
        assert abs(out.a[2] - SQRT_HALF) < 1e-15
        assert abs(out.b[1] - SQRT_HALF) < 1e-15
        assert out.time == 1

    def test_zero_theta_shifts_and_flips(self):
        s = localized_initial_state(WalkParams(3, 0.0, gamma=math.pi, phi=0.0))
        out = step(s, 0.0)
        assert abs(out.b[1] + 1.0) < 1e-15
        assert np.sum(np.abs(out.a)) < 1e-15

    def test_matches_site_formula(self, rng):
        # a'[k] = a[k+1] cos + b[k+1] sin, b'[k] = a[k-1] sin - b[k-1] cos
        for n in (3, 4, 9):
            for theta in (0.0, math.pi / 6, math.pi / 4, 1.3, math.pi / 2):
                s = random_state(rng, n)
                out = step(s, theta)
                c, si = math.cos(theta), math.sin(theta)
                for k in range(n):
                    up, down = (k + 1) % n, (k - 1) % n
                    assert abs(out.a[k] - (s.a[up] * c + s.b[up] * si)) < 1e-15
                    assert abs(out.b[k] - (s.a[down] * si - s.b[down] * c)) < 1e-15

    @pytest.mark.parametrize("shape", [(1,), (3,), (5, 7), (2, 3, 4), (733,)])
    def test_step_arrays_is_the_rolled_coin(self, rng, shape):
        # the shift is a permutation: bit for bit the np.roll of the coin's output
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        b = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        c, si = math.cos(0.7), math.sin(0.7)
        left, right = step_arrays(a, b, (c, si))
        assert left.tobytes() == np.roll(a * c + b * si, -1, axis=-1).tobytes()
        assert right.tobytes() == np.roll(a * si - b * c, 1, axis=-1).tobytes()

    def test_norm_preserved_random(self, rng):
        for n in (3, 4, 9):
            s = random_state(rng, n)
            theta = rng.uniform(0, math.pi / 2)
            assert abs(step(s, theta).norm_squared - 1.0) < 1e-12


class TestEvolve:
    def test_zero_steps_identity(self, rng):
        s = random_state(rng, 5)
        out = evolve(s, 0.7, 0)
        np.testing.assert_array_equal(out.a, s.a)
        np.testing.assert_array_equal(out.b, s.b)

    def test_two_left_shifts(self):
        s = localized_initial_state(WalkParams(4, 0.0, 0.0, 0.0))
        out = evolve(s, 0.0, 2)
        assert abs(out.a[2] - 1.0) < 1e-15

    def test_matches_spectral_solution(self):
        params = WalkParams(3, math.pi / 4, math.pi / 3, math.pi / 6)
        s = localized_initial_state(params)
        direct = evolve(s, params.theta, 100)
        closed = amplitudes_at(decompose(s, params.theta), 100)
        np.testing.assert_allclose(direct.a, closed.a, atol=1e-10)
        np.testing.assert_allclose(direct.b, closed.b, atol=1e-10)

    def test_rejects_negative_steps(self, rng):
        with pytest.raises(ParameterError):
            evolve(random_state(rng, 3), 0.5, -1)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 12),
    theta=st.floats(0.0, math.pi / 2),
    t=st.integers(1, 40),
    seed=st.integers(0, 2**31),
)
def test_norm_conserved_along_trajectory(n, theta, t, seed):
    s = random_state(np.random.default_rng(seed), n)
    assert abs(evolve(s, theta, t).norm_squared - 1.0) < 1e-12


def test_long_run_norm_stability():
    params = WalkParams(5, math.pi / 4, 1.0, 2.0)
    s = evolve(localized_initial_state(params), params.theta, 10**4)
    assert abs(s.norm_squared - 1.0) < 1e-12


def test_chirality_master_recurrence(rng):
    # P_L(t+1) = cos^2(th) P_L + sin^2(th) P_R + Re(Q) sin(2 th)
    for n, theta in [(3, math.pi / 4), (6, 0.9), (11, 0.3)]:
        s = random_state(rng, n)
        for _ in range(30):
            rho = coin_density(s)
            s = step(s, theta)
            rho_next = coin_density(s)
            predicted = (
                math.cos(theta) ** 2 * rho.p_left
                + math.sin(theta) ** 2 * rho.p_right
                + rho.q.real * math.sin(2 * theta)
            )
            assert abs(rho_next.p_left - predicted) < 1e-12


def test_seam_free_evolution_matches_larger_cycle():
    # Before amplitude wraps around, the cycle size is invisible.
    for t in range(1, 10):
        small = evolve(
            localized_initial_state(WalkParams(21, 0.6, 1.1, 0.4)), 0.6, t
        )
        big = evolve(
            localized_initial_state(WalkParams(101, 0.6, 1.1, 0.4)), 0.6, t
        )
        touched = list(range(t + 1)) + list(range(-t, 0))
        for k in touched:
            assert abs(small.a[k] - big.a[k]) < 1e-12
            assert abs(small.b[k] - big.b[k]) < 1e-12

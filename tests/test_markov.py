import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclewalk import (
    MarkovState,
    NonThermalizingError,
    ParameterError,
    markov_beta,
    markov_solution,
    markov_step,
    markov_thermalization_time,
)


class TestMarkovStep:
    def test_theta_zero_identity(self):
        s = MarkovState(0.8, 0.2)
        out = markov_step(s, 0.0)
        assert abs(out.p_left - 0.8) < 1e-15 and abs(out.p_right - 0.2) < 1e-15
        # and exactly constant from then on
        again = markov_step(out, 0.0)
        assert again.p_left == out.p_left and again.p_right == out.p_right

    def test_hadamard_equilibrates_in_one_step(self):
        out = markov_step(MarkovState(1.0, 0.0), math.pi / 4)
        assert abs(out.p_left - 0.5) < 1e-15
        assert abs(out.p_right - 0.5) < 1e-15

    def test_half_pi_flip_flop(self):
        s = MarkovState(1.0, 0.0)
        flipped = markov_step(s, math.pi / 2)
        assert abs(flipped.p_left) < 1e-15 and abs(flipped.p_right - 1.0) < 1e-15
        back = markov_step(flipped, math.pi / 2)
        assert abs(back.p_left - 1.0) < 1e-15

    @settings(max_examples=50, deadline=None)
    @given(p=st.floats(0.0, 1.0), theta=st.floats(0.0, math.pi / 2))
    def test_stochasticity_preserved(self, p, theta):
        out = markov_step(MarkovState(p, 1.0 - p), theta)
        assert abs(out.p_left + out.p_right - 1.0) < 1e-14
        assert out.p_left >= -1e-15 and out.p_right >= -1e-15


class TestMarkovSolution:
    def test_t_zero_identity(self):
        s = MarkovState(0.3, 0.7)
        out = markov_solution(s, 1.0, 0)
        assert abs(out.p_left - 0.3) < 1e-15

    def test_matches_iteration(self, rng):
        for _ in range(5):
            theta = float(rng.uniform(0, math.pi / 2))
            p0 = float(rng.uniform(0, 1))
            state = MarkovState(p0, 1 - p0)
            walked = state
            for t in range(0, 1001):
                sol = markov_solution(state, theta, t)
                assert abs(sol.p_left - walked.p_left) < 1e-14
                assert abs(sol.p_right - walked.p_right) < 1e-14
                walked = markov_step(walked, theta)

    def test_long_time_limit(self):
        out = markov_solution(MarkovState(0.9, 0.1), 0.6, 10**6)
        assert abs(out.p_left - 0.5) < 1e-12

    def test_negative_t_rejected(self):
        with pytest.raises(ParameterError):
            markov_solution(MarkovState(0.5, 0.5), 0.5, -1)


class TestMarkovBeta:
    def test_decays_to_zero(self):
        s = MarkovState(1.0, 0.0)
        assert abs(markov_beta(s, 0.6, 200, 1.0)) < 1e-12

    def test_balanced_start_always_zero(self):
        s = MarkovState(0.5, 0.5)
        for t in (0, 1, 10, 100):
            assert markov_beta(s, 0.9, t, 1.0) == 0.0

    def test_polarized_start_infinite(self):
        assert markov_beta(MarkovState(1.0, 0.0), 0.6, 0, 1.0) == math.inf
        assert markov_beta(MarkovState(0.0, 1.0), 0.6, 0, 1.0) == -math.inf

    def test_round_trip_through_gibbs_weights(self):
        # exp(+-beta e0)/Z reproduces the closed-form probabilities
        s = MarkovState(0.85, 0.15)
        e0 = 1.7
        for t in (1, 5, 20):
            beta = markov_beta(s, 0.5, t, e0)
            z = math.exp(beta * e0) + math.exp(-beta * e0)
            sol = markov_solution(s, 0.5, t)
            assert abs(math.exp(beta * e0) / z - sol.p_left) < 1e-12
            assert abs(math.exp(-beta * e0) / z - sol.p_right) < 1e-12


class TestMarkovThermalizationTime:
    def test_hadamard_immediate(self):
        formula, empirical = markov_thermalization_time(
            MarkovState(1.0, 0.0), math.pi / 4, 1e-4
        )
        assert empirical == 1

    def test_formula_vs_empirical(self):
        formula, empirical = markov_thermalization_time(
            MarkovState(1.0, 0.0), math.pi / 3, 1e-4
        )
        assert abs(formula - math.log(1e-4) / math.log(0.5)) < 1e-12
        assert empirical == 14

    def test_flip_flop_rejected(self):
        with pytest.raises(NonThermalizingError):
            markov_thermalization_time(MarkovState(1.0, 0.0), math.pi / 2, 1e-4)

    def test_frozen_rejected(self):
        with pytest.raises(NonThermalizingError):
            markov_thermalization_time(MarkovState(1.0, 0.0), 0.0, 1e-4)

    @pytest.mark.parametrize("epsilon", [0.0, math.nan, math.inf])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ParameterError):
            markov_thermalization_time(MarkovState(1.0, 0.0), math.pi / 3, epsilon)

    def test_balanced_start_immediate(self):
        _, empirical = markov_thermalization_time(MarkovState(0.5, 0.5), 0.6, 1e-4)
        assert empirical == 1

    def test_log_epsilon_scaling(self):
        theta = math.pi / 3
        _, tau1 = markov_thermalization_time(MarkovState(1.0, 0.0), theta, 1e-3)
        _, tau2 = markov_thermalization_time(MarkovState(1.0, 0.0), theta, 1e-4)
        expected = math.log(10) / abs(math.log(abs(math.cos(2 * theta))))
        assert abs((tau2 - tau1) - expected) <= 1.0

    def test_agrees_with_formula_within_one_step(self):
        for theta in (0.5, 1.0, 1.3):
            for eps in (1e-3, 1e-4, 1e-5):
                formula, empirical = markov_thermalization_time(
                    MarkovState(0.9, 0.1), theta, eps
                )
                assert abs(empirical - formula) <= 1.5

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
from cyclewalk._oracle import markov_vs_iterated
from cyclewalk.markov import markov_imbalances


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
        chains = [(rng.uniform(0, math.pi / 2), rng.uniform(0, 1)) for _ in range(5)]
        assert markov_vs_iterated(chains, 1000) < 1e-14

    def test_long_time_limit(self):
        out = markov_solution(MarkovState(0.9, 0.1), 0.6, 10**6)
        assert abs(out.p_left - 0.5) < 1e-12

    def test_negative_t_rejected(self):
        with pytest.raises(ParameterError):
            markov_solution(MarkovState(0.5, 0.5), 0.5, -1)


@pytest.mark.parametrize("advance", [
    lambda state: markov_step(state, math.nan),
    lambda state: markov_solution(state, math.nan, 3),
], ids=["step", "solution"])
def test_a_nan_state_is_rejected(advance):
    # NaN fails every comparison, so the state's checks are written to
    # fail on it: a NaN theta no longer yields a state of NaN probabilities
    with pytest.raises(ParameterError, match="^probabilities must sum to 1, got nan$"):
        advance(MarkovState(0.8, 0.2))


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

    def test_slow_chain_reaches_its_boundary(self):
        # theta = 1e-4 thermalizes after about 4.6e8 steps
        initial, theta, eps = MarkovState(1.0, 0.0), 1e-4, 1e-4
        formula, tau = markov_thermalization_time(initial, theta, eps)
        assert abs(markov_beta(initial, theta, tau - 1, 1.0)) > eps
        assert abs(markov_beta(initial, theta, tau, 1.0)) <= eps
        assert abs(tau - formula) <= 1.5

    @pytest.mark.parametrize("theta, eps", [(1e-4, 1e-20), (3e-8, 1e-10)])
    def test_boundary_far_from_estimate(self, theta, eps):
        # a slow chain at tiny eps: the search must land on the float boundary
        initial = MarkovState(1.0, 0.0)
        _, tau = markov_thermalization_time(initial, theta, eps)
        assert abs(markov_beta(initial, theta, tau - 1, 1.0)) > eps
        assert abs(markov_beta(initial, theta, tau, 1.0)) <= eps

    @pytest.mark.parametrize(
        "theta, p_left, eps, e0, expected",
        [(1.5683544390988073, 0.5000000000275323, 2.007818660848513e-12, 0.010322439820290208,
          277675),
         (1e-4, 1.0, 1e-20, 1.0, 2302585084)],
    )
    def test_time_is_ceil_of_formula(self, theta, p_left, eps, e0, expected):
        # beta_m = atanh(x) / e0 keeps its relative precision at small x, so
        # rounding does not move the boundary off ceil(formula)
        initial = MarkovState(p_left, 1 - p_left)
        formula, empirical = markov_thermalization_time(initial, theta, eps, e0=e0)
        assert empirical == math.ceil(formula) == expected

    @pytest.mark.parametrize(
        "theta, p_left, eps, e0",
        [(1.074151304307987, 0.40400824631164955, 7.222716555847893e-17, 0.14562918521212806),
         (1.4891879476552945, 0.8599465287952899, 8.594870883743752e-16, 0.46279682488393836)],
    )
    def test_flipping_chain_is_last_violation_plus_one(self, theta, p_left, eps, e0):
        # x alternates sign, so rounding lets e0 * |beta_m| dip below eps and
        # rise above it again before tau
        initial = MarkovState(p_left, 1 - p_left)
        _, tau = markov_thermalization_time(initial, theta, eps, e0=e0)
        violations = [
            t for t in range(1, 2 * tau + 10)
            if e0 * abs(markov_beta(initial, theta, t, e0)) > eps
        ]
        assert tau == violations[-1] + 1


@pytest.mark.parametrize("theta", [math.pi / 8, math.pi / 3, 1.2, 1.5])
@pytest.mark.parametrize("p_left", [1.0, 0.3, 0.5])
def test_imbalances_fill_the_underflowed_tail(theta, p_left):
    # from p_left = 1, x underflows to a signed zero at t = 2151, 1075 and
    # 2447 (theta = 1.5 only at 74,085, past t_max); the tail after it is
    # filled in, alternating in sign where cos(2 theta) < 0, and must read
    # as the per-t formula does
    initial = MarkovState(p_left, 1.0 - p_left)
    decay, dp0 = math.cos(2 * theta), initial.p_left - initial.p_right
    t_max = 3001
    expected = [decay**t * dp0 for t in range(t_max + 1)]
    assert [x.hex() for x in markov_imbalances(initial, theta, t_max)] == [
        x.hex() for x in expected
    ]

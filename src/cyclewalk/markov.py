"""Classical Markov analogue of the walk's chirality dynamics.

Dropping the interference term from the quantum chirality master map leaves
a two-state chain with the column-stochastic transition matrix

    [[cos^2(theta), sin^2(theta)],
     [sin^2(theta), cos^2(theta)]].

The chain has the exact solution p_left(t) = (1 + cos(2*theta)^t * dp0) / 2
with dp0 = p_left(0) - p_right(0), an equilibrium at (1/2, 1/2), and a
transient temperature that diverges as equilibrium is reached.  None of it
depends on the cycle size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonThermalizingError, ParameterError

_DEFAULT_SCAN_HORIZON = 10**6


@dataclass(frozen=True)
class MarkovState:
    """Classical chirality probability pair."""

    p_left: float
    p_right: float
    time: int = 0

    def __post_init__(self) -> None:
        if abs(self.p_left + self.p_right - 1.0) > 1e-14:
            raise ParameterError(
                f"probabilities must sum to 1, got {self.p_left + self.p_right}"
            )
        if self.p_left < 0 or self.p_right < 0:
            raise ParameterError("probabilities must be non-negative")


def markov_step(state: MarkovState, theta: float) -> MarkovState:
    """One application of the two-state transition matrix.

    Evaluated through the matrix's eigenbasis: the probability imbalance is
    the decaying eigenmode, p_left - p_right -> cos(2*theta) * (p_left -
    p_right).  This keeps the trace exactly 1 and stays bit-consistent with
    the closed-form solution.
    """
    d = math.cos(2 * theta) * (state.p_left - state.p_right)
    return MarkovState(
        p_left=(1.0 + d) / 2,
        p_right=(1.0 - d) / 2,
        time=state.time + 1,
    )


def markov_solution(initial: MarkovState, theta: float, t: int) -> MarkovState:
    """Closed-form state after t steps of the chain."""
    if t < 0:
        raise ParameterError(f"t must be non-negative, got {t}")
    d = math.cos(2 * theta) ** t * (initial.p_left - initial.p_right)
    return MarkovState((1.0 + d) / 2, (1.0 - d) / 2, time=initial.time + t)


def markov_beta(initial: MarkovState, theta: float, t: int, e0: float) -> float:
    """Transient inverse temperature of the chain at step t.

    beta_m(t) = ln((1 + x) / (1 - x)) / (2*e0) with
    x = cos(2*theta)^t * (p_left(0) - p_right(0)).  |x| = 1 (a fully
    polarized start at t = 0) gives a signed infinity.
    """
    if t < 0:
        raise ParameterError(f"t must be non-negative, got {t}")
    x = math.cos(2 * theta) ** t * (initial.p_left - initial.p_right)
    if abs(x) >= 1.0:
        return math.copysign(math.inf, x)
    return math.log((1 + x) / (1 - x)) / (2 * e0)


def markov_thermalization_time(
    initial: MarkovState,
    theta: float,
    epsilon: float,
    *,
    e0: float = 1.0,
    t_max: int = _DEFAULT_SCAN_HORIZON,
) -> tuple[float, int]:
    """Classical thermalization time: (log-formula estimate, empirical scan).

    The formula is (ln(eps) - ln(|dp0|)) / ln(|cos(2*theta)|); the empirical
    value is the last-violation-plus-one scan of e0 * |beta_m(t)| over
    t = 1..t_max.  theta = pi/4 kills the memory of the start in a single
    step; theta = 0 and theta = pi/2 never converge.
    """
    if not 0.0 < epsilon < math.inf:
        raise ParameterError(f"epsilon must be finite and positive, got {epsilon}")
    dp0 = initial.p_left - initial.p_right
    if dp0 == 0.0:
        return 0.0, 1
    cos2t = math.cos(2 * theta)
    if abs(abs(cos2t) - 1.0) < 1e-15:
        which = "flip-flops" if cos2t < 0 else "is frozen"
        raise NonThermalizingError(
            f"the chain {which} at theta = {theta}; it never thermalizes"
        )
    if cos2t == 0.0:
        return 0.0, 1
    formula = (math.log(epsilon) - math.log(abs(dp0))) / math.log(abs(cos2t))
    last_violation = 0
    for t in range(1, t_max + 1):
        if e0 * abs(markov_beta(initial, theta, t, e0)) > epsilon:
            last_violation = t
        elif t > formula + 2:
            # |beta_m| decays monotonically in |cos(2*theta)|^t; once past
            # the formula estimate no later violation can occur.
            break
    return formula, last_violation + 1

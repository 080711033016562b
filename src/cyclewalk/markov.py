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


def markov_imbalances(initial: MarkovState, theta: float, t_max: int) -> list[float]:
    """x(t) = p_left(t) - p_right(t) for t = 0, ..., t_max, each as
    :func:`markov_solution` computes it.  |cos(2*theta)^t| falls with t, so
    once x underflows to a signed zero the rest is that zero, alternating in
    sign if cos(2*theta) < 0, and is filled in, not computed."""
    decay, dp0 = math.cos(2 * theta), initial.p_left - initial.p_right
    x = []
    for t in range(t_max + 1):
        x.append(decay**t * dp0)
        if x[-1] == 0.0:
            zeros = [-x[-1], x[-1]] if decay < 0 else [x[-1], x[-1]]
            return x + zeros * ((t_max - t) // 2) + zeros[: (t_max - t) % 2]
    return x


def beta_of_imbalance(x: float, e0: float) -> float:
    """Inverse temperature of a chain state with imbalance x = p_left - p_right.

    atanh(x) / e0, which is ln((1 + x) / (1 - x)) / (2*e0) without its loss
    of digits at small x.  |x| = 1 (a fully polarized state) gives a signed
    infinity.
    """
    if abs(x) >= 1.0:
        return math.copysign(math.inf, x)
    return math.atanh(x) / e0


def markov_beta(initial: MarkovState, theta: float, t: int, e0: float) -> float:
    """Transient inverse temperature of the chain at step t:
    :func:`beta_of_imbalance` of x = cos(2*theta)^t * (p_left(0) - p_right(0))."""
    if t < 0:
        raise ParameterError(f"t must be non-negative, got {t}")
    return beta_of_imbalance(math.cos(2 * theta) ** t * (initial.p_left - initial.p_right), e0)


def markov_thermalization_time(
    initial: MarkovState,
    theta: float,
    epsilon: float,
    *,
    e0: float = 1.0,
) -> tuple[float, int]:
    """Classical thermalization time: (log-formula estimate, exact time).

    The formula is (ln(eps) - ln(|dp0|)) / ln(|cos(2*theta)|); the exact
    time is last_violation + 1, the last violation being the last t >= 1
    with e0 * |beta_m(t)| > eps.  theta = pi/4 kills the memory of the
    start in a single step; theta = 0 and theta = pi/2 never converge.
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
    log_decay = math.log(abs(cos2t))
    formula = (math.log(epsilon) - math.log(abs(dp0))) / log_decay

    def violated(t: int) -> bool:
        return e0 * abs(markov_beta(initial, theta, t, e0)) > epsilon

    # e0 * |beta_m(t)| = |atanh(cos(2*theta)^t * dp0)| decreases in t, but in
    # floats only along one parity of t, where x keeps its sign.  Rounding can
    # move the boundary off where |x| = tanh(eps), so per parity double from
    # that estimate, then bisect.
    estimate = math.ceil((math.log(math.tanh(epsilon)) - math.log(abs(dp0))) / log_decay)

    def last_violated(parity: int) -> int:
        hi = max(0, (estimate - parity) // 2)  # t = 2 * k + parity
        while violated(2 * hi + parity):
            hi = 2 * hi + 1
        lo = -1  # violated at k = lo, or lo = -1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if violated(2 * mid + parity) else (lo, mid)
        return 2 * lo + parity

    return formula, max(0, last_violated(1), last_violated(2)) + 1

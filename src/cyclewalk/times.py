"""Mixing and thermalization times of the averaged coin density.

Both times are "last violation + 1" scans: ``tau`` is one past the last
t >= 1 at which the averaged density is farther than epsilon from its
limit.  The mixing time measures the larger eigenvalue lambda+ of the
averaged density; the thermalization time measures the inverse temperature
beta.  The two deviations are asymptotically proportional with constant
c = 2*cosh^2(e0*beta_inf).  Both read beta only as the split angle
e0*beta = atanh(2*sqrt(chi)), so no time, band or c depends on e0.

Both read one series, d(t) = lambda+(t) - lambda+_inf: every threshold is
a band [lo, hi] that d must stay in.  A mixing threshold epsilon is
[-epsilon, epsilon].  Since tanh(e0*beta) = |r| = 2*lambda+ - 1,
e0*|beta(t) - beta_inf| > epsilon exactly when d(t) leaves [lo, hi], with
lo, hi = (tanh(e0*beta_inf -+ epsilon) - r_inf)/2.  At t = 1 the average
is a pure coin (beta = inf) read at its largest finite split 1 - 2**-53,
so a beta threshold is violated there when
atanh(1 - 2**-53) - e0*beta_inf > epsilon.

The scan need not run to ``t_max``.  With e(t) = r(t) - r_inf, the Bloch
vector of the average obeys |e| <= K/t and |r_inf_hat . e| <= K_proj/t, with
r_inf from the series' fold (``spectral._folded_modes``) and constants that
do not grow with N from its rotation axes (``spectral._axis_limit``).  As
exactly r_inf_hat . e <= 2d <= r_inf_hat . e + |e|^2/(2|r_inf|), no band is
left from t*_axis = floor(K/delta) + 1 on, with delta = 2*min(hi, -lo), nor
from t*_proj on, the first t with K_proj/(2t) <= -lo and
K_proj/(2t) + K^2/(4|r_inf| t^2) <= hi (inf when r_inf = 0, where a beta
band is [-tanh(epsilon), tanh(epsilon)]/2 and t*_axis holds).  With every
band edge shrunk by a relative 1e-9 to absorb the roundoff of the computed
series, no violation can occur at or after t* = min(t*_axis, t*_proj),
and the scan covers only [1, min(t*, t_max)].  Every reported value is the
one a scan over all of [1, t_max] gives.  ``satisfied`` still means "not
violated at t_max"; it is a proof of convergence only when t* <= t_max.

The averages are running sums of the coin series that ``simulate`` reads,
from :func:`cyclewalk.spectral.coin_trajectory`, folded with its
start-free mode geometry (``spectral._mode_geometry``).  That series stops
at ``MAX_STEPS`` (10^6) steps, so a scan that needs more, steps =
min(t*, t_max) - 1, raises :class:`ParameterError`.  A walk from site 0
reaches sites -t..t only (the light cone), so its series up to step t is
the same on every cycle of 2t + 1 sites or more.  Past it, N > 2 steps + 2,
the series comes from the same start folded on the cycle of 2 steps + 2
sites, about steps/2 modes against N/4; the limit lambda+_inf, c, the
envelope, the bands and t* stay the N-cycle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ParameterError
from .spectral import _axis_limit, _folded_modes, _series
from .thermo import CoinDensity, beta_of_chi, chi_of_density, running_chi
from .walk import MAX_STEPS, WalkParams, localized_initial_state


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of a deviation scan over t = 1..t_max.

    ``tau`` is last_violation + 1 (so tau = 1 means the criterion held from
    the start).  ``satisfied`` is False when t_max itself still violates
    the criterion, i.e. the reported tau cannot be trusted.  True means
    only "not violated at t_max"; it proves that no later t violates the
    criterion when the envelope horizon t* (see the module docstring) is
    at most t_max.
    """

    epsilon: float
    tau: int
    t_max: int
    last_violation: int
    c_constant: float
    satisfied: bool


def density_seminorm(rho1: CoinDensity, rho2: CoinDensity) -> float:
    """Distance |lambda+(rho1) - lambda+(rho2)| between two coin densities."""
    return abs(math.sqrt(chi_of_density(rho1)) - math.sqrt(chi_of_density(rho2)))


# e0*beta of the one-term average, a pure coin (module docstring)
_PURE_COIN_E0_BETA = math.atanh(1.0 - 2.0**-53)


def _asymptotics(params: WalkParams, folded=None):
    """(lambda_plus_inf, e0*beta_inf, c, (K, K_proj, |r_inf|)) of the localized
    start of ``params``, from the limit and envelope constants of its folded
    modes ``folded`` (folded here when None)."""
    folded = folded or _folded_modes(localized_initial_state(params), params.theta)
    k, k_proj = _axis_limit(folded)
    split = math.hypot(*folded[4][0])  # |r_inf| = 2*sqrt(chi_inf)
    e0_beta = float(beta_of_chi(0.25 * split**2, 1.0))
    c = math.inf if math.isinf(e0_beta) else 2.0 * math.cosh(e0_beta) ** 2
    return 0.5 + 0.5 * split, e0_beta, c, (float(k[0]), float(k_proj[0]), split)


def _beta_band(lam_inf: float, e0_beta_inf: float, e: float) -> tuple[float, float]:
    """Band (lo, hi) of d = lambda+ - lam_inf in which e0*|beta - beta_inf| <= e."""
    r_inf = 2.0 * lam_inf - 1.0
    return 0.5 * (math.tanh(e0_beta_inf - e) - r_inf), 0.5 * (math.tanh(e0_beta_inf + e) - r_inf)


def _horizon(envelope: tuple[float, float, float], bands: list[tuple[float, float]]) -> int | float:
    """Envelope horizon t* = min(t*_axis, t*_proj) of ``envelope`` = (K,
    K_proj, |r_inf|): no band is left at any t >= t*.

    Both bounds are derived in the module docstring; K_proj = inf, or
    r_inf = 0, leaves t*_axis.  Returns inf when neither is a finite number.
    """
    k, k_proj, split = envelope
    below = min(-lo for lo, _ in bands) * (1.0 - 1e-9)
    above = min(hi for _, hi in bands) * (1.0 - 1e-9)
    delta = 2.0 * min(below, above)
    if not delta > 0.0:
        return math.inf
    curve = k * k / (4.0 * split) if split > 0.0 else math.inf
    half = 0.5 * k_proj
    # t*_proj: half/t <= below, and half/t + curve/t^2 <= above from its root on
    proj = max(half / below, (half + math.sqrt(half * half + 4.0 * curve * above)) / (2.0 * above))
    bound = min(k / delta, proj)
    return math.floor(bound) + 1 if bound < math.inf else math.inf


def _setup(params: WalkParams, epsilons: list[float], t_max: int):
    """Check a scan's arguments; (lambda_plus_inf, e0*beta_inf, c, scan) of
    ``params``, where scan(bands) is :func:`_last_violations` of its series."""
    if not epsilons:
        raise ParameterError("epsilon must hold at least one threshold, got []")
    if not all(0.0 < e < math.inf for e in epsilons):
        raise ParameterError(f"epsilon must be finite and positive, got {epsilons}")
    if t_max < 1:
        raise ParameterError(f"t_max must be >= 1, got {t_max}")
    folded = _folded_modes(localized_initial_state(params), params.theta)
    lam_inf, e0_beta_inf, c, envelope = _asymptotics(params, folded)
    scan = partial(_last_violations, params, folded, t_max, envelope, lam_inf)
    return lam_inf, e0_beta_inf, c, scan


def _last_violations(
    params: WalkParams, folded, t_max: int, envelope, lam_inf: float, bands: list[tuple[float, float]]
) -> list[int]:
    """Last t in 1..t_max at which d(t) = lambda+(t) - lam_inf leaves each
    band [lo, hi], 0 where none does.

    All bands share one series of the localized start of ``params``, which
    stops at the horizon t* of ``envelope`` when that comes before t_max: no
    band can be left from t* on, so the result equals that of a scan over
    all of 1..t_max.  The series is that of the folded modes ``folded``, or
    of the light-cone cycle when that is smaller (module docstring).
    """
    steps = min(t_max, _horizon(envelope, bands)) - 1
    if steps > MAX_STEPS:
        raise ParameterError(
            f"the scan needs {steps} steps (min(horizon, t_max) - 1); the ceiling is {MAX_STEPS}"
        )
    if 1 <= steps and 2 * steps + 2 < params.n_sites:
        cone = replace(params, n_sites=2 * steps + 2)
        folded = _folded_modes(localized_initial_state(cone), params.theta)
    chi = running_chi(*(x[0] for x in _series(folded, steps)))
    dev = np.sqrt(chi, out=chi)  # in place: no second series-long array
    dev += 0.5
    dev -= lam_inf
    # dev[i] is the deviation at t = i + 1
    outside = [np.flatnonzero((dev < lo) | (dev > hi)) for lo, hi in bands]
    return [int(bad[-1]) + 1 if bad.size else 0 for bad in outside]


def _therm_last(last: int, epsilon: float, e0_beta_inf: float) -> int:
    """``last`` of a beta band, with t = 1 decided by the pure coin (module docstring)."""
    return last if last > 1 else int(_PURE_COIN_E0_BETA - e0_beta_inf > epsilon)


def _report(
    epsilon: float, last_violation: int, t_max: int, c: float
) -> ConvergenceReport:
    return ConvergenceReport(
        epsilon=epsilon,
        tau=last_violation + 1,
        t_max=t_max,
        last_violation=last_violation,
        c_constant=c,
        satisfied=last_violation < t_max,
    )


def mixing_time(params: WalkParams, epsilon: float, t_max: int) -> ConvergenceReport:
    """Scan for the last t in 1..t_max with |lambda+(t) - lambda+(inf)| > epsilon."""
    _, _, c, scan = _setup(params, [epsilon], t_max)
    (last,) = scan([(-epsilon, epsilon)])
    return _report(epsilon, last, t_max, c)


def convergence_sweep(
    params: WalkParams, epsilons: list[float], t_max: int
) -> list[dict]:
    """One pass over t = 1..t_max serving several thresholds at once.

    For each epsilon, reports the mixing time tau, the thermalization time
    tau_tilde, and the thermalization time at the rescaled threshold
    c * epsilon (the one expected to match tau).  Scanning once per
    parameter set, and only up to the envelope horizon of the smallest
    threshold, keeps N-range sweeps affordable.
    """
    lam_inf, e0_beta_inf, c, scan = _setup(params, epsilons, t_max)
    beta_ok = e0_beta_inf < math.inf
    beta_eps = [*epsilons, *(c * e for e in epsilons)] if beta_ok else []
    bands = [(-e, e) for e in epsilons] + [_beta_band(lam_inf, e0_beta_inf, e) for e in beta_eps]
    last = scan(bands)
    last_mix = last[: len(epsilons)]
    last_beta = [_therm_last(t, e, e0_beta_inf) for t, e in zip(last[len(epsilons) :], beta_eps)]
    records = []
    for i, e in enumerate(epsilons):
        records.append(
            {
                "n": params.n_sites,
                "epsilon": e,
                "tau_mix": last_mix[i] + 1,
                "tau_therm": (last_beta[i] + 1) if beta_ok else None,
                "c": c,
                "tau_therm_scaled": (last_beta[len(epsilons) + i] + 1) if beta_ok else None,
                "satisfied": beta_ok and max(last_mix[i], last_beta[i]) < t_max,
            }
        )
    return records


def thermalization_time(
    params: WalkParams, epsilon: float, t_max: int
) -> ConvergenceReport:
    """Scan for the last t in 1..t_max with e0*|beta(t) - beta(inf)| > epsilon.

    When the asymptotic temperature is zero (chi_inf = 1/4, beta_inf = inf)
    beta(t) has no finite limit to converge to; the report is returned
    flagged unsatisfied rather than raising.  At chi_inf = 0 (beta_inf = 0)
    the scan stops at t*_axis = floor(K/tanh(epsilon)) + 1 (module docstring).
    """
    lam_inf, e0_beta_inf, c, scan = _setup(params, [epsilon], t_max)
    if e0_beta_inf == math.inf:
        return _report(epsilon, t_max, t_max, c)
    band = _beta_band(lam_inf, e0_beta_inf, epsilon)
    (last,) = scan([band])
    return _report(epsilon, _therm_last(last, epsilon, e0_beta_inf), t_max, c)

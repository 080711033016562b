"""Mixing and thermalization times of the averaged coin density.

Both times are "last violation + 1" scans: ``tau`` is one past the last
t >= 1 at which the averaged density is farther than epsilon from its
limit.  The mixing time measures the larger eigenvalue lambda+ of the
averaged density; the thermalization time measures the inverse temperature
beta.  The two deviations are asymptotically proportional with constant
c = 2*cosh^2(beta_inf * e0).

The scan need not run to ``t_max``.  The Bloch vector of the average obeys
|r(t) - r_inf| <= K/t with a constant K that does not grow with N
(:func:`cyclewalk.thermo.envelope_constant`).  Since lambda+ = (1 + |r|)/2,
a lambda+ threshold epsilon cannot be violated once K/t < 2*epsilon.  Since
tanh(e0*beta) = |r|, the mean-value theorem gives
e0*|beta - beta_inf| <= delta / (1 - (r_inf + delta)^2) whenever
|r - r_inf| <= delta, so a beta threshold epsilon cannot be violated once
K/t is below the root delta of that bound set equal to epsilon.  With the
smallest delta over all thresholds, shrunk by a relative 1e-9 to absorb
the roundoff of the computed series, no violation can occur at or after
the horizon t* = floor(K/delta) + 1, and the scan covers only
[1, min(t*, t_max)].  Every reported value is the one a scan over all of
[1, t_max] gives.  ``satisfied`` still means "not violated at t_max"; it
is a proof of convergence only when t* <= t_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .thermo import (
    CoinDensity,
    asymptotic_density,
    averaged_trajectory_closed,
    beta_of_chi,
    chi_of_density,
    decompose_localized,
    envelope_constant,
    transient_temperature,
)
from .spectral import SpectralDecomposition
from .walk import WalkParams

# Cap on the (n_modes x chunk) work arrays used by the scans.
_CHUNK_ELEMENTS = 2_000_000


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


def _lambda_beta_series(decomp: SpectralDecomposition, e0: float, t_lo: int, t_hi: int):
    """Yield (times, lambda_plus, beta) chunks for t in [t_lo, t_hi]."""
    chunk = max(1, _CHUNK_ELEMENTS // decomp.n_sites)
    start = t_lo
    while start <= t_hi:
        stop = min(start + chunk - 1, t_hi)
        ts = np.arange(start, stop + 1)
        p_left, p_right, q = averaged_trajectory_closed(decomp, ts)
        chi = np.maximum(0.25 - (p_left * p_right - np.abs(q) ** 2), 0.0)
        lam_plus = 0.5 + np.sqrt(chi)
        # the t = 1 average is a pure coin (beta = inf); capping its split at
        # 1 - 1e-16 keeps beta(1) finite, so a large beta threshold holds at t = 1
        beta = beta_of_chi(np.minimum(chi, 0.25 * (1.0 - 1e-16) ** 2), e0)
        yield ts, lam_plus, beta
        start = stop + 1


def _asymptotics(decomp: SpectralDecomposition, e0: float) -> tuple[float, float, float]:
    """(lambda_plus_inf, beta_inf, c) of the spectral solution ``decomp``."""
    limit = transient_temperature(asymptotic_density(decomp), e0)
    c = math.inf if math.isinf(limit.beta) else 2.0 * math.cosh(limit.beta * e0) ** 2
    return limit.lambda_plus, limit.beta, c


def _horizon(
    decomp: SpectralDecomposition,
    lam_inf: float,
    lam_eps: list[float],
    beta_eps: list[float],
) -> int | float:
    """Envelope horizon t*: no threshold is violated at any t >= t*.

    The bound is derived in the module docstring.  Returns inf when K/delta
    is not a finite number.  ``beta_eps`` must be empty unless
    0 < r_inf < 1.
    """
    r_inf = 2.0 * lam_inf - 1.0
    slack = 1.0 - r_inf**2
    deltas = [2.0 * e for e in lam_eps]
    for e in beta_eps:
        # root of delta / (1 - (r_inf + delta)^2) = e, free of cancellation
        b = 1.0 + 2.0 * e * r_inf
        deltas.append(2.0 * e * slack / (b + math.sqrt(b * b + 4.0 * e * e * slack)))
    delta = min(deltas) * (1.0 - 1e-9)
    bound = envelope_constant(decomp) / delta if delta > 0.0 else math.inf
    return math.floor(bound) + 1 if bound < math.inf else math.inf


def _check_scan_args(epsilons: list[float], t_max: int) -> None:
    if not all(0.0 < e < math.inf for e in epsilons):
        raise ParameterError(f"epsilon must be finite and positive, got {epsilons}")
    if t_max < 1:
        raise ParameterError(f"t_max must be >= 1, got {t_max}")


def _last_violations(
    decomp: SpectralDecomposition,
    e0: float,
    t_max: int,
    lam_inf: float,
    lam_eps: list[float],
    beta_inf: float,
    beta_eps: list[float],
) -> tuple[list[int], list[int]]:
    """Last t in 1..t_max violating each threshold, 0 where none does.

    A threshold e in ``lam_eps`` is violated when |lambda+(t) - lam_inf| > e,
    one in ``beta_eps`` when e0*|beta(t) - beta_inf| > e.  All thresholds
    share one pass over the closed-form series, which stops at the envelope
    horizon t* when that comes before t_max: no threshold can be violated
    from t* on, so the result equals that of a scan over all of 1..t_max.
    """
    t_end = min(t_max, _horizon(decomp, lam_inf, lam_eps, beta_eps))
    last_lam, last_beta = [0] * len(lam_eps), [0] * len(beta_eps)
    for ts, lam_plus, beta in _lambda_beta_series(decomp, e0, 1, t_end):
        for dev, eps, last in (
            (np.abs(lam_plus - lam_inf), lam_eps, last_lam),
            (e0 * np.abs(beta - beta_inf), beta_eps, last_beta),
        ):
            for i, e in enumerate(eps):
                bad = np.nonzero(dev > e)[0]
                if bad.size:
                    last[i] = int(ts[bad[-1]])
    return last_lam, last_beta


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
    _check_scan_args([epsilon], t_max)
    decomp, e0 = decompose_localized(params), params.energy_scale
    lam_inf, beta_inf, c = _asymptotics(decomp, e0)
    (last,), _ = _last_violations(decomp, e0, t_max, lam_inf, [epsilon], beta_inf, [])
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
    _check_scan_args(epsilons, t_max)
    decomp, e0 = decompose_localized(params), params.energy_scale
    lam_inf, beta_inf, c = _asymptotics(decomp, e0)
    beta_ok = beta_inf > 0.0 and not math.isinf(beta_inf)
    beta_eps = [*epsilons, *(c * e for e in epsilons)] if beta_ok else []
    last_mix, last_beta = _last_violations(
        decomp, e0, t_max, lam_inf, epsilons, beta_inf, beta_eps
    )
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

    When the asymptotic temperature is infinite (chi_inf = 0) the inverse
    temperature has no finite limit to converge to; the report is returned
    flagged unsatisfied rather than raising.
    """
    _check_scan_args([epsilon], t_max)
    decomp, e0 = decompose_localized(params), params.energy_scale
    lam_inf, beta_inf, c = _asymptotics(decomp, e0)
    if beta_inf == 0.0 or math.isinf(beta_inf):
        # chi_inf = 0: the asymptotic temperature is infinite and beta(t)
        # only decays as 1/sqrt(t), so no finite horizon certifies the scan.
        return _report(epsilon, t_max, t_max, c)
    _, (last,) = _last_violations(decomp, e0, t_max, lam_inf, [], beta_inf, [epsilon])
    return _report(epsilon, last, t_max, c)

"""Coin density matrix, its time averages, and the entanglement temperature.

Tracing the walker's position out of the pure state leaves a 2x2 coin
density matrix with diagonal chirality probabilities (P_L, P_R) and an
off-diagonal interference term Q.  The instantaneous matrix never
converges, but its running (Cesaro) average does; matching the eigenvalues
of the averaged matrix to the Gibbs weights of a two-level system with gap
``2 * energy_scale`` assigns the walk a temperature.

The CLI reads running averages from one route, the
:func:`cyclewalk.spectral.coin_trajectory` series through
:func:`running_chi`.  The scans read their limits from the rotation axes
of that series' folded modes (``spectral._axis_limit``), and the isotherms
from the closed form :func:`chi_isotherm_grid`.  The alpha/beta closed
forms (:func:`asymptotic_density`, ``averaged_*_closed``) and the numeric
average of the directly iterated walk (:func:`averaged_density_numeric`)
are oracles that the tests and ``cyclewalk selftest`` compare against; they
are imported from this module, not from the package root.  The key scalar
is ``chi = 1/4 - det(rho_avg)``: chi = 0 is infinite temperature (maximally
mixed coin), chi = 1/4 a pure coin at zero temperature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InvalidDensityError,
    ParameterError,
    UndefinedAverageError,
)
from .spectral import SpectralDecomposition
from .walk import WalkParams, WalkState, coin, coin_entries, iterate_arrays, localized_initial_state

_TRACE_TOL = 1e-9
_PSD_TOL = 1e-12


@dataclass(frozen=True)
class CoinDensity:
    """2x2 Hermitian coin density matrix (p_left, p_right on the diagonal,
    q in the upper-right corner)."""

    p_left: float
    p_right: float
    q: complex

    def __post_init__(self) -> None:
        if abs(self.p_left + self.p_right - 1.0) > _TRACE_TOL:
            raise InvalidDensityError(
                f"trace must be 1, got {self.p_left + self.p_right}"
            )
        if self.p_left * self.p_right - abs(self.q) ** 2 < -_PSD_TOL:
            raise InvalidDensityError("density matrix is not positive semidefinite")

    def eigenvalues(self) -> tuple[float, float]:
        """(larger, smaller) eigenvalue; they are 1/2 +- sqrt(chi)."""
        root = math.sqrt(chi_of_density(self))
        return 0.5 + root, 0.5 - root


@dataclass(frozen=True)
class ThermoState:
    """Thermodynamic reading of an (averaged) coin density.

    ``beta`` is the inverse temperature in units of 1/energy_scale; beta = 0
    encodes infinite temperature, in which case ``temperature`` is inf.
    """

    lambda_plus: float
    lambda_minus: float
    chi: float
    beta: float
    temperature: float


def coin_density(state: WalkState) -> CoinDensity:
    """Trace the position out of a pure walk state."""
    p_left, p_right, q = coin_entries(state.a, state.b)
    return CoinDensity(float(p_left), float(p_right), complex(q))


def chi_of_density(rho: CoinDensity) -> float:
    """1/4 minus the determinant; tiny negative roundoff is clamped to 0."""
    return float(chi_of_entries(rho.p_left, rho.p_right, rho.q))


def chi_of_entries(p_left, p_right, q) -> np.ndarray:
    """:func:`chi_of_density` of densities given by their entries, elementwise.

    Applies the :class:`CoinDensity` trace and positivity checks, then
    requires chi >= 0 up to roundoff and clamps it there; raises
    :class:`InvalidDensityError` at the first entry that fails.
    """
    p_left, p_right, q = np.asarray(p_left), np.asarray(p_right), np.asarray(q)
    trace = p_left + p_right
    bad = np.flatnonzero(np.abs(trace - 1.0) > _TRACE_TOL)
    if bad.size:
        raise InvalidDensityError(f"trace must be 1, got {trace.flat[bad[0]]} (entry {bad[0]})")
    # hypot, as abs() of a Python complex computes it
    det = p_left * p_right - np.hypot(q.real, q.imag) ** 2
    bad = np.flatnonzero(det < -_PSD_TOL)
    if bad.size:
        raise InvalidDensityError(f"density matrix is not positive semidefinite (entry {bad[0]})")
    chi = 0.25 - det
    bad = np.flatnonzero(chi < -_PSD_TOL)
    if bad.size:
        raise InvalidDensityError(
            f"determinant exceeds 1/4: chi = {chi.flat[bad[0]]} (entry {bad[0]})"
        )
    return np.maximum(chi, 0.0)


def running_chi(p_left, p_right, q) -> np.ndarray:
    """:func:`chi_of_entries` of the running averages of a density series.

    Entry t averages entries 0..t of the series (t + 1 terms); ``cumsum``
    adds them in order, as a step-by-step accumulation does.
    """
    terms = np.arange(1, len(p_left) + 1)
    return chi_of_entries(*(np.cumsum(x) / terms for x in (p_left, p_right, q)))


def entropy_of_chi(chi):
    """Von Neumann entropy -sum(lam * ln(lam)) over the positive eigenvalues
    lam = 1/2 +- sqrt(chi) of a coin density, elementwise over ``chi``."""
    root = np.sqrt(chi)
    total = 0.0
    for lam in (0.5 + root, 0.5 - root):
        lam = np.where(lam > 0.0, lam, 1.0)  # ln(1) = 0 drops the term
        total = total - lam * np.log(lam)
    return total


def entanglement_entropy(rho: CoinDensity) -> float:
    """Von Neumann entropy -sum(lam * ln(lam)) of the coin density."""
    return float(entropy_of_chi(chi_of_density(rho)))


def averaged_density_numeric(params: WalkParams, t: int) -> CoinDensity:
    """Average of the instantaneous coin density over steps 0..t-1.

    Runs the walk directly from the localized initial state of ``params``;
    the average needs at least one term.
    """
    if t < 1:
        raise UndefinedAverageError("time average needs t >= 1")
    state = localized_initial_state(params)
    total = np.zeros(3, complex)
    for a, b in iterate_arrays(state.a, state.b, coin(params.theta), t - 1):
        total += coin_entries(a, b)
    p_left, p_right, q = total.tolist()
    return CoinDensity(p_left.real / t, p_right.real / t, q / t)


def averaged_trajectory_closed(
    decomp: SpectralDecomposition, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form averaged density entries for an array of times >= 1.

    Returns ``(p_left_avg, p_right_avg, q_avg)`` arrays.  This is the exact
    finite-time average, not an asymptotic expansion: the deviation from the
    limit is 2/t times a bounded oscillating coefficient.
    """
    times = np.asarray(times, dtype=np.float64)
    if np.any(times < 1):
        raise UndefinedAverageError("time average needs t >= 1")
    limit = asymptotic_density(decomp)
    # the (N, T) partial-sum factors F_k(t) = (1 - exp(i*(2*omega_k + pi)*t)) /
    # (1 + exp(2i*omega_k)) of the oscillating part of the average
    denom = 1.0 + np.exp(2j * decomp.omega)
    if np.any(np.abs(denom) < 1e-9):
        raise DegenerateSpectrumError("a mode phase sits at omega_k = +-pi/2")
    f = (1.0 - np.exp(1j * np.multiply.outer(2 * decomp.omega + np.pi, times))) / denom[:, None]
    # p_left_avg = p_left_inf + 2/t * Re sum_k alpha_l conj(beta_l) F_k and q_avg =
    # q_inf + 1/t * sum_k (alpha_l conj(beta_r) F_k + beta_l conj(alpha_r) conj(F_k))
    xi = np.einsum("k,kt->t", decomp.alpha_l * np.conj(decomp.beta_l), f).real
    sigma = 0.5 * (
        np.einsum("k,kt->t", decomp.alpha_l * np.conj(decomp.beta_r), f)
        + np.einsum("k,kt->t", decomp.beta_l * np.conj(decomp.alpha_r), f.conj())
    )
    p_left = limit.p_left + 2.0 / times * xi
    p_right = limit.p_right - 2.0 / times * xi
    q = limit.q + 2.0 / times * sigma
    return p_left, p_right, q


def averaged_density_closed(decomp: SpectralDecomposition, t: int) -> CoinDensity:
    """Exact averaged coin density over steps 0..t-1 from the closed form."""
    p_left, p_right, q = averaged_trajectory_closed(decomp, np.array([t]))
    return CoinDensity(float(p_left[0]), float(p_right[0]), complex(q[0]))


def asymptotic_density(decomp: SpectralDecomposition) -> CoinDensity:
    """Limit of the averaged coin density, from the mode coefficients."""
    p_left = float(np.sum(np.abs(decomp.alpha_l) ** 2 + np.abs(decomp.beta_l) ** 2))
    p_right = float(np.sum(np.abs(decomp.alpha_r) ** 2 + np.abs(decomp.beta_r) ** 2))
    q = complex(
        np.sum(
            np.conj(decomp.alpha_r) * decomp.alpha_l
            + np.conj(decomp.beta_r) * decomp.beta_l
        )
    )
    return CoinDensity(p_left, p_right, q)


def f_g_h(n_sites: int, theta: float) -> tuple[float, float, float]:
    """Lattice sums controlling the localized-start asymptotics.

    f is the mean of 1/(1 - cos^2(theta) sin^2(2*pi*k/N)) over the N modes;
    g and h are the derived combinations (f - 1)/cos^2(theta) and
    2/cos^2(theta) + (1 - 2/cos^2(theta)) f.  g and h are undefined at
    theta = pi/2; the sum itself is singular only at theta = 0 on a cycle
    divisible by 4.
    """
    if n_sites < 3:
        raise ParameterError(f"n_sites must be >= 3, got {n_sites}")
    k = np.arange(n_sites)
    denom = 1.0 - np.cos(theta) ** 2 * np.sin(2 * np.pi * k / n_sites) ** 2
    if np.any(denom < 1e-15):
        raise DegenerateSpectrumError(
            "singular term in the lattice sum (theta = 0, n_sites divisible by 4)"
        )
    f = float(np.mean(1.0 / denom))
    cos_sq = math.cos(theta) ** 2
    if cos_sq < 1e-15:
        raise ParameterError("g and h are undefined at theta = pi/2")
    g = (f - 1.0) / cos_sq
    h = 2.0 / cos_sq + (1.0 - 2.0 / cos_sq) * f
    return f, g, h


def asymptotic_density_localized(params: WalkParams) -> CoinDensity:
    """Asymptotic averaged density for a walker starting at the origin.

    Closed form in the Bloch angles (gamma, phi) and the lattice sums f, g,
    h; valid for theta in (0, pi/2).
    """
    f, g, h = f_g_h(params.n_sites, params.theta)
    th, ga, ph = params.theta, params.gamma, params.phi
    cos_sq = math.cos(th) ** 2
    p_right = (
        0.5 - 0.5 * cos_sq * math.cos(ga) - 0.25 * math.sin(ga) * math.sin(2 * th) * math.cos(ph)
    ) * f + (
        0.25 * math.sin(ga) * math.sin(2 * th) * math.cos(ph)
        - cos_sq * math.sin(ga / 2) ** 2
    ) * g
    q = 0.25 * (
        cmath.exp(-1j * ph) * math.sin(ga) * math.sin(th) ** 2
        + 0.5 * math.cos(ga) * math.sin(2 * th)
    ) * f + 0.25 * (
        cmath.exp(1j * ph) * math.sin(ga) * math.sin(th) ** 2
        + 0.5 * math.cos(ga) * math.sin(2 * th)
    ) * h
    return CoinDensity(1.0 - p_right, p_right, q)


def chi_isotherm_grid(n_sites: int, theta: float, gamma, phi) -> np.ndarray:
    """Asymptotic chi for a localized start, directly in the Bloch angles.

    This is the isotherm map: level sets of the returned value in the
    (gamma, phi) plane are lines of constant asymptotic temperature.
    ``gamma`` and ``phi`` broadcast against each other.
    """
    f, _, h = f_g_h(n_sites, theta)
    sin_ga, sin_th = np.sin(gamma), np.sin(theta)
    return (h - f) ** 2 * np.sin(phi) ** 2 * sin_ga**2 * sin_th**4 / 16 + (h + f) ** 2 * (
        np.cos(phi) * sin_ga * sin_th + np.cos(gamma) * np.cos(theta)
    ) ** 2 / 16


def chi_isotherm(params: WalkParams) -> float:
    """:func:`chi_isotherm_grid` at the Bloch angles of ``params``."""
    return float(chi_isotherm_grid(params.n_sites, params.theta, params.gamma, params.phi))


def chi_reference(n_sites: int, theta: float) -> float:
    """chi of the gamma = pi start; sets the characteristic temperature T0."""
    f, _, h = f_g_h(n_sites, theta)
    return (h + f) ** 2 * math.cos(theta) ** 2 / 16


def beta_of_chi(chi, e0: float):
    """Inverse temperature of the two-level ensemble with eigenvalue split 2*sqrt(chi).

    tanh(beta * e0) = 2*sqrt(chi), elementwise over an array ``chi >= 0``:
    chi = 0 gives beta = 0 and a split of 1 or more (chi >= 1/4) gives inf.
    This is the one chi -> beta map of the package.
    """
    with np.errstate(divide="ignore"):
        return np.arctanh(np.minimum(2.0 * np.sqrt(chi), 1.0)) / e0


def temperature_from_chi(chi: float, e0: float) -> float:
    """Temperature 1/beta of :func:`beta_of_chi`; chi = 0 gives infinite
    temperature and chi = 1/4 gives T = 0."""
    if not 0.0 <= chi <= 0.25:
        raise ParameterError(f"chi must lie in [0, 1/4], got {chi}")
    beta = float(beta_of_chi(chi, e0))
    return math.inf if beta == 0.0 else 1.0 / beta


def transient_temperature(rho_avg: CoinDensity, e0: float) -> ThermoState:
    """Thermodynamic reading of an averaged coin density.

    tanh(beta * e0) equals the eigenvalue split of ``rho_avg``, so the
    finite-time temperature converges to :func:`temperature_from_chi` of
    the asymptotic chi.
    """
    chi = chi_of_density(rho_avg)
    root = math.sqrt(chi)
    beta = float(beta_of_chi(chi, e0))
    return ThermoState(
        lambda_plus=0.5 + root,
        lambda_minus=0.5 - root,
        chi=chi,
        beta=beta,
        temperature=math.inf if beta == 0.0 else 1.0 / beta,
    )


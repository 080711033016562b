"""Coin density matrix, its time averages, and the entanglement temperature.

Tracing the walker's position out of the pure state leaves a 2x2 coin
density matrix with diagonal chirality probabilities (P_L, P_R) and an
off-diagonal interference term Q.  The instantaneous matrix never
converges, but its running (Cesaro) average does; matching the eigenvalues
of the averaged matrix to the Gibbs weights of a two-level system with gap
``2 * energy_scale`` (e0) assigns the walk a temperature, through the split
angle e0*beta = atanh(2*sqrt(chi)): e0 is only the unit of a returned beta or T.

The CLI reads running averages from one route, the
:func:`cyclewalk.spectral.coin_trajectory` series through
:func:`running_chi`.  The scans read their limits from that series' fold
(``spectral._folded_modes``), and the isotherms and T0 from one limit map
of its mode axes (``_limit_sums``).  The alpha/beta closed forms
(:func:`asymptotic_density`, ``averaged_*_closed``) and the numeric average
of the directly iterated walk (:func:`averaged_density_numeric`) are oracles
that only the tests compare against; they are imported from this module,
not from the package root.  The key scalar is
``chi = 1/4 - det(rho_avg)``: chi = 0 is infinite temperature (maximally
mixed coin), chi = 1/4 a pure coin at zero temperature.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ._record import Record
from .errors import (
    DegenerateSpectrumError,
    InvalidDensityError,
    ParameterError,
    UndefinedAverageError,
)
from .spectral import SpectralDecomposition, _mode_geometry
from .walk import WalkParams, WalkState, coin, coin_entries, iterate_arrays, localized_initial_state

_TRACE_TOL = 1e-9
_PSD_TOL = 1e-12


class CoinDensity(Record):
    """2x2 Hermitian coin density matrix (p_left, p_right on the diagonal,
    q in the upper-right corner)."""

    __slots__ = ("p_left", "p_right", "q")

    def __init__(self, p_left: float, p_right: float, q: complex) -> None:
        # written so that NaN fails each check
        if not abs(p_left + p_right - 1.0) <= _TRACE_TOL:
            raise InvalidDensityError(f"trace must be 1, got {p_left + p_right}")
        if not p_left * p_right - abs(q) ** 2 >= -_PSD_TOL:
            raise InvalidDensityError("density matrix is not positive semidefinite")
        object.__setattr__(self, "p_left", p_left)
        object.__setattr__(self, "p_right", p_right)
        object.__setattr__(self, "q", q)

    def eigenvalues(self) -> tuple[float, float]:
        """(larger, smaller) eigenvalue; they are 1/2 +- sqrt(chi)."""
        root = math.sqrt(chi_of_density(self))
        return 0.5 + root, 0.5 - root


class ThermoState(Record):
    """Thermodynamic reading of an (averaged) coin density.

    ``beta`` is the inverse temperature in units of 1/e0, the e0 passed in;
    beta = 0 encodes infinite temperature, in which case ``temperature`` is inf.
    """

    __slots__ = ("lambda_plus", "lambda_minus", "chi", "beta", "temperature")

    def __init__(
        self, lambda_plus: float, lambda_minus: float, chi: float, beta: float, temperature: float
    ) -> None:
        object.__setattr__(self, "lambda_plus", lambda_plus)
        object.__setattr__(self, "lambda_minus", lambda_minus)
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "temperature", temperature)


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
    :class:`InvalidDensityError` at the first entry that fails, NaN entries
    included.
    """
    p_left, p_right, q = np.asarray(p_left), np.asarray(p_right), np.asarray(q)
    trace = p_left + p_right
    bad = np.flatnonzero(~(np.abs(trace - 1.0) <= _TRACE_TOL))
    if bad.size:
        raise InvalidDensityError(f"trace must be 1, got {trace.flat[bad[0]]} (entry {bad[0]})")
    # hypot, as abs() of a Python complex computes it
    det = p_left * p_right - np.hypot(q.real, q.imag) ** 2
    bad = np.flatnonzero(~(det >= -_PSD_TOL))
    if bad.size:
        raise InvalidDensityError(f"density matrix is not positive semidefinite (entry {bad[0]})")
    chi = 0.25 - det
    bad = np.flatnonzero(~(chi >= -_PSD_TOL))
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


@functools.lru_cache  # T0, the isotherms and each start on a cycle share it
def _limit_sums(n_sites: int, theta: float) -> tuple[float, float, float]:
    """(m, a_yy, d): the limit map of the localized starts on an n-cycle.

    A start at the origin with Bloch vector r0 puts r0 / N on every mode,
    and the average keeps each mode's part along its axis n_k, set by N and
    theta alone (``spectral._mode_geometry``).  n_k's x and z parts are in
    the ratio s : c, (c, s) = (cos theta, sin theta), and its y part flips
    from mode k to N - k, so r_inf = m (s x0 + c z0) (s, 0, c) + a_yy y0 e_y
    + d r0: m and a_yy are the means of n_x^2 + n_z^2 and n_y^2 over the
    modes, and d the share of modes that do not turn (theta = 0, 4k = N).
    """
    if n_sites < 3:
        raise ParameterError(f"n_sites must be >= 3, got {n_sites}")
    # mode N - k has the axis of mode k with n_y negated, so k runs to N/2,
    # counted twice but at k = 0 and 2k = N; _mode_geometry is exact at
    # 4k = N for k <= N/2
    k = np.arange(n_sites // 2 + 1)
    weight = np.where(2 * k % n_sites == 0, 1.0, 2.0)
    axis, cos_omega, _ = _mode_geometry(n_sites, k, theta)
    sums = (axis[0] ** 2 + axis[2] ** 2, axis[1] ** 2, cos_omega == 0.0)
    return tuple(float(np.sum(weight * x)) / n_sites for x in sums)


def _limit_vector(n_sites: int, theta: float, gamma, phi):
    """r_inf of :func:`_limit_sums` at the Bloch angles (gamma, phi), which
    broadcast; factored, so that s x0 + c z0 = 0 gives r_x = r_z = 0 exactly."""
    m, a_yy, d = _limit_sums(n_sites, theta)
    c, s = np.cos(theta), np.sin(theta)
    x0, y0, z0 = np.sin(gamma) * np.cos(phi), np.sin(gamma) * np.sin(phi), np.cos(gamma)
    along = m * (s * x0 + c * z0)
    return along * s + d * x0, (a_yy + d) * y0, along * c + d * z0


def asymptotic_density_localized(params: WalkParams) -> CoinDensity:
    """Asymptotic averaged density for a walker starting at the origin: p =
    (1 +- r_z) / 2 and q = (r_x - i r_y) / 2 of r_inf (:func:`_limit_sums`)."""
    r_x, r_y, r_z = (
        float(x) for x in _limit_vector(params.n_sites, params.theta, params.gamma, params.phi)
    )
    return CoinDensity((1.0 + r_z) / 2, (1.0 - r_z) / 2, complex(r_x, -r_y) / 2)


def chi_isotherm_grid(n_sites: int, theta: float, gamma, phi) -> np.ndarray:
    """Asymptotic chi = |r_inf|^2 / 4 for a localized start, in the Bloch angles.

    This is the isotherm map: level sets of the returned value in the
    (gamma, phi) plane are lines of constant asymptotic temperature.
    ``gamma`` and ``phi`` broadcast against each other.
    """
    r_x, r_y, r_z = _limit_vector(n_sites, theta, gamma, phi)
    return (r_x**2 + r_y**2 + r_z**2) / 4


def chi_isotherm(params: WalkParams) -> float:
    """:func:`chi_isotherm_grid` at the Bloch angles of ``params``."""
    return float(chi_isotherm_grid(params.n_sites, params.theta, params.gamma, params.phi))


def chi_reference(n_sites: int, theta: float) -> float:
    """chi of the gamma = pi start; sets the characteristic temperature T0.
    chi is even in r0, so it is read at gamma = 0, free of a rounded sin(pi)."""
    return float(chi_isotherm_grid(n_sites, theta, 0.0, 0.0))


def beta_of_chi(chi, e0: float):
    """Inverse temperature of the two-level ensemble with eigenvalue split 2*sqrt(chi).

    tanh(beta * e0) = 2*sqrt(chi), elementwise over an array ``chi >= 0``:
    chi = 0 gives beta = 0 and a split of 1 or more (chi >= 1/4) gives inf.
    This is the one chi -> beta map of the package; at e0 = 1.0 it gives the
    split angle e0*beta that every dimensionless reading (T/T0, c) takes.
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
    beta = float(beta_of_chi(chi, e0))
    return ThermoState(*rho_avg.eigenvalues(), chi, beta, math.inf if beta == 0.0 else 1.0 / beta)


"""Closed-form solution of the cycle walk in the discrete Fourier basis.

Second differences of each chirality channel satisfy a circulant recurrence,
so the Fourier modes ``c_k = sum_l v*_{kl} a_l`` (with
``v_{kl} = exp(2*pi*i*k*l/N)/sqrt(N)``) evolve independently:

    c_k(t+1) - c_k(t-1) = lambda_k c_k(t),
    lambda_k = 2i cos(theta) sin(2*pi*k/N).

The solution is a two-frequency oscillation

    c_k(t) = alpha_k e^{i omega_k t} + beta_k (-1)^t e^{-i omega_k t},

with ``sin(omega_k) = cos(theta) sin(2*pi*k/N)`` on the principal branch and
(alpha_k, beta_k) fixed by the mode values at t = 0 and t = 1.  This gives
the mode values at arbitrary time in O(N), the site amplitudes through one
FFT in O(N log N) time and O(N) memory, and exact time averages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ParameterError
from .walk import WalkState, step

# cos(omega_k) below this is treated as an exact degeneracy (theta = 0 on a
# cycle divisible by 4); the two-frequency ansatz is singular there.
_DEGENERACY_TOL = 1e-9


def fourier_coefficients(state: WalkState) -> tuple[np.ndarray, np.ndarray]:
    """Project both chirality channels onto the Fourier modes.

    Returns ``(c_left, c_right)`` with ``c[k] = sum_l v*_{kl} amp[l]``.
    The transform is unitary, so the mode populations sum to the state norm.
    """
    root_n = np.sqrt(state.n_sites)
    return np.fft.fft(state.a) / root_n, np.fft.fft(state.b) / root_n


def inverse_fourier(
    c_left: np.ndarray, c_right: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Invert :func:`fourier_coefficients` back to site amplitudes.

    Transforms along the last axis, so a (T, N) stack of mode vectors
    becomes a (T, N) stack of site amplitudes.
    """
    root_n = np.sqrt(np.shape(c_left)[-1])
    return np.fft.ifft(c_left) * root_n, np.fft.ifft(c_right) * root_n


@dataclass(frozen=True)
class SpectralDecomposition:
    """Per-mode phases and coefficients solving the walk in closed form.

    ``omega`` holds the mode phases; ``alpha_l/beta_l`` (``alpha_r/beta_r``)
    the two-frequency coefficients of the left (right) chirality channel.
    """

    n_sites: int
    theta: float
    omega: np.ndarray
    alpha_l: np.ndarray
    beta_l: np.ndarray
    alpha_r: np.ndarray
    beta_r: np.ndarray


def decompose(state0: WalkState, theta: float) -> SpectralDecomposition:
    """Build the spectral solution from a state at time 0.

    Computes the state at t = 1 by direct iteration, transforms both to the
    Fourier basis, and solves for the per-mode coefficients.  Raises
    :class:`DegenerateSpectrumError` when some mode phase has
    cos(omega_k) = 0 (only possible at theta = 0 with N divisible by 4).
    """
    if state0.time != 0:
        raise ParameterError("decompose requires a state at time 0")
    n = state0.n_sites
    k = np.arange(n)
    sin_omega = np.cos(theta) * np.sin(2 * np.pi * k / n)
    omega = np.arcsin(np.clip(sin_omega, -1.0, 1.0))
    cos_omega = np.cos(omega)
    if np.any(np.abs(cos_omega) < _DEGENERACY_TOL):
        raise DegenerateSpectrumError(
            "cos(omega_k) = 0 for some mode; the closed-form coefficients are "
            "singular (theta = 0 with n_sites divisible by 4). Use direct "
            "iteration instead."
        )

    state1 = step(state0, theta)
    c_l0, c_r0 = fourier_coefficients(state0)
    c_l1, c_r1 = fourier_coefficients(state1)

    phase = np.exp(-1j * omega)
    denom = 2 * cos_omega
    alpha_l = (c_l1 + c_l0 * phase) / denom
    beta_l = (c_l0 * phase.conj() - c_l1) / denom
    alpha_r = (c_r1 + c_r0 * phase) / denom
    beta_r = (c_r0 * phase.conj() - c_r1) / denom

    return SpectralDecomposition(
        n_sites=n,
        theta=theta,
        omega=omega,
        alpha_l=alpha_l,
        beta_l=beta_l,
        alpha_r=alpha_r,
        beta_r=beta_r,
    )


def mode_values_at(decomp: SpectralDecomposition, t) -> tuple[np.ndarray, np.ndarray]:
    """Fourier-mode amplitudes (c_left, c_right) at integer time ``t``.

    For an array of times the results have shape (len(t), n_sites).
    """
    t = np.asarray(t)
    if np.any(t < 0):
        raise ParameterError(f"t must be non-negative, got {t}")
    osc = np.exp(1j * np.multiply.outer(t, decomp.omega))
    sign = np.where(t % 2, -1.0, 1.0)[..., None]
    c_l = decomp.alpha_l * osc + decomp.beta_l * sign / osc
    c_r = decomp.alpha_r * osc + decomp.beta_r * sign / osc
    return c_l, c_r


def amplitudes_at(decomp: SpectralDecomposition, t: int) -> WalkState:
    """State at integer time ``t`` from the closed form.

    O(N log N) time and O(N) memory: one FFT of the propagated modes.
    """
    a, b = inverse_fourier(*mode_values_at(decomp, t))
    return WalkState(a, b, time=t)


def amplitudes_trajectory(
    decomp: SpectralDecomposition, times: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized closed-form amplitudes for an array of integer times.

    Returns arrays of shape (len(times), n_sites): row ``i`` holds the site
    amplitudes at ``times[i]`` for the left and right channel respectively.
    """
    return inverse_fourier(*mode_values_at(decomp, times))

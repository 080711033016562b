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

The coin density at every step of a run (:func:`coin_trajectory`) comes
instead from powers of each mode's 2x2 transfer matrix, which stay accurate
where the two-frequency coefficients are singular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ParameterError
from .walk import MAX_STEPS, WalkState, coin_entries, evolve, step

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
            "singular (theta = 0 with n_sites divisible by 4). coin_trajectory "
            "still gives the coin density series."
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


# Largest per-block array of coin_trajectory, in float64 elements (256 KiB);
# the modes are processed in blocks small enough to keep every one under it.
_WORK_ELEMENTS = 2**15


def _times(y, x):
    """(a, b) of the product Y X of two powers of one step matrix.

    Every power M^j of the step matrix has the form [[a, b], [s conj(b),
    -s conj(a)]] with s = (-1)^(j+1) (det M = -1); ``y`` is (a, b) and ``x``
    is (a, b, s).  The components broadcast.
    """
    (ya, yb), (xa, xb, xs) = y, x
    return ya * xa + yb * (xs * xb.conj()), ya * xb - yb * (xs * xa.conj())


def _matvec(v, x):
    """X v for a mode pair ``v`` = (v_L, v_R) and X = (a, b, s) as in :func:`_times`."""
    xa, xb, xs = x
    return xa * v[0] + xb * v[1], (xs * xb.conj()) * v[0] - (xs * xa.conj()) * v[1]


def _fill_powers(out, x, apply):
    """Fill row j of the component arrays ``out`` with X^j applied to row 0.

    Doubling: each pass extends the filled rows [0, m) to [0, 2m) with
    ``apply(rows, X^m)`` and squares X^m (a square has s = -1), so the
    Python steps are logarithmic in the row count.
    """
    rows, m = len(out[0]), 1
    while m < rows:
        n = min(m, rows - m)
        for dst, src in zip(out, apply(tuple(comp[:n] for comp in out), x)):
            dst[m : m + n] = src
        x, m = (*_times(x[:2], x), -1.0), 2 * m
    return out


def _abs2(x):
    return x.real**2 + x.imag**2


def _power_of_walk(theta: float, n_sites: int, t: int):
    """M_k^t for every mode as (a, b, s), from t direct steps of a delta.

    The column (a, s conj(b)) of M_k^t is the unnormalized transform of the
    walk that starts on site 0 with left chirality.  The shift is exact on
    sites, so this M^t is as accurate as t direct steps, where t products
    of the rounded mode matrices would drift by t roundoffs.  The walk
    reaches sites -t..t only, so it runs on a cycle of 2t + 1 sites (or
    n_sites, if fewer) and is then laid onto the n_sites-cycle.
    """
    width = min(n_sites, 2 * t + 1)
    delta = np.zeros(width)
    delta[0] = 1.0
    walked = evolve(WalkState(delta, np.zeros(width)), theta, t)
    reach = np.arange(-t, t + 1)
    a = np.zeros(n_sites, complex)
    b = np.zeros(n_sites, complex)
    a[reach % n_sites], b[reach % n_sites] = walked.a[reach % width], walked.b[reach % width]
    sign = (-1.0) ** (t + 1)
    return np.fft.fft(a), sign * np.fft.fft(b).conj(), sign


def coin_trajectory(
    state0: WalkState, theta: float, t_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coin density entries (p_left, p_right, q) after t = 0..t_max steps.

    In the unitary Fourier basis one step acts on mode k as the 2x2 matrix
    M_k = diag(z_k, conj(z_k)) @ [[cos theta, sin theta], [sin theta,
    -cos theta]] with z_k = exp(2*pi*i*k/N), so the mode pair at time t is
    u_k(t) = M_k^t v_k(0).  By Parseval p_left(t) = sum_k |u_{k,L}(t)|^2,
    p_right(t) = sum_k |u_{k,R}(t)|^2 and q(t) = sum_k u_{k,L} conj(u_{k,R}),
    so no inverse transform is needed.  The powers are plain products of
    unitaries, accurate at every theta (theta = 0 included), unlike the
    two-frequency coefficients of :func:`decompose`.

    Baby-step/giant-step: with t = c*B + j and B = ceil(sqrt(t_max + 1)),
    the baby powers M^j = (a, b, s) (j < B, see :func:`_times`) and the
    giant states v_c = M^{cB} v(0) give, with w = conj(v_L) v_R,

        p_left = |a|^2 |v_L|^2 + |b|^2 |v_R|^2 + 2 Re(conj(a) b w),
        p_right = |b|^2 |v_L|^2 + |a|^2 |v_R|^2 - 2 Re(conj(a) b w),
        q = s (a b (|v_L|^2 - |v_R|^2) + (b^2 - a^2) Re w + i (b^2 + a^2) Im w),

    each summed over the modes.  Per block of modes these sums are real
    matrix products of giant features (C = ceil((t_max + 1) / B) rows) and
    baby weights (B columns), so Python runs O(log t_max) steps per block
    and the O(N t_max) arithmetic runs in BLAS.  Every per-block array
    stays under ``_WORK_ELEMENTS`` float64 values; the other arrays hold
    one value per mode or are the returned series of O(t_max) values, so
    t_max above ``MAX_STEPS`` (10^6, the ceiling of :func:`evolve`) raises
    :class:`ParameterError` before anything is allocated.  The roundoff
    grows with C, not with t_max, because M^B comes from
    :func:`_power_of_walk`.  Row t = 0 is summed over the sites by
    :func:`cyclewalk.walk.coin_entries`, as in :func:`cyclewalk.thermo.coin_density`.
    """
    if not 0 <= t_max <= MAX_STEPS:
        raise ParameterError(f"t_max must lie in [0, {MAX_STEPS}], got {t_max}")
    n_times = t_max + 1
    n_baby = math.isqrt(n_times - 1) + 1
    n_giant = -(-n_times // n_baby)
    block = max(1, _WORK_ELEMENTS // (4 * n_baby))
    n = state0.n_sites
    z = np.exp(2j * np.pi * np.arange(n) / n)
    c, s = math.cos(theta), math.sin(theta)
    sign = np.where(np.arange(n_baby) % 2, 1.0, -1.0)[:, None]
    v_l, v_r = fourier_coefficients(state0)
    giant_a, giant_b, giant_sign = _power_of_walk(theta, n, n_baby)
    # acc[o, c, j]: entry o (p_left, p_right, Re q, Im q) at t = c*B + j
    acc = np.zeros((4, n_giant, n_baby))
    for lo in range(0, n, block):
        modes = slice(lo, lo + block)
        k = z[modes].size
        baby = (np.empty((n_baby, k), complex), np.empty((n_baby, k), complex))
        baby[0][0], baby[1][0] = 1.0, 0.0
        a, b = _fill_powers(baby, (z[modes] * c, z[modes] * s, 1.0), _times)
        giant = (np.empty((n_giant, k), complex), np.empty((n_giant, k), complex))
        giant[0][0], giant[1][0] = v_l[modes], v_r[modes]
        giant_step = (giant_a[modes], giant_b[modes], giant_sign)
        g_l, g_r = _fill_powers(giant, giant_step, _matvec)
        n_l, n_r, w = _abs2(g_l), _abs2(g_r), g_l.conj() * g_r
        # p_right takes the weights of p_left with the features swapped and
        # the cross terms negated
        h = a.conj() * b
        weights = np.stack([_abs2(a), _abs2(b), 2 * h.real, -2 * h.imag], axis=1)
        weights = weights.reshape(n_baby, 4 * k)
        for out, features in zip(acc, ([n_l, n_r, w.real, w.imag], [n_r, n_l, -w.real, -w.imag])):
            out += np.stack(features, axis=1).reshape(n_giant, 4 * k) @ weights.T
        u, a2, b2 = sign * a * b, a * a, b * b
        d, e = sign * (b2 - a2), sign * (b2 + a2)
        features = np.stack([n_l - n_r, w.real, w.imag], axis=1).reshape(n_giant, 3 * k)
        for out, weights in zip(acc[2:], ([u.real, d.real, -e.imag], [u.imag, d.imag, e.real])):
            out += features @ np.stack(weights, axis=1).reshape(n_baby, 3 * k).T
    series = acc.reshape(4, -1)[:, :n_times]
    p_left, p_right, q = series[0], series[1], series[2] + 1j * series[3]
    # a localized start keeps its exactly pure coin at t = 0, where the
    # temperature reading is most sensitive to roundoff
    p_left[0], p_right[0], q[0] = coin_entries(state0.a, state0.b)
    return p_left, p_right, q

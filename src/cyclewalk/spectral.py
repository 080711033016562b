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
the mode values at arbitrary time in O(N) (:func:`mode_values_at`), the site
amplitudes through one FFT in O(N log N) time and O(N) memory
(:func:`amplitudes_at`), and exact time averages.

The coin density at every step of a run (:func:`coin_trajectory`) comes
instead from rotations of the modes' Bloch vectors, folded over two exact
mode symmetries; they stay accurate where the two-frequency coefficients
are singular, and keep the trace exact.  The limit of its running average
and a K/t bound on the distance to it come from the rotations' axes
(:func:`_axis_limit`).  The alpha/beta form (:func:`decompose` and its
:class:`SpectralDecomposition`) is an oracle of the tests and ``cyclewalk
selftest``, imported from this module, not from the package root.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ParameterError
from .walk import MAX_STEPS, WalkState, coin, coin_entries, iterate_arrays, step

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


# Largest per-block array of coin_trajectory, in float64 elements (256 KiB);
# the modes are processed in blocks small enough to keep every one under it.
_WORK_ELEMENTS = 2**15


def _abs2(x):
    return x.real**2 + x.imag**2


def _rotation(a, b, sign):
    """R = Ad(X) as a (3, 3, ...) array: X rho X^dagger turns the Bloch vector
    (x, y, z) of rho by R, for X = [[a, b], [s conj(b), -s conj(a)]].

    Products of rounded step matrices carry |a|^2 + |b|^2 != 1, as
    fl(cos theta)^2 + fl(sin theta)^2 != 1, and R scales with it; dividing
    by it keeps R a rotation to roundoff.  The components broadcast.
    """
    ab, cross, diff, total = a * b, a * b.conj(), b * b - a * a, a * a + b * b
    rot = np.array([
        [sign * diff.real, -sign * total.imag, 2 * sign * ab.real],
        [-sign * diff.imag, -sign * total.real, -2 * sign * ab.imag],
        [2 * cross.real, 2 * cross.imag, _abs2(a) - _abs2(b)],
    ])
    return rot / (_abs2(a) + _abs2(b))


def _fill_powers(out, x):
    """Fill row j of ``out`` (rows, 3, c, K) with X^j applied to row 0, for
    the K rotations ``x`` (3, 3, K).

    Doubling: each pass extends the filled rows [0, m) to [0, 2m) with
    X^m and squares X^m, so the Python steps are logarithmic in the rows.
    """
    rows, m = len(out), 1
    while m < rows:
        n = min(m, rows - m)
        out[m : m + n] = np.einsum("ilk,...lck->...ick", x, out[:n])
        x, m = np.einsum("ilk,ljk->ijk", x, x), 2 * m
    return out


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
    # the real coin keeps the real delta real, so it steps as float arrays
    for walked_a, walked_b in iterate_arrays(delta, np.zeros(width), coin(theta), t):
        pass
    reach = np.arange(-t, t + 1)
    a = np.zeros(n_sites, complex)
    b = np.zeros(n_sites, complex)
    a[reach % n_sites], b[reach % n_sites] = walked_a[reach % width], walked_b[reach % width]
    sign = (-1.0) ** (t + 1)
    return np.fft.fft(a), sign * np.fft.fft(b).conj(), sign


def _folded_modes(starts: WalkState | Sequence[WalkState]):
    """(batch, N, k, u): the starts as a list, their cycle size, the folded
    modes k of :func:`coin_trajectory` and their summed Bloch vectors u
    (3, 2B, K): start i's S + F S_p in u[:, 2i] and S - F S_p in u[:, 2i + 1].
    """
    batch = [starts] if isinstance(starts, WalkState) else list(starts)
    if len({s.n_sites for s in batch}) != 1:
        raise ParameterError("coin_trajectory needs one or more starts on one cycle")
    n = batch[0].n_sites
    # (B, N) mode vectors; per start, as the sums below, so that a start's
    # row does not depend on the batch it is in
    v_l, v_r = (np.array(v) for v in zip(*map(fourier_coefficients, batch)))
    cross = 2 * v_l * v_r.conj()
    # fold mode k + N/2 onto k (even N), then pair k with m - k
    m = n // 2 if n % 2 == 0 else n
    bloch = np.stack([cross.real, -cross.imag, _abs2(v_l) - _abs2(v_r)])
    bloch = bloch.reshape(3, len(batch), -1, m).sum(axis=2)
    reps = np.arange(m // 2 + 1)
    partner = bloch[..., -reps % m] * np.array([1.0, -1.0, 1.0])[:, None, None]
    partner[..., reps == -reps % m] = 0.0
    u = np.stack([bloch[..., reps] + partner, bloch[..., reps] - partner], axis=2)
    return batch, n, reps, u.reshape(3, -1, reps.size)


def _axis_limit(folded, theta: float):
    """(r_inf (3, B), K (B,), K_proj (B,)) of the :func:`_folded_modes` of B
    starts: the limit of the running average of the Bloch vector r of
    :func:`coin_trajectory`, with |e(t)| <= K/t and |r_inf_hat . e(t)| <=
    K_proj/t for e = r_avg - r_inf.

    With (c, s) = (cos theta, sin theta) and phi_k = 2*pi*k/N, R_k turns by
    2 omega_k + pi about n_k = (s cos phi_k, -s sin phi_k, c cos phi_k) /
    cos omega_k, where cos omega_k = hypot(s, c cos phi_k).  The average
    keeps each vector's part along its axis: r_x and r_z read
    sum_k n_k (n_k . u+), and r_y reads sum_k n_k (n_k . u-).  The rest
    u_perp turns in the plane normal to n_k, with partial sums within
    |u_perp| / cos omega_k, so K = hypot of the two sums of these bounds.
    Along a they stay within |u_perp| |a - n_k (n_k . a)| / cos omega_k, and
    K_proj sums this over k for u+ along a+ = (x, 0, z) and u- along
    a- = (0, y, 0), with (x, y, z) = r_inf / |r_inf| (0 where r_inf = 0).
    At theta = 0 with 4k = N, R_k = I: that mode keeps its whole vector and
    adds nothing to K or K_proj.  Elsewhere cos omega_k > 0.
    """
    _, n, reps, u = folded
    phi = 2 * np.pi * reps / n
    c, s = math.cos(theta), math.sin(theta)
    cos_omega = np.hypot(s, c * np.cos(phi))
    axis = np.stack([s * np.cos(phi), -s * np.sin(phi), c * np.cos(phi)]) / cos_omega
    kept = axis[:, None] * np.einsum("ok,obk->bk", axis, u)
    if theta == 0.0:
        kept[..., 4 * reps == n] = u[..., 4 * reps == n]
    perp = np.sqrt(np.sum((u - kept) ** 2, axis=0)) / cos_omega
    plus, minus = kept[:, 0::2].sum(axis=-1), kept[:, 1::2].sum(axis=-1)
    r_inf = np.stack([plus[0], minus[1], plus[2]])
    norm = np.sqrt(np.sum(r_inf**2, axis=0))
    r_hat = np.divide(r_inf, norm, out=np.zeros_like(r_inf), where=norm > 0.0)
    a = (r_hat[:, :, None] * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])[:, None]).reshape(3, -1)
    a_perp = a[:, :, None] - axis[:, None] * np.einsum("ok,ob->bk", axis, a)
    k_proj = (perp * np.sqrt(np.sum(a_perp**2, axis=0))).reshape(-1, 2 * reps.size).sum(axis=-1)
    return r_inf, np.hypot(*perp.sum(axis=-1).reshape(-1, 2).T), k_proj


def coin_trajectory(
    starts: WalkState | Sequence[WalkState], theta: float, t_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coin density entries (p_left, p_right, q) after t = 0..t_max steps.

    ``starts`` is one state, giving (t_max + 1,) arrays, or a sequence of B
    states on one cycle, giving (B, t_max + 1) arrays.  One state is a batch
    of one: the starts share the mode rotations, the baby powers and the
    giant step, and each start's row is bit for bit its own call's.

    In the unitary Fourier basis one step acts on mode k as the 2x2 matrix
    M_k = diag(z_k, conj(z_k)) @ [[cos theta, sin theta], [sin theta,
    -cos theta]] with z_k = exp(2*pi*i*k/N).  By Parseval the coin density
    is the sum of the mode densities v_k v_k^dagger, so no inverse transform
    is needed.  Mode k's density has weight w_k = |v_L|^2 + |v_R|^2 and
    Bloch vector s_k = (2 Re v_L conj(v_R), -2 Im v_L conj(v_R), |v_L|^2 -
    |v_R|^2), and a step turns s_k by the rotation R_k = Ad(M_k) (see
    :func:`_rotation`).  So r(t) = sum_k R_k^t s_k and, with W = sum_k w_k
    constant in t,

        p_left = (W + r_z) / 2,  p_right = (W - r_z) / 2,  q = (r_x - i r_y) / 2,

    whose trace is W at every t, to roundoff.  The powers are plain
    products of rotations, accurate at every theta (theta = 0 included),
    unlike the two-frequency coefficients of :func:`decompose`.

    Two exact symmetries cut the modes.  For even N, M_{k+N/2} = -M_k, so
    both share R_k and their vectors are summed first, leaving m = N/2 modes
    (m = N for odd N).  Mode k's partner (m - k) mod m has the matrix
    +-conj(M_k), so the rotation F R_k F with F = diag(1, -1, 1).  With S
    and S_p their summed vectors, r_x and r_z read R_k^t (S + F S_p) and
    r_y reads R_k^t (S - F S_p); k = 0 and m/2 are their own partners
    (S_p = 0).  That leaves floor(m/2) + 1 modes.

    Baby-step/giant-step: with t = c*B + j and B = ceil(sqrt(t_max + 1)),
    the baby rotations R^j (j < B) and the giant vectors G^c (S +- F S_p),
    with G = Ad(M^B) and c < C = ceil((t_max + 1) / B), give each component
    of r as a real matrix product per block of modes.  That is 9 products
    per mode per time point: about 9 N t_max flops for odd N and
    4.5 N t_max for even N, against 28 N t_max for the complex mode pairs
    of all N modes.  Python runs O(log t_max) steps per block and the
    arithmetic runs in BLAS.  Every per-block array stays under
    ``_WORK_ELEMENTS`` float64 values per start; the other arrays hold a few
    values per mode and start or are the returned series of O(t_max)
    values per start, so t_max above
    ``MAX_STEPS`` (10^6, the ceiling of :func:`cyclewalk.walk.evolve`) raises
    :class:`ParameterError` before anything is allocated.  The roundoff
    grows with C, not with t_max, because M^B comes from
    :func:`_power_of_walk`.  Row t = 0 is summed over the sites by
    :func:`cyclewalk.walk.coin_entries`, as in
    :func:`cyclewalk.thermo.coin_density`, and W is its trace.
    """
    if not 0 <= t_max <= MAX_STEPS:
        raise ParameterError(f"t_max must lie in [0, {MAX_STEPS}], got {t_max}")
    series = _series(_folded_modes(starts), theta, t_max)
    return tuple(x[0] for x in series) if isinstance(starts, WalkState) else series


def _series(folded, theta: float, t_max: int):
    """(B, t_max + 1) arrays (p_left, p_right, q) of :func:`coin_trajectory`
    from the :func:`_folded_modes` of its B starts; t_max is not checked."""
    batch, n, reps, u = folded
    n_times = t_max + 1
    n_baby = math.isqrt(n_times - 1) + 1
    n_giant = -(-n_times // n_baby)
    block = max(1, _WORK_ELEMENTS // (9 * n_baby))
    z = np.exp(2j * np.pi * reps / n)
    rot = _rotation(z * math.cos(theta), z * math.sin(theta), 1.0)
    giant_a, giant_b, giant_sign = _power_of_walk(theta, n, n_baby)
    giant_rot = _rotation(giant_a[reps], giant_b[reps], giant_sign)
    # acc[o, i, c, j]: component o (x, y, z) of start i's r at t = c*B + j
    acc = np.zeros((3, len(batch), n_giant, n_baby))
    for lo in range(0, reps.size, block):
        modes = slice(lo, lo + block)
        k = z[modes].size
        baby = np.empty((n_baby, 3, 3, k))
        baby[0] = np.eye(3)[:, :, None]
        _fill_powers(baby, rot[..., modes])
        giant = np.empty((n_giant, 3, u.shape[1], k))
        giant[0] = u[..., modes]
        _fill_powers(giant, giant_rot[..., modes])
        # r_x and r_z read S + F S_p, r_y reads S - F S_p; one product per
        # start, of the shapes a single start has
        for row, (out, column) in enumerate(zip(acc, (0, 1, 0))):
            features = giant[:, :, column::2].transpose(2, 0, 1, 3).reshape(-1, n_giant, 3 * k)
            out += features @ baby[:, row].reshape(n_baby, 3 * k).T
    r_x, r_y, r_z = acc.reshape(3, len(batch), -1)[..., :n_times]
    # a localized start keeps its exactly pure coin at t = 0, where the
    # temperature reading is most sensitive to roundoff
    start = [np.array(x) for x in zip(*(coin_entries(s.a, s.b) for s in batch))]
    weight = (start[0] + start[1])[:, None]
    p_left, p_right, q = (weight + r_z) / 2, (weight - r_z) / 2, (r_x - 1j * r_y) / 2
    p_left[:, 0], p_right[:, 0], q[:, 0] = start
    return p_left, p_right, q

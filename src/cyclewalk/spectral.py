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
(:func:`amplitudes_at`), and exact time averages.  The modes of a state on
site 0 alone, as every start of the paper, are its amplitudes over sqrt(N),
taken without the FFT (:func:`fourier_coefficients`).

The coin density at every step of a run (:func:`coin_trajectory`) comes
instead from the modes' Bloch vectors, folded over two exact mode
symmetries.  Each turns about a fixed axis by a fixed angle, both set by N
and theta alone (:func:`_mode_geometry`), so the series is a constant plus
one sinusoid per folded mode, summed from phasor tables in 6 real products
per mode and time point.  The table bases are powers, taken by squaring, of
each mode's turn, formed from cos omega_k and sin omega_k in long double (a
plain double costs accuracy, not correctness).  It stays accurate where the
two-frequency coefficients are singular and keeps the trace exact.  The
limit of its running average is summed in the fold (:func:`_folded_modes`),
which takes starts on site 0 as one flat vector each, with no N-length
array, and a K/t bound on the distance to it comes from the same axes
(:func:`_axis_limit`), as does the isotherms' limit map
(``thermo._limit_sums``).  The alpha/beta form (:func:`decompose`) is an
oracle of the tests alone, imported from this module: no command reads it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumError, ParameterError
from .walk import MAX_STEPS, WalkState, coin_entries, step

# cos(omega_k) below this is treated as an exact degeneracy (theta = 0 on a
# cycle divisible by 4); the two-frequency ansatz is singular there.
_DEGENERACY_TOL = 1e-9


def fourier_coefficients(state: WalkState) -> tuple[np.ndarray, np.ndarray]:
    """Project both chirality channels onto the Fourier modes.

    Returns ``(c_left, c_right)`` with ``c[k] = sum_l v*_{kl} amp[l]``.
    The transform is unitary, so the mode populations sum to the state norm.
    A state on site 0 alone has the flat modes ``amp[0] / sqrt(N)``, taken
    exactly and without the FFT; every other state goes through ``np.fft``.
    """
    n = state.n_sites
    root_n = np.sqrt(n)
    if _on_site_0(state):
        return np.full(n, state.a[0]) / root_n, np.full(n, state.b[0]) / root_n
    return np.fft.fft(state.a) / root_n, np.fft.fft(state.b) / root_n


def _on_site_0(state: WalkState) -> bool:
    """Whether ``state`` has no amplitude off site 0."""
    return not (state.a[1:].any() or state.b[1:].any())


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


def _folded_modes(starts: WalkState | Sequence[WalkState], theta: float):
    """(batch, u, kept, geometry, r_inf, phasor): the starts as a list, the
    summed Bloch vectors u (3, 2B, K) of the folded modes k of
    :func:`coin_trajectory` (start i's S + F S_p in u[:, 2i], S - F S_p in
    u[:, 2i + 1]), the parts n_k (n_k . u) that the turns keep (all of u
    where cos omega_k = 0), the :func:`_mode_geometry` of the modes at
    ``theta``, and per start the limit r_inf (B, 3) of the running average
    of r and the phasors w = u_perp - i n_k x u (B, 3, K) of r_x, r_y, r_z.

    When every start is on site 0, its modes are flat
    (:func:`fourier_coefficients`), so each folded mode sums N/m equal Bloch
    vectors: the fold takes one vector per start, times N/m, broadcast over
    the modes, and returns the arrays, zero signs included, of the (B, N)
    mode vectors it skips."""
    batch = [starts] if isinstance(starts, WalkState) else list(starts)
    if len({s.n_sites for s in batch}) != 1:
        raise ParameterError("coin_trajectory needs one or more starts on one cycle")
    n = batch[0].n_sites
    # (B, N) mode vectors, or the (B, 1) flat ones amp[0] / sqrt(N) when
    # every start is on site 0; per start, as the sums below, so that a
    # start's row does not depend on the batch it is in
    flat, root_n = all(map(_on_site_0, batch)), np.sqrt(n)
    modes = ((s.a[:1] / root_n, s.b[:1] / root_n) if flat else fourier_coefficients(s) for s in batch)
    v_l, v_r = (np.array(v) for v in zip(*modes))
    cross = 2 * v_l * v_r.conj()
    # fold mode k + N/2 onto k (even N), then pair k with m - k; n // m flat
    # vectors sum to n // m times theirs, exactly (+ 0.0: a sum starts at +0)
    m = n // 2 if n % 2 == 0 else n
    bloch = np.stack([cross.real, -cross.imag, _abs2(v_l) - _abs2(v_r)])
    if flat:
        bloch = np.broadcast_to(bloch * (n // m) + 0.0, (3, len(batch), m))
    else:
        bloch = bloch.reshape(3, len(batch), -1, m).sum(axis=2)
    reps = np.arange(m // 2 + 1)
    partner = bloch[..., -reps % m] * np.array([1.0, -1.0, 1.0])[:, None, None]
    partner[..., reps == -reps % m] = 0.0
    u = np.stack([bloch[..., reps] + partner, bloch[..., reps] - partner], axis=2)
    u = u.reshape(3, -1, reps.size)
    geometry = axis, cos_omega, _ = _mode_geometry(n, reps, theta)
    kept = np.where(cos_omega == 0.0, u, axis[:, None] * (axis[:, None] * u).sum(axis=0))
    # component o of start i reads column 2i + (0, 1, 0)[o] of u: r_x and
    # r_z turn S + F S_p, r_y turns S - F S_p
    parts, columns = np.arange(3), 2 * np.arange(len(batch))[:, None] + [0, 1, 0]
    phasor = (u - kept - 1j * np.cross(axis[:, None], u, axis=0))[parts, columns]
    r_inf = np.array([kept[parts, column].sum(axis=-1) for column in columns])
    return batch, u, kept, geometry, r_inf, phasor


def _mode_geometry(n: int, k: np.ndarray, theta: float):
    """(axis (3, K), cos omega (K,), turn (K,)) of the K modes k of an
    n-cycle: a step turns a mode's Bloch vector about axis_k by alpha_k,
    turn_k = e^{i alpha_k}, whatever the start.

    With (c, s) = (cos theta, sin theta) and phi_k = 2*pi*k/N, axis_k =
    (s cos phi_k, -s sin phi_k, c cos phi_k) / cos omega_k, cos omega_k =
    hypot(s, c cos phi_k), sin omega_k = c sin phi_k and turn_k = -(cos
    omega_k - i sin omega_k)^2 / (cos^2 omega_k + sin^2 omega_k), of modulus
    1 to long double roundoff, all in long double.  The only trigonometry is
    the sine of phi_k and of pi (N - 4k) / (2N), which is cos phi_k, exactly
    0 at 4k = N and relatively accurate near there.  cos omega_k = 0 only at
    theta = 0 with 4k = N, where turn_k = 1 and axis_k = 0: the mode does
    not turn.  axis and cos omega are rounded to double.
    """
    pi = 4 * np.arctan(np.longdouble(1))
    c, s = np.cos(np.longdouble(theta)), np.sin(np.longdouble(theta))
    sin_phi, cos_phi = np.sin(pi * np.stack([4 * k, n - 4 * k]) / (2 * n))
    cos_omega, sin_omega = np.hypot(s, c * cos_phi), c * sin_phi
    axis = np.stack([s * cos_phi, -s * sin_phi, c * cos_phi])
    axis = np.divide(axis, cos_omega, out=np.zeros_like(axis), where=cos_omega > 0).astype(float)
    half = cos_omega - 1j * sin_omega
    return axis, cos_omega.astype(float), -half * half / (cos_omega**2 + sin_omega**2)


def _turn_power(turn: np.ndarray, steps: int) -> np.ndarray:
    """e^{i steps alpha_k} = turn**steps of the long double turns of
    :func:`_mode_geometry`, by squaring in long double (about log2(steps)
    products) and rounded once, with an error of about steps roundoffs."""
    base = np.ones_like(turn)
    while steps:
        base, turn, steps = base * turn if steps % 2 else base, turn * turn, steps // 2
    return base.astype(complex)


def _phasors(base: np.ndarray, rows: int) -> np.ndarray:
    """(rows, K) table of base**j, j < rows, by doubling: each pass extends
    the filled rows [0, m) to [0, 2m) with base**m and squares base**m, so
    the Python steps are logarithmic in rows."""
    out = np.empty((rows, base.size), complex)
    out[0], m = 1.0, 1
    while m < rows:
        count = min(m, rows - m)
        out[m : m + count] = out[:count] * base
        base, m = base * base, 2 * m
    return out


def _axis_limit(folded):
    """(K (B,), K_proj (B,)) of the :func:`_folded_modes` of B starts:
    |e(t)| <= K/t and |r_inf_hat . e(t)| <= K_proj/t for e = r_avg - r_inf,
    r_avg the running average of r and r_inf the fold's limit.

    Mode k turns by alpha_k about n_k (see :func:`_mode_geometry`).  The average
    keeps each vector's part along its axis: r_x and r_z read sum_k n_k
    (n_k . u+), and r_y reads sum_k n_k (n_k . u-).  The rest u_perp turns
    in the plane normal to n_k, with partial sums within |u_perp| / cos
    omega_k, so K = hypot of the two sums of these bounds.  Along a they
    stay within |u_perp| |a - n_k (n_k . a)| / cos omega_k, and K_proj sums
    this over k for u+ along a+ = (x, 0, z) and u- along a- = (0, y, 0), with
    (x, y, z) = r_inf / |r_inf| (0 where r_inf = 0).  Where cos omega_k = 0
    (theta = 0 with 4k = N) the mode keeps its whole vector and adds nothing
    to K or K_proj.
    """
    _, u, kept, (axis, cos_omega, _), r_inf, _ = folded
    norm = np.sqrt(np.sum(r_inf**2, axis=-1))
    r_hat = np.divide(r_inf.T, norm, out=np.zeros_like(r_inf.T), where=norm > 0.0)
    a = (r_hat[:, :, None] * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])[:, None]).reshape(3, -1)
    a_perp = a[:, :, None] - axis[:, None] * np.einsum("ok,ob->bk", axis, a)
    size = np.sqrt(np.sum((u - kept) ** 2, axis=0))
    bounds = np.stack([size, size * np.sqrt(np.sum(a_perp**2, axis=0))])
    # cos omega_k = sin theta at 4k = N: below theta ~ 1e-308, K = K_proj = inf
    with np.errstate(over="ignore"):
        perp, proj = np.divide(bounds, cos_omega, out=np.zeros_like(bounds), where=cos_omega > 0.0)
    k_proj = proj.reshape(-1, 2 * u.shape[-1]).sum(axis=-1)
    return np.hypot(*perp.sum(axis=-1).reshape(-1, 2).T), k_proj


def coin_trajectory(
    starts: WalkState | Sequence[WalkState], theta: float, t_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Coin density entries (p_left, p_right, q) after t = 0..t_max steps.

    ``starts`` is one state, giving (t_max + 1,) arrays, or a sequence of B
    states on one cycle, giving (B, t_max + 1) arrays.  One state is a batch
    of one: the starts share the mode axes and the phasor tables, and each
    start's row is bit for bit its own call's.

    In the unitary Fourier basis one step acts on mode k as the 2x2 matrix
    M_k = diag(z_k, conj(z_k)) @ [[cos theta, sin theta], [sin theta,
    -cos theta]] with z_k = exp(2*pi*i*k/N).  By Parseval the coin density
    is the sum of the mode densities v_k v_k^dagger, so no inverse transform
    is needed.  Mode k's density has weight w_k = |v_L|^2 + |v_R|^2 and
    Bloch vector s_k = (2 Re v_L conj(v_R), -2 Im v_L conj(v_R), |v_L|^2 -
    |v_R|^2), and a step turns s_k by the rotation R_k = Ad(M_k), a turn by
    the angle alpha_k of e^{i alpha_k} = -(cos omega_k - i sin omega_k)^2,
    with sin omega_k = cos theta sin(2*pi*k/N) and cos omega_k >= 0, about a
    unit axis n_k (:func:`_mode_geometry`).  So r(t) = sum_k R_k^t s_k
    and, with W = sum_k w_k constant in t,

        p_left = (W + r_z) / 2,  p_right = (W - r_z) / 2,  q = (r_x - i r_y) / 2,

    whose trace is W at every t, to roundoff.  The turns are accurate at
    every theta (theta = 0 included), unlike the two-frequency coefficients
    of :func:`decompose`.

    Two exact symmetries cut the modes.  For even N, M_{k+N/2} = -M_k, so
    both share R_k and their vectors are summed first, leaving m = N/2 modes
    (m = N for odd N).  Mode k's partner (m - k) mod m has the matrix
    +-conj(M_k), so the rotation F R_k F with F = diag(1, -1, 1).  With S
    and S_p their summed vectors, r_x and r_z read R_k^t (S + F S_p) and
    r_y reads R_k^t (S - F S_p); k = 0 and m/2 are their own partners
    (S_p = 0).  That leaves floor(m/2) + 1 modes.

    Each folded vector u splits into its part along n_k, constant in t, and
    the phasor w = u_perp - i n_k x u, so R_k^t u = n_k (n_k . u) +
    Re(w e^{i t alpha_k}).  Baby-step/giant-step: with t = c*B + j and
    B = ceil(sqrt(t_max + 1)),

        r(t) = sum_k n_k (n_k . u_k) + Re sum_k (w_k e^{i c B alpha_k}) e^{i j alpha_k}.

    The baby table e^{i j alpha} (j < B) and the giant table w e^{i c B
    alpha} (c < C = ceil((t_max + 1) / B)) are filled by complex doubling
    from the bases e^{i alpha_k} and e^{i B alpha_k}, powers of the long
    double turn taken by squaring and rounded once, so no step is taken by a
    rounded coin and the roundoff grows with B + C, not with t_max.
    Each component of r is one real matrix product per start and block of
    modes, the giant features [Re | -Im] against the baby [Re | Im]: 6
    products per mode per time point, about 6 N t_max flops for odd N and
    3 N t_max for even N.  Python runs O(log t_max) steps per block and the
    arithmetic runs in BLAS.  Every per-block array stays under
    ``_WORK_ELEMENTS`` float64 values per start; the other arrays hold a few
    values per mode and start or are the returned series of O(t_max) values
    per start, so t_max above ``MAX_STEPS`` (10^6, the ceiling of
    :func:`cyclewalk.walk.evolve`) raises :class:`ParameterError` before
    anything is allocated.  Where ``np.longdouble`` is a plain double (MSVC,
    ARM64 macOS) the series runs the same way, but e^{i B alpha_k} carries
    B times the double roundoff of the turn and the accuracy gain is lost;
    x86-64 Linux has an 80-bit long double.  Row t = 0 is summed over the
    sites by :func:`cyclewalk.walk.coin_entries`, as in
    :func:`cyclewalk.thermo.coin_density`, and W is its trace.
    """
    if not 0 <= t_max <= MAX_STEPS:
        raise ParameterError(f"t_max must lie in [0, {MAX_STEPS}], got {t_max}")
    series = _series(_folded_modes(starts, theta), t_max)
    return tuple(x[0] for x in series) if isinstance(starts, WalkState) else series


def _series(folded, t_max: int):
    """(B, t_max + 1) arrays (p_left, p_right, q) of :func:`coin_trajectory`
    from the :func:`_folded_modes` of its B starts: each start's t = 0 row,
    limit r_inf and phasors, and the modes' turns; t_max is not checked."""
    batch, _, _, (_, _, turn), r_inf, phasor = folded
    n_times, n_baby = t_max + 1, math.isqrt(t_max) + 1
    n_giant = -(-n_times // n_baby)
    block = max(1, _WORK_ELEMENTS // (6 * n_baby))
    # acc[o, i, c, j]: component o (x, y, z) of start i's r at t = c*B + j
    acc = np.zeros((3, len(batch), n_giant, n_baby))
    baby_base, giant_base = _turn_power(turn, 1), _turn_power(turn, n_baby)
    for lo in range(0, phasor.shape[-1], block):
        modes = slice(lo, lo + block)
        baby, giant = _phasors(baby_base[modes], n_baby), _phasors(giant_base[modes], n_giant)
        # Re(g e) = Re g Re e - Im g Im e
        baby = np.concatenate([baby.real, baby.imag], axis=1)
        for i, w in enumerate(phasor[..., modes]):
            g = w[:, None] * giant
            features = np.concatenate([g.real, -g.imag], axis=-1).reshape(3 * n_giant, -1)
            acc[:, i] += (features @ baby.T).reshape(3, n_giant, n_baby)
    r_x, r_y, r_z = acc.reshape(3, len(batch), -1)[..., :n_times] + r_inf.T[..., None]
    # a localized start keeps its exactly pure coin at t = 0, where the
    # temperature reading is most sensitive to roundoff
    start = [np.array(x) for x in zip(*(coin_entries(s.a, s.b) for s in batch))]
    weight = (start[0] + start[1])[:, None]
    p_left, p_right, q = (weight + r_z) / 2, (weight - r_z) / 2, (r_x - 1j * r_y) / 2
    p_left[:, 0], p_right[:, 0], q[:, 0] = start
    return p_left, p_right, q

"""Direct unitary evolution of a coined quantum walk on an N-cycle.

The walker lives on N sites with periodic boundary and carries a two-state
coin (chirality).  A state is a pair of complex amplitude vectors
``(a, b)``: ``a[k]`` is the left-chirality amplitude at site ``k`` and
``b[k]`` the right-chirality one.  One time step applies the coin
[[cos(theta), sin(theta)], [sin(theta), -cos(theta)]] on every site, then
shifts the two chirality channels in opposite directions around the cycle:

    a'[k] =  a[k+1] cos(theta) + b[k+1] sin(theta)
    b'[k] =  a[k-1] sin(theta) - b[k-1] cos(theta)

with site indices taken modulo N.  The map is unitary, so the total
probability is conserved to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Hard ceiling on iterated evolution; asymptotics are reached far earlier.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class WalkParams:
    """Walk configuration: cycle size, coin bias, and initial Bloch angles.

    Parameters
    ----------
    n_sites:
        Number of cycle sites, at least 3.
    theta:
        Coin bias in [0, pi/2]; pi/4 is the unbiased (Hadamard) coin.
    gamma, phi:
        Bloch-sphere angles of the initial coin state, gamma in [0, pi]
        and phi in [0, 2*pi).
    energy_scale:
        Finite, positive energy gap of the two-level thermometer Hamiltonian.
    """

    n_sites: int
    theta: float
    gamma: float = 0.0
    phi: float = 0.0
    energy_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.n_sites < 3:
            raise ParameterError(f"n_sites must be >= 3, got {self.n_sites}")
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ParameterError(f"theta must lie in [0, pi/2], got {self.theta}")
        if not 0.0 <= self.gamma <= math.pi:
            raise ParameterError(f"gamma must lie in [0, pi], got {self.gamma}")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ParameterError(f"phi must lie in [0, 2*pi), got {self.phi}")
        if not 0.0 < self.energy_scale < math.inf:
            raise ParameterError(
                f"energy_scale must be finite and positive, got {self.energy_scale}"
            )


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.asarray(arr, dtype=np.complex128).copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class WalkState:
    """Immutable walk state: amplitude vectors and the current step count."""

    a: np.ndarray
    b: np.ndarray
    time: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _frozen(self.a))
        object.__setattr__(self, "b", _frozen(self.b))
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ParameterError("amplitude vectors must be 1-d and equal length")
        if self.time < 0:
            raise ParameterError("time must be non-negative")

    @property
    def n_sites(self) -> int:
        return self.a.size

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.a) ** 2 + np.abs(self.b) ** 2))


def localized_initial_state(params: WalkParams) -> WalkState:
    """Walker at the origin with coin state (cos(g/2), e^{i*phi} sin(g/2)).

    The Bloch angles (gamma, phi) of ``params`` pick the initial coin
    orientation; all amplitude is on site 0.
    """
    a = np.zeros(params.n_sites, dtype=np.complex128)
    b = np.zeros(params.n_sites, dtype=np.complex128)
    a[0] = math.cos(params.gamma / 2)
    b[0] = np.exp(1j * params.phi) * math.sin(params.gamma / 2)
    return WalkState(a, b, time=0)


def coin(theta: float) -> tuple[float, float]:
    """(cos theta, sin theta), the entries of the coin of bias ``theta``."""
    return math.cos(theta), math.sin(theta)


def step_arrays(a: np.ndarray, b: np.ndarray, coin, ends=(0, -1)) -> tuple[np.ndarray, np.ndarray]:
    """One step, coin then shift, of amplitude arrays whose last axis runs
    over the sites; (B, N) arrays step B walks on one cycle at once.

    ``coin`` is (cos theta, sin theta) as floats, or as per-site arrays for
    cycles laid back to back on the last axis; ``ends`` holds the first and
    the last site of the one cycle, or index arrays of those of each cycle.
    """
    c, s = coin
    first, last = ends
    # the shift moves up one site left and down one site right: slices, then
    # one wrap per cycle, without np.roll's axis and shift bookkeeping on
    # every step; each coin output is shifted before the next is made
    up = a * c + b * s
    left = np.empty_like(up)
    left[..., :-1], left[..., last] = up[..., 1:], up[..., first]
    down = a * s - b * c
    right = np.empty_like(down)
    right[..., 1:], right[..., first] = down[..., :-1], down[..., last]
    return left, right


def iterate_arrays(a: np.ndarray, b: np.ndarray, coin, steps: int, ends=(0, -1)):
    """Yield (a, b) after 0, 1, ..., ``steps`` steps of :func:`step_arrays`;
    the arrays have any leading shape, with the sites on the last axis."""
    yield a, b
    for _ in range(steps):
        a, b = step_arrays(a, b, coin, ends)
        yield a, b


def coin_entries(a: np.ndarray, b: np.ndarray):
    """Coin density entries (p_left, p_right, q) of amplitude arrays, summed over the last axis."""
    return tuple(np.sum(x, axis=-1) for x in (np.abs(a) ** 2, np.abs(b) ** 2, a * np.conj(b)))


def step(state: WalkState, theta: float) -> WalkState:
    """Advance the walk by one unitary step with coin bias ``theta``."""
    return WalkState(*step_arrays(state.a, state.b, coin(theta)), time=state.time + 1)


def evolve(state: WalkState, theta: float, steps: int) -> WalkState:
    """Apply :func:`step` exactly ``steps`` times."""
    if not 0 <= steps <= MAX_STEPS:
        raise ParameterError(f"steps must lie in [0, {MAX_STEPS}], got {steps}")
    for a, b in iterate_arrays(state.a, state.b, coin(theta), steps):
        pass
    return WalkState(a, b, time=state.time + steps)

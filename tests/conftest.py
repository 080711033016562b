import numpy as np
import pytest

from cyclewalk import WalkState, decompose, localized_initial_state


@pytest.fixture
def rng():
    return np.random.default_rng(20230814)


def random_state(rng, n_sites: int) -> WalkState:
    """Haar-ish random normalized walk state on n_sites sites."""
    amps = rng.normal(size=(4, n_sites))
    a = amps[0] + 1j * amps[1]
    b = amps[2] + 1j * amps[3]
    norm = np.sqrt(np.sum(np.abs(a) ** 2 + np.abs(b) ** 2))
    return WalkState(a / norm, b / norm)


def decompose_localized(params):
    """The alpha/beta spectral solution of the localized start of ``params``."""
    return decompose(localized_initial_state(params), params.theta)

"""Coined quantum walks on N-cycles and their coin thermodynamics."""

from .errors import (
    CycleWalkError,
    DegenerateSpectrumError,
    InvalidDensityError,
    NonThermalizingError,
    ParameterError,
    UndefinedAverageError,
)
from .markov import (
    MarkovState,
    markov_beta,
    markov_solution,
    markov_step,
    markov_thermalization_time,
)
from .spectral import coin_trajectory, fourier_coefficients
from .thermo import (
    CoinDensity,
    ThermoState,
    asymptotic_density_localized,
    beta_of_chi,
    chi_isotherm,
    chi_isotherm_grid,
    chi_of_density,
    chi_of_entries,
    chi_reference,
    coin_density,
    entanglement_entropy,
    entropy_of_chi,
    temperature_from_chi,
    transient_temperature,
)
from .times import ConvergenceReport, mixing_time, thermalization_time
from .walk import WalkParams, WalkState, evolve, localized_initial_state, step

__version__ = "0.1.0"

__all__ = [
    "CycleWalkError",
    "ParameterError",
    "DegenerateSpectrumError",
    "UndefinedAverageError",
    "InvalidDensityError",
    "NonThermalizingError",
    "WalkParams",
    "WalkState",
    "localized_initial_state",
    "step",
    "evolve",
    "fourier_coefficients",
    "coin_trajectory",
    "CoinDensity",
    "ThermoState",
    "coin_density",
    "entanglement_entropy",
    "entropy_of_chi",
    "asymptotic_density_localized",
    "chi_of_density",
    "chi_of_entries",
    "chi_isotherm",
    "chi_isotherm_grid",
    "chi_reference",
    "beta_of_chi",
    "temperature_from_chi",
    "transient_temperature",
    "ConvergenceReport",
    "mixing_time",
    "thermalization_time",
    "MarkovState",
    "markov_step",
    "markov_solution",
    "markov_beta",
    "markov_thermalization_time",
    "__version__",
]

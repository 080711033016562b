"""Exception hierarchy for cyclewalk."""


class CycleWalkError(Exception):
    """Base class for all cyclewalk errors."""


class ParameterError(CycleWalkError, ValueError):
    """A parameter is outside its allowed domain."""


class DegenerateSpectrumError(CycleWalkError):
    """A mode phase sits exactly on the branch cut (cos(omega_k) = 0).

    Happens only for theta = 0 on a cycle whose length is divisible by 4;
    :func:`~cyclewalk.spectral.coin_trajectory` still covers those parameters.
    """


class UndefinedAverageError(CycleWalkError):
    """A time average was requested over zero steps."""


class InvalidDensityError(CycleWalkError, ValueError):
    """A 2x2 density matrix violates trace or positivity constraints."""


class NonThermalizingError(CycleWalkError):
    """The classical chirality chain does not converge for these parameters."""

"""The public value records: construction, validation, immutability,
equality, hash, repr, pickle and copy, as a frozen dataclass gives them."""

import copy
import math
import pickle

import numpy as np
import pytest

from cyclewalk import (
    CoinDensity,
    ConvergenceReport,
    InvalidDensityError,
    MarkovState,
    ParameterError,
    ThermoState,
    WalkParams,
    WalkState,
)
from cyclewalk.spectral import SpectralDecomposition

ARRAY = np.array([0.6, 0.0, 0.8j])

# class: (fields, positional arguments, the defaults of the trailing fields)
RECORDS = {
    WalkParams: (
        ("n_sites", "theta", "gamma", "phi", "energy_scale"),
        (5, 0.5, 1.0, 2.0, 1.5),
        {"gamma": 0.0, "phi": 0.0, "energy_scale": 1.0},
    ),
    WalkState: (("a", "b", "time"), (ARRAY, ARRAY[::-1], 3), {"time": 0}),
    MarkovState: (("p_left", "p_right", "time"), (0.25, 0.75, 4), {"time": 0}),
    CoinDensity: (("p_left", "p_right", "q"), (0.6, 0.4, 0.1 + 0.2j), {}),
    ThermoState: (
        ("lambda_plus", "lambda_minus", "chi", "beta", "temperature"),
        (0.8, 0.2, 0.09, 0.69, 1.44),
        {},
    ),
    SpectralDecomposition: (
        ("n_sites", "theta", "omega", "alpha_l", "beta_l", "alpha_r", "beta_r"),
        (3, 0.5, ARRAY.real, ARRAY, 2 * ARRAY, 3 * ARRAY, 4 * ARRAY),
        {},
    ),
    ConvergenceReport: (
        ("epsilon", "tau", "t_max", "last_violation", "c_constant", "satisfied"),
        (1e-2, 14, 100, 13, 2.5, True),
        {},
    ),
}
HAS_ARRAYS = (WalkState, SpectralDecomposition)
records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def values(record, fields):
    return [getattr(record, name) for name in fields]


def assert_same(got, expected):
    assert len(got) == len(expected)
    for x, y in zip(got, expected):
        if isinstance(y, np.ndarray):
            assert isinstance(x, np.ndarray) and np.array_equal(x, y)
        else:
            assert type(x) is type(y) and x == y


@records
def test_construction(cls):
    fields, args, defaults = RECORDS[cls]
    assert cls.__slots__ == fields
    record = cls(*args)
    assert not hasattr(record, "__dict__")
    assert_same(values(record, fields), args)
    assert_same(values(cls(**dict(zip(fields, args))), fields), args)
    required = len(fields) - len(defaults)
    with_defaults = (*args[:required], *defaults.values())
    assert_same(values(cls(*args[:required]), fields), with_defaults)
    assert list(fields[required:]) == list(defaults)


@records
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, args, _ = RECORDS[cls]
    record = cls(*args)
    for name in (*fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert_same(values(record, fields), args)


@records
def test_equality_and_hash(cls):
    fields, args, _ = RECORDS[cls]
    record = cls(*args)
    assert record == record and not record != record
    assert record != tuple(args) and record != object()
    # arrays as copies: an array field compares by value, not identity
    twin = cls(*map(copy.copy, args))
    assert twin == record and not twin != record
    # the last array field of a record that holds arrays, else the last field
    last = max(i for i, x in enumerate(args) if isinstance(x, np.ndarray) or cls not in HAS_ARRAYS)
    changed = cls(**{**dict(zip(fields, args)), fields[last]: args[last] * 2})
    assert changed != record and not changed == record
    if cls in HAS_ARRAYS:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(twin) == hash(record) == hash(tuple(args))


@records
def test_repr(cls):
    fields, args, _ = RECORDS[cls]
    spelled = ", ".join(f"{name}={value!r}" for name, value in zip(fields, args))
    assert repr(cls(*args)) == f"{cls.__name__}({spelled})"


@records
@pytest.mark.parametrize(
    "round_trip",
    [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy(cls, round_trip):
    fields, args, _ = RECORDS[cls]
    record = cls(*args)
    again = round_trip(record)
    assert type(again) is cls
    assert_same(values(again, fields), args)
    if cls is WalkState:
        assert not again.a.flags.writeable and not again.b.flags.writeable
    elif cls not in HAS_ARRAYS:
        assert again == record and hash(again) == hash(record)


@pytest.mark.parametrize(
    "cls, args, error, message",
    [
        (WalkParams, (2, 0.5), ParameterError, "n_sites must be >= 3, got 2"),
        (WalkParams, (3.5, 0.5), ParameterError, "n_sites must be an integer, got 3.5"),
        (WalkParams, (5, -0.1), ParameterError, "theta must lie in [0, pi/2], got -0.1"),
        (WalkParams, (5, 0.5, 4.0), ParameterError, "gamma must lie in [0, pi], got 4.0"),
        (WalkParams, (5, 0.5, 1.0, 7.0), ParameterError, "phi must lie in [0, 2*pi), got 7.0"),
        (WalkParams, (5, 0.5, 1.0, 2.0, math.inf), ParameterError,
         "energy_scale must be finite and positive, got inf"),
        (WalkState, (ARRAY, ARRAY[:2]), ParameterError,
         "amplitude vectors must be 1-d and equal length"),
        (WalkState, (ARRAY, ARRAY, -1), ParameterError, "time must be non-negative"),
        (MarkovState, (0.25, 0.5), ParameterError, "probabilities must sum to 1, got 0.75"),
        (MarkovState, (1.5, -0.5), ParameterError, "probabilities must be non-negative"),
        (CoinDensity, (0.5, 0.25, 0.0), InvalidDensityError, "trace must be 1, got 0.75"),
        (CoinDensity, (0.6, 0.4, 0.5), InvalidDensityError,
         "density matrix is not positive semidefinite"),
        # NaN, which fails every comparison, and MarkovState's time
        (MarkovState, (math.nan, 0.5), ParameterError, "probabilities must sum to 1, got nan"),
        (MarkovState, (0.5, 0.5, -1), ParameterError, "time must be non-negative"),
        (CoinDensity, (math.nan, math.nan, 0), InvalidDensityError, "trace must be 1, got nan"),
        (CoinDensity, (0.5, 0.5, complex(math.nan, 0)), InvalidDensityError,
         "density matrix is not positive semidefinite"),
    ],
)
def test_validation_messages(cls, args, error, message):
    with pytest.raises(error) as raised:
        cls(*args)
    assert str(raised.value) == message

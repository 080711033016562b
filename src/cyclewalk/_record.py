"""Base of the package's immutable value records.

Each record is a slotted class whose ``__init__`` validates its arguments
and sets each field with ``object.__setattr__``; its ``__slots__`` name the
fields in the order ``__init__`` takes them.  The base gives what a frozen
dataclass would, without generating code at import: fields that cannot be
assigned or deleted, value equality and hash over the fields (numpy array
fields compare by ``np.array_equal`` and leave the record unhashable), the
``Name(field=value, ...)`` repr, and a ``__reduce__`` that rebuilds a
record through its ``__init__``, so that pickle and ``copy`` work.
"""

import numpy as np


class Record:
    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # as a tuple compares its items: by identity, then by value
        return all(
            x is y or (np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y)
            for x, y in zip(self._fields(), other._fields())
        )

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._fields()

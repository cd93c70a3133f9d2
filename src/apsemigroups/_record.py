"""Plain value records: equality, hashing and repr read off a class's
`_fields` tuple.

The package's records are ordinary classes with an explicit `__init__`, not
dataclasses: importing `dataclasses` loads `inspect`, `ast`, `dis` and `copy`,
and building a dataclass execs generated code, which every CLI process would
pay before its first result. `tests/test_stdlib_only.py` keeps those modules
out of the import.
"""

from __future__ import annotations

# A frozen record's __init__ sets each field with this, past the __setattr__
# that refuses every later assignment.
set_field = object.__setattr__


class Record:
    """A mutable record. Two records are equal when they are of the same
    class and their fields, in `_fields` order, are equal; a mutable record
    is unhashable. The repr is `Name(field=value!r, ...)` over `_fields`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    """A record whose fields are set once, in `__init__`: assigning or
    deleting an attribute afterwards raises AttributeError, and the hash is
    that of the field values."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

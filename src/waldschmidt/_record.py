"""Record, the base of the package's frozen value types: it behaves as a
frozen dataclass without `dataclasses`, which imports `inspect` and
compiles each class's methods at import time."""

from __future__ import annotations

set_field = object.__setattr__  # sets a field past the frozen __setattr__


class Record:
    """A frozen value with the fields named, in order, in `_fields`.

    The generic __init__ takes every field, by position or keyword; a
    subclass with defaults, checks or a hot path has its own, which sets
    the fields with set_field.  A subclass lists its fields in __slots__
    too, unless a cached_property needs a __dict__.  Equality, hash, repr,
    copy, pickle and match patterns work on the fields, as a frozen
    dataclass's do.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls.__match_args__ = cls._fields  # positional `case` patterns

    def __init__(self, *args: object, **kwargs: object) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            given = {**dict(zip(fields, args)), **kwargs}
            # Equal counts and keys: no field is missing, unknown or given twice.
            if len(args) + len(kwargs) != len(fields) or given.keys() != set(fields):
                raise TypeError(f"{type(self).__name__}() takes the arguments {fields}, "
                                f"got {len(args)} positional and {sorted(kwargs)}")
            args = [given[name] for name in fields]
        for name, value in zip(fields, args):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._values()

"""Frozen records: the package's value classes, built without code generation.

A record class lists its fields as annotations, in order, each with an
optional class default.  :class:`Record` gives it an ``__init__`` that takes
the fields by position or keyword, sets them and then runs the class's
``__post_init__``, if it has one, so every construction is checked the same
way.  A record is frozen, compares and hashes by its fields (``eq=False``
keeps identity, for records of arrays), prints as ``Name(field=value, ...)``
and pickles through its ``__dict__``; :meth:`Record.replace` builds a new
record, checks included.  The methods are written once here, not generated
per class with ``exec``, so the records cost next to nothing at import.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """Base of a frozen record class whose fields are its annotations."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, eq: bool = True, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        given = dict(zip(cls._fields, args))
        unknown = kwargs.keys() - cls._fields
        if len(args) > len(given) or unknown or given.keys() & kwargs:
            raise TypeError(
                f"{cls.__name__}() takes the fields {', '.join(cls._fields)}, each once"
            )
        values = {**cls._defaults, **given, **kwargs}
        missing = [f for f in cls._fields if f not in values]
        if missing:
            raise TypeError(f"{cls.__name__}() is missing {', '.join(missing)}")
        vars(self).update((f, values[f]) for f in cls._fields)
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record with ``changes`` over these fields, checked as built."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})

"""`Record`, the base of psys's value classes.

A subclass names its fields as annotations, after the fields of its
bases; a class attribute of the same name is that field's default. A
record takes its fields positionally or by keyword, then calls its
class's `__post_init__` if there is one. It equals only a record of the
same class whose fields are equal, and prints as `Name(field=value!r, ...)`,
as a dataclass does. Records are frozen unless their class says
`frozen=False`: a frozen record refuses assignment and hashes by its
fields; a mutable one has no hash.

Nothing here generates code, so importing psys compiles no methods and
imports neither `dataclasses` nor `inspect`. The generic `__init__` costs
up to three times what a written-out one does, so the classes that psys
builds once per rule, per step or per command write theirs out; a frozen
one sets each field with `set_field`.
"""

from __future__ import annotations

# How a frozen record's own `__init__` sets its fields.
set_field = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}
    _frozen = True
    _post_init = False

    def __init_subclass__(cls, frozen: bool | None = None):
        own = tuple(name for name in cls.__annotations__ if name not in cls._fields)
        cls._fields += own
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}
        cls._post_init = hasattr(cls, "__post_init__")
        if frozen is not None:
            cls._frozen = frozen
        if cls._frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        elif "__hash__" not in cls.__dict__:
            cls.__hash__ = None

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            values = self._bind(values, named)
        for name, value in zip(fields, values):
            set_field(self, name, value)
        if self._post_init:
            self.__post_init__()

    def _bind(self, values: tuple, named: dict) -> list:
        """One value per field from a call that names some fields or leaves some out."""
        fields, name = self._fields, type(self).__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(values)} were given")
        out = list(values)
        for field in fields[len(values):]:
            if field in named:
                out.append(named.pop(field))
            elif field in self._defaults:
                out.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing field {field!r}")
        if named:
            key = next(iter(named))
            problem = "multiple values for" if key in fields else "an unexpected"
            raise TypeError(f"{name}() got {problem} field {key!r}")
        return out

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inside = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({inside})"


def _refuse(self, name: str, *value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")

"""Record: the base of k3fm's immutable value types.

A record is a plain class with __slots__: its slots are its fields, in
report order (cli._json writes them in that order).  Its own __init__
validates the arguments once and sets every field with one _set call.
Only a trusted _of, for values valid by closure, and the two records built
per class operation or grid point, DivisorClass and DiffEntry, do otherwise:
they set a field per object.__setattr__, about 0.3 us less than _set.

- Frozen: assigning or deleting any attribute raises AttributeError, and
  there is no instance __dict__ to write to.  vars(record) still works,
  as it did for the dataclasses: it returns a fresh {field: value} dict,
  and writing to that dict changes nothing.
- Copied: copy, deepcopy and pickle carry the field values in slot order
  (__getstate__/__setstate__), since the default restore would assign.
- Compared: two records are equal when they are of the same class and
  agree on the fields named by the class's _compare, all slots unless the
  class names fewer; the hash reads the same fields.  Fields left out are
  provenance, such as a transform's kernel and labels.
- Shown: repr is Name(field=value, ...) over the slots whose names do not
  start with "_".

Why not dataclasses: importing dataclasses loads inspect, ast, dis and
tokenize, and @dataclass exec()s generated methods at class creation,
which no .pyc can cache.  For the 19 value types that was most of the
cost of importing k3fm.cli: 67 ms -> 21 ms under python -X importtime,
and a fresh `python -m k3fm pic1 --lsq 4` went from 175 ms to 128 ms
against about 93 ms for a bare interpreter (Python 3.11.7, 2 CPUs,
medians of 25 alternating runs).
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["Record"]


class Record:
    """Base of a frozen, slotted value type; see the module docstring."""

    __slots__ = ()
    _compare: tuple[str, ...] = ()  # the fields == and hash read; () means all slots

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*(cls._compare or cls.__slots__))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_")
        return f"{self.__class__.__qualname__}({', '.join(shown)})"

    @property
    def __dict__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        self._set(*state)

    def _set(self, *values):
        """Set the fields, one value per slot in slot order, once at construction."""
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

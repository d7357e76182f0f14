"""The base of the package's immutable value classes.

A subclass lists its attributes in ``__slots__``, in constructor order.  The
public ones are its fields: they are compared (only with an object of the
same class), hashed and shown by ``repr`` as ``Name(field=value, ...)``.  A
slot named with a leading underscore is a cache or private data, left out of
all three.  Assigning or deleting any attribute raises ``AttributeError``,
so a constructor sets its slots with ``_set``, ``object.__setattr__`` bound
once.  Pickle and copy carry every slot and restore it with ``_set``,
without running the constructor again.

These are plain classes, not dataclasses: importing ``dataclasses`` pulls in
``inspect`` and ``ast``, and each decorator compiles its methods on every
import, which was most of the package's start-up time.
"""

from operator import attrgetter

_set = object.__setattr__


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls.__match_args__ = fields
        # the field values as one tuple: every class has at least two fields
        cls._values = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            _set(self, name, value)

"""Enumeration caps, overridable through the ENDOSCOPYLAB_GUARD variable, the
default seed of the randomized checks, and the base of the value classes."""

from __future__ import annotations

import os
from operator import attrgetter, eq, ge, gt, le, lt

__all__ = [
    "GuardError",
    "decimal_int",
    "guard_limit",
    "refuse_above",
    "DEFAULT_BRUTE_GUARD",
    "DEFAULT_CHAIN_GUARD",
    "DEFAULT_SEED",
]

DEFAULT_BRUTE_GUARD = 10**6
DEFAULT_CHAIN_GUARD = 10**5
DEFAULT_SEED = 1729


class GuardError(RuntimeError):
    """An enumeration would exceed the configured cap."""


def decimal_int(text: str) -> int:
    """The int that text writes as an optional "-" and ASCII digits only.

    int() also takes a "+", surrounding spaces, "_" between digits and the
    digits of other scripts; each of those is a ValueError here.
    """
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def guard_limit(default: int) -> int:
    """The cap: ENDOSCOPYLAB_GUARD when set, else the default."""
    env = os.environ.get("ENDOSCOPYLAB_GUARD")
    if env:
        try:
            value = decimal_int(env)
        except ValueError:
            raise ValueError(f"ENDOSCOPYLAB_GUARD must be an integer, got {env!r}")
        if value < 1:
            raise ValueError(f"ENDOSCOPYLAB_GUARD must be positive, got {env!r}")
        return value
    return default


def refuse_above(count: int, message: str, default=DEFAULT_CHAIN_GUARD, **fields) -> None:
    """Raise GuardError above the cap, formatting message with count, cap and fields."""
    cap = guard_limit(default)
    if count > cap:
        raise GuardError(message.format(count=count, cap=cap, **fields))


class _Frozen:
    """An immutable value whose fields are its public ``__slots__``, in order.

    Equality, ordering and the hash read the fields as one tuple, ``_values``,
    as a frozen ordered dataclass does, and hold only within one class.  A
    subclass sets its fields in ``__init__`` with ``object.__setattr__``.  The
    tuple is read in C: one field is its own slot, and several are read by an
    ``attrgetter``, or kept in a ``_values`` slot when the class lists one.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        if len(cls._fields) == 1:  # its bare value compares as its 1-tuple does
            cls._values, cls.__hash__ = vars(cls)[cls._fields[0]], cls._hash_one
        elif "_values" not in cls.__slots__:  # a class that lists it sets it
            cls._values = property(attrgetter(*cls._fields))

    def _compare(op):
        def method(self, other):
            if other.__class__ is self.__class__:
                return op(self._values, other._values)
            return NotImplemented

        return method

    __eq__, __lt__, __le__, __gt__, __ge__ = map(_compare, (eq, lt, le, gt, ge))
    del _compare

    def __hash__(self) -> int:
        return hash(self._values)

    def _hash_one(self) -> int:
        return hash((self._values,))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)

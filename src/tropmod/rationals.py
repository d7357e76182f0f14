"""Exact extended rationals: arbitrary-precision fractions plus signed infinities.

All certificates in this package are computed over exact rationals.  The
infinities used for boundary edge lengths are explicit tags that cooperate
with ``Fraction`` addition; they are never IEEE floats.  The indeterminate
sum ``inf + (-inf)`` raises instead of producing a silent sentinel.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


class Infinity:
    """A signed infinite quantity.

    Supports equality, hashing, negation and addition with rationals and
    same-signed infinities.  Mixed-sign sums raise ``ArithmeticError``.
    """

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        self.sign = sign

    def __repr__(self) -> str:
        return "inf" if self.sign > 0 else "-inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, Infinity) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("tropmod.Infinity", self.sign))

    def __neg__(self) -> "Infinity":
        return NEG_INF if self.sign > 0 else POS_INF

    def __add__(self, other):
        if isinstance(other, Infinity):
            if other.sign != self.sign:
                raise ArithmeticError("indeterminate sum inf + (-inf)")
            return self
        if isinstance(other, (int, Fraction)):
            return self
        return NotImplemented

    __radd__ = __add__


POS_INF = Infinity(1)
NEG_INF = Infinity(-1)

ExtendedRational = Union[Fraction, Infinity]


def ensure_fraction(value) -> Fraction:
    """Coerce an exact input (int, Fraction or 'p/q' string) to Fraction.

    Floats are rejected: they would poison exact certificates.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, Fraction or 'p/q' string")
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def parse_extended(value) -> ExtendedRational:
    """Parse an extended rational from 'p/q' / 'inf' / '-inf' (or exact number)."""
    if isinstance(value, Infinity):
        return value
    if isinstance(value, str):
        text = value.strip()
        if text in ("inf", "+inf"):
            return POS_INF
        if text == "-inf":
            return NEG_INF
        return Fraction(text)
    return ensure_fraction(value)


def format_extended(value: ExtendedRational) -> str:
    """Serialize an extended rational as 'p/q' (denominator 1 omitted) or '±inf'."""
    if isinstance(value, Infinity):
        return repr(value)
    return str(ensure_fraction(value))


def is_finite(value: ExtendedRational) -> bool:
    return not isinstance(value, Infinity)

"""Exact extended rationals: arbitrary-precision fractions plus signed infinities.

All certificates in this package are computed over exact rationals.  The
infinities of boundary edge lengths are tags that add to ``Fraction``s, never
IEEE floats, and ``inf + (-inf)`` raises.  ``parse_extended`` is the one
reader of exact values; in text it takes ``-?[0-9]+(/[0-9]+)?``, ``inf`` and
``-inf``, and nothing else (no spaces, ``+``, decimals, exponents, ``_`` or
non-ASCII digits), with no more digits in either number than int-to-string
conversion allows.
"""

from __future__ import annotations

import re
import sys
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

_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


class TooManyDigits(ValueError):
    """A string in the grammar with more digits than int-to-string
    conversion allows (``sys.get_int_max_str_digits()``)."""


def parse_extended(value) -> ExtendedRational:
    """A Fraction or Infinity as it is, an int as a Fraction, or a string in
    the grammar; another string raises ``ValueError`` (``ZeroDivisionError``
    for q = 0, ``TooManyDigits`` past the digit limit), a float, bool or
    other type ``TypeError``."""
    if isinstance(value, str):
        if value == "inf":
            return POS_INF
        if value == "-inf":
            return NEG_INF
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise ValueError(f'not a "p/q" string: {value!r}')
        try:
            return Fraction(int(match[1]), int(match[2] or 1))
        except ValueError:  # the digits match, so only their number is refused
            limit = sys.get_int_max_str_digits()
            raise TooManyDigits(f"more than {limit} digits, the int-to-string limit") from None
    if isinstance(value, (Infinity, Fraction)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        raise TypeError("floats are not exact; pass an int, Fraction or 'p/q' string")
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def format_extended(value: ExtendedRational) -> str:
    """Serialize an extended rational as 'p/q' (denominator 1 omitted) or '±inf'."""
    return str(parse_extended(value))


def is_finite(value: ExtendedRational) -> bool:
    return not isinstance(value, Infinity)

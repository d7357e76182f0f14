"""Primitive integer vectors.

Span membership and saturation are decided by closed-form witnesses in
``tropmod.divisors``; the general Hermite/Smith algorithms they replace are
kept as test oracles.
"""

from __future__ import annotations

from math import gcd
from typing import List, Sequence, Tuple

from .errors import ZeroVector

IntVector = Tuple[int, ...]


def _as_vector(v: Sequence[int]) -> List[int]:
    out = []
    for x in v:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"integer vector expected, found {x!r}")
        out.append(x)
    return out


def primitive(v: Sequence[int]) -> IntVector:
    """v divided by the gcd of its entries, preserving signs."""
    vec = _as_vector(v)
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    if g == 0:
        raise ZeroVector("the zero vector has no primitive representative")
    return tuple(x // g for x in vec)

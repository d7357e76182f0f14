import random
from fractions import Fraction
from functools import lru_cache

import pytest

from tropmod.moduli import ModuliPoint
from tropmod.rationals import POS_INF
from tropmod.trees import enumerate_types


def random_length(rng: random.Random, bound: int = 10**6) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, bound))


@lru_cache(maxsize=None)
def types_table(n: int, dim: int):
    """``enumerate_types``, kept per (n, dim): the library keeps no table,
    and random points draw from the same few tables thousands of times."""
    return enumerate_types(n, dim)


def random_point(rng: random.Random, n: int, dim=None, infinite_chance: float = 0.0):
    """A random moduli point: random type of the given dimension (facet by
    default), random positive rational lengths, optionally some infinite."""
    dim = n - 3 if dim is None else dim
    ctype = rng.choice(types_table(n, dim))
    lengths = {}
    for s in ctype.splits:
        if infinite_chance and rng.random() < infinite_chance:
            lengths[s] = POS_INF
        else:
            lengths[s] = random_length(rng)
    return ModuliPoint.of(ctype, lengths)


def random_tree_point(rng: random.Random, n: int, dim=None, infinite_chance: float = 0.0):
    """Like ``random_point``, without enumerating types: a random trivalent
    tree grown by inserting leaves 4..n on random edges, with all but ``dim``
    of its splits contracted (none by default)."""
    sides = []  # the side without leaf 1 of each bounded edge
    for new in range(4, n + 1):
        edge = rng.choice(list(range(1, new)) + sides)  # a leaf edge or a bounded one
        if isinstance(edge, int):
            sides = [side | {new} if edge in side else side for side in sides]
            sides.append(frozenset({edge, new}) if edge != 1 else frozenset(range(2, new)))
        else:
            sides = [side | {new} if edge < side else side for side in sides]
            sides.append(edge | {new})
    if dim is not None:
        sides = rng.sample(sides, dim)
    lengths = {}
    for side in sides:
        if infinite_chance and rng.random() < infinite_chance:
            lengths[tuple(side)] = POS_INF
        else:
            lengths[tuple(side)] = random_length(rng)
    return ModuliPoint.of(n, lengths)


@pytest.fixture
def rng():
    return random.Random(20260810)

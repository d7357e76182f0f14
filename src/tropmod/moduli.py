"""Points of the moduli space, double-ratio coordinates, embedding and inverse.

A moduli point is a combinatorial type with a positive (possibly infinite)
length on each split.  Two disjoint ordered pairs of labels determine a
double ratio: the signed length of the intersection of the two leaf-to-leaf
paths, positive when the orientations agree.  Taking all canonical pairs
embeds the space into R^N with N = 3 * C(n, 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

from .errors import IncompatibleSplit, NotInImage
from .rationals import (
    ExtendedRational,
    Infinity,
    is_finite,
    parse_extended,
)
from .trees import CombinatorialType, Split, _as_labels, contract, enumerate_types


@dataclass(frozen=True)
class RatioIndex:
    """Two disjoint ordered pairs of labels, stored canonically.

    For the underlying four labels a < b < c < d the canonical forms are
    ((a,b),(c,d)), ((a,c),(b,d)) and ((a,d),(b,c)); reversing a pair only
    flips the sign of the coordinate, so one representative suffices.
    """

    first: Tuple[int, int]
    second: Tuple[int, int]

    def __post_init__(self):
        i, j = self.first
        k, l = self.second
        if len({i, j, k, l}) != 4:
            raise ValueError("the two pairs must consist of four distinct labels")
        if not (i < j and k < l and i < k):
            raise ValueError(
                "not canonical: need ascending pairs with the overall minimum first"
            )
        object.__setattr__(self, "first", (int(i), int(j)))
        object.__setattr__(self, "second", (int(k), int(l)))

    @classmethod
    def of(cls, first: Iterable[int], second: Iterable[int]) -> Tuple["RatioIndex", int]:
        """Canonicalize arbitrary ordered pairs; returns (index, sign)."""
        (i, j), (k, l) = tuple(first), tuple(second)
        sign = 1
        if i > j:
            i, j, sign = j, i, -sign
        if k > l:
            k, l, sign = l, k, -sign
        if i > k:
            (i, j), (k, l) = (k, l), (i, j)
        return cls((i, j), (k, l)), sign

    @property
    def labels(self) -> frozenset:
        return frozenset(self.first + self.second)

    def __repr__(self) -> str:
        return f"RatioIndex({self.first},{self.second})"


@lru_cache(maxsize=None)
def canonical_coordinates(n: int) -> Tuple[RatioIndex, ...]:
    """The coordinate order of the embedding: 4-subsets lexicographically,
    then the three pairings of each; length 3 * C(n, 4)."""
    if not isinstance(n, int) or n < 4:
        raise ValueError("canonical coordinates need n >= 4")
    out = []
    for a, b, c, d in itertools.combinations(range(1, n + 1), 4):
        out.append(RatioIndex((a, b), (c, d)))
        out.append(RatioIndex((a, c), (b, d)))
        out.append(RatioIndex((a, d), (b, c)))
    assert len(out) == 3 * comb(n, 4)
    return tuple(out)


@lru_cache(maxsize=None)
def _coordinate_positions(n: int) -> Dict[RatioIndex, int]:
    return {r: i for i, r in enumerate(canonical_coordinates(n))}


def _sigma(split: Split, r: RatioIndex) -> int:
    """Contribution sign of one split to one double ratio.

    Zero unless the split separates both pairs; otherwise +1 when the two
    pair heads sit on the same side (orientations agree), else -1.
    """
    i, j = r.first
    k, l = r.second
    side = split.side
    si, sj, sk, sl = i in side, j in side, k in side, l in side
    if si == sj or sk == sl:
        return 0
    return 1 if si == sk else -1


@dataclass(frozen=True)
class ModuliPoint:
    """A combinatorial type with a positive length on each of its splits.

    All lengths finite: a point of the open moduli space.  Any +inf length
    places the point in the boundary of the compactification.
    """

    ctype: CombinatorialType
    lengths: Tuple[Tuple[Split, ExtendedRational], ...]

    def __post_init__(self):
        items = []
        for split, raw in self.lengths:
            value = parse_extended(raw)
            if isinstance(value, Infinity):
                if value.sign < 0:
                    raise ValueError("edge lengths must be positive (or +inf)")
            elif value <= 0:
                raise ValueError(f"edge lengths must be positive, got {value}")
            items.append((split, value))
        items.sort(key=lambda kv: kv[0].key)
        if {s for s, _ in items} != self.ctype.splits or len(items) != len(self.ctype.splits):
            raise ValueError("lengths must be given exactly on the splits of the type")
        object.__setattr__(self, "lengths", tuple(items))

    @classmethod
    def of(
        cls,
        shape: Union[int, Iterable[int], CombinatorialType],
        lengths: Mapping,
    ) -> "ModuliPoint":
        """Build a point from {side or Split: length}; the type is inferred."""
        if isinstance(shape, CombinatorialType):
            labels = shape.labels
        else:
            labels = _as_labels(shape)
        by_split = {}
        for key, value in lengths.items():
            split = key if isinstance(key, Split) else Split.of(labels, key)
            by_split[split] = value
        ctype = (
            shape
            if isinstance(shape, CombinatorialType)
            else CombinatorialType(labels, frozenset(by_split))
        )
        return cls(ctype, tuple(by_split.items()))

    @property
    def labels(self) -> frozenset:
        return self.ctype.labels

    @property
    def n(self) -> int:
        return self.ctype.n

    @property
    def is_finite(self) -> bool:
        """True iff the point lies in the open part of the moduli space."""
        return all(is_finite(v) for _, v in self.lengths)

    def length_of(self, split: Split) -> ExtendedRational:
        for s, v in self.lengths:
            if s == split:
                return v
        raise KeyError(f"{split!r} is not a split of this point")

    def __repr__(self) -> str:
        inner = ", ".join(f"{s.text}:{v}" for s, v in self.lengths)
        return f"ModuliPoint(n={self.n}, {{{inner}}})"


@dataclass(frozen=True)
class EmbeddingVector:
    """The image of a point: extended rationals in canonical coordinate order."""

    n: int
    entries: Tuple[ExtendedRational, ...]

    def __post_init__(self):
        expected = 3 * comb(self.n, 4)
        if len(self.entries) != expected:
            raise ValueError(f"expected {expected} coordinates for n = {self.n}")
        object.__setattr__(self, "entries", tuple(parse_extended(e) for e in self.entries))

    @property
    def coordinates(self) -> Tuple[RatioIndex, ...]:
        return canonical_coordinates(self.n)

    @property
    def is_finite(self) -> bool:
        return all(is_finite(v) for v in self.entries)

    def entry(self, r: RatioIndex) -> ExtendedRational:
        return self.entries[_coordinate_positions(self.n)[r]]

    def __iter__(self):
        return iter(self.entries)


def double_ratio(x: ModuliPoint, r: RatioIndex) -> ExtendedRational:
    """The signed length of the intersection of the paths of the two pairs.

    Computed as the sum over splits of sigma * length; all contributing
    splits carry the same sign, so infinities never cancel.
    """
    if not r.labels <= x.labels:
        raise ValueError(f"{r!r} uses labels outside the point's leaf set")
    total: ExtendedRational = Fraction(0)
    for split, length in x.lengths:
        s = _sigma(split, r)
        if s == 0:
            continue
        total = total + (length if s > 0 else -length)
    return total


def _require_standard_labels(labels: frozenset) -> int:
    n = len(labels)
    if labels != frozenset(range(1, n + 1)):
        raise ValueError(
            "embedding coordinates are defined for leaf labels 1..n; relabel first"
        )
    return n


@lru_cache(maxsize=None)
def _split_direction(split: Split) -> Tuple[int, ...]:
    n = _require_standard_labels(split.labels)
    return tuple(_sigma(split, r) for r in canonical_coordinates(n))


@lru_cache(maxsize=None)
def _quartet_offsets(n: int) -> Dict[Tuple[int, int, int, int], int]:
    """Position of the first of each sorted quartet's three coordinates."""
    return {
        quad: 3 * q for q, quad in enumerate(itertools.combinations(range(1, n + 1), 4))
    }


# Nonzero (offset, sign) entries of a quartet's three coordinates under a split
# that pairs its smallest label with the label at position 1, 2 or 3; these are
# the rays (0,1,1), (1,0,-1), (-1,-1,0) of M_{0,4}.  The first entry is the
# coordinate that isolates the split (see ``_quartet_coordinate``).
_QUARTET_ENTRIES = {
    1: ((1, 1), (2, 1)),
    2: ((0, 1), (2, -1)),
    3: ((0, -1), (1, -1)),
}


def _quartet_entries(n: int, a: int, b: int, c: int, d: int) -> Tuple[Tuple[int, int], ...]:
    """Nonzero (index, sign) entries of a split with ab|cd on the quartet {a,b,c,d}."""
    quad = tuple(sorted((a, b, c, d)))
    low = quad[0]
    partner = {a: b, b: a, c: d, d: c}[low]
    base = _quartet_offsets(n)[quad]
    return tuple((base + off, sign) for off, sign in _QUARTET_ENTRIES[quad.index(partner)])


@lru_cache(maxsize=None)
def _quartet_coordinate(n: int, a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """A coordinate that sees exactly the inner path of the quartet ab|cd.

    Returns (index, sign): every split that separates {a, b} from {c, d} has
    entry ``sign`` there, and every split that does not cut the quartet two
    and two has entry 0 (a split cutting it otherwise is incompatible with
    ab|cd).  When a single edge of a tree is the inner path of ab|cd, this
    coordinate isolates it among the tree's splits.
    """
    return _quartet_entries(n, a, b, c, d)[0]


@lru_cache(maxsize=None)
def _split_support(split: Split) -> Tuple[Tuple[int, int], ...]:
    """The nonzero entries of the direction of a split, as sorted (index, sign).

    Only quartets with two leaves on each side contribute, two entries each:
    2 * C(a,2) * C(b,2) entries for sides of sizes a and b.
    """
    n = _require_standard_labels(split.labels)
    out = []
    for a, b in itertools.combinations(sorted(split.side), 2):
        for c, d in itertools.combinations(sorted(split.complement), 2):
            out.extend(_quartet_entries(n, a, b, c, d))
    out.sort()
    return tuple(out)


def direction_vector(t: CombinatorialType, s: Split) -> Tuple[int, ...]:
    """Gradient of the embedding with respect to the length of s.

    Entries lie in {-1, 0, +1} and the vector is nonzero, hence primitive.
    The split must belong to the type or at least be compatible with it
    (the case of resolution directions at a codimension-1 face).
    """
    if s.labels != t.labels:
        raise IncompatibleSplit("split and type live on different leaf sets")
    if s not in t.splits and not all(s.compatible_with(u) for u in t.splits):
        raise IncompatibleSplit(f"{s!r} is incompatible with {t!r}")
    return _split_direction(s)


def embed(x: ModuliPoint) -> EmbeddingVector:
    """The double-ratio embedding of a moduli point into R^N."""
    n = _require_standard_labels(x.labels)
    entries: list = [Fraction(0)] * (3 * comb(n, 4))
    for split, length in x.lengths:
        direction = _split_direction(split)
        for idx, s in enumerate(direction):
            if s != 0:
                entries[idx] = entries[idx] + (length if s > 0 else -length)
    return EmbeddingVector(n, tuple(entries))


def reconstruct(v: Union[EmbeddingVector, Sequence], n: int) -> ModuliPoint:
    """Invert the embedding on its image.

    The quartet topologies are read off the vanishing pattern, a bipartition
    is a split iff all its straddling quartets agree with it, lengths are the
    minimal straddling absolute values, and the candidate is validated by
    re-embedding.  Raises NotInImage when any step fails.
    """
    if isinstance(v, EmbeddingVector):
        if v.n != n:
            raise ValueError(f"vector is for n = {v.n}, not {n}")
        raw: Sequence = v.entries
    else:
        raw = tuple(v)
    if n < 4:
        raise ValueError("reconstruction needs n >= 4")
    if len(raw) != 3 * comb(n, 4):
        raise ValueError(f"expected {3 * comb(n, 4)} coordinates for n = {n}")
    entries = []
    for value in raw:
        value = parse_extended(value)
        if isinstance(value, Infinity):
            raise ValueError("reconstruction is defined for finite vectors only")
        entries.append(value)

    # Quartet topology: partner of the quartet's smallest label, or None when
    # all three coordinates vanish.  Also record the minimal nonzero absolute
    # value per quartet, which bounds the length of any separating edge.
    quartets = list(itertools.combinations(range(1, n + 1), 4))
    partner: Dict[Tuple[int, ...], int] = {}
    min_abs: Dict[Tuple[int, ...], Fraction] = {}
    for q, quad in enumerate(quartets):
        e = entries[3 * q : 3 * q + 3]
        nonzero = [t for t in range(3) if e[t] != 0]
        if not nonzero:
            continue
        if len(nonzero) != 2 or abs(e[nonzero[0]]) != abs(e[nonzero[1]]):
            raise NotInImage(
                f"quartet {quad}: coordinates {tuple(e)} are not of the form (0, m, +-m)"
            )
        zero = ({0, 1, 2} - set(nonzero)).pop()
        partner[quad] = quad[zero + 1]
        min_abs[quad] = min(abs(e[nonzero[0]]), abs(e[nonzero[1]]))

    labels = frozenset(range(1, n + 1))
    found: Dict[Split, Fraction] = {}
    for size in range(2, n - 1):
        for side in itertools.combinations(range(2, n + 1), size):
            side_set = set(side)
            rest = sorted(labels - side_set)
            length = None
            good = True
            for a, b in itertools.combinations(side, 2):
                for c, d in itertools.combinations(rest, 2):
                    quad = tuple(sorted((a, b, c, d)))
                    expected = (a + b if quad[0] in side_set else c + d) - quad[0]
                    if partner.get(quad) != expected:
                        good = False
                        break
                    m = min_abs[quad]
                    if length is None or m < length:
                        length = m
                if not good:
                    break
            if good:
                found[Split(labels, frozenset(side_set))] = length

    try:
        ctype = CombinatorialType(labels, frozenset(found))
    except IncompatibleSplit as exc:
        raise NotInImage(f"recovered splits are incompatible: {exc}") from exc
    point = ModuliPoint(ctype, tuple(found.items()))
    if list(embed(point).entries) != entries:
        raise NotInImage("re-embedding the candidate point does not reproduce the vector")
    return point


@dataclass(frozen=True)
class LinkGraph:
    """The link of the origin: rays as vertices, 2-dimensional cones as edges."""

    n: int
    vertices: Tuple[CombinatorialType, ...]
    edges: Tuple[Tuple[int, int], ...]
    quadrants: Tuple[CombinatorialType, ...]  # the 2-dimensional type of each edge

    def degrees(self) -> Tuple[int, ...]:
        deg = [0] * len(self.vertices)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)


def link_graph(n: int) -> LinkGraph:
    """Vertices: one-split types; edges: two-split types joining their two faces."""
    if n < 5:
        raise ValueError("the link graph needs n >= 5")
    rays = enumerate_types(n, 1)
    position = {t: i for i, t in enumerate(rays)}
    pairs = []
    for quadrant in enumerate_types(n, 2):
        faces = sorted(
            (position[contract(quadrant, s)] for s in quadrant.splits)
        )
        pairs.append(((faces[0], faces[1]), quadrant))
    pairs.sort(key=lambda p: (p[0], p[1].key))
    return LinkGraph(
        n=n,
        vertices=rays,
        edges=tuple(p[0] for p in pairs),
        quadrants=tuple(p[1] for p in pairs),
    )

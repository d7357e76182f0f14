"""Points of the moduli space, double-ratio coordinates, embedding and inverse.

A moduli point is a combinatorial type with a positive (possibly infinite)
length on each split.  Two disjoint ordered pairs of labels determine a
double ratio: the signed length of the intersection of the two leaf-to-leaf
paths, positive when the orientations agree.  Taking all canonical pairs
embeds the space into R^N with N = 3 * C(n, 4).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from ._value import Value, _set
from .errors import IncompatibleSplit, NotInImage, _shown
from .rationals import (
    NEG_INF,
    POS_INF,
    ExtendedRational,
    Infinity,
    is_finite,
    parse_extended,
)
from .trees import (
    CombinatorialType,
    Split,
    _as_labels,
    _Ints,
    _leaf_set,
    _stream_types,
    enumerate_types,
)


class RatioIndex(Value):
    """Two disjoint ordered pairs of labels, stored canonically.

    For the underlying four labels a < b < c < d the canonical forms are
    ((a,b),(c,d)), ((a,c),(b,d)) and ((a,d),(b,c)); reversing a pair only
    flips the sign of the coordinate, so one representative suffices.
    """

    __slots__ = ("first", "second")

    def __init__(self, first: Tuple[int, int], second: Tuple[int, int]):
        i, j = first
        k, l = second
        if len({i, j, k, l}) != 4:
            raise ValueError("the two pairs must consist of four distinct labels")
        if not (i < j and k < l and i < k):
            raise ValueError(
                "not canonical: need ascending pairs with the overall minimum first"
            )
        _set(self, "first", (int(i), int(j)))
        _set(self, "second", (int(k), int(l)))

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
    for (a, b, c, d), _ in _quartets(n):
        out += (RatioIndex((a, b), (c, d)), RatioIndex((a, c), (b, d)), RatioIndex((a, d), (b, c)))
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


class ModuliPoint(Value):
    """A combinatorial type with a positive length on each of its splits.

    All lengths finite: a point of the open moduli space.  Any +inf length
    places the point in the boundary of the compactification.
    """

    __slots__ = ("ctype", "lengths")

    def __init__(
        self, ctype: CombinatorialType, lengths: Iterable[Tuple[Split, ExtendedRational]]
    ):
        items = []
        for split, raw in lengths:
            value = parse_extended(raw)
            if isinstance(value, Infinity):
                if value.sign < 0:
                    raise ValueError("edge lengths must be positive (or +inf)")
            elif value <= 0:
                raise ValueError(f"edge lengths must be positive, got {_shown(value, str)}")
            items.append((split, value))
        items.sort(key=lambda kv: kv[0].key)
        if tuple(s for s, _ in items) != ctype.splits:
            raise ValueError("lengths must be given exactly on the splits of the type")
        _set(self, "ctype", ctype)
        _set(self, "lengths", tuple(items))

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
            else CombinatorialType(labels, by_split)
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


def _check_coordinates(n: int, entries: Sequence) -> None:
    expected = 3 * comb(n, 4)
    if len(entries) != expected:
        raise ValueError(f"expected {_shown(expected, str)} coordinates for n = {_shown(n, str)}")


class EmbeddingVector(Value):
    """The image of a point: extended rationals in canonical coordinate order."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: Sequence):
        _check_coordinates(n, entries)
        _set(self, "n", n)
        _set(self, "entries", tuple(parse_extended(e) for e in entries))

    @classmethod
    def _trusted(cls, n: int, entries: Tuple[ExtendedRational, ...]) -> "EmbeddingVector":
        """Build without checks, from parsed entries of the right length."""
        v = object.__new__(cls)
        _set(v, "n", n)
        _set(v, "entries", entries)
        return v

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
    """The dense direction of a split: its support scattered into zeros."""
    entries = [0] * (3 * comb(split.n, 4))
    for i, x in _split_support(split):
        entries[i] = x
    return _Ints(entries)


# A quartet's three coordinates under a split that pairs its smallest label
# with the label at position 1, 2 or 3, indexed by that position less one
# (the coordinate that vanishes, as keyed by ``_quartet_totals``): the rays of
# M_{0,4}.  The first nonzero entry is the coordinate that isolates the split
# (see ``divisors._isolating_coordinates``).
_RAYS = ((0, 1, 1), (1, 0, -1), (-1, -1, 0))


def _quartet_ray(side: int, quartet: int) -> Tuple[int, int, int]:
    """The entries of a split's direction on a quartet's three coordinates,
    the side and the quartet given as label bitmasks: the ray that pairs the
    quartet's least label with its partner, or zeros unless the side holds
    two of the quartet's labels."""
    cut = side & quartet
    if cut.bit_count() != 2:
        return (0, 0, 0)
    least = quartet & -quartet
    partner = (cut if cut & least else quartet ^ cut) ^ least
    return _RAYS[(quartet & (partner - 1)).bit_count() - 1]


@lru_cache(maxsize=None)
def _split_support(split: Split) -> Tuple[Tuple[int, int], ...]:
    """The nonzero entries of the direction of a split, as sorted (index, sign).

    Only quartets with two leaves on each side contribute, two entries each:
    2 * C(a,2) * C(b,2) entries for sides of sizes a and b.
    """
    n = _require_standard_labels(split.labels)
    keys = _quartet_totals(n, [(split, 1)])
    rays = ((key - key % 3, _RAYS[key % 3]) for key in keys)
    return tuple(sorted((base + i, x) for base, ray in rays for i, x in enumerate(ray) if x))


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


@lru_cache(maxsize=None)
def _quartets(n: int) -> Tuple[Tuple[Tuple[int, int, int, int], int], ...]:
    """Each sorted quartet with its label bitmask (sum of 1 << label), in
    coordinate order."""
    return tuple(
        (quad, sum(1 << x for x in quad))
        for quad in itertools.combinations(range(1, n + 1), 4)
    )


@lru_cache(maxsize=None)
def _quartet_bases(n: int) -> Dict[int, int]:
    """Position of the first of each quartet's three coordinates, by bitmask."""
    return {mask: 3 * q for q, (_, mask) in enumerate(_quartets(n))}


def _quartet_totals(n: int, weighted: Iterable[Tuple[Split, int]]) -> Dict[int, int]:
    """Inner-path totals of the quartets cut two and two by weighted splits.

    Walks the C(a,2) * C(b,2) quartets ab|cd that straddle each split and
    adds its weight to the quartet's total, keyed by the coordinate that
    vanishes on ab|cd (base + 0, 1 or 2 for the smallest label paired with
    the label at position 1, 2 or 3).  In a tree every split that cuts a
    quartet cuts it the same way, so each quartet has at most one key.
    """
    bases = _quartet_bases(n)
    totals: Dict[int, int] = {}
    get = totals.get
    for split, weight in weighted:
        far = [(c, d, (1 << c) | (1 << d))
               for c, d in itertools.combinations(sorted(split.complement), 2)]
        for a, b in itertools.combinations(sorted(split.side), 2):
            near = (1 << a) | (1 << b)
            for c, d, mask in far:
                base = bases[near | mask]
                # position of the smallest label's partner, less one
                key = base + (c < b) + (d < b) if a < c else base + (a < d) + (b < d)
                totals[key] = get(key, 0) + weight
    return totals


def _spread(entries: list, totals: Mapping[int, int], value) -> None:
    """Write each quartet's ray at the coordinates of the pairing its key
    names, scaled by ``value(total)`` = (zero, +t, -t); ``value`` is called
    once per distinct total."""
    rays: Dict[int, tuple] = {}
    for key, total in totals.items():
        if total not in rays:
            scale = value(total).__getitem__  # by the ray's entry: 0, 1 or -1
            rays[total] = tuple(tuple(map(scale, ray)) for ray in _RAYS)
        shift = key % 3
        entries[key - shift : key - shift + 3] = rays[total][shift]


_ZERO = Fraction(0)


def embed(x: ModuliPoint) -> EmbeddingVector:
    """The double-ratio embedding of a moduli point into R^N.

    Accumulated quartet-wise: each split adds its length to the quartets it
    cuts two and two (``_quartet_totals``), in integers over the common
    denominator of the finite lengths, and each distinct total becomes one
    Fraction and its negation.  A quartet cut by an infinite edge gets
    +-inf; all splits cutting a quartet give it the same signs, so
    infinities never cancel.
    """
    n = _require_standard_labels(x.labels)
    finite = [(s, v) for s, v in x.lengths if is_finite(v)]
    denominator = lcm(*(v.denominator for _, v in finite))
    totals = _quartet_totals(
        n, [(s, v.numerator * (denominator // v.denominator)) for s, v in finite]
    )

    def value(total: int) -> Tuple[Fraction, Fraction, Fraction]:
        v = Fraction(total, denominator)
        return _ZERO, v, -v

    entries: list = [_ZERO] * (3 * comb(n, 4))
    _spread(entries, totals, value)
    if len(finite) < len(x.lengths):
        infinite = _quartet_totals(n, [(s, 1) for s, v in x.lengths if not is_finite(v)])
        _spread(entries, infinite, lambda _: (_ZERO, POS_INF, NEG_INF))
    return EmbeddingVector._trusted(n, tuple(entries))


def _over_common_denominator(entries: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """The common denominator D of finite entries and the entries times D.

    Each distinct entry object is converted once: parsed vectors share one
    object per distinct value.
    """
    ids = list(map(id, entries))
    distinct = dict(zip(ids, entries))
    if any(isinstance(e, Infinity) for e in distinct.values()):
        raise ValueError("reconstruction is defined for finite vectors only")
    denominator = lcm(*{e.denominator for e in distinct.values()})
    scale = {k: e.numerator * (denominator // e.denominator) for k, e in distinct.items()}
    return denominator, list(map(scale.__getitem__, ids))


def _candidate_splits(scaled: Sequence[int], n: int) -> Dict[Split, int]:
    """The splits of the tree read off O(n^2) coordinates, each with its
    length, in integers over the vector's common denominator.

    With the leaf edges chosen so that d(1, j) = 0 and d(2, 3) = 0, the
    leaf-to-leaf distance d(i, j) is -2g(i, j), where g(2, j) and g(3, j) are
    the first and second coordinates of quartet {1,2,3,j} and g(i, j) is
    g(2, i) plus the second coordinate of {1,2,i,j}.  On the image, g(i, j)
    less its least value is the depth below leaf 1's vertex at which i and j
    part, an integer: (max d - d(i, j))/2 needs no division.  So the leaves
    that part from i at a level or deeper, with i, are the side of a split,
    and the gap to the next level up is its length; the least level of each
    row is leaf 1's vertex.  A side is read from its least leaf only.  Off
    the image this reads some set of bipartitions, not always a type, and
    ``_certified`` rejects it.
    """
    bases = _quartet_bases(n)
    g = [[0] * (n + 1) for _ in range(n + 1)]
    for j in range(4, n + 1):  # g(2, 3) = 0
        g[2][j] = g[j][2] = scaled[bases[0b1110 | 1 << j]]
    for i in range(3, n + 1):
        gi, row = g[2][i], g[i]
        for j in range(i + 1, n + 1):
            row[j] = g[j][i] = gi + scaled[bases[0b110 | 1 << i | 1 << j] + 1]
    labels = _leaf_set(n)
    found: Dict[Split, int] = {}
    for i in range(2, n + 1):
        row = g[i]
        deepest = sorted(((row[j], j) for j in range(2, n + 1) if j != i), reverse=True)
        lower = (1 << i) - 1
        mask = 1 << i
        for k in range(len(deepest) - 1):
            level, j = deepest[k]
            mask |= 1 << j
            if mask & lower:  # read from a lesser leaf, as is every side above
                break
            above = deepest[k + 1][0]
            if above != level:
                side = frozenset(x for x in range(i, n + 1) if mask >> x & 1)
                found[Split(labels, side)] = level - above
    return found


def _certified(
    splits: Mapping[Split, int], scaled: Sequence[int], denominator: int, n: int
) -> Optional[ModuliPoint]:
    """The point with these splits and positive lengths over ``denominator``
    when the splits make a type and its re-embedding, in integers, equals
    ``scaled``; None otherwise."""
    try:
        ctype = CombinatorialType(_leaf_set(n), splits)
    except IncompatibleSplit:
        return None
    image = [0] * len(scaled)
    _spread(image, _quartet_totals(n, splits.items()), lambda t: (0, t, -t))
    if image != scaled:
        return None
    return ModuliPoint(
        ctype, tuple((s, Fraction(least, denominator)) for s, least in splits.items())
    )


def _refusal(scaled: Sequence[int], denominator: int, n: int) -> NotInImage:
    """Why a vector off the image is refused: its first quartet whose
    coordinates are not of the form (0, m, +-m), else its re-embedding."""
    for q, (quad, _) in enumerate(_quartets(n)):
        triple = scaled[3 * q : 3 * q + 3]
        low, mid, high = sorted(map(abs, triple))
        if low or mid != high:
            # the tuple's repr, each integer shortened past 40 digits
            shown = ", ".join(
                f"Fraction({_shown(f.numerator)}, {_shown(f.denominator)})"
                for f in (Fraction(t, denominator) for t in triple)
            )
            return NotInImage(
                f"quartet {quad}: coordinates ({shown}) are not of the form (0, m, +-m)"
            )
    return NotInImage("re-embedding the candidate point does not reproduce the vector")


def reconstruct(v: Union[EmbeddingVector, Sequence], n: int) -> ModuliPoint:
    """Invert the embedding on its image.

    Everything is done in integers over the vector's common denominator.
    A candidate tree is read off O(n^2) coordinates, the quartets {1,2,i,j}
    (``_candidate_splits``), and returned once ``_certified`` accepts it:
    its splits make a type and re-embedding it gives the vector back.  The
    embedding is injective, so that point is the only preimage.  On the
    image the candidate is always accepted: the coordinates read are those
    of a tree metric, whose clusters below leaf 1 are the point's splits and
    whose level gaps are its lengths, so the candidate is the point itself.
    Hence a refused candidate means a vector off the image, and NotInImage
    names the first quartet whose coordinates are not of the form
    (0, m, +-m), or, when every quartet has that form, the re-embedding.
    """
    if isinstance(v, EmbeddingVector) and v.n != n:
        raise ValueError(f"vector is for n = {v.n}, not {n}")
    if n < 4:
        raise ValueError("reconstruction needs n >= 4")
    if not isinstance(v, EmbeddingVector):
        v = EmbeddingVector(n, tuple(v))

    denominator, scaled = _over_common_denominator(v.entries)
    point = _certified(_candidate_splits(scaled, n), scaled, denominator, n)
    if point is None:
        raise _refusal(scaled, denominator, n)
    return point


class LinkGraph(Value):
    """The link of the origin: rays as vertices, 2-dimensional cones as edges."""

    __slots__ = ("n", "vertices", "edges", "quadrants")

    def __init__(
        self,
        n: int,
        vertices: Tuple[CombinatorialType, ...],
        edges: Tuple[Tuple[int, int], ...],
        quadrants: Tuple[CombinatorialType, ...],  # the 2-dimensional type of each edge
    ):
        _set(self, "n", n)
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "quadrants", quadrants)

    def degrees(self) -> Tuple[int, ...]:
        deg = [0] * len(self.vertices)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return tuple(deg)


def _link_edges(n: int, rays: Sequence[CombinatorialType]) -> Iterator[tuple]:
    """Each two-split type on 1..n in stream order, with its rays' positions in ``rays``."""
    position = {ray.key[0]: i for i, ray in enumerate(rays)}
    for quadrant in _stream_types(n, 2):
        yield tuple(position[k] for k in quadrant.key), quadrant


def link_graph(n: int) -> LinkGraph:
    """Vertices: one-split types; edges: two-split types, in stream order,
    each joining its two splits' rays (so in key order, as the rays are)."""
    if n < 5:
        raise ValueError("the link graph needs n >= 5")
    rays = enumerate_types(n, 1)
    edges, quadrants = zip(*_link_edges(n, rays))
    return LinkGraph(n=n, vertices=rays, edges=edges, quadrants=quadrants)

"""Combinatorial types of genus-0 marked tropical curves as split systems.

A bounded edge of a leaf-labeled tree bipartitions the leaves; the splits of
all bounded edges form a pairwise-compatible system, and conversely every
such system is realized by a unique tree (Buneman's splits-equivalence
theorem).  A type stores its splits once, as a tuple in key order (each
split by its sorted side), with each split represented by the side not
containing the smallest label; that tuple is canonical, so it gives the
type's key, text, equality and hash, and a type made by dropping or adding
a split keeps it in order.

Types on {1..n} are made one at a time, never tabled.  One pool per n,
keyed by side mask, holds each split on 1..n once it is asked for, so the
types and the resolutions share one object per split.  A depth-first search
over all splits sorted by key (the sorted side) picks increasing indices,
ANDing for each pick a bitset of the later splits compatible with it
(disjoint or nested sides; made when first picked with more to pick), and
backtracks when fewer candidates are left than splits still needed.  A
type's key is its split keys in order, so each type comes out once and in
key order.  ``_count_types`` counts them in closed form.

``_vertices`` is the one reader of local structure: it reads a type's
internal vertices off its side masks, as masks, valences and parents, and
``_branches_at`` gives the branches at one of them as masks.
``_branch_masks`` reads the 4-valent vertex of a codimension-1 type with
them, and resolutions and psi divisors are read off its four branches; the
psi faces read the vertex of leaf k and the other vertex that is not
trivalent; and each split's isolating quartet is read off its vertex, the
parent and the child holding its least leaf.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import lru_cache
from operator import attrgetter
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from ._value import Value, _set
from .errors import IncompatibleSplit, NotCodimensionOne, SplitAbsent

Labels = FrozenSet[int]


def _as_labels(labels: Union[int, Iterable[int]]) -> Labels:
    if isinstance(labels, int):
        if labels < 3:
            raise ValueError("at least three marked leaves are required")
        return frozenset(range(1, labels + 1))
    out = frozenset(int(x) for x in labels)
    if len(out) < 3:
        raise ValueError("at least three marked leaves are required")
    if any(x < 1 for x in out):
        raise ValueError("leaf labels must be positive integers")
    return out


class _Ints(tuple):
    """A tuple of plain ints made by the package: a split's key or its
    direction.  The JSON writer renders one without checking its entries."""

    __slots__ = ()


class Split(Value):
    """A bipartition of the leaf set with both sides of size >= 2.

    The stored side is the one not containing the smallest label, which
    makes the representation unique; construction accepts either side.
    """

    # key, text and mask, made on first use: types sort by the key, print
    # the text, and read their local structure off the masks
    __slots__ = ("labels", "side", "_key", "_text", "_mask")

    def __init__(self, labels: Labels, side: Labels):
        labels = frozenset(labels)
        side = frozenset(side)
        if not side <= labels:
            raise ValueError("side must consist of leaf labels")
        anchor = min(labels)
        if anchor in side:
            side = labels - side
        if not 2 <= len(side) <= len(labels) - 2:
            raise ValueError("both sides of a split need at least two leaves")
        _set(self, "labels", labels)
        _set(self, "side", side)
        _set(self, "_key", None)
        _set(self, "_text", None)
        _set(self, "_mask", None)

    def __eq__(self, other):
        # the base's comparison with the slots read directly, which is faster
        # than its attrgetter: splits are compared in the fan reader's face
        # lookups and in every type comparison
        if other.__class__ is self.__class__:
            return (self.labels, self.side) == (other.labels, other.side)
        return NotImplemented

    def __hash__(self) -> int:
        # equal splits have equal sides, and a frozenset keeps its hash once made
        return hash(self.side)

    @classmethod
    def of(cls, labels: Union[int, Iterable[int]], side: Iterable[int]) -> "Split":
        return cls(_as_labels(labels), frozenset(int(x) for x in side))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def complement(self) -> Labels:
        return self.labels - self.side

    @property
    def key(self) -> Tuple[int, ...]:
        """Canonical sort key: the sorted side."""
        if self._key is None:
            _set(self, "_key", _Ints(sorted(self.side)))
        return self._key

    @property
    def text(self) -> str:
        """Canonical textual form: the sorted side, e.g. "45" for 45|123."""
        if self._text is None:
            sep = "" if max(self.labels) <= 9 else ","
            _set(self, "_text", sep.join(map(str, self.key)))
        return self._text

    @property
    def mask(self) -> int:
        """The side as a bitmask: bit i for label i."""
        if self._mask is None:
            _set(self, "_mask", sum(1 << x for x in self.side))
        return self._mask

    def compatible_with(self, other: "Split") -> bool:
        """Whether the two bipartitions can coexist in one tree.

        With both sides anchored away from the smallest label this is:
        disjoint or nested.
        """
        if self.labels is not other.labels and self.labels != other.labels:
            raise ValueError("splits live on different leaf sets")
        a, b = self.side, other.side
        return a.isdisjoint(b) or a <= b or b <= a

    def __repr__(self) -> str:
        return f"Split({self.text})"


_key = attrgetter("key")
_mask = attrgetter("mask")


class CombinatorialType(Value):
    """A pairwise-compatible set of splits; indexes one cone of the moduli fan.

    ``splits`` is a tuple in key order.  The constructor takes the splits in
    any order, with repeats, and stores them deduplicated and sorted.
    """

    __slots__ = ("labels", "splits")

    def __init__(self, labels: Labels, splits: Iterable[Split]):
        labels = frozenset(labels)
        if len(labels) < 3:
            raise ValueError("at least three marked leaves are required")
        splits = tuple(sorted(set(splits), key=_key))
        for s in splits:
            if s.labels != labels:
                raise ValueError(f"{s!r} does not live on the type's leaf set")
        for s, t in itertools.combinations(splits, 2):
            if not s.compatible_with(t):
                # the first clashing pair in canonical order
                raise IncompatibleSplit(f"{s!r} and {t!r} cannot coexist in one tree")
        _set(self, "labels", labels)
        _set(self, "splits", splits)

    @classmethod
    def of(
        cls, labels: Union[int, Iterable[int]], sides: Iterable[Iterable[int]] = ()
    ) -> "CombinatorialType":
        lab = _as_labels(labels)
        return cls(lab, [Split.of(lab, side) for side in sides])

    @classmethod
    def _trusted(cls, labels: Labels, splits: Tuple[Split, ...]) -> "CombinatorialType":
        """Build without the checks, for splits compatible by construction
        and already in key order."""
        t = object.__new__(cls)
        _set(t, "labels", labels)
        _set(t, "splits", splits)
        return t

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        """Number of bounded edges = dimension of the corresponding cone."""
        return len(self.splits)

    @property
    def is_trivalent(self) -> bool:
        return self.dim == self.n - 3

    @property
    def key(self) -> Tuple[Tuple[int, ...], ...]:
        return tuple(s.key for s in self.splits)

    @property
    def text(self) -> str:
        return "{" + ",".join(s.text for s in self.splits) + "}"

    def __repr__(self) -> str:
        return f"CombinatorialType(n={self.n}, {self.text})"


class TreeVertex(Value):
    """One internal vertex: its directly attached leaves and incident splits."""

    __slots__ = ("leaves", "splits")

    def __init__(self, leaves: Labels, splits: FrozenSet[Split]):
        _set(self, "leaves", leaves)
        _set(self, "splits", splits)

    @property
    def valence(self) -> int:
        return len(self.leaves) + len(self.splits)


class TreeRealization(Value):
    """The unique tree realizing a combinatorial type.

    ``edges`` lists the bounded edges as (split, parent index, child index),
    the parent being the endpoint nearer the smallest label.  Leaf edges are
    implicit: each label hangs off the vertex whose ``leaves`` hold it.
    """

    __slots__ = ("vertices", "edges")

    def __init__(
        self, vertices: Tuple[TreeVertex, ...], edges: Tuple[Tuple[Split, int, int], ...]
    ):
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)

    def valences(self) -> Tuple[int, ...]:
        return tuple(v.valence for v in self.vertices)

    def branches(self, vertex: int) -> Tuple[Labels, ...]:
        """The leaf sets of the subtrees hanging off each edge at a vertex."""
        v = self.vertices[vertex]
        own = self.edges[vertex - 1][0] if vertex else None  # the edge up to the parent
        out = [frozenset([leaf]) for leaf in v.leaves]
        out += [s.complement if s is own else s.side for s in v.splits]
        return tuple(sorted(out, key=min))


def to_tree(t: CombinatorialType) -> TreeRealization:
    """Realize a type: vertex 0 is the root, vertex i the child end of split i by key.

    Sides are visited largest first while ``home`` maps each label to the
    smallest side yet that holds it: the home of a side's least label is its
    parent, and each leaf hangs off its final home.
    """
    ordered = t.splits
    home = dict.fromkeys(t.labels, 0)
    parent = [0] * (len(ordered) + 1)
    for i in sorted(range(1, len(parent)), key=lambda i: -len(ordered[i - 1].side)):
        side = ordered[i - 1].side
        parent[i] = home[min(side)]
        home.update(dict.fromkeys(side, i))
    leaves = [set() for _ in parent]
    for label, i in home.items():
        leaves[i].add(label)
    incident = [set()] + [{s} for s in ordered]
    edges = tuple((s, parent[i], i) for i, s in enumerate(ordered, 1))
    for s, p, _ in edges:
        incident[p].add(s)
    vertices = tuple(TreeVertex(frozenset(l), frozenset(s)) for l, s in zip(leaves, incident))
    assert all(v.valence >= 3 for v in vertices)
    return TreeRealization(vertices=vertices, edges=edges)


def valence_profile(t: CombinatorialType) -> Tuple[int, ...]:
    """Sorted multiset of internal-vertex valences, read off ``_vertices``."""
    return tuple(sorted(_vertices(t)[1]))


def contract(t: CombinatorialType, s: Split) -> CombinatorialType:
    """Contract the bounded edge of s to a point: drop the split.

    A subset of a compatible system is compatible, so nothing is re-checked,
    and the rest stay in key order.
    """
    splits = t.splits
    try:
        i = splits.index(s)
    except ValueError:
        raise SplitAbsent(f"{s!r} is not a split of {t!r}") from None
    return CombinatorialType._trusted(t.labels, splits[:i] + splits[i + 1 :])


def _with_split(t: CombinatorialType, s: Split) -> CombinatorialType:
    """The type with one more split, compatible by construction, put in its
    place in key order.  A split the type already has is refused with a
    ``ValueError``: its key is the one the search lands on."""
    splits = t.splits
    key = s.key
    i = bisect_left(splits, key, key=_key)
    if i < len(splits) and splits[i].key == key:
        raise ValueError(f"{s!r} is already a split of {t!r}")
    return CombinatorialType._trusted(t.labels, (*splits[:i], s, *splits[i:]))


def _vertices(t: CombinatorialType) -> Tuple[List[int], List[int], List[int]]:
    """The internal vertices of a type as (masks, valences, parents), read
    off the laminar family of sides as bitmasks, without realizing the tree.

    Vertex 0 is the root (mask: all labels, parent -1), vertex i the child
    end of the i-th side by mask, largest first.  A superside has the larger
    mask, so each side comes after its supersides, and its parent, its
    smallest strict superside, is the latest earlier one holding it.  A
    vertex's valence is its own leaves plus its children, plus one for the
    edge up unless it is the root: its size, less size - 1 per child, plus
    that one.  A leaf hangs off the last vertex whose mask holds it.
    """
    masks = [_labels_mask(t.labels)] + sorted(map(_mask, t.splits), reverse=True)
    vals = [masks[0].bit_count()]
    parents = [-1]
    for m in masks[1:]:
        p = len(vals) - 1
        while masks[p] & m != m:
            p -= 1
        parents.append(p)
        size = m.bit_count()
        vals[p] -= size - 1
        vals.append(size + 1)
    return masks, vals, parents


def _branch_masks(t: CombinatorialType, vertices: Optional[tuple] = None) -> List[int]:
    """The branches at the unique 4-valent vertex as masks, ordered by least
    label; the one codimension-1 test.  ``vertices``, when given, are
    ``_vertices(t)``."""
    masks, vals, parents = vertices or _vertices(t)
    if vals.count(3) != len(vals) - 1 or 4 not in vals:
        raise NotCodimensionOne(
            f"valence profile {tuple(sorted(vals))} has no unique 4-valent vertex"
        )
    return _branches_at(masks, parents, vals.index(4))


def _branches_at(masks: List[int], parents: List[int], v: int) -> List[int]:
    """The branches at vertex v of ``_vertices`` as masks, ordered by least
    label: its children's sides, the labels beyond its own side unless it is
    the root, and its own leaves one by one."""
    branches = [m for m, p in zip(masks, parents) if p == v]
    leaves = masks[v] & ~sum(branches)
    if v:
        branches.append(masks[0] & ~masks[v])
    while leaves:
        low = leaves & -leaves
        branches.append(low)
        leaves ^= low
    # a module-level key: a lambda made on each call costs a measurable
    # share of a moduli-fan face
    branches.sort(key=_least_bit)
    return branches


def _least_bit(m: int) -> int:
    return m & -m


@lru_cache(maxsize=None)
def _labels_mask(labels: Labels) -> int:
    return sum(1 << x for x in labels)


def _resolution_splits(labels: Labels, blocks: List[int]) -> Tuple[Split, ...]:
    """The splits joining two of these blocks (masks), each once, by key.

    A split's stored side is the one without the smallest label.  At a
    4-valent vertex the six joins of its branches are its three resolutions,
    each with its complement.  On labels 1..n the splits come from the n
    pool, so cache lookups on them take the identity fast path.
    """
    full = _labels_mask(labels)
    low = full & -full
    joins = (a | b for a, b in itertools.combinations(blocks, 2))
    masks = {full ^ m if m & low else m for m in joins}
    n = len(labels)
    leaves = _leaf_set(n)
    if labels is leaves or labels == leaves:
        out = [_pooled_split(n, m) for m in masks]
    else:
        out = [Split(labels, frozenset(x for x in labels if m >> x & 1)) for m in masks]
    return tuple(sorted(out, key=_key))


def resolutions(t: CombinatorialType) -> Tuple[CombinatorialType, ...]:
    """The three trivalent perturbations of a type with a single 4-valent vertex.

    Sorting by the extra split orders them as the type key would.
    """
    splits = _resolution_splits(t.labels, _branch_masks(t))
    return tuple(_with_split(t, s) for s in splits)


def count_rays(n: int) -> int:
    """Number of one-split types: bipartitions of {1..n} with both sides >= 2."""
    if n < 4:
        raise ValueError("rays exist only for n >= 4")
    return _count_types(n, 1)


# per n, the splits on 1..n by side mask, each made on first use
_pools: Dict[int, Dict[int, Split]] = {}


@lru_cache(maxsize=None)
def _leaf_set(n: int) -> Labels:
    return frozenset(range(1, n + 1))


def _pooled_split(n: int, mask: int) -> Split:
    """The split on 1..n whose stored side has the bitmask ``mask``."""
    pool = _pools.setdefault(n, {})
    split = pool.get(mask)
    if split is None:
        side = frozenset(x for x in range(2, n + 1) if mask >> x & 1)
        split = pool[mask] = Split(_leaf_set(n), side)
    return split


def _count_types(n: int, dim: int) -> int:
    """The number c(n, dim) of types on {1..n} with ``dim`` splits (0 unless
    0 <= dim <= n-3): c(3, 0) = 1, c(n, d) = (d+1)·c(n-1, d) + (n+d-2)·c(n-1, d-1),
    as leaf n joins one of d+1 internal vertices or one of d-1+n-1 edges.  A
    leaf adds at most one split, so row m keeps only d >= dim - (n - m)."""
    if n < 3 or not 0 <= dim <= n - 3:
        return 0
    lo, row = 0, [1]
    for m in range(4, n + 1):
        below = [0, *row, 0]  # c(m-1, d) at d - lo + 1; c(m-1, lo-1) is 0 or unused
        new_lo = max(0, dim - (n - m))
        row = [
            (d + 1) * below[d - lo + 1] + (m + d - 2) * below[d - lo]
            for d in range(new_lo, min(dim, m - 3) + 1)
        ]
        lo = new_lo
    return row[0]


def _stream_types(n: int, dim: int) -> Iterator[CombinatorialType]:
    """The types on {1..n} with ``dim`` splits, made one at a time in key
    order; the arguments are checked at the call, not at the first ``next``."""
    if not isinstance(n, int) or n < 3:
        raise ValueError("n must be an integer >= 3")
    if not 0 <= dim <= n - 3:
        raise ValueError(f"dim must lie in [0, {n - 3}] for n = {n}")
    return _search(n, dim)


def _search(n: int, dim: int) -> Iterator[CombinatorialType]:
    labels = _leaf_set(n)
    if dim == 0:
        yield CombinatorialType._trusted(labels, ())
        return
    sides = sorted(c for k in range(2, n - 1) for c in itertools.combinations(range(2, n + 1), k))
    splits = [_pooled_split(n, sum(1 << x for x in c)) for c in sides]
    masks = [s.mask for s in splits]
    later: List[Optional[int]] = [None] * len(splits)  # the bitsets, by index
    picked: List[Split] = []
    stack = [(1 << len(splits)) - 1]  # the candidates left at each level
    while stack:
        candidates = stack.pop()
        needed = dim - len(picked)
        if needed == 1:
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                # the picks' increasing indices are the key order
                yield CombinatorialType._trusted(labels, (*picked, splits[low.bit_length() - 1]))
        elif candidates.bit_count() >= needed:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            if later[i] is None:
                a = masks[i]
                bits = "".join("1" if (a & b) in (0, a, b) else "0" for b in masks[:i:-1])
                later[i] = int(bits or "0", 2) << (i + 1)
            stack.append(candidates)
            picked.append(splits[i])
            stack.append(candidates & later[i])
            continue
        if picked:  # this level is done: back to the one above
            picked.pop()


def enumerate_types(n: int, dim: int) -> Tuple[CombinatorialType, ...]:
    """All combinatorial types with exactly ``dim`` splits, canonically ordered."""
    return tuple(_stream_types(n, dim))

"""Forgetful maps, their sections, and boundary-stratum decomposition.

Forgetting a marking restricts every split to the remaining leaves, drops
the ones that degenerate into leaf edges, and merges the two splits that
become equal when a 2-valent vertex is suppressed (their lengths add).
Labels keep their original names; ``relabel`` densifies on request.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ._value import Value, _set
from .errors import TooFewLeaves, _shown
from .moduli import ModuliPoint
from .rationals import POS_INF, is_finite
from .trees import CombinatorialType, Split


def _forget_split(s: Split, labels: frozenset, j: int) -> Optional[Split]:
    """s minus j on the remaining leaves, or None when either side drops below two."""
    side = s.side - {j}
    if len(side) < 2 or len(labels) - len(side) < 2:
        return None
    return Split(labels, side)


def forget_cone(t: CombinatorialType, j: int) -> CombinatorialType:
    """The combinatorial type of the forgetful image of any interior point."""
    if j not in t.labels:
        raise ValueError(f"label {_shown(j, str)} is not a leaf of {_shown(t)}")
    if t.n <= 3:
        raise TooFewLeaves("forgetting a leaf needs at least four marked leaves")
    labels = t.labels - {j}
    images = (_forget_split(s, labels, j) for s in t.splits)
    return CombinatorialType(labels, [s for s in images if s is not None])


def forget(x: ModuliPoint, j: int) -> ModuliPoint:
    """Contract the leaf marked j; lengths of merging splits add."""
    if j not in x.labels:
        raise ValueError(f"label {_shown(j, str)} is not a leaf of {_shown(x)}")
    if x.n <= 3:
        raise TooFewLeaves("forgetting a leaf needs at least four marked leaves")
    labels = x.labels - {j}
    merged: Dict[Split, object] = {}
    for s, length in x.lengths:
        new = _forget_split(s, labels, j)
        if new is not None:
            merged[new] = merged[new] + length if new in merged else length
    ctype = CombinatorialType(labels, merged)
    return ModuliPoint(ctype, tuple(merged.items()))


def section(x: ModuliPoint, k: int) -> ModuliPoint:
    """The section of the forgetful map defined by marking k.

    A new leaf is attached infinitesimally close to leaf k: every split
    gains the new label on k's side and one new split {k, new} appears with
    infinite length, so the image lies in the boundary.
    """
    if k not in x.labels:
        raise ValueError(f"label {_shown(k, str)} is not a leaf of {_shown(x)}")
    new = max(x.labels) + 1
    labels = x.labels | {new}
    lengths: Dict[Split, object] = {}
    for s, length in x.lengths:
        side = s.side | {new} if k in s.side else s.side
        lengths[Split(labels, side)] = length
    lengths[Split(labels, frozenset({k, new}))] = POS_INF
    ctype = CombinatorialType(labels, lengths)
    return ModuliPoint(ctype, tuple(lengths.items()))


def relabel(x: ModuliPoint, mapping: Optional[Mapping[int, int]] = None) -> ModuliPoint:
    """Rename leaves; by default densely onto 1..n preserving order."""
    if mapping is None:
        mapping = {old: i + 1 for i, old in enumerate(sorted(x.labels))}
    if set(mapping) != set(x.labels) or len(set(mapping.values())) != len(mapping):
        raise ValueError("mapping must be a bijection defined on all leaves")
    labels = frozenset(mapping[v] for v in x.labels)
    lengths = {
        Split(labels, frozenset(mapping[v] for v in s.side)): length
        for s, length in x.lengths
    }
    ctype = CombinatorialType(labels, lengths)
    return ModuliPoint(ctype, tuple(lengths.items()))


class BoundaryDecomposition(Value):
    """The components cut out by the infinite edges, with gluing data.

    Each cut edge contributes one fresh marker label to the component on
    either side; ``gluings`` pairs them up as ((component, marker),
    (component, marker)).
    """

    __slots__ = ("components", "gluings")

    def __init__(
        self,
        components: Tuple[ModuliPoint, ...],
        gluings: Tuple[Tuple[Tuple[int, int], Tuple[int, int]], ...],
    ):
        _set(self, "components", components)
        _set(self, "gluings", gluings)


def decompose_boundary(x: ModuliPoint) -> BoundaryDecomposition:
    """Cut every infinite edge into finite components, read off the sides.

    Component 0 is the top one, component i + 1 lies below the i-th cut by
    key.  Cut sides are nested or disjoint, so each leaf, each finite split
    and the upper end of each cut lies in the component of the smallest cut
    side that strictly holds it, or in the top one when none does.  Cut i
    gives marker ``max(labels) + 1 + 2i`` to its upper end and the next
    label to its lower end.  Each label of a component stands for the
    original leaves beyond it, so a finite split's side there is the labels
    that stand for leaves of its own side.
    """
    cut = sorted((s for s, length in x.lengths if not is_finite(length)), key=lambda s: s.key)
    if not cut:
        return BoundaryDecomposition(components=(x,), gluings=())
    base = max(x.labels) + 1

    def home(side: frozenset) -> int:
        holders = [i + 1 for i, c in enumerate(cut) if side < c.side]
        return min(holders, key=lambda k: len(cut[k - 1].side), default=0)

    beyond: List[Dict[int, frozenset]] = [{} for _ in range(len(cut) + 1)]
    for label in x.labels:
        beyond[home(frozenset({label}))][label] = frozenset({label})
    upper = [home(c.side) for c in cut]
    for i, c in enumerate(cut):
        beyond[upper[i]][base + 2 * i] = c.side
        beyond[i + 1][base + 2 * i + 1] = x.labels - c.side
    labels = [frozenset(b) for b in beyond]
    lengths: List[Dict[Split, object]] = [{} for _ in beyond]
    for s, length in x.lengths:
        if is_finite(length):
            k = home(s.side)
            side = frozenset(label for label, held in beyond[k].items() if held <= s.side)
            lengths[k][Split(labels[k], side)] = length
    points = [
        ModuliPoint(CombinatorialType(lab, own), tuple(own.items()))
        for lab, own in zip(labels, lengths)
    ]
    order = sorted(range(len(points)), key=lambda k: min(labels[k]))
    rank = {old: new for new, old in enumerate(order)}
    gluings = tuple(
        ((rank[upper[i]], base + 2 * i), (rank[i + 1], base + 2 * i + 1)) for i in range(len(cut))
    )
    return BoundaryDecomposition(components=tuple(points[k] for k in order), gluings=gluings)

"""Independent oracles used only by the test suite.

These deliberately avoid the library's own algorithms: tree enumeration runs
over Prüfer sequences, double ratios are computed by explicit path extraction
on realized trees, resolutions by scanning every bipartition, boundary
decompositions by a graph walk on the realized tree, and graph girth by
breadth-first search.  Span membership and saturation use general
Hermite/Smith normal forms, against which the library's closed-form
witnesses are checked.  The embedding is inverted by scanning every
bipartition, against which leaf-by-leaf split recovery is checked.  A face
is solved on walked dense directions, against which the packed face solve
and the directions and weighted sum a report reads off its splits are checked,
and a smoothness minor by Bareiss elimination on branches read off the
realized tree, against which the closed-form minor is checked.  A split
direction is walked coordinate by coordinate, against which the scattered
direction is checked.  A face's isolating quartets are found by scanning
every pair of its sides, against which the quartets read off its vertices
are checked.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Dict, List, Sequence, Tuple

from tropmod.divisors import BalancingReport, _determinant, _isolating_coordinates
from tropmod.errors import DimensionMismatch, IncompatibleSplit, NotInImage, TropmodError
from tropmod.maps import BoundaryDecomposition
from tropmod.moduli import (
    ModuliPoint,
    RatioIndex,
    _quartet_bases,
    _sigma,
    canonical_coordinates,
)
from tropmod.rationals import ExtendedRational, is_finite
from tropmod.trees import CombinatorialType, Split, to_tree


def rebuilt(value, **changes):
    """A copy of a value object with some fields changed, made through its
    constructor: a name that is no constructor argument is refused there
    with a ``TypeError``."""
    fields = {name: getattr(value, name) for name in type(value).__match_args__}
    return type(value)(**{**fields, **changes})


@lru_cache(maxsize=None)
def prufer_types(n: int, internal: int) -> frozenset:
    """Split systems of all trees with n labeled leaves and ``internal``
    unlabeled internal vertices of valence >= 3, via Prüfer sequences.

    Vertices 1..n are leaves (degree 1, so they never appear in the
    sequence); vertices n+1..n+internal are internal and must appear at
    least twice.  Each split system is returned once: quotienting by the
    internal labeling happens through the set.  Cached, since several tests
    compare against the same sets.
    """
    leaves = list(range(1, n + 1))
    internals = list(range(n + 1, n + internal + 1))
    total = n + internal
    length = total - 2
    found = set()
    for seq in itertools.product(internals, repeat=length):
        counts = {v: 0 for v in internals}
        for v in seq:
            counts[v] += 1
        if any(c < 2 for c in counts.values()):
            continue
        edges = _prufer_to_edges(list(seq), total)
        found.add(_edges_to_splits(edges, n))
    return frozenset(found)


@lru_cache(maxsize=None)
def prufer_trivalent_types(n: int) -> frozenset:
    """Trivalent split systems: every internal vertex appears exactly twice."""
    found = set()
    internal = n - 2
    internals = list(range(n + 1, n + internal + 1))
    total = n + internal
    length = total - 2
    # multiset permutations of each internal label twice
    for seq in set(itertools.permutations(sorted(internals * 2), length)):
        edges = _prufer_to_edges(list(seq), total)
        found.add(_edges_to_splits(edges, n))
    return frozenset(found)


def _prufer_to_edges(seq, total):
    degree = [1] * (total + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    heap = [v for v in range(1, total + 1) if degree[v] == 1]
    heapq.heapify(heap)
    for v in seq:
        u = heapq.heappop(heap)
        edges.append((u, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    u = heapq.heappop(heap)
    w = heapq.heappop(heap)
    edges.append((u, w))
    return edges


def _edges_to_splits(edges, n):
    """Canonical frozenset of sides (each the side without leaf 1)."""
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    sides = set()
    for u, v in edges:
        if u <= n or v <= n:
            continue  # leaf edge
        # leaves on v's side of the edge (u, v)
        seen = {u, v}
        stack = [v]
        reached = set()
        while stack:
            w = stack.pop()
            if w <= n:
                reached.add(w)
            for x in adjacency[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        side = frozenset(reached) if 1 not in reached else frozenset(range(1, n + 1)) - reached
        sides.add(side)
    return frozenset(sides)


def type_to_sides(t) -> frozenset:
    return frozenset(s.side for s in t.splits)


def brute_force_resolutions(t: CombinatorialType) -> List[CombinatorialType]:
    """t plus one more split, for every split compatible with all of t's.

    Scans every bipartition (both sides of size >= 2) and builds each result
    with the validating constructor; sorted by type key.
    """
    rest = sorted(t.labels)[1:]  # sides never hold the smallest label
    out = []
    for size in range(2, len(rest)):
        for side in itertools.combinations(rest, size):
            s = Split(t.labels, frozenset(side))
            if s not in t.splits and all(s.compatible_with(u) for u in t.splits):
                out.append(CombinatorialType(t.labels, (*t.splits, s)))
    return sorted(out, key=lambda r: r.key)


def path_double_ratio(x: ModuliPoint, r: RatioIndex) -> ExtendedRational:
    """Double ratio by explicit path extraction on the realized tree.

    Lists the bounded edges on the path between each ordered pair, intersects
    the two edge sets, and adds the lengths with sign +1 when the paths
    traverse the common edge in the same direction.
    """
    tree = to_tree(x.ctype)
    nverts = len(tree.vertices)
    adjacency = [[] for _ in range(nverts)]
    for eid, (split, p, c) in enumerate(tree.edges):
        adjacency[p].append((c, eid, +1))
        adjacency[c].append((p, eid, -1))

    home = {leaf: i for i, v in enumerate(tree.vertices) for leaf in v.leaves}

    def directed_path(a: int, b: int):
        """Bounded edges from leaf a to leaf b as {edge id: traversal sign}."""
        start, goal = home[a], home[b]
        parent = {start: None}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            if v == goal:
                break
            for w, eid, sign in adjacency[v]:
                if w not in parent:
                    parent[w] = (v, eid, sign)
                    queue.append(w)
        out = {}
        v = goal
        while parent[v] is not None:
            prev, eid, sign = parent[v]
            out[eid] = sign
            v = prev
        return out

    (i, j), (k, l) = r.first, r.second
    path_ij = directed_path(i, j)
    path_kl = directed_path(k, l)
    total: ExtendedRational = Fraction(0)
    for eid, sign in path_ij.items():
        if eid in path_kl:
            length = x.length_of(tree.edges[eid][0])
            total = total + (length if sign == path_kl[eid] else -length)
    return total


def graph_decompose_boundary(x: ModuliPoint) -> BoundaryDecomposition:
    """Cut every infinite edge of the realized tree into finite components.

    Flood-fills the tree minus its cut edges, hangs two fresh markers per
    cut (in key order) on its ends, and reads each kept edge's side by a
    search that does not cross it.
    """
    cut = [s for s, length in x.lengths if not is_finite(length)]
    if not cut:
        return BoundaryDecomposition(components=(x,), gluings=())
    cut.sort(key=lambda s: s.key)
    cut_set = set(cut)
    tree = to_tree(x.ctype)
    nverts = len(tree.vertices)

    adjacency: List[List[Tuple[int, Split]]] = [[] for _ in range(nverts)]
    for s, p, c in tree.edges:
        if s in cut_set:
            continue
        adjacency[p].append((c, s))
        adjacency[c].append((p, s))

    component_of = [-1] * nverts
    ncomps = 0
    for start in range(nverts):
        if component_of[start] != -1:
            continue
        stack = [start]
        component_of[start] = ncomps
        while stack:
            v = stack.pop()
            for w, _ in adjacency[v]:
                if component_of[w] == -1:
                    component_of[w] = ncomps
                    stack.append(w)
        ncomps += 1

    # fresh marker labels, two per cut edge, in canonical split order
    next_label = max(x.labels) + 1
    extra_leaves: Dict[int, List[int]] = {}
    glue_raw = []
    for s in cut:
        _, p, c = next(e for e in tree.edges if e[0] == s)
        m_parent, m_child = next_label, next_label + 1
        next_label += 2
        extra_leaves.setdefault(p, []).append(m_parent)
        extra_leaves.setdefault(c, []).append(m_child)
        glue_raw.append(((p, m_parent), (c, m_child)))

    comp_vertices = [[v for v in range(nverts) if component_of[v] == i] for i in range(ncomps)]
    comp_labels = []
    for verts in comp_vertices:
        lab = set()
        for v in verts:
            lab |= tree.vertices[v].leaves
            lab |= set(extra_leaves.get(v, ()))
        comp_labels.append(frozenset(lab))

    def subtree_labels(root: int, banned_split: Split) -> frozenset:
        """Leaves and markers reachable from root without crossing the edge."""
        seen = {root}
        stack = [root]
        while stack:
            v = stack.pop()
            for w, s in adjacency[v]:
                if s == banned_split or w in seen:
                    continue
                seen.add(w)
                stack.append(w)
        out = set()
        for v in seen:
            out |= tree.vertices[v].leaves
            out |= set(extra_leaves.get(v, ()))
        return frozenset(out)

    points = []
    for comp, verts in enumerate(comp_vertices):
        vset = set(verts)
        lengths = {}
        for s, p, c in tree.edges:
            if s in cut_set or p not in vset:
                continue
            side = subtree_labels(c, s)
            lengths[Split(comp_labels[comp], side)] = x.length_of(s)
        ctype = CombinatorialType(comp_labels[comp], frozenset(lengths))
        points.append(ModuliPoint(ctype, tuple(lengths.items())))

    order = sorted(range(ncomps), key=lambda i: min(comp_labels[i]))
    rank = {old: new for new, old in enumerate(order)}
    components = tuple(points[i] for i in order)
    gluings = tuple(
        ((rank[component_of[p]], mp), (rank[component_of[c]], mc))
        for (p, mp), (c, mc) in glue_raw
    )
    return BoundaryDecomposition(components=components, gluings=gluings)


@lru_cache(maxsize=None)
def walked_split_direction(split: Split) -> Tuple[int, ...]:
    """The direction of a split, one canonical coordinate at a time."""
    return tuple(_sigma(split, r) for r in canonical_coordinates(split.n))


def scanned_isolating_coordinates(face: CombinatorialType) -> List[Tuple[int, int]]:
    """(index, sign) per face split, found by scanning every pair of face
    sides: the quartet ab|cd whose inner path is the split's edge alone.

    At the end inside the side: its smallest leaf a, and a leaf b outside
    the largest smaller side holding a.  At the other end: the anchor c
    (smallest label, never in a side), and a leaf d of the smallest larger
    side (or of all labels) that is neither in the side nor c.  Sides are
    compared as bitmasks.
    """
    labels = face.labels
    n = len(labels)
    c = min(labels)
    full = sum(1 << x for x in labels) & ~(1 << c)
    sides = [(u.mask, len(u.side)) for u in face.splits]
    out = []
    for s in face.splits:
        m = s.mask
        low = m & -m  # the bit of a
        branch, branch_size = low, 1
        cluster, cluster_size = full, n
        for other, size in sides:
            if other & m == other:
                if other != m and other & low and size > branch_size:
                    branch, branch_size = other, size
            elif other & m == m and size < cluster_size:
                cluster, cluster_size = other, size
        b = m & ~branch
        d = cluster & ~m
        out.append(
            sigma_quartet_coordinate(
                n,
                low.bit_length() - 1,
                (b & -b).bit_length() - 1,
                c,
                (d & -d).bit_length() - 1,
            )
        )
    return out


@lru_cache(maxsize=None)
def sigma_quartet_coordinate(n: int, a: int, b: int, c: int, d: int) -> Tuple[int, int]:
    """The first of the quartet's three canonical coordinates on which the
    split ab|cd is nonzero, with that entry, each taken by ``_sigma``."""
    quartet = Split(frozenset((a, b, c, d)), frozenset((a, b)))
    base = _quartet_bases(n)[sum(1 << x for x in (a, b, c, d))]
    for offset, r in enumerate(canonical_coordinates(n)[base : base + 3]):
        sign = _sigma(quartet, r)
        if sign:
            return base + offset, sign
    raise AssertionError("a split cutting a quartet two and two is nonzero on it")


def dense_embed(x: ModuliPoint) -> Tuple[ExtendedRational, ...]:
    """The embedding as a sum over splits of length times the dense
    direction, one coordinate at a time."""
    coordinates = canonical_coordinates(x.n)
    entries: List[ExtendedRational] = [Fraction(0)] * len(coordinates)
    for split, length in x.lengths:
        for idx, r in enumerate(coordinates):
            s = _sigma(split, r)
            if s:
                entries[idx] = entries[idx] + (length if s > 0 else -length)
    return tuple(entries)


def exhaustive_splits(entries: Sequence[Fraction], n: int) -> Dict[Tuple[int, ...], Fraction]:
    """Every bipartition all of whose straddling quartets agree with the
    vector, found by scanning all 2^(n-1) - n - 1 of them: sorted side (the
    one without leaf 1) -> least straddling absolute value.

    Raises NotInImage when a quartet's coordinates are not (0, m, +-m).
    """
    quartets = list(itertools.combinations(range(1, n + 1), 4))
    partner = {}
    min_abs = {}
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
        min_abs[quad] = abs(e[nonzero[0]])

    labels = set(range(1, n + 1))
    found = {}
    for size in range(2, n - 1):
        for side in itertools.combinations(range(2, n + 1), size):
            rest = sorted(labels - set(side))
            lengths = []
            for a, b in itertools.combinations(side, 2):
                for c, d in itertools.combinations(rest, 2):
                    quad = tuple(sorted((a, b, c, d)))
                    expected = (a + b if quad[0] in side else c + d) - quad[0]
                    if partner.get(quad) != expected:
                        break
                    lengths.append(min_abs[quad])
                else:
                    continue
                break
            else:
                found[side] = min(lengths)
    return found


def exhaustive_reconstruct(entries: Sequence[Fraction], n: int) -> ModuliPoint:
    """Invert the embedding by ``exhaustive_splits``, checked by ``dense_embed``."""
    if len(entries) != 3 * comb(n, 4):
        raise ValueError(f"expected {3 * comb(n, 4)} coordinates for n = {n}")
    labels = frozenset(range(1, n + 1))
    found = {
        Split(labels, frozenset(side)): length
        for side, length in exhaustive_splits(entries, n).items()
    }
    try:
        ctype = CombinatorialType(labels, frozenset(found))
    except IncompatibleSplit as exc:
        raise NotInImage(f"recovered splits are incompatible: {exc}") from exc
    point = ModuliPoint(ctype, tuple(found.items()))
    if list(dense_embed(point)) != list(entries):
        raise NotInImage("re-embedding the candidate point does not reproduce the vector")
    return point


def girth(num_vertices: int, edges) -> int:
    """Length of the shortest cycle, by BFS from every vertex."""
    adjacency = [[] for _ in range(num_vertices)]
    for idx, (a, b) in enumerate(edges):
        adjacency[a].append((b, idx))
        adjacency[b].append((a, idx))
    best = None
    for root in range(num_vertices):
        dist = {root: 0}
        via = {root: None}
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for w, eid in adjacency[v]:
                if eid == via[v]:
                    continue
                if w in dist:
                    cycle = dist[v] + dist[w] + 1
                    if best is None or cycle < best:
                        best = cycle
                else:
                    dist[w] = dist[v] + 1
                    via[w] = eid
                    queue.append(w)
    return best


def determinant(rows) -> Fraction:
    """Exact determinant by fraction-free Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    size = len(mat)
    det = Fraction(1)
    for c in range(size):
        pivot = next((i for i in range(c, size) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = 1 / mat[c][c]
        for i in range(c + 1, size):
            if mat[i][c] != 0:
                factor = mat[i][c] * inv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[c])]
    return det


def dense_balance_at(
    face, adjacent, splits, coordinates
) -> Tuple[BalancingReport, Tuple[int, ...]]:
    """The balancing report at a face, summed and solved on walked dense
    directions, and the weighted sum it was solved from.

    Takes the (cone, weight, extra split) triples, the face splits in key
    order and their isolating coordinates.  Each cone must be the face plus
    its extra split.
    """
    adjacent = sorted(adjacent, key=lambda cw: cw[2].key)
    total = [0] * (3 * comb(face.n, 4))
    for cone, weight, extra in adjacent:
        assert frozenset(cone.splits) == frozenset(face.splits) | {extra}
        for i, x in enumerate(walked_split_direction(extra)):
            total[i] += weight * x
    residual = list(total)
    coefficients = []
    for s, (index, sign) in zip(splits, coordinates):
        coef = total[index] * sign
        coefficients.append(coef)
        for i, x in enumerate(walked_split_direction(s)):
            residual[i] -= coef * x
    balanced = not any(residual)
    report = BalancingReport(
        face=face,
        extra_splits=tuple(extra for _, _, extra in adjacent),
        weights=tuple(weight for _, weight, _ in adjacent),
        balanced=balanced,
        witness=tuple(coefficients) if balanced else None,
    )
    return report, tuple(total)


def bareiss_smooth_report(
    n: int, tau: CombinatorialType
) -> Tuple[BalancingReport, Tuple[int, ...]]:
    """The smoothness report at a codimension-1 type, the minor's
    determinant taken by Bareiss elimination in full, and its weighted sum.

    The branches at the 4-valent vertex come from the realized tree, the
    adjacent cones are the face plus the union of two non-anchor branches,
    and the balancing fields from ``dense_balance_at``.
    """
    tree = to_tree(tau)
    branches = tree.branches(tree.valences().index(4))
    _, b, c, d = branches  # ordered by least label: the anchor's comes first
    sides = (c | d, b | d, b | c)
    extras = sorted((Split(tau.labels, side) for side in sides), key=lambda s: s.key)
    splits = sorted(tau.splits, key=lambda s: s.key)
    coordinates = _isolating_coordinates(tau)
    base = _quartet_bases(n)[sum(1 << min(branch) for branch in branches)]
    columns = tuple(i for i, _ in coordinates) + (base, base + 1)
    rows = [walked_split_direction(s) for s in splits + extras[:2]]
    unimodular = abs(_determinant([[row[k] for k in columns] for row in rows])) == 1
    adjacent = [(CombinatorialType(tau.labels, (*tau.splits, s)), 1, s) for s in extras]
    report, total = dense_balance_at(tau, adjacent, splits, coordinates)
    smooth = report.balanced and unimodular
    return rebuilt(report, smooth=smooth, minor=columns if unimodular else None), total


# ---------------------------------------------------------------- lattices
#
# Matrices are sequences of equal-length integer rows.  Everything runs over
# Python's arbitrary-precision integers; pivoting always picks a smallest
# nonzero entry to keep intermediate growth down.


class RankDeficient(TropmodError):
    """Matrix rows are linearly dependent where independence is required."""


IntMatrix = Tuple[Tuple[int, ...], ...]


def _as_vector(v: Sequence[int]) -> List[int]:
    out = list(v)
    if set(map(type, out)) <= {int}:
        return out
    for x in out:
        if isinstance(x, bool) or not isinstance(x, int):
            raise TypeError(f"integer vector expected, found {x!r}")
    return out


def _as_rows(rows: Sequence[Sequence[int]]) -> List[List[int]]:
    """Checked copies of the rows; each public entry checks its input once
    and hands the copies to the unchecked ``_hermite`` / ``_smith``."""
    mat = [_as_vector(r) for r in rows]
    if mat and len({len(r) for r in mat}) != 1:
        raise DimensionMismatch("matrix rows have unequal lengths")
    return mat


def hermite_normal_form(rows: Sequence[Sequence[int]]) -> IntMatrix:
    """Row-style Hermite normal form (nonzero rows only).

    Pivots are positive, each pivot sits strictly to the right of the one
    above, and the entries above a pivot are reduced into [0, pivot).
    """
    return _hermite(_as_rows(rows))


def _hermite(mat: List[List[int]]) -> IntMatrix:
    """``hermite_normal_form`` of checked rows, reduced in place."""
    if not mat:
        return ()
    ncols = len(mat[0])
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        while True:
            nz = [i for i in range(r, len(mat)) if mat[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            mat[r], mat[i0] = mat[i0], mat[r]
            if mat[r][c] < 0:
                mat[r] = [-x for x in mat[r]]
            p = mat[r][c]
            clean = True
            for i in range(r + 1, len(mat)):
                if mat[i][c] != 0:
                    q = mat[i][c] // p
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    clean = clean and mat[i][c] == 0
            if clean:
                # reduce the entries above the pivot into [0, p)
                for i in range(r):
                    q = mat[i][c] // p
                    if q:
                        mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                r += 1
                break
    return tuple(tuple(row) for row in mat[:r])


def in_integer_span(v: Sequence[int], rows: Sequence[Sequence[int]]) -> bool:
    """True iff v is an integer combination of the rows."""
    vec = _as_vector(v)
    mat = _as_rows(rows)
    if mat and len(mat[0]) != len(vec):
        raise DimensionMismatch("vector length does not match matrix width")
    hnf = _hermite(mat)
    residue = list(vec)
    for row in hnf:
        c = next(j for j, x in enumerate(row) if x != 0)
        if residue[c] % row[c] != 0:
            return False
        q = residue[c] // row[c]
        if q:
            residue = [a - q * b for a, b in zip(residue, row)]
    return not any(residue)


def in_rational_span(v: Sequence[int], rows: Sequence[Sequence[int]]) -> bool:
    """True iff v is a rational combination of the rows.

    Fraction-free: clears v against an integer echelon form of the rows by
    cross-multiplication, which preserves vanishing of the residue.
    """
    vec = _as_vector(v)
    mat = _as_rows(rows)
    if mat and len(mat[0]) != len(vec):
        raise DimensionMismatch("vector length does not match matrix width")
    residue = list(vec)
    r = 0
    ncols = len(vec)
    for c in range(ncols):
        if r == len(mat):
            break
        pivots = [i for i in range(r, len(mat)) if mat[i][c] != 0]
        if not pivots:
            continue
        i0 = min(pivots, key=lambda i: abs(mat[i][c]))
        mat[r], mat[i0] = mat[i0], mat[r]
        p = mat[r][c]
        for i in range(r + 1, len(mat)):
            if mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [a * p - f * b for a, b in zip(mat[i], mat[r])]
        if residue[c] != 0:
            f = residue[c]
            residue = [a * p - f * b for a, b in zip(residue, mat[r])]
        r += 1
    return not any(residue)


def smith_normal_form(rows: Sequence[Sequence[int]]) -> Tuple[int, ...]:
    """The elementary divisors of the row matrix: positive, d1 | d2 | ... .

    Only the nonzero divisors are returned, so their count is the rank.
    """
    return _smith(_as_rows(rows))


def _smith(mat: List[List[int]]) -> Tuple[int, ...]:
    """``smith_normal_form`` of checked rows, reduced in place."""
    if not mat:
        return ()
    nrows, ncols = len(mat), len(mat[0])
    divisors: List[int] = []
    k = 0
    while k < nrows and k < ncols:
        pos = None
        best = None
        for i in range(k, nrows):
            for j in range(k, ncols):
                x = abs(mat[i][j])
                if x and (best is None or x < best):
                    best, pos = x, (i, j)
        if pos is None:
            break
        i0, j0 = pos
        mat[k], mat[i0] = mat[i0], mat[k]
        for row in mat:
            row[k], row[j0] = row[j0], row[k]
        while True:
            p = mat[k][k]
            dirty = False
            for i in range(k + 1, nrows):
                if mat[i][k] != 0:
                    q = mat[i][k] // p
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[k])]
                    dirty = dirty or mat[i][k] != 0
            for j in range(k + 1, ncols):
                if mat[k][j] != 0:
                    q = mat[k][j] // p
                    for row in mat:
                        row[j] -= q * row[k]
                    dirty = dirty or mat[k][j] != 0
            if dirty:
                # a remainder became the new smallest entry; re-pivot on it
                pos = None
                best = None
                for i in range(k, nrows):
                    for j in range(k, ncols):
                        x = abs(mat[i][j])
                        if x and (best is None or x < best):
                            best, pos = x, (i, j)
                i0, j0 = pos
                mat[k], mat[i0] = mat[i0], mat[k]
                for row in mat:
                    row[k], row[j0] = row[j0], row[k]
                continue
            # pivot alone in its row and column; enforce divisibility
            offender = None
            for i in range(k + 1, nrows):
                for j in range(k + 1, ncols):
                    if mat[i][j] % p != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            mat[k] = [a + b for a, b in zip(mat[k], mat[offender])]
        divisors.append(abs(mat[k][k]))
        k += 1
    return tuple(divisors)


def is_saturated(rows: Sequence[Sequence[int]]) -> bool:
    """True iff the row lattice equals its saturation in Z^N.

    Requires the rows to be linearly independent over the rationals; the
    criterion is that every elementary divisor equals 1.
    """
    mat = _as_rows(rows)
    divisors = _smith(mat)
    if len(divisors) < len(mat):
        raise RankDeficient(
            f"rows are dependent: rank {len(divisors)} < {len(mat)} rows"
        )
    return all(d == 1 for d in divisors)

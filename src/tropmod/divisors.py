"""Weighted fans and the exact balancing / local smoothness certificates.

A fan is balanced at a codimension-1 face when the weighted sum of the
primitive directions of the adjacent facets lies in the rational span of the
face.  Local smoothness strengthens this to the integer span together with
saturation of the local lattice, which is exactly the tripod-times-R^{n-4}
product structure of the moduli fan near such a face.

Both are decided by closed-form witnesses.  Every split of a face has a
quartet coordinate on which its direction is +-1 and every other face
direction is 0, read off the face's vertices (``_isolating_coordinates``),
so the coefficients of any combination are forced and are integers: a
vector is in the span (rational or integer alike) iff it equals the
recombination with those coefficients.  Saturation is witnessed by a
square minor of determinant +-1.

A face is solved on packed vectors: each direction is one int with a signed
field per coordinate, so the weighted sum, the recombination and their
comparison are a few big-integer operations.  With W the sum of the adjacent
weights and d the number of face splits, every entry of either vector is at
most W * (d + 1) in size, and the fields are whole bytes wide enough to
hold that; each split's packed direction is made once per width.  One
function, ``_balance_at``, decides a face's coefficients (None when it is
unbalanced), and each stream builds its reports from them one face at a
time, so the command line writes each as it is solved; a face whose
partition this run has already decided is reported without a solve (see
below).  A report keeps what was decided: the face, the extra split of
each adjacent facet and its weight, coefficients and minor.  Each
adjacent facet is the face plus its extra split, so each adjacent cone,
direction and the weighted sum are read off the extra splits when asked
for.  A face's splits are a tuple in key order, the order of its
coefficients.

Every face of the moduli fan or of a psi divisor is decided at one vertex
(``_vertex_report``): its adjacent cones, each of weight 1, join two of the
blocks there, and its closed-form witness (``_local_witness``) is one
coefficient on each face split incident to the vertex, 0 on every other.
The moduli fan's faces are its codimension-1 types, streamed one at a time
with no facet table and no contraction (``_moduli_reports``); the blocks
are the four branches at the 4-valent vertex, whose joins are the three
resolutions, and the coefficient is 1.  Quartet by quartet, for branches A,
B, C, D: one leaf in each branch, and the resolution rays sum to 0 (M_{0,4}
is the tripod); two in A and one in C and D, and only AB|CD and the split
of A cut it two and two, with the same ray; two in A and two in C, and
AB|CD, AD|BC and the splits of A and C all cut it with the same ray; three
or more in one branch, and none cuts it.  One packed equality checks the
witness, and if it failed the isolating coordinates would decide, so no
verdict rests on the identity.  The smoothness minor is block
lower-triangular: each face row is its sign on its own isolating column and
0 on the minor's other columns.  ``_minor_determinant`` checks that on the
split masks and takes the product of the signs times a 2x2 determinant on
the quartet columns, each read off a ray; otherwise Bareiss decides on dense
rows.  ``verify_witness`` re-checks with Bareiss.

A psi divisor's faces are codimension-2 types streamed in key order
(``_psi_reports``).  Its cones are the codimension-1 types whose 4-valent
vertex carries leaf k (Kerber-Markwig), so a face has leaf k at a 5-valent
vertex, decided there with the four other branches as blocks (6 joins) and
coefficient 2, or at a 4-valent vertex while another is 4-valent, decided at
the other as a moduli-fan face.  Other types are skipped on the valence of
leaf k's vertex alone.  Only a fan read from a file (``_face_reports``)
still has its cones contracted at each split and its faces grouped.

Both sides of the packed equality depend on the vertex's branches alone:
the extra splits join blocks, and the witness is nonzero only on the face
splits whose side is a branch away from the anchor or the union of all of
them.  So a run decides its faces once per partition of the leaves at the
vertex (S(8, 4) = 1,701 against 17,325 moduli-fan faces at n = 8).  A dict
kept by the run, keyed by one int packing the branch masks, holds the extra
splits of each partition whose equality has passed with the local witness,
and the masks of the face splits with a nonzero coefficient in it; a key of
five branches never equals one of four.  Every face of the partition has
those splits on its vertex (the branches of two or more leaves, and the
complement of the anchor's branch when it has two or more), so a later face
is balanced with the coefficient on those masks, the witness that passed,
without a solve; its smoothness minor is still checked, and its report
shares the memo's extra splits and one tuple of unit weights.  A partition
whose equality fails is never stored, so each of its faces is solved, and
the next run proves every partition again.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._value import Value, _set
from .errors import DimensionMismatch, NotCodimensionOne, NotPure, _shown
from .moduli import (
    _RAYS,
    _quartet_base,
    _quartet_ray,
    _require_standard_labels,
    _split_direction,
    _split_support,
)
from .trees import (
    CombinatorialType,
    Split,
    _branch_masks,
    _branches_at,
    _resolution_splits,
    _stream_types,
    _vertices,
    contract,
    to_tree,
)


class WeightedFan(Value):
    """A pure-dimensional set of cones of the moduli fan with positive weights."""

    __slots__ = ("n", "dim", "cones")

    def __init__(self, n: int, dim: int, cones: Iterable[Tuple[CombinatorialType, int]]):
        labels = frozenset(range(1, n + 1))
        cones = sorted(cones, key=lambda cw: cw[0].key)
        if not cones:
            raise ValueError("a fan needs at least one cone")
        for ctype, weight in cones:
            if ctype.labels != labels:
                raise ValueError(f"{ctype!r} does not live on leaves 1..{n}")
            if ctype.dim != dim:
                raise NotPure(f"cone {ctype!r} has dimension {ctype.dim}, fan has {dim}")
            if not isinstance(weight, int) or weight < 1:
                raise ValueError(f"weights must be positive integers, got {_shown(weight)}")
        if len({c for c, _ in cones}) != len(cones):
            raise ValueError("duplicate cones in fan")
        _set(self, "n", n)
        _set(self, "dim", dim)
        _set(self, "cones", tuple(cones))

    @classmethod
    def of(cls, n: int, cones: Iterable[Tuple[CombinatorialType, int]]) -> "WeightedFan":
        cones = tuple(cones)
        return cls(n=n, dim=cones[0][0].dim if cones else 0, cones=cones)


class BalancingReport(Value):
    """Verdict of the balancing (and optionally smoothness) check at one face.

    Each adjacent facet is the face plus one extra split: ``extra_splits``
    holds those splits in key order and ``weights`` the facets' weights, one
    each.  The facet with extra split s is ``CombinatorialType(face.labels,
    (*face.splits, s))`` and its primitive direction is
    ``direction_vector(face, s)``.

    ``witness`` holds the coefficients of the face directions (face-split
    order) that recombine into ``weighted_sum``, None when the face is
    unbalanced.  ``minor``, for smoothness only, holds the columns on which
    the face directions and the first two adjacent directions form a minor
    of determinant +-1.  The constructor checks nothing: ``verify_witness``
    does.
    """

    __slots__ = ("face", "extra_splits", "weights", "balanced", "smooth", "witness", "minor")

    def __init__(
        self,
        face: CombinatorialType,
        extra_splits: Tuple[Split, ...],
        weights: Tuple[int, ...],
        balanced: bool,
        smooth: Optional[bool] = None,
        witness: Optional[Tuple[int, ...]] = None,
        minor: Optional[Tuple[int, ...]] = None,
    ):
        _set(self, "face", face)
        _set(self, "extra_splits", extra_splits)
        _set(self, "weights", weights)
        _set(self, "balanced", balanced)
        _set(self, "smooth", smooth)
        _set(self, "witness", witness)
        _set(self, "minor", minor)

    @property
    def weighted_sum(self) -> Tuple[int, ...]:
        """The weighted sum of the adjacent directions, added over their supports."""
        total = [0] * (3 * comb(self.face.n, 4))
        for extra, weight in zip(self.extra_splits, self.weights, strict=True):
            for i, x in _split_support(extra):
                total[i] += weight * x
        return tuple(total)


@lru_cache(maxsize=None)
def _unit_weights(count: int) -> Tuple[int, ...]:
    """Weight 1 on each of ``count`` facets: shared by every report decided at a vertex."""
    return (1,) * count


def moduli_fan(n: int) -> WeightedFan:
    """The full moduli fan: all trivalent types with weight 1."""
    if n < 4:
        raise ValueError("the moduli fan needs n >= 4")
    return WeightedFan.of(n, tuple((t, 1) for t in _stream_types(n, n - 3)))


def _isolating_coordinates(
    face: CombinatorialType, vertices: Optional[tuple] = None
) -> List[Tuple[int, int, int]]:
    """(index, sign, quartet) per face split: its direction is sign there,
    every other face split's 0, and the quartet (a label bitmask) holds the
    index.  ``vertices``, when given, are ``_vertices(face)``.

    The split of vertex v is the only edge on the inner path of a quartet
    ab|cd, so no other face split cuts it two and two: a the least leaf of
    the side, b the least outside v's child holding a (or outside a, when a
    hangs off v), c the anchor (the least label, in no side), and d the
    least of the parent's side (of all labels at the root) outside the side
    and not c.  The anchor is paired with d, and the coordinate is the first
    nonzero entry of that ray (``_RAYS``).
    """
    masks, _, parents = vertices or _vertices(face)
    n = len(face.labels)
    anchor = masks[0] & -masks[0]
    held = {}  # each vertex's child holding its least leaf
    by_mask = {}
    for v in range(len(masks) - 1, 0, -1):  # each child before its parent
        m, up = masks[v], masks[parents[v]]
        if m & up & -up:
            held[parents[v]] = m
        a = m & -m
        rest = m & ~held.get(v, a)
        beyond = up & ~m & ~anchor
        d = beyond & -beyond
        quartet = a | (rest & -rest) | anchor | d
        rank = (quartet & (d - 1)).bit_count() - 1  # of d among a, b and d
        first = 0 if rank else 1
        by_mask[m] = (_quartet_base(n, quartet) + first, _RAYS[rank][first], quartet)
    return [by_mask[s.mask] for s in face.splits]


def span_witness(
    face: CombinatorialType, vector: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Forced coefficients and residual of an integer vector against a face.

    The coefficients (face-split order) are the vector's entries at the
    isolating coordinates; the residual is the vector minus their
    recombination of the face directions.  The vector lies in the rational
    span of the face directions iff the residual is zero, and then it lies in
    the integer span too.
    """
    _require_standard_labels(face.labels)
    size = 3 * comb(face.n, 4)
    if len(vector) != size:
        raise DimensionMismatch(f"expected {size} coordinates for n = {face.n}")
    if any(isinstance(x, bool) or not isinstance(x, int) for x in vector):
        raise TypeError("integer vector expected")
    coefficients = tuple(vector[i] * sign for i, sign, _ in _isolating_coordinates(face))
    residual = list(vector)
    for s, coef in zip(face.splits, coefficients):
        for i, x in _split_support(s):
            residual[i] -= coef * x
    return coefficients, tuple(residual)


def _determinant(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix by Bareiss elimination."""
    m = [list(r) for r in rows]
    size = len(m)
    sign, prev = 1, 1
    for k in range(size - 1):
        pivot = next((i for i in range(k, size) if m[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if size else 1


@lru_cache(maxsize=None)
def _field_width(bound: int) -> int:
    """The narrowest whole number of bytes, in bits, whose signed range
    holds -bound..bound."""
    return -(-(bound.bit_length() + 1) // 8) * 8  # 2^(width-1) > bound


@lru_cache(maxsize=None)
def _packed_direction(split: Split, width: int) -> int:
    """The direction of a split as sum(entry_i << (width * i))."""
    step = width // 8
    plus = bytearray(3 * comb(split.n, 4) * step)
    minus = bytearray(len(plus))
    for i, x in _split_support(split):
        (plus if x > 0 else minus)[i * step] = 1
    return int.from_bytes(plus, "little") - int.from_bytes(minus, "little")


@lru_cache(maxsize=None)
def _field_bias(width: int, size: int) -> int:
    """2^(width-1) in each of ``size`` fields."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * size, "little")


def _recombine(splits: Sequence[Split], coefficients: Sequence[int], width: int) -> int:
    """The packed combination of the splits' directions with these coefficients."""
    total = 0
    for s, c in zip(splits, coefficients):
        if c:
            total += c * _packed_direction(s, width)
    return total


def _balance_at(
    face: CombinatorialType,
    extras: Tuple[Split, ...],
    weights: Tuple[int, ...],
    witness: Optional[Tuple[int, ...]] = None,
) -> Optional[Tuple[int, ...]]:
    """The coefficients (face-split order) that recombine the face's
    directions into the weighted sum of its adjacent directions, given the
    extra splits of its adjacent facets in key order and their weights, or
    None when the face is unbalanced.  A given witness, entries at most W
    in size, is tried first; if it fails, or none was given, the
    coefficients are read off the packed weighted sum at the isolating
    coordinates.  They are unique, so the verdict is the same.  No dense
    vector is unpacked.

    Let W be the sum of the adjacent weights and d the number of face
    splits.  Directions have entries in {-1, 0, 1}, so each sum entry is at
    most W in size, hence each coefficient, and each recombined entry at
    most d * W: every entry of either vector, and of their difference, is at
    most W * (d + 1).  The fields are signed with 2^(width-1) above that
    bound, so the packed ints are equal iff the vectors are.
    """
    splits = face.splits
    width = _field_width(sum(weights) * (len(splits) + 1))
    total = 0
    for extra, weight in zip(extras, weights):
        total += weight * _packed_direction(extra, width)
    if witness is not None and total == _recombine(splits, witness, width):
        return witness
    # biased, every field is a digit in [0, 2^width): no borrow crosses one
    biased = total + _field_bias(width, 3 * comb(face.n, 4))
    field, half = (1 << width) - 1, 1 << (width - 1)
    witness = tuple(
        sign * (((biased >> (width * i)) & field) - half)
        for i, sign, _ in _isolating_coordinates(face)
    )
    return witness if total == _recombine(splits, witness, width) else None


def _face_reports(fan: WeightedFan) -> Iterator[BalancingReport]:
    """The reports of ``check_balanced`` in key order, each face solved as
    it is read."""
    faces: Dict[CombinatorialType, List[Tuple[Split, int]]] = {}
    for cone, weight in fan.cones:
        for s in cone.splits:
            faces.setdefault(contract(cone, s), []).append((s, weight))
    for face in sorted(faces, key=lambda f: f.key):
        # every adjacent cone is the face plus its extra split, so this is
        # also the order of (cone.key, extra_split.key)
        extras, weights = zip(*sorted(faces[face], key=lambda sw: sw[0].key))
        witness = _balance_at(face, extras, weights)
        yield BalancingReport(face, extras, weights, witness is not None, None, witness)


def check_balanced(fan: WeightedFan) -> List[BalancingReport]:
    """Certify balancing at every codimension-1 face of the fan.

    Faces are the types obtained by removing one split from a cone; every
    such face is checked, whether shared by several cones or exposed on the
    boundary of a single one.
    """
    return list(_face_reports(fan))


def check_smooth_local(n: int, tau: CombinatorialType) -> BalancingReport:
    """Certify local smoothness of the moduli fan at a codimension-1 type.

    The three resolution directions must sum into the integer span of the
    face's directions, and the face directions together with two of them
    must generate a saturated sublattice of Z^N.  Together these certify the
    local product structure (tripod times R^{n-4}) with multiplicity one.

    Saturation is witnessed by a minor of determinant +-1: the isolating
    coordinate of each face split, plus two coordinates of the quartet of
    smallest leaves of the four branches at the 4-valent vertex.  The face
    directions vanish on that quartet, so the minor is block-triangular, and
    its determinant is taken from the blocks once that is checked (see
    ``_minor_determinant``).
    """
    if tau.n != n:
        raise ValueError(f"type is for n = {tau.n}, not {n}")
    _require_standard_labels(tau.labels)
    vertices = _vertices(tau)
    branches = _branch_masks(tau, vertices)
    return _vertex_report(tau, branches, branches, 1, {}, vertices)


def _local_witness(
    splits: Sequence[Split], branches: List[int], coefficient: int = 1
) -> Tuple[int, ...]:
    """The closed-form balancing coefficients at a vertex: ``coefficient``
    on each face split incident to it, 0 on every other.

    With the branches as masks, the anchor's first, a split on the vertex
    has a branch as its side, or on the edge up the union of the others (a
    single leaf or all but one is no side, so cannot match).
    """
    rest = branches[1:]
    on_vertex = {*rest, sum(rest)}
    return tuple([coefficient if s.mask in on_vertex else 0 for s in splits])


def _minor_determinant(rows: Sequence[Split], columns: Sequence[int], quartets: tuple) -> int:
    """The determinant of the directions of ``rows`` on ``columns``, the
    face splits on their isolating columns, then two extras on two more;
    ``quartets`` holds each column's quartet as a label bitmask.

    A direction is nonzero on a quartet only when its side holds two of the
    quartet's labels.  When the last two columns are of one quartet and
    each face split does so for its own column's quartet alone, the minor
    is block lower-triangular: its determinant is the product of the face
    rows' own entries times the 2x2 determinant of the last two rows and
    columns, each entry read off a ray.  Otherwise Bareiss decides on dense
    rows.
    """
    cutting = quartets[:-1]
    if quartets[-1] == quartets[-2]:
        product = 1
        for i, s in enumerate(rows[:-2]):
            m, own = s.mask, cutting[i]
            if [q for q in cutting if (m & q).bit_count() == 2] != [own]:
                break
            product *= _quartet_ray(m, own)[columns[i] % 3]
        else:
            upper, lower = (_quartet_ray(s.mask, cutting[-1]) for s in rows[-2:])
            k, l = columns[-2] % 3, columns[-1] % 3
            return product * (upper[k] * lower[l] - upper[l] * lower[k])
    return _determinant([[d[c] for c in columns] for d in map(_split_direction, rows)])


def _vertex_report(
    tau: CombinatorialType,
    branches: List[int],
    blocks: List[int],
    coefficient: int,
    decided: Dict[int, tuple],
    vertices: Optional[tuple],
) -> BalancingReport:
    """The report at a face on labels 1..n decided at one vertex, given the
    vertex's branches as masks (by least label) and the blocks whose
    pairwise joins are the extra splits, each of weight 1, in key order.
    The witness tried is ``_local_witness`` with ``coefficient``; given
    its ``vertices`` (``_vertices``), the face is a codimension-1 type and
    the minor of ``check_smooth_local`` is checked too.  ``decided`` is the
    run's memo (see the module docstring): packed branch masks to the extra
    splits followed by the masks with a nonzero coefficient, stored only
    once the witness tried has passed.
    """
    n = len(tau.labels)
    shift = n + 1  # each mask fits in n + 1 bits
    partition = 0
    for m in branches:
        partition = partition << shift | m
    entry = decided.get(partition)
    splits = tau.splits
    if entry is None:
        extras = _resolution_splits(tau.labels, blocks)
        tried = _local_witness(splits, branches, coefficient)
        witness = _balance_at(tau, extras, _unit_weights(len(extras)), tried)
        # the coefficients are unique, so they equal the witness tried iff it passed
        if witness == tried:
            decided[partition] = (extras, *[s.mask for s, c in zip(splits, tried) if c])
    else:
        extras, on_vertex = entry[0], entry[1:]
        witness = tuple([coefficient if s.mask in on_vertex else 0 for s in splits])
    verdict = minor = None
    if vertices is not None:
        least = sum(m & -m for m in branches)  # the quartet of the last two columns
        base = _quartet_base(n, least)
        isolating = _isolating_coordinates(tau, vertices)
        columns, _, quartets = zip(*isolating, (base, 0, least), (base + 1, 0, least))
        # the first two adjacent directions: the extras are in key order
        if abs(_minor_determinant((*splits, *extras[:2]), columns, quartets)) == 1:
            minor = columns
        verdict = witness is not None and minor is not None
    # positional: keywords cost a measurable share of a moduli-fan face
    return BalancingReport(
        tau, extras, _unit_weights(len(extras)), witness is not None, verdict, witness, minor
    )


def _moduli_reports(n: int, smooth: bool = False) -> Iterator[BalancingReport]:
    """The reports of ``check_balanced(moduli_fan(n))``, or with ``smooth``
    those of ``check_smooth_local`` over the codimension-1 types, in key
    order.  The faces of the moduli fan are its codimension-1 types, so
    they are streamed, each solved at its 4-valent vertex as it is made, or
    read off the partitions this run has decided (``_vertex_report``)."""
    if n < 4:
        raise ValueError("the moduli fan needs n >= 4")
    decided: Dict[int, tuple] = {}
    return (
        _vertex_report(tau, branches, branches, 1, decided, vertices if smooth else None)
        for tau in _stream_types(n, n - 4)
        for vertices in (_vertices(tau),)
        for branches in (_branch_masks(tau, vertices),)
    )


def verify_witness(report: BalancingReport) -> bool:
    """Check a report's witness exactly, independently of how it was found.

    The extra splits must be splits on the face's labels, strictly
    increasing by key, none of them on the face and each compatible with
    every face split, so that each names an adjacent cone; each must have a
    weight, an ``int`` >= 1; and a smoothness report must list the three
    resolutions.  The coefficients must recombine the face directions
    (face-split order) into the weighted sum of the adjacent directions,
    both summed here on dense vectors.  A minor, required for a smooth
    verdict, must pick columns on which the face directions and the first
    two adjacent directions have determinant +-1.  A report without a
    witness verifies as False.
    """
    face = report.face
    extras, weights = report.extra_splits, report.weights
    if report.witness is None or (report.smooth and report.minor is None):
        return False
    if len(extras) != len(weights) or not all(type(w) is int and w >= 1 for w in weights):
        return False
    for extra in extras:
        if not isinstance(extra, Split) or extra.labels != face.labels or extra in face.splits:
            return False
        if not all(extra.compatible_with(s) for s in face.splits):
            return False
    keys = [extra.key for extra in extras]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return False
    if report.smooth is not None:
        try:
            expected = _resolution_splits(face.labels, _branch_masks(face))
        except NotCodimensionOne:
            return False
        if tuple(extras) != expected:
            return False
    directions = [_split_direction(s) for s in face.splits]
    if len(report.witness) != len(directions):
        return False
    adjacent = [_split_direction(s) for s in extras]
    size = 3 * comb(face.n, 4)
    total = [sum(w * d[i] for w, d in zip(weights, adjacent)) for i in range(size)]
    combo = [sum(c * d[i] for c, d in zip(report.witness, directions)) for i in range(size)]
    if total != combo:
        return False
    if report.minor is None:
        return True
    rows = directions + adjacent[:2]
    if len(report.minor) != len(rows) or not all(0 <= c < size for c in report.minor):
        return False
    return abs(_determinant([[row[c] for c in report.minor] for row in rows])) == 1


def _check_leaf(n: int, k: int) -> None:
    if type(k) is not int or not 1 <= k <= n:
        raise ValueError(f"leaf label k must be an integer in 1..{n}, got {k!r}")


def psi_divisor(n: int, k: int) -> WeightedFan:
    """The weight-1 fan of codimension-1 types whose 4-valent vertex carries leaf k."""
    if n < 4:
        raise ValueError("psi divisors need n >= 4")
    _check_leaf(n, k)
    cones = [(t, 1) for t in _stream_types(n, n - 4) if 1 << k in _branch_masks(t)]
    return WeightedFan(n=n, dim=n - 4, cones=tuple(cones))


def _psi_report(
    tau: CombinatorialType, k: int, decided: Dict[int, tuple]
) -> Optional[BalancingReport]:
    """The report of ``psi_divisor(n, k)`` at a codimension-2 type on labels
    1..n, or None when the vertex of leaf k (the last vertex whose mask
    holds it) is 3-valent and no psi cone holds the type.  At a 5-valent
    vertex the face is decided there, the blocks being the four other
    branches; at a 4-valent one, at the other 4-valent vertex as a
    moduli-fan face.
    """
    masks, vals, parents = _vertices(tau)
    leaf = 1 << k
    home = len(masks) - 1
    while not masks[home] & leaf:
        home -= 1
    valence = vals[home]
    if valence == 3:
        return None
    if valence == 5:
        branches = _branches_at(masks, parents, home)
        blocks = [m for m in branches if m != leaf]
    else:
        other = next(v for v, val in enumerate(vals) if val == 4 and v != home)
        branches = blocks = _branches_at(masks, parents, other)
    # 2 at a 5-valent vertex, 1 at a 4-valent one
    return _vertex_report(tau, branches, blocks, valence - 3, decided, None)


def _psi_reports(n: int, k: int) -> Iterator[BalancingReport]:
    """The reports of ``check_balanced(psi_divisor(n, k))``, in key order.

    The faces of the psi divisor are the codimension-2 types with leaf k at
    a 5-valent vertex, or at a 4-valent vertex while another is 4-valent,
    so they are streamed, each solved as it is made, or read off the
    partitions this run has decided (``_psi_report``).
    """
    if n < 5:
        raise ValueError("psi balancing is a condition on faces; needs n >= 5")
    _check_leaf(n, k)
    decided: Dict[int, tuple] = {}
    reports = (_psi_report(tau, k, decided) for tau in _stream_types(n, n - 5))
    return (rep for rep in reports if rep is not None)


def check_psi_balanced(n: int, k: int) -> List[BalancingReport]:
    """Balancing certificates for the psi divisor at its codimension-2 faces."""
    return list(_psi_reports(n, k))


def canonical_divisor(t: CombinatorialType) -> Dict[int, int]:
    """Multiplicity (valence - 2) for each internal vertex of the realized tree.

    Keys are vertex indices of ``to_tree(t)``.
    """
    tree = to_tree(t)
    return {i: v.valence - 2 for i, v in enumerate(tree.vertices)}

"""Weighted fans and the exact balancing / local smoothness certificates.

A fan is balanced at a codimension-1 face when the weighted sum of the
primitive directions of the adjacent facets lies in the rational span of the
face.  Local smoothness strengthens this to the integer span together with
saturation of the local lattice, which is exactly the tripod-times-R^{n-4}
product structure of the moduli fan near such a face.

Both are decided by closed-form witnesses.  Every split of a face has a
quartet coordinate on which its direction is +-1 and every other face
direction is 0, so the coefficients of any combination are forced and are
integers: a vector is in the span (rational or integer alike) iff it equals
the recombination with those coefficients.  Saturation is witnessed by a
square minor of determinant +-1.

A face is solved on packed vectors: each direction is one int with a signed
field per coordinate, so the weighted sum, the recombination and their
comparison are a few big-integer operations.  With W the sum of the adjacent
weights and d the number of face splits, every entry of either vector is at
most W * (d + 1) in size, and the fields are whole bytes wide enough to
hold that.  Reports are built one face at a time, so the command line
writes each as it is solved: ``_balance_at`` solves a face, and a moduli-fan
face whose 4-partition this run has already decided is reported without a
solve (see below).  A report keeps what the solve decided: extra splits,
weights, coefficients and minor; each adjacent cone (the face plus its extra
split), each direction and the weighted sum are read off the splits when
asked for.  A face's splits are a tuple in key order, the order of its
coefficients.

The moduli fan itself is certified from its codimension-1 types, streamed
one at a time with no facet table and no contraction
(``_moduli_reports``).  A face's adjacent cones are its three resolutions,
each of weight 1, and its witness has a closed form read off the 4-valent
vertex (``_local_witness``): 1 on each face split incident to the vertex,
0 on every other.  Quartet by quartet, for branches A, B, C, D: one leaf in
each branch, and the resolution rays sum to 0 (M_{0,4} is the tripod); two
in A and one in C and D, and only AB|CD and the split of A cut it two and
two, with the same ray; two in A and two in C, and AB|CD, AD|BC and the
splits of A and C all cut it with the same ray; three or more in one
branch, and none cuts it.  One packed equality checks the witness, and if
it failed the isolating coordinates would decide, so no verdict rests on
the identity.  The smoothness minor is block lower-triangular: each face
row is its sign on its own isolating column and 0 on the minor's other
columns.  ``_minor_determinant`` checks that entry by entry and then takes
the product of the signs times a 2x2 determinant on the quartet columns;
otherwise Bareiss decides.  ``verify_witness`` re-checks with Bareiss.

Near such a face the fan is the tripod M_{0,4} times R^{n-4}, and the
tripod is fixed by the four branches: both sides of the packed equality
depend on them alone.  The sum is that of the three resolutions, whose
sides are the unions of two of the three branches away from the anchor,
and the witness is nonzero only on the face splits whose side is one of
those branches or the union of all three.
So a run decides its faces once per partition of the leaves into four
blocks (S(8, 4) = 1,701 against 17,325 faces at n = 8).  A dict kept by the
run, keyed by one int packing the three branch masks away from the anchor,
holds the resolution splits of each partition whose equality has passed
with the local witness, and the masks of the face splits that had
coefficient 1 in it.  Every face of the partition has those splits on its
vertex (the branches of two or more leaves, and the complement of the
anchor's branch when it has two or more), so a later face is balanced
with 1 on those masks, the witness that passed, without a solve; its
smoothness minor is still checked.  A partition whose equality fails is
never stored, so each of its faces is solved, and the next run proves every
partition again.

A psi divisor is certified the same way, from codimension-2 types streamed
in key order (``_psi_reports``).  Its cones are the codimension-1 types
whose 4-valent vertex carries leaf k (Kerber-Markwig), so its faces are the
types with leaf k at a 5-valent vertex, whose 6 adjacent cones join two of
the four other branches there, with witness 2 on each face split incident
to that vertex; or with leaf k at a 4-valent vertex while another is
4-valent, whose 3 adjacent cones resolve the other one, with that vertex's
``_local_witness``.  Other types are skipped on the valence of leaf k's
vertex alone.  Only a fan read from a file (``_face_reports``) still has
its cones contracted at each split and its faces grouped.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ._value import Value, _set
from .errors import DimensionMismatch, NotCodimensionOne, NotPure
from .moduli import (
    _quartet_coordinate,
    _quartet_bases,
    _require_standard_labels,
    _split_direction,
    _split_support,
)
from .trees import (
    CombinatorialType,
    Split,
    _branch_masks,
    _branches_at,
    _key,
    _pooled_split,
    _resolution_splits,
    _stream_types,
    _vertices,
    _with_split,
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
                raise ValueError(f"weights must be positive integers, got {weight!r}")
        if len({c for c, _ in cones}) != len(cones):
            raise ValueError("duplicate cones in fan")
        _set(self, "n", n)
        _set(self, "dim", dim)
        _set(self, "cones", tuple(cones))

    @classmethod
    def of(cls, n: int, cones: Iterable[Tuple[CombinatorialType, int]]) -> "WeightedFan":
        cones = tuple(cones)
        return cls(n=n, dim=cones[0][0].dim if cones else 0, cones=cones)


class AdjacentFacet(Value):
    """One facet adjacent to a face: the face plus the extra split it adds.

    ``cone`` refuses an extra split the face already has with a
    ``ValueError``, since that adds no facet.
    """

    __slots__ = ("face", "extra_split", "weight")

    def __init__(self, face: CombinatorialType, extra_split: Split, weight: int):
        _set(self, "face", face)
        _set(self, "extra_split", extra_split)
        _set(self, "weight", weight)

    @property
    def cone(self) -> CombinatorialType:
        """The facet: the face's splits and the extra split."""
        return _with_split(self.face, self.extra_split)

    @property
    def direction(self) -> Tuple[int, ...]:
        """The primitive direction the facet adds: that of its extra split."""
        return _split_direction(self.extra_split)


class BalancingReport(Value):
    """Verdict of the balancing (and optionally smoothness) check at one face.

    ``witness`` holds the coefficients of the face directions (face-split
    order) that recombine into ``weighted_sum``, None when the face is
    unbalanced.  ``minor``, for smoothness only, holds the columns on which
    the face directions and the first two adjacent directions form a minor
    of determinant +-1.
    """

    __slots__ = ("face", "adjacent", "balanced", "smooth", "witness", "minor")

    def __init__(
        self,
        face: CombinatorialType,
        adjacent: Tuple[AdjacentFacet, ...],
        balanced: bool,
        smooth: Optional[bool] = None,
        witness: Optional[Tuple[int, ...]] = None,
        minor: Optional[Tuple[int, ...]] = None,
    ):
        _set(self, "face", face)
        _set(self, "adjacent", adjacent)
        _set(self, "balanced", balanced)
        _set(self, "smooth", smooth)
        _set(self, "witness", witness)
        _set(self, "minor", minor)

    @property
    def weighted_sum(self) -> Tuple[int, ...]:
        """The weighted sum of the adjacent directions, added over their supports."""
        total = [0] * (3 * comb(self.face.n, 4))
        for rec in self.adjacent:
            for i, x in _split_support(rec.extra_split):
                total[i] += rec.weight * x
        return tuple(total)


def moduli_fan(n: int) -> WeightedFan:
    """The full moduli fan: all trivalent types with weight 1."""
    if n < 4:
        raise ValueError("the moduli fan needs n >= 4")
    return WeightedFan.of(n, tuple((t, 1) for t in _stream_types(n, n - 3)))


def _isolating_coordinates(face: CombinatorialType) -> List[Tuple[int, int]]:
    """(index, sign) per face split: its direction is sign there, every
    other face split's 0.

    Two leaves from different branches at each end of the edge of a split
    form a quartet whose inner path is that edge alone.  At the end inside
    the side: its smallest leaf a, and a leaf b outside the largest smaller
    side holding a.  At the other end: the anchor c (smallest label, never in
    a side), and a leaf d of the smallest larger side (or of all labels)
    that is neither in the side nor c.  Sides are compared as bitmasks.
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
            _quartet_coordinate(
                n,
                low.bit_length() - 1,
                (b & -b).bit_length() - 1,
                c,
                (d & -d).bit_length() - 1,
            )
        )
    return out


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
    size = 3 * comb(face.n, 4)
    if len(vector) != size:
        raise DimensionMismatch(f"expected {size} coordinates for n = {face.n}")
    if any(isinstance(x, bool) or not isinstance(x, int) for x in vector):
        raise TypeError("integer vector expected")
    coefficients = tuple(vector[i] * sign for i, sign in _isolating_coordinates(face))
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


# packed directions by (n, field width), then by side mask
_packed: Dict[Tuple[int, int], Dict[int, int]] = {}


def _packed_direction(split: Split, width: int) -> int:
    """The direction of a split as sum(entry_i << (width * i)).

    Cached under ints, so a lookup hashes no ``Split``.
    """
    key = (len(split.labels), width)
    table = _packed.get(key)
    if table is None:
        table = _packed[key] = {}
    mask = split.mask
    packed = table.get(mask)
    if packed is None:
        packed = table[mask] = _pack(split, width)
    return packed


def _pack(split: Split, width: int) -> int:
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
    adjacent: List[Tuple[int, Split]],
    witness: Optional[Tuple[int, ...]] = None,
    unimodular: Optional[bool] = None,
    minor: Optional[Tuple[int, ...]] = None,
) -> BalancingReport:
    """The report at a face, given its (weight, extra split) pairs by extra
    split.  A smoothness check also passes whether its minor has
    determinant +-1, and that minor (None when it has not).  A given
    witness, entries at most W in size, is tried first; if it fails, or
    none was given, the coefficients are read off the packed weighted sum
    at the isolating coordinates.  They are unique, so the verdict is the
    same.  The report keeps the extra splits, weights and coefficients; no
    dense vector is unpacked.

    Let W be the sum of the adjacent weights and d the number of face
    splits.  Directions have entries in {-1, 0, 1}, so each sum entry is at
    most W in size, hence each coefficient, and each recombined entry at
    most d * W: every entry of either vector, and of their difference, is at
    most W * (d + 1).  The fields are signed with 2^(width-1) above that
    bound, so the packed ints are equal iff the vectors are.
    """
    splits = face.splits
    width = _field_width(sum(weight for weight, _ in adjacent) * (len(splits) + 1))
    total = 0
    records = []
    for weight, extra in adjacent:
        records.append(AdjacentFacet(face, extra, weight))
        total += weight * _packed_direction(extra, width)
    balanced = witness is not None and total == _recombine(splits, witness, width)
    if not balanced:
        # biased, every field is a digit in [0, 2^width): no borrow crosses one
        biased = total + _field_bias(width, 3 * comb(face.n, 4))
        field, half = (1 << width) - 1, 1 << (width - 1)
        witness = tuple(
            sign * (((biased >> (width * i)) & field) - half)
            for i, sign in _isolating_coordinates(face)
        )
        balanced = total == _recombine(splits, witness, width)
    smooth = None if unimodular is None else balanced and unimodular
    # positional: keywords cost a measurable share of a moduli-fan face
    return BalancingReport(
        face, tuple(records), balanced, smooth, witness if balanced else None, minor
    )


def _face_reports(fan: WeightedFan) -> Iterator[BalancingReport]:
    """The reports of ``check_balanced`` in key order, each face solved as
    it is read."""
    faces: Dict[CombinatorialType, List[Tuple[int, Split]]] = {}
    for cone, weight in fan.cones:
        for s in cone.splits:
            faces.setdefault(contract(cone, s), []).append((weight, s))
    for face in sorted(faces, key=lambda f: f.key):
        # every adjacent cone is the face plus its extra split, so this is
        # also the order of (cone.key, extra_split.key)
        adjacent = sorted(faces[face], key=lambda ws: ws[1].key)
        yield _balance_at(face, adjacent)


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
    return _codim_one_report(tau, True, {})


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


def _minor_determinant(
    rows: Sequence[Sequence[int]], columns: Sequence[int], signs: Sequence[int]
) -> int:
    """The determinant of ``rows`` on ``columns``, the first ``len(signs)``
    rows being face directions and their columns' isolating coordinates.

    When, entry by entry, face row i is ``signs[i]`` on column i and 0 on
    every other column, the minor is block lower-triangular, and its
    determinant is the product of the signs times the 2x2 determinant of
    the last two rows on the last two columns.  Otherwise Bareiss decides.
    """
    product = 1
    for i, (row, sign) in enumerate(zip(rows, signs)):
        if any(row[c] != (sign if i == j else 0) for j, c in enumerate(columns)):
            return _determinant([[row[c] for c in columns] for row in rows])
        product *= sign
    (a, b), (c, d) = ([row[k] for k in columns[-2:]] for row in rows[-2:])
    return product * (a * d - b * c)


def _codim_one_report(
    tau: CombinatorialType, smooth: bool, decided: Dict[int, tuple]
) -> BalancingReport:
    """The report of the moduli fan at a codimension-1 type, or with
    ``smooth`` that of ``check_smooth_local``, read off the 4-valent vertex.
    The type is on labels 1..n.

    The adjacent cones are the three resolutions, each of weight 1, in key
    order, and the witness tried is ``_local_witness``.  ``decided`` maps
    each 4-partition whose packed equality has passed with that witness to
    its resolution splits followed by the masks of the face splits with
    coefficient 1 in it, keyed by the three branch masks away from the
    anchor packed into one int (the anchor's branch is the rest).  A face
    with such a partition has the same splits on its vertex: its witness is
    1 on those masks, balanced by the same equality, so it is not solved
    again; its minor is still checked.  A partition is stored only once the
    equality has passed.
    """
    branches = _branch_masks(tau)
    labels = tau.labels
    n = len(labels)
    _, b, c, d = branches
    partition = b | c << (n + 1) | d << 2 * (n + 1)  # each mask fits in n + 1 bits
    entry = decided.get(partition)
    splits = tau.splits
    if entry is None:
        extras = _resolution_splits(labels, branches)
    else:
        extras, on_vertex = entry[:3], entry[3:]
    unimodular = minor = None
    if smooth:
        coordinates = _isolating_coordinates(tau)
        base = _quartet_bases(n)[sum(m & -m for m in branches)]
        columns = tuple(i for i, _ in coordinates) + (base, base + 1)
        # the first two adjacent directions: the extras are in key order
        rows = [_split_direction(s) for s in (*splits, *extras[:2])]
        signs = [sign for _, sign in coordinates]
        unimodular = abs(_minor_determinant(rows, columns, signs)) == 1
        minor = columns if unimodular else None
    if entry is not None:
        witness = tuple([1 if s.mask in on_vertex else 0 for s in splits])
        adjacent = tuple([AdjacentFacet(tau, s, 1) for s in extras])
        return BalancingReport(tau, adjacent, True, unimodular, witness, minor)
    witness = _local_witness(splits, branches)
    report = _balance_at(tau, [(1, s) for s in extras], witness, unimodular, minor)
    # the coefficients are unique, so they equal the witness tried iff it passed
    if report.witness == witness:
        decided[partition] = (*extras, *[s.mask for s, c in zip(splits, witness) if c == 1])
    return report


def _moduli_reports(n: int, smooth: bool = False) -> Iterator[BalancingReport]:
    """The reports of ``check_balanced(moduli_fan(n))``, or with ``smooth``
    those of ``check_smooth_local`` over the codimension-1 types, in key
    order.  The faces of the moduli fan are its codimension-1 types, so
    they are streamed, each solved as it is made, or read off the
    partitions this run has decided (see ``_codim_one_report``)."""
    if n < 4:
        raise ValueError("the moduli fan needs n >= 4")
    decided: Dict[int, tuple] = {}
    return (_codim_one_report(tau, smooth, decided) for tau in _stream_types(n, n - 4))


def verify_witness(report: BalancingReport) -> bool:
    """Check a report's witness exactly, independently of how it was found.

    Each adjacent facet must be on the report's face, with an extra split
    on its labels that the face lacks, and a smoothness report must list
    the three resolutions in key order.  The
    coefficients must recombine the face directions (face-split order) into
    the weighted sum of the adjacent directions, both summed here on dense
    vectors.  A minor, required for a smooth verdict, must pick columns
    on which the face directions and the first two adjacent directions have
    determinant +-1.  A report without a witness verifies as False.
    """
    face = report.face
    if report.witness is None or (report.smooth and report.minor is None):
        return False
    for rec in report.adjacent:
        extra = rec.extra_split
        if rec.face != face or extra.labels != face.labels or extra in face.splits:
            return False
    if report.smooth is not None:
        try:
            expected = _resolution_splits(face.labels, _branch_masks(face))
        except NotCodimensionOne:
            return False
        if tuple(rec.extra_split for rec in report.adjacent) != expected:
            return False
    directions = [_split_direction(s) for s in face.splits]
    if len(report.witness) != len(directions):
        return False
    size = 3 * comb(face.n, 4)
    total = [sum(rec.weight * rec.direction[i] for rec in report.adjacent) for i in range(size)]
    combo = [sum(c * d[i] for c, d in zip(report.witness, directions)) for i in range(size)]
    if total != combo:
        return False
    if report.minor is None:
        return True
    rows = directions + [rec.direction for rec in report.adjacent[:2]]
    if len(report.minor) != len(rows) or not all(0 <= c < size for c in report.minor):
        return False
    return abs(_determinant([[row[c] for c in report.minor] for row in rows])) == 1


def _check_leaf(n: int, k: int) -> None:
    if not 1 <= k <= n:
        raise ValueError(f"leaf label k must lie in 1..{n}")


def psi_divisor(n: int, k: int) -> WeightedFan:
    """The weight-1 fan of codimension-1 types whose 4-valent vertex carries leaf k."""
    if n < 4:
        raise ValueError("psi divisors need n >= 4")
    _check_leaf(n, k)
    cones = [(t, 1) for t in _stream_types(n, n - 4) if 1 << k in _branch_masks(t)]
    return WeightedFan(n=n, dim=n - 4, cones=tuple(cones))


def _psi_report(tau: CombinatorialType, k: int) -> Optional[BalancingReport]:
    """The report of ``psi_divisor(n, k)`` at a codimension-2 type on labels
    1..n, or None when the type is no face of it, read off the vertex of
    leaf k (the last vertex whose mask holds it).

    With leaf k at a 5-valent vertex, the adjacent cones join two of the
    four other branches there, and the witness is 2 on each face split
    incident to the vertex.  With leaf k at a 4-valent vertex, they are the
    resolutions of the other 4-valent vertex, and the witness is that
    vertex's ``_local_witness``.  With leaf k at a 3-valent vertex, no psi
    cone holds the type.
    """
    masks, vals, parents = _vertices(tau)
    leaf = 1 << k
    home = len(masks) - 1
    while not masks[home] & leaf:
        home -= 1
    valence = vals[home]
    if valence == 3:
        return None
    labels = tau.labels
    if valence == 5:
        branches = _branches_at(masks, parents, home)
        others = [m for m in branches if m != leaf]
        full = masks[0]
        anchor = full & -full
        # each stored side is the one without the anchor
        joins = [a | b for a, b in combinations(others, 2)]
        sides = [full ^ m if m & anchor else m for m in joins]
        extras = sorted([_pooled_split(len(labels), m) for m in sides], key=_key)
        coefficient = 2
    else:
        other = next(v for v, val in enumerate(vals) if val == 4 and v != home)
        branches = _branches_at(masks, parents, other)
        extras = _resolution_splits(labels, branches)
        coefficient = 1
    witness = _local_witness(tau.splits, branches, coefficient)
    return _balance_at(tau, [(1, s) for s in extras], witness)


def _psi_reports(n: int, k: int) -> Iterator[BalancingReport]:
    """The reports of ``check_balanced(psi_divisor(n, k))``, in key order.

    The faces of the psi divisor are the codimension-2 types with leaf k at
    a 5-valent vertex, or at a 4-valent vertex while another is 4-valent,
    so they are streamed and each solved as it is made (``_psi_report``).
    """
    if n < 5:
        raise ValueError("psi balancing is a condition on faces; needs n >= 5")
    _check_leaf(n, k)
    reports = (_psi_report(tau, k) for tau in _stream_types(n, n - 5))
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

from fractions import Fraction

import pytest

from tropmod.errors import TooFewLeaves
from tropmod.maps import (
    decompose_boundary,
    forget,
    forget_cone,
    relabel,
    section,
)
from tropmod.moduli import ModuliPoint, RatioIndex, double_ratio
from tropmod.rationals import POS_INF, is_finite
from tropmod.trees import contract, enumerate_types

from conftest import random_point, random_tree_point
from oracles import graph_decompose_boundary


def test_forget_drops_degenerate_split():
    x = ModuliPoint.of(5, {(4, 5): 3})
    image = forget(x, 5)
    assert image.labels == frozenset({1, 2, 3, 4})
    assert image.ctype.dim == 0


def test_forget_merges_splits_and_adds_lengths():
    p, q = Fraction(2, 3), Fraction(5, 7)
    x = ModuliPoint.of(5, {(3, 4, 5): p, (4, 5): q})
    image = forget(x, 3)
    assert image.labels == frozenset({1, 2, 4, 5})
    (split, length), = image.lengths
    assert sorted(split.side) == [4, 5]
    assert length == p + q


def test_forget_restricts_surviving_splits():
    p, q = Fraction(1, 2), Fraction(9, 4)
    x = ModuliPoint.of(5, {(3, 4, 5): p, (4, 5): q})
    image = forget(x, 5)
    (split, length), = image.lengths
    assert sorted(split.side) == [3, 4]
    assert length == p


def test_forget_preconditions():
    x = ModuliPoint.of(4, {(3, 4): 1})
    image = forget(x, 2)  # down to the 3-leaf point is allowed
    assert image.labels == frozenset({1, 3, 4}) and image.ctype.dim == 0
    with pytest.raises(TooFewLeaves):
        forget(image, 1)
    with pytest.raises(ValueError):
        forget(ModuliPoint.of(5, {}), 9)


def test_forget_cone_matches_pointwise_forget(rng):
    for n in (5, 6):
        for _ in range(40):
            x = random_point(rng, n, dim=rng.randint(0, n - 3))
            j = rng.choice(sorted(x.labels))
            assert forget(x, j).ctype == forget_cone(x.ctype, j)


def test_forget_cone_images_of_m05_facets():
    # every facet of the 5-leaf fan maps onto a full ray of the 4-leaf fan;
    # over each target ray sit 5 facets: 4 where one split dies (unbounded
    # fiber directions) and 1 where both splits survive and merge (the
    # bounded middle segment of the universal-curve fiber)
    hits = {}
    merging = []
    for t in enumerate_types(5, 2):
        image = forget_cone(t, 5)
        assert image.dim == 1
        hits.setdefault(image, []).append(t)
        survivors = {
            frozenset(s.side - {5}) for s in t.splits if len(s.side - {5}) >= 2
        }
        if len(survivors) == 1 and all(len(s.side - {5}) >= 2 for s in t.splits):
            merging.append(t)
    assert len(hits) == 3
    assert all(len(group) == 5 for group in hits.values())
    assert len(merging) == 3


def test_section_lands_in_the_boundary():
    x = ModuliPoint.of(4, {})
    image = section(x, 1)
    assert image.labels == frozenset(range(1, 6))
    (split, length), = image.lengths
    assert split.side == frozenset({2, 3, 4})  # the side away from {1, 5}
    assert length == POS_INF


def test_section_identity(rng):
    for n in (4, 5, 6, 7):
        for _ in range(40):
            x = random_point(rng, n, dim=rng.randint(0, n - 3))
            k = rng.choice(sorted(x.labels))
            assert forget(section(x, k), n + 1) == x


def test_section_keeps_existing_infinite_lengths(rng):
    x = random_point(rng, 6, infinite_chance=0.6)
    image = section(x, 3)
    finite_before = sum(1 for _, v in x.lengths if is_finite(v))
    finite_after = sum(1 for _, v in image.lengths if is_finite(v))
    assert finite_before == finite_after


def test_length_conservation_under_forget(rng):
    for _ in range(60):
        x = random_point(rng, 6)
        j = rng.choice(sorted(x.labels))
        image = forget(x, j)
        dropped = sum(
            (v for s, v in x.lengths if len(s.side - {j}) < 2 or len((x.labels - {j}) - (s.side - {j})) < 2),
            Fraction(0),
        )
        total_before = sum((v for _, v in x.lengths), Fraction(0))
        total_after = sum((v for _, v in image.lengths), Fraction(0))
        assert total_after == total_before - dropped


def test_forget_functorial_on_faces(rng):
    # the face relation is preserved: forgetting then contracting commutes
    for _ in range(40):
        t = rng.choice(enumerate_types(6, 3))
        s = rng.choice(sorted(t.splits, key=lambda s: s.key))
        j = rng.randint(1, 6)
        face_then_forget = forget_cone(contract(t, s), j)
        forgotten = forget_cone(t, j)
        assert frozenset(face_then_forget.splits) <= frozenset(forgotten.splits)


def test_double_ratios_survive_forget_when_no_merge(rng):
    for _ in range(60):
        x = random_point(rng, 6)
        j = rng.choice(sorted(x.labels))
        image = forget(x, j)
        if len(image.lengths) != len(x.lengths):
            continue  # a split was dropped or merged
        others = sorted(x.labels - {j})
        for quad in (others[:4], others[1:5]):
            a, b, c, d = quad
            for r in (RatioIndex((a, b), (c, d)), RatioIndex((a, c), (b, d))):
                assert double_ratio(image, r) == double_ratio(x, r)


def test_relabel_dense():
    x = ModuliPoint.of(5, {(4, 5): 2})
    image = relabel(forget(x, 2))
    assert image.labels == frozenset({1, 2, 3, 4})
    (split, _), = image.lengths
    assert sorted(split.side) == [3, 4]


def test_decompose_finite_point_is_identity(rng):
    x = random_point(rng, 5)
    d = decompose_boundary(x)
    assert d.components == (x,)
    assert d.gluings == ()


def test_decompose_single_cut():
    q = Fraction(3, 2)
    x = ModuliPoint.of(5, {(3, 4, 5): POS_INF, (4, 5): q})
    d = decompose_boundary(x)
    assert len(d.components) == 2
    first, second = d.components
    # component with leaves {1, 2} plus one marker: a 3-valent star
    assert first.ctype.dim == 0 and len(first.labels) == 3
    assert {1, 2} < first.labels
    # component with {3, 4, 5} plus one marker and the finite split
    assert second.ctype.dim == 1 and {3, 4, 5} < second.labels
    (_, length), = second.lengths
    assert length == q
    ((ca, ma), (cb, mb)), = d.gluings
    assert {ca, cb} == {0, 1}
    assert ma in first.labels or ma in second.labels
    assert mb in first.labels or mb in second.labels


def test_decompose_section_splits_off_a_tripod(rng):
    x = random_point(rng, 5)
    k = 4
    image = section(x, k)
    d = decompose_boundary(image)
    assert len(d.components) == 2
    tripod = [p for p in d.components if p.ctype.dim == 0 and len(p.labels) == 3]
    assert len(tripod) == 1
    assert {k, 6} < tripod[0].labels
    main = next(p for p in d.components if p is not tripod[0])
    assert len(main.lengths) == len(x.lengths)


def test_decompose_all_components_finite(rng):
    for _ in range(40):
        x = random_point(rng, 7, infinite_chance=0.5)
        d = decompose_boundary(x)
        for comp in d.components:
            assert comp.is_finite
        cuts = sum(1 for _, v in x.lengths if not is_finite(v))
        assert len(d.components) == cuts + 1
        assert len(d.gluings) == cuts
        # leaves are preserved: original labels spread over the components
        union = set()
        for comp in d.components:
            union |= comp.labels
        assert set(x.labels) <= union


def test_decompose_matches_graph_oracle(rng):
    # every dimension and cut density; forget leaves labels non-dense, and
    # section images cut off a tripod
    for n in range(4, 12):
        for dim in range(n - 2):
            for chance in (0.2, 0.5, 0.9):
                x = random_tree_point(rng, n, dim=dim, infinite_chance=chance)
                wider = random_tree_point(rng, n + 1, dim=min(dim + 1, n - 2), infinite_chance=chance)
                for point in (x, forget(wider, rng.randint(1, n + 1)), section(x, rng.randint(1, n))):
                    assert decompose_boundary(point) == graph_decompose_boundary(point)


def test_decompose_component_of_markers_only():
    x = ModuliPoint.of(6, {(3, 4, 5, 6): POS_INF, (3, 4): POS_INF, (5, 6): POS_INF})
    d = decompose_boundary(x)
    assert [sorted(c.labels) for c in d.components] == [[1, 2, 9], [3, 4, 8], [5, 6, 12], [7, 10, 11]]
    assert all(c.ctype.dim == 0 for c in d.components)
    assert d.gluings == (((3, 7), (1, 8)), ((0, 9), (3, 10)), ((3, 11), (2, 12)))

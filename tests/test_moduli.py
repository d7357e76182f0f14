import itertools
import random
import re
from fractions import Fraction
from math import comb

import pytest

from tropmod import moduli
from tropmod.errors import IncompatibleSplit, NotInImage
from tropmod.moduli import (
    EmbeddingVector,
    ModuliPoint,
    RatioIndex,
    canonical_coordinates,
    direction_vector,
    double_ratio,
    embed,
    link_graph,
    reconstruct,
)
from tropmod.rationals import NEG_INF, POS_INF, is_finite
from tropmod.trees import CombinatorialType, Split, enumerate_types

import oracles
from conftest import random_point, random_tree_point


def test_ratio_index_canonical_forms():
    r, sign = RatioIndex.of((3, 1), (2, 4))
    assert r == RatioIndex((1, 3), (2, 4)) and sign == -1
    r, sign = RatioIndex.of((2, 4), (1, 3))
    assert r == RatioIndex((1, 3), (2, 4)) and sign == 1
    with pytest.raises(ValueError):
        RatioIndex((1, 2), (2, 3))
    with pytest.raises(ValueError):
        RatioIndex((2, 1), (3, 4))


def test_canonical_coordinates():
    assert canonical_coordinates(4) == (
        RatioIndex((1, 2), (3, 4)),
        RatioIndex((1, 3), (2, 4)),
        RatioIndex((1, 4), (2, 3)),
    )
    assert len(canonical_coordinates(5)) == 15
    assert len(canonical_coordinates(6)) == 45
    with pytest.raises(ValueError):
        canonical_coordinates(3)


def test_quartet_base_is_the_position_in_combinations_order():
    for n in range(4, 13):
        for rank, quad in enumerate(itertools.combinations(range(1, n + 1), 4)):
            mask = sum(1 << x for x in quad)
            assert moduli._quartet_base(n, mask) == 3 * rank
            assert moduli._quartet_base.__wrapped__(n, mask) == 3 * rank
        assert oracles.quartet_bases(n) == {
            mask: moduli._quartet_base(n, mask) for _, mask in oracles.quartets(n)
        }
    n = 40
    quartets = list(itertools.combinations(range(1, n + 1), 4))
    assert len(quartets) == comb(n, 4)
    rng = random.Random(40)
    for rank in [0, 1, len(quartets) - 1, *rng.sample(range(len(quartets)), 500)]:
        mask = sum(1 << x for x in quartets[rank])
        assert moduli._quartet_base.__wrapped__(n, mask) == 3 * rank


def test_coordinate_pairs_are_the_canonical_coordinates():
    for n in range(4, 10):
        pairs = list(moduli._coordinate_pairs(n))
        assert pairs == [(r.first, r.second) for r in canonical_coordinates(n)]


def test_entry_is_the_entry_at_the_coordinate():
    rng = random.Random(7)
    for n in range(4, 8):
        coordinates = canonical_coordinates(n)
        vec = EmbeddingVector(n, [str(rng.randint(-9, 9)) for _ in coordinates])
        for r in coordinates:
            assert vec.entry(r) == vec.entries[coordinates.index(r)]
        for r in (RatioIndex((1, 2), (3, n + 1)), RatioIndex((1, n + 1), (2, 3)),
                  RatioIndex((0, 1), (2, 3))):
            with pytest.raises(KeyError):
                vec.entry(r)


def ray_point(n, side, length):
    return ModuliPoint.of(n, {tuple(side): length})


def test_m04_ray_images():
    t = Fraction(7, 2)
    assert embed(ray_point(4, (3, 4), t)).entries == (0, t, t)
    assert embed(ray_point(4, (2, 4), t)).entries == (t, 0, -t)
    assert embed(ray_point(4, (2, 3), t)).entries == (-t, -t, 0)


def test_double_ratio_on_rays_of_m05():
    t = Fraction(4, 3)
    assert double_ratio(ray_point(5, (2, 4), t), RatioIndex((2, 3), (4, 5))) == t
    assert double_ratio(ray_point(5, (2, 3), t), RatioIndex((1, 2), (3, 4))) == -t


def test_origin_embeds_to_zero():
    origin = ModuliPoint.of(5, {})
    assert all(v == 0 for v in embed(origin).entries)


def test_direction_vectors():
    rays = {next(iter(t.splits)).key: t for t in enumerate_types(4, 1)}
    assert direction_vector(rays[(3, 4)], Split.of(4, (3, 4))) == (0, 1, 1)
    assert direction_vector(rays[(2, 3)], Split.of(4, (2, 3))) == (-1, -1, 0)
    for t in enumerate_types(5, 2):
        for s in t.splits:
            assert set(direction_vector(t, s)) <= {-1, 0, 1}
            assert any(direction_vector(t, s))


def test_direction_vector_accepts_compatible_resolution_splits():
    tau = CombinatorialType.of(5, [(4, 5)])
    assert any(direction_vector(tau, Split.of(5, (2, 3))))
    with pytest.raises(IncompatibleSplit):
        direction_vector(CombinatorialType.of(5, [(2, 3)]), Split.of(5, (3, 4)))


def test_embedding_linear_on_each_cone(rng):
    for n in (5, 6):
        for _ in range(30):
            x = random_point(rng, n)
            factor = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            scaled = ModuliPoint.of(
                x.ctype, {s: factor * v for s, v in x.lengths}
            )
            assert embed(scaled).entries == tuple(factor * e for e in embed(x).entries)


def test_quartet_pattern(rng):
    for n in (5, 6, 7):
        for _ in range(60):
            x = random_point(rng, n, dim=rng.randint(0, n - 3))
            entries = embed(x).entries
            for q in range(comb(n, 4)):
                triple = entries[3 * q : 3 * q + 3]
                zeros = [v for v in triple if v == 0]
                if len(zeros) == 3:
                    continue
                assert len(zeros) == 1
                a, b = [v for v in triple if v != 0]
                assert abs(a) == abs(b) and abs(a) > 0


def test_same_sign_propagation(rng):
    from tropmod.moduli import _sigma

    for n in (5, 6, 7):
        for _ in range(60):
            x = random_point(rng, n)
            r = rng.choice(canonical_coordinates(n))
            signs = {_sigma(s, r) for s, _ in x.lengths} - {0}
            assert len(signs) <= 1


def test_e_compatible_vanishing(rng):
    # entry((i,j),(k,l)) = 0 whenever i,j on one side of a split, k,l on the other
    for n in (5, 6):
        for _ in range(40):
            x = random_point(rng, n)
            vec = embed(x)
            for s, _ in x.lengths:
                side = sorted(s.side)
                other = sorted(s.labels - s.side)
                i, j = side[0], side[1]
                k, l = other[0], other[1]
                r, _ = RatioIndex.of((i, j), (k, l))
                assert vec.entry(r) == 0


def test_double_ratio_matches_path_oracle(rng):
    for n in (5, 6, 7):
        for _ in range(150):
            x = random_point(rng, n, dim=rng.randint(1, n - 3))
            r = rng.choice(canonical_coordinates(n))
            assert double_ratio(x, r) == oracles.path_double_ratio(x, r)


def test_double_ratio_at_boundary_points(rng):
    for _ in range(40):
        x = random_point(rng, 6, infinite_chance=0.5)
        vec = embed(x)
        for r, value in zip(vec.coordinates, vec.entries):
            assert value == oracles.path_double_ratio(x, r)
            if not is_finite(value):
                assert value in (POS_INF, NEG_INF)


def test_embed_matches_path_oracle_at_larger_n(rng):
    for n in (7, 8, 9):
        for trial in range(8):
            x = random_tree_point(
                rng, n, dim=rng.randint(0, n - 3), infinite_chance=0.3 * (trial % 2)
            )
            vec = embed(x)
            assert type(vec.entries) is tuple
            assert vec == EmbeddingVector(n, vec.entries)
            assert vec.entries == tuple(
                oracles.path_double_ratio(x, r) for r in vec.coordinates
            )


def _walk_oracle_points(rng, n):
    """Trivalent, contracted, boundary, all-infinite and origin points on 1..n."""
    points = [ModuliPoint.of(n, {})]
    for _ in range(3):
        trivalent = random_tree_point(rng, n)
        boundary = {s: v if i % 2 else POS_INF for i, (s, v) in enumerate(trivalent.lengths)}
        points += [
            trivalent,
            random_tree_point(rng, n, dim=rng.randint(1, max(1, n - 4))),
            ModuliPoint(trivalent.ctype, tuple(boundary.items())),
            random_tree_point(rng, n, dim=rng.randint(1, n - 3), infinite_chance=1.0),
        ]
    return points


@pytest.mark.parametrize("n", range(4, 11))
def test_four_point_coordinates_match_the_walk_oracle(rng, n):
    for x in _walk_oracle_points(rng, n):
        weighted = [(s, v.numerator * 7 if is_finite(v) else 1) for s, v in x.lengths]
        assert moduli._double_ratios(n, weighted) == oracles.walked_coordinates(n, weighted)
        assert embed(x).entries == oracles.walked_embed(x)


def test_reconstruct_examples():
    back = reconstruct((0, 5, 5), 4)
    assert back == ray_point(4, (3, 4), 5)
    assert reconstruct((0, 0, 0), 4) == ModuliPoint.of(4, {})
    with pytest.raises(NotInImage):
        reconstruct((1, 1, 1), 4)


def test_reconstruct_rejects_near_images():
    x = ModuliPoint.of(5, {(4, 5): 2, (3, 4, 5): 3})
    entries = list(embed(x).entries)
    entries[0] += 1
    with pytest.raises(NotInImage):
        reconstruct(entries, 5)


def test_reconstruct_requires_finite_entries():
    x = ModuliPoint.of(4, {(3, 4): POS_INF})
    with pytest.raises(ValueError):
        reconstruct(embed(x), 4)


@pytest.mark.parametrize(
    "entries, error, message",
    [
        (["inf", "1", "1"], ValueError, "reconstruction is defined for finite vectors only"),
        (["0", "1"], ValueError, "expected 3 coordinates for n = 4"),
        ([0, 1.5, 1.5], TypeError, "floats are not exact"),
    ],
    ids=["infinite-entry", "wrong-length", "float-entry"],
)
def test_reconstruct_rejects_raw_inputs(entries, error, message):
    with pytest.raises(error, match=re.escape(message)):
        reconstruct(entries, 4)


def test_embedding_injective_roundtrip(rng):
    for n in (5, 6, 7):
        for _ in range(80):
            x = random_point(rng, n, dim=rng.randint(0, n - 3))
            assert reconstruct(embed(x), n) == x
    for n in range(12, 17):
        for i in range(4):
            x = random_tree_point(rng, n, dim=rng.randint(0, n - 3) if i % 2 else None)
            assert reconstruct(embed(x), n) == x


def _outcome(recover, vector, n):
    try:
        return recover(vector, n)
    except NotInImage as exc:
        return f"NotInImage: {exc}"


RAYS = ((0, 1, 1), (1, 0, -1), (-1, -1, 0))  # the rays of M_{0,4}
REFUSED = "NotInImage: re-embedding the candidate point does not reproduce the vector"


def test_candidate_tree_decides_every_image_vector(rng):
    """Every image vector comes back to its point: reconstruct has no other
    path, so the candidate read off the quartets {1,2,i,j} is certified on
    its own."""
    points = [ModuliPoint.of(n, {}) for n in (4, 5, 9)]  # the zero vectors
    points += [ray_point(4, side, Fraction(7, 2)) for side in ((3, 4), (2, 4), (2, 3))]
    points += [  # a single split
        ModuliPoint.of(n, {side: Fraction(5, 3)})
        for n, side in ((5, (2, 3)), (6, (2, 5)), (9, (3, 4, 5, 6, 7)), (16, (15, 16)))
    ]
    for n in range(4, 17):
        for i in range(6):  # fully trivalent, then partly contracted
            dim = rng.randint(0, n - 4) if i % 2 else None
            points.append(random_tree_point(rng, n, dim=dim))
    for x in points:
        assert reconstruct(embed(x), x.n) == x


def _near_images(rng, image, n):
    """One quartet's topology flipped, one zeroed, one's value shrunk."""
    quartets = comb(n, 4)
    cut = [q for q in range(quartets) if any(image[3 * q : 3 * q + 3])]
    if not cut:
        return []
    q = rng.choice(cut)
    triple = image[3 * q : 3 * q + 3]
    size = max(abs(e) for e in triple)
    ray = rng.choice([ray for ray in RAYS if ray.index(0) != triple.index(0)])
    flipped = list(image)
    flipped[3 * q : 3 * q + 3] = [size * e for e in ray]
    zeroed = list(image)
    q = rng.choice(cut)
    zeroed[3 * q : 3 * q + 3] = [Fraction(0)] * 3
    shrunk = list(image)
    q = rng.choice(cut)
    shrunk[3 * q : 3 * q + 3] = [e / rng.randint(2, 5) for e in image[3 * q : 3 * q + 3]]
    return [flipped, zeroed, shrunk]


def _candidate_outcome(vector, n):
    """The candidate's sides (without leaf 1) and lengths, as the oracle's."""
    denominator, scaled = moduli._over_common_denominator(vector)
    found = moduli._candidate_splits(scaled, n)
    return {tuple(sorted(s.side)): Fraction(least, denominator) for s, least in found.items()}


def test_leaf_by_leaf_recovery_matches_exhaustive_scan(rng):
    """The splits read leaf by leaf off the quartets {1,2,i,j} are those of
    scanning every bipartition, with the same lengths, on images; and
    reconstruct gives the same point, or the same NotInImage, as the scan on
    images and on vectors just outside the image: one quartet's topology
    flipped, zeroed or its value shrunk."""
    for n in range(4, 10):
        for _ in range(25):
            image = list(embed(random_tree_point(rng, n, dim=rng.randint(0, n - 3))).entries)
            assert _candidate_outcome(image, n) == oracles.exhaustive_splits(image, n)
            for vector in [image, *_near_images(rng, image, n)]:
                assert _outcome(reconstruct, vector, n) == _outcome(
                    oracles.exhaustive_reconstruct, vector, n
                )


def test_near_image_vectors_reach_the_search(rng, monkeypatch):
    """A vector reaches the search for its refusal (``_refusal``) exactly
    when it is off the image, and then gets the exhaustive scan's outcome;
    the message names a quartet not of the form (0, m, +-m) or the
    re-embedding, and both occur."""
    refusal = moduli._refusal
    searched = []

    def counted(*args):
        searched.append(args)
        return refusal(*args)

    monkeypatch.setattr(moduli, "_refusal", counted)
    refusals = []
    for n in range(4, 10):
        for _ in range(25):
            image = list(embed(random_tree_point(rng, n, dim=rng.randint(0, n - 3))).entries)
            for vector in [image, *_near_images(rng, image, n)]:
                searched.clear()
                outcome = _outcome(reconstruct, vector, n)
                assert outcome == _outcome(oracles.exhaustive_reconstruct, vector, n)
                assert bool(searched) == isinstance(outcome, str)
                if searched:
                    refusals.append(outcome if outcome == REFUSED else outcome[:21])
    assert len(refusals) > 200
    assert set(refusals) == {REFUSED, "NotInImage: quartet ("}


def test_reconstruct_names_the_first_quartet_not_of_the_form():
    """Two quartets not of the form (0, m, +-m), either one first: the vector
    is refused at the first in coordinate order, with the exhaustive scan's
    message.  No zero, two zeros and unequal sizes each break the form."""
    image = list(embed(ModuliPoint.of(6, {(5, 6): 1, (4, 5, 6): Fraction(1, 3)})).entries)
    quartets = list(itertools.combinations(range(1, 7), 4))
    for bad in ((1, 1, 1), (0, 0, 2), (0, 1, 2), (-3, 0, 1)):
        for q, r in ((2, 11), (11, 2)):
            vector = list(image)
            vector[3 * q : 3 * q + 3] = map(Fraction, bad)
            vector[3 * r : 3 * r + 3] = map(Fraction, (2, -2, 2))
            outcome = _outcome(reconstruct, vector, 6)
            assert outcome.startswith(f"NotInImage: quartet {quartets[2]}: ")
            assert outcome == _outcome(oracles.exhaustive_reconstruct, vector, 6)


def test_link_graph_is_petersen():
    graph = link_graph(5)
    assert len(graph.vertices) == 10
    assert len(graph.edges) == 15
    assert set(graph.degrees()) == {3}
    assert oracles.girth(10, graph.edges) == 5


def test_link_graph_n6():
    graph = link_graph(6)
    assert len(graph.vertices) == 25
    assert len(graph.edges) == len(enumerate_types(6, 2))
    with pytest.raises(ValueError):
        link_graph(4)


@pytest.mark.parametrize("n", range(5, 10))
def test_link_graph_matches_pairwise_compatibility(n):
    # independent of the type stream: rays i < j are joined exactly when
    # their splits are compatible, edges in lexicographic order
    sides = sorted(
        tuple(c) for k in range(2, n - 1) for c in itertools.combinations(range(2, n + 1), k)
    )
    splits = [Split.of(n, side) for side in sides]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(splits)), 2)
        if splits[i].compatible_with(splits[j])
    ]
    graph = link_graph(n)
    assert [t.splits for t in graph.vertices] == [(s,) for s in splits]
    assert list(graph.edges) == edges
    assert list(graph.quadrants) == [
        CombinatorialType.of(n, [sides[i], sides[j]]) for i, j in edges
    ]


def test_embedding_vector_validation():
    with pytest.raises(ValueError):
        EmbeddingVector(4, (1, 2))
    vec = EmbeddingVector(4, ("0", "1", "1"))
    assert vec.entries == (0, 1, 1)
    assert vec.entry(RatioIndex((1, 3), (2, 4))) == 1

import random
import re

import pytest

from tropmod import trees
from tropmod.divisors import _moduli_reports, check_smooth_local
from tropmod.errors import IncompatibleSplit, NotCodimensionOne, SplitAbsent
from tropmod.trees import (
    CombinatorialType,
    Split,
    contract,
    count_rays,
    enumerate_types,
    resolutions,
    to_tree,
    valence_profile,
)

import oracles


def test_split_canonical_side():
    s = Split.of(5, (1, 2))  # given the side containing label 1
    assert s.side == frozenset({3, 4, 5})
    assert s.text == "345"
    assert Split.of(5, (4, 5)) == Split.of(5, (1, 2, 3))


def test_equal_splits_hash_equal_from_either_side():
    for n in (4, 5, 8, 11):
        labels = range(1, n + 1)
        for side in ((2, 3), (1, n), tuple(range(2, n))):
            a = Split.of(n, side)
            b = Split.of(n, set(labels) - set(side))
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
    odd = Split.of((2, 5, 7, 9), (2, 5))
    assert odd == Split.of((2, 5, 7, 9), (7, 9)) and hash(odd) == hash(Split.of((2, 5, 7, 9), (7, 9)))


def test_split_mask_is_the_side_as_bits():
    for n in range(4, 9):
        enumerate_types(n, 1)  # every split at n is a ray and joins the pool
        pool = trees._pools[n]
        assert len(pool) == count_rays(n)
        for mask, s in pool.items():
            assert mask == s.mask == sum(1 << x for x in s.side)


def test_split_size_bounds():
    with pytest.raises(ValueError):
        Split.of(4, (2,))
    with pytest.raises(ValueError):
        Split.of(4, (2, 3, 4))


def test_incompatible_splits_rejected():
    with pytest.raises(IncompatibleSplit):
        CombinatorialType.of(5, [(2, 3), (3, 4)])


def test_enumerate_small_counts():
    assert [t.key for t in enumerate_types(4, 1)] == [((2, 3),), ((2, 4),), ((3, 4),)]
    assert len(enumerate_types(5, 2)) == 15
    assert len(enumerate_types(5, 0)) == 1
    assert len(enumerate_types(6, 3)) == 105
    with pytest.raises(ValueError):
        enumerate_types(5, 3)
    with pytest.raises(ValueError):
        enumerate_types(5, -1)


def _prufer(n, dim):
    """Split systems with ``dim`` splits on n leaves from the Prüfer oracle."""
    if dim == n - 3:  # trivalent: the faster oracle
        return oracles.prufer_trivalent_types(n)
    return oracles.prufer_types(n, internal=dim + 1)


def _double_factorial(m):
    out = 1
    for odd in range(m, 0, -2):
        out *= odd
    return out


def test_trivalent_counts_match_double_factorial_and_prufer():
    for n in range(4, 9):
        facets = enumerate_types(n, n - 3)
        assert len(facets) == _double_factorial(2 * n - 5)
        assert len(enumerate_types(n, n - 4)) == len(facets) * (n - 3) // 3
        if n <= 7:
            assert {oracles.type_to_sides(t) for t in facets} == _prufer(n, n - 3)


def test_all_dimensions_match_prufer_oracle():
    # no dedup set collects the types, so a duplicate shows only in the length
    for n in range(4, 8):
        for dim in range(n - 2):
            types = enumerate_types(n, dim)
            keys = [t.key for t in types]
            assert len(set(keys)) == len(keys) == len(_prufer(n, dim))
            assert keys == sorted(keys)
            assert {oracles.type_to_sides(t) for t in types} == _prufer(n, dim)


def test_count_types_is_the_number_enumerated():
    for n in range(3, 9):
        for dim in range(n - 2):
            assert trees._count_types(n, dim) == len(enumerate_types(n, dim))
    assert trees._count_types(5, 3) == trees._count_types(5, -1) == 0


def test_count_types_needs_no_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("a type was made")

    monkeypatch.setattr(trees, "_stream_types", refuse)
    monkeypatch.setattr(trees, "_search", refuse)
    counts = {(9, 5): 270_270, (9, 6): 135_135, (10, 6): 4_729_725, (10, 7): 2_027_025}
    for (n, dim), count in counts.items():
        assert trees._count_types(n, dim) == count


def test_count_types_matches_the_full_triangle():
    # every entry c(m, d) of the recurrence, written out: no band is skipped
    triangle = {(3, 0): 1}
    for m in range(4, 41):
        for d in range(m - 2):
            triangle[m, d] = (d + 1) * triangle.get((m - 1, d), 0) + (m + d - 2) * triangle.get(
                (m - 1, d - 1), 0
            )
    for n in range(3, 41):
        for dim in range(-1, n - 1):
            assert trees._count_types(n, dim) == triangle.get((n, dim), 0)


def test_count_types_near_the_facets_at_n_2000():
    n = 2000
    facets = 1  # (2n-5)!!
    for k in range(3, 2 * n - 4, 2):
        facets *= k
    assert trees._count_types(n, n - 3) == facets
    assert trees._count_types(n, n - 4) == (n - 3) * facets // 3


@pytest.mark.parametrize("dim", [4, 5])
def test_stream_at_n_8_is_every_type_once_in_key_order(dim):
    # distinct valid types at the right count are all the types
    keys = []
    for t in trees._stream_types(8, dim):
        rebuilt = CombinatorialType(t.labels, t.splits)  # the checked constructor
        assert rebuilt == t and hash(rebuilt) == hash(t)
        # the pick order is the key order the checked constructor sorts into
        assert t.splits == rebuilt.splits == tuple(sorted(t.splits, key=lambda s: s.key))
        assert (t.key, t.text) == (rebuilt.key, rebuilt.text)
        assert t.dim == dim
        keys.append(t.key)
    assert all(a < b for a, b in zip(keys, keys[1:]))
    assert len(keys) == trees._count_types(8, dim)


def test_stream_checks_its_arguments_when_called():
    for n, dim in ((2, 0), (5, 3), (5, -1), (4.0, 1)):
        with pytest.raises(ValueError):
            trees._stream_types(n, dim)
    with pytest.raises(ValueError):
        _moduli_reports(3)  # not at the first next()


def test_pool_is_filled_lazily_and_shared_by_every_dimension(monkeypatch):
    monkeypatch.setattr(trees, "_pools", {})
    enumerate_types(8, 0)  # the star has no split, so none is made
    assert trees._pools.get(8, {}) == {}
    enumerate_types(8, 1)
    # rays at n need nothing at n-1
    assert set(trees._pools) == {8} and len(trees._pools[8]) == count_rays(8)

    # every dimension at n = 7 draws on one object per split
    ids = {id(s) for dim in range(5) for t in enumerate_types(7, dim) for s in t.splits}
    assert len(ids) == count_rays(7)
    assert ids == {id(s) for s in trees._pools[7].values()}


def test_count_rays():
    assert count_rays(4) == 3
    assert count_rays(5) == 10
    assert count_rays(6) == 25
    for n in range(4, 9):
        assert count_rays(n) == len(enumerate_types(n, 1)) == 2 ** (n - 1) - n - 1


def test_contract_is_face():
    for t in enumerate_types(5, 2):
        for s in t.splits:
            face = contract(t, s)
            assert face.splits == tuple(u for u in t.splits if u != s)
    origin4 = contract(enumerate_types(4, 1)[2], Split.of(4, (3, 4)))
    assert origin4.dim == 0
    with pytest.raises(SplitAbsent):
        contract(origin4, Split.of(4, (3, 4)))


def test_resolutions_of_the_tripod_vertex():
    origin = CombinatorialType.of(4)
    res = resolutions(origin)
    assert {next(iter(t.splits)).key for t in res} == {(2, 3), (2, 4), (3, 4)}


def test_resolutions_contract_roundtrip():
    for n in (5, 6):
        for tau in enumerate_types(n, n - 4):
            res = resolutions(tau)
            assert len(res) == 3
            for rho in res:
                assert rho.is_trivalent
                extra = set(rho.splits) - set(tau.splits)
                assert len(extra) == 1
                assert contract(rho, next(iter(extra))) == tau


def test_resolutions_match_brute_force_oracle():
    rng = random.Random(4)
    for n in range(4, 8):
        for tau in enumerate_types(n, n - 4):
            # also on other leaf sets: labels that move the anchor, and a
            # shift that keeps it
            types = [tau]
            for image in (rng.sample(range(1, 4 * n), n), range(5, n + 5)):
                relabel = dict(zip(range(1, n + 1), image))
                sides = [[relabel[x] for x in s.side] for s in tau.splits]
                types.append(CombinatorialType.of(relabel.values(), sides))
            for t in types:
                res = resolutions(t)
                assert list(res) == oracles.brute_force_resolutions(t)
                for rho in res:
                    assert CombinatorialType(rho.labels, rho.splits) == rho


def test_resolution_splits_are_pooled():
    for n in range(5, 9):
        rays = {s.mask: s for t in enumerate_types(n, 1) for s in t.splits}
        pool = trees._pools[n]
        for tau in enumerate_types(n, n - 4):
            for s in trees._resolution_splits(tau.labels, trees._branch_masks(tau)):
                assert s is pool[s.mask] is rays[s.mask]
    # on labels other than 1..n an equal side in the pool is another split
    tau = CombinatorialType.of([2, 3, 4, 5, 6], [(5, 6)])
    splits = trees._resolution_splits(tau.labels, trees._branch_masks(tau))
    assert [s.key for s in splits] == [(3, 4), (3, 5, 6), (4, 5, 6)]
    assert all(s.labels == tau.labels for s in splits)


def test_branch_masks_are_the_four_branches():
    for n in range(4, 9):
        for t in enumerate_types(n, n - 4):
            branches = trees._branch_masks(t)
            expected = _realized_four_branches(t)
            assert branches == _masks(expected)
            splits = trees._resolution_splits(t.labels, branches)
            _, b, c, d = expected
            joined = [Split(t.labels, side) for side in (c | d, b | d, b | c)]
            assert splits == tuple(sorted(joined, key=lambda s: s.key))
            assert all(s is trees._pools[n][s.mask] for s in splits)
    with pytest.raises(NotCodimensionOne):
        trees._branch_masks(enumerate_types(6, 3)[0])


def test_pooled_resolutions_follow_a_rebuilt_pool(monkeypatch):
    monkeypatch.setattr(trees, "_pools", {})
    # the origin at n = 4 has no splits, so its resolutions join the pool
    origin = enumerate_types(4, 0)[0]
    splits = trees._resolution_splits(origin.labels, trees._branch_masks(origin))
    assert [s.key for s in splits] == [(2, 3), (2, 4), (3, 4)]
    assert all(s is trees._pools[4][s.mask] for s in splits)
    # the rays enumerated after them are them
    rays = [next(iter(t.splits)) for t in enumerate_types(4, 1)]
    assert all(r is s for r, s in zip(rays, splits)) and len(rays) == 3
    for t in enumerate_types(6, 2):
        for s in trees._resolution_splits(t.labels, trees._branch_masks(t)):
            assert s is trees._pools[6][s.mask]


def test_smoothness_at_n_40_makes_only_the_splits_it_touches(monkeypatch):
    monkeypatch.setattr(trees, "_pools", {})
    n = 40
    # blocks of 2, 4, ..., 32 leaves from leaf 2 on, and {34..39}: the one
    # 4-valent vertex joins 1, {2..33}, {34..39} and 40.  Small blocks keep
    # the dense directions at n = 40 cheap
    blocks = [range(a, a + size) for size in (2, 4, 8, 16, 32) for a in range(2, n - size + 1, size)]
    tau = CombinatorialType.of(n, blocks + [range(34, 40)])
    assert tau.dim == n - 4
    report = check_smooth_local(n, tau)
    assert report.balanced and report.smooth
    # the three resolutions, not the 2^39 - 41 splits on 1..40
    assert set(trees._pools) == {n}
    pool = trees._pools[n]
    assert sorted(pool) == sorted(s.mask for s in report.extra_splits)
    assert all(pool[s.mask] is s for s in report.extra_splits)


def test_resolutions_rejects_other_profiles():
    with pytest.raises(NotCodimensionOne):
        resolutions(enumerate_types(5, 2)[0])  # trivalent
    with pytest.raises(NotCodimensionOne):
        resolutions(CombinatorialType.of(5))  # 5-valent star


def _realized_four_branches(t):
    """The branches at the 4-valent vertex of the realized tree, or the error."""
    tree = to_tree(t)
    vals = tree.valences()
    if sorted(vals) != [3] * (len(vals) - 1) + [4]:
        return f"valence profile {tuple(sorted(vals))} has no unique 4-valent vertex"
    return tree.branches(vals.index(4))


def _masks(branches):
    """The branches as bitmasks; an error message passes through."""
    if isinstance(branches, str):
        return branches
    return [sum(1 << x for x in b) for b in branches]


def _mask_four_branches(t):
    try:
        return trees._branch_masks(t)
    except NotCodimensionOne as exc:
        return str(exc)


def test_four_branches_match_the_realized_tree():
    for n in range(4, 9):
        types = enumerate_types(n, n - 4)
        for t in types:
            branches = trees._branch_masks(t)
            assert branches == _masks(_realized_four_branches(t))
            assert len(branches) == 4
    # leaf labels other than 1..n
    for sides in ([(2, 5)], [(2, 5), (11, 12)], [(9, 11, 12), (11, 12)]):
        t = CombinatorialType.of((2, 5, 7, 9, 11, 12), sides)
        assert _mask_four_branches(t) == _masks(_realized_four_branches(t))


def test_four_branches_reject_every_other_type():
    for n in range(3, 8):
        for dim in range(n - 2):
            if dim == n - 4:
                continue
            for t in enumerate_types(n, dim):
                message = _realized_four_branches(t)
                assert isinstance(message, str)
                with pytest.raises(NotCodimensionOne, match=rf"^{re.escape(message)}$"):
                    trees._branch_masks(t)
    for sides in ([], [(2, 5), (11, 12)], [(2, 5), (2, 5, 7), (11, 12), (11, 12, 14)]):
        t = CombinatorialType.of((2, 5, 7, 9, 11, 12, 14), sides)
        message = _realized_four_branches(t)
        assert isinstance(message, str) and _mask_four_branches(t) == message


def test_vertex_reader_matches_the_realized_tree():
    # every vertex of every type, as its valence and branches
    for n in range(3, 8):
        for dim in range(n - 2):
            for t in enumerate_types(n, dim):
                tree = to_tree(t)
                masks, vals, parents = trees._vertices(t)
                read = [(val, trees._branches_at(masks, parents, v)) for v, val in enumerate(vals)]
                realized = [(v.valence, _masks(tree.branches(i))) for i, v in enumerate(tree.vertices)]
                assert sorted(read) == sorted(realized)


def test_to_tree_examples():
    # one split 45|123: a 3-valent vertex with leaves 4,5; a 4-valent with 1,2,3
    t = CombinatorialType.of(5, [(4, 5)])
    tree = to_tree(t)
    leafsets = sorted(tuple(sorted(v.leaves)) for v in tree.vertices)
    assert leafsets == [(1, 2, 3), (4, 5)]
    assert valence_profile(t) == (3, 4)

    star = CombinatorialType.of(4)
    assert valence_profile(star) == (4,)

    caterpillar = CombinatorialType.of(5, [(3, 4, 5), (4, 5)])
    assert valence_profile(caterpillar) == (3, 3, 3)
    assert valence_profile(CombinatorialType.of(5)) == (5,)


def test_tree_realizes_its_splits():
    # cutting the edge of each split separates the leaves exactly as stored;
    # vertex 0 is the root, vertex i the child end of the i-th split by key
    for n in range(4, 8):
        for dim in range(n - 2):
            for t in enumerate_types(n, dim):
                tree = to_tree(t)
                ordered = sorted(t.splits, key=lambda s: s.key)
                assert [(s, c) for s, _, c in tree.edges] == list(zip(ordered, range(1, dim + 1)))
                assert min(t.labels) in tree.vertices[0].leaves
                adjacency = {}
                for split, p, c in tree.edges:
                    adjacency.setdefault(p, []).append((c, split))
                    adjacency.setdefault(c, []).append((p, split))
                for split, p, c in tree.edges:
                    seen = {c}
                    stack = [c]
                    while stack:
                        v = stack.pop()
                        for w, via in adjacency.get(v, ()):  # walk away from the cut edge
                            if via != split and w not in seen:
                                seen.add(w)
                                stack.append(w)
                    leaves = frozenset().union(*(tree.vertices[v].leaves for v in seen))
                    assert leaves == split.side


def test_vertex_and_valence_bookkeeping():
    for n in (5, 6, 7):
        for dim in range(n - 2):
            for t in enumerate_types(n, dim):
                tree = to_tree(t)
                assert len(tree.vertices) == len(t.splits) + 1
                assert sum(tree.valences()) == n + 2 * len(t.splits)


def test_branches_partition_the_leaves():
    t = CombinatorialType.of(6, [(2, 3), (5, 6)])
    tree = to_tree(t)
    for idx in range(len(tree.vertices)):
        branches = tree.branches(idx)
        assert len(branches) == tree.vertices[idx].valence
        union = set().union(*branches)
        assert union == set(t.labels)
        assert sum(len(b) for b in branches) == t.n

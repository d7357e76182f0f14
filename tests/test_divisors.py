import pytest

from tropmod.divisors import (
    WeightedFan,
    canonical_divisor,
    check_balanced,
    check_psi_balanced,
    check_smooth_local,
    moduli_fan,
    psi_divisor,
)
from tropmod.errors import NotCodimensionOne, NotPure
from tropmod.moduli import RatioIndex, canonical_coordinates, direction_vector
from tropmod.trees import CombinatorialType, enumerate_types, to_tree


def test_moduli_fan_counts():
    assert len(moduli_fan(4).cones) == 3
    assert len(moduli_fan(5).cones) == 15
    assert len(moduli_fan(6).cones) == 105
    assert moduli_fan(5).dim == 2
    assert all(w == 1 for _, w in moduli_fan(5).cones)


def test_fan_purity_enforced():
    t2 = enumerate_types(5, 2)[0]
    t1 = enumerate_types(5, 1)[0]
    with pytest.raises(NotPure):
        WeightedFan(n=5, dim=2, cones=((t2, 1), (t1, 1)))
    with pytest.raises(ValueError):
        WeightedFan(n=5, dim=2, cones=((t2, 0),))


def test_m04_fan_balanced_with_zero_sum():
    reports = check_balanced(moduli_fan(4))
    assert len(reports) == 1
    rep = reports[0]
    assert rep.face.dim == 0
    assert rep.balanced
    assert not any(rep.weighted_sum)
    directions = {s.key: direction_vector(rep.face, s) for s in rep.extra_splits}
    assert directions[(3, 4)] == (0, 1, 1)
    assert directions[(2, 4)] == (1, 0, -1)
    assert directions[(2, 3)] == (-1, -1, 0)


def test_moduli_fans_balanced():
    for n in (4, 5, 6):
        assert all(rep.balanced for rep in check_balanced(moduli_fan(n)))


def test_two_rays_of_m04_unbalanced():
    rays = {next(iter(t.splits)).key: t for t in enumerate_types(4, 1)}
    broken = WeightedFan.of(4, ((rays[(3, 4)], 1), (rays[(2, 4)], 1)))
    reports = check_balanced(broken)
    assert len(reports) == 1
    assert reports[0].balanced is False


def test_smooth_local_examples():
    rep4 = check_smooth_local(4, CombinatorialType.of(4))
    assert rep4.smooth and rep4.balanced and not any(rep4.weighted_sum)
    for tau in enumerate_types(5, 1):
        rep = check_smooth_local(5, tau)
        assert rep.smooth and rep.balanced
    with pytest.raises(NotCodimensionOne):
        check_smooth_local(5, CombinatorialType.of(5))  # 5-valent star
    with pytest.raises(NotCodimensionOne):
        check_smooth_local(5, enumerate_types(5, 2)[0])  # trivalent
    with pytest.raises(ValueError, match="leaf labels 1..n"):
        check_smooth_local(5, CombinatorialType.of([2, 3, 4, 5, 6], [(5, 6)]))


def test_smooth_local_all_codim_one_n6():
    for tau in enumerate_types(6, 2):
        assert check_smooth_local(6, tau).smooth


def test_psi_divisor_m05():
    fan = psi_divisor(5, 1)
    sides = {next(iter(t.splits)).key for t, _ in fan.cones}
    assert sides == {(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)}
    assert all(w == 1 for _, w in fan.cones)


def test_psi_divisor_m04_is_the_origin():
    for k in (1, 2, 3, 4):
        fan = psi_divisor(4, k)
        assert fan.dim == 0
        assert [t.dim for t, _ in fan.cones] == [0]


def test_psi_divisor_counts_by_adjacency():
    from tropmod.trees import to_tree

    for n in (5, 6):
        sizes = []
        for k in range(1, n + 1):
            sizes.append(len(psi_divisor(n, k).cones))
        # summing over k counts each codimension-1 type once per leaf at its
        # 4-valent vertex
        total = 0
        for t in enumerate_types(n, n - 4):
            tree = to_tree(t)
            heavy = next(v for v in tree.vertices if v.valence == 4)
            total += len(heavy.leaves)
        assert sum(sizes) == total
        assert len(set(sizes)) == 1  # relabeling symmetry


def test_psi_gradient_tables_m05():
    coords = canonical_coordinates(5)
    fan = psi_divisor(5, 1)
    rays = {next(iter(t.splits)).key: t for t, _ in fan.cones}

    def gradient(r: RatioIndex, key):
        t = rays[key]
        s = next(iter(t.splits))
        return direction_vector(t, s)[coords.index(r)]

    r = RatioIndex((2, 3), (4, 5))
    assert gradient(r, (2, 4)) == 1 and gradient(r, (3, 5)) == 1
    assert gradient(r, (2, 5)) == -1 and gradient(r, (3, 4)) == -1
    assert gradient(r, (2, 3)) == 0 and gradient(r, (4, 5)) == 0

    r = RatioIndex((1, 2), (3, 4))
    for key in ((3, 4), (3, 5), (4, 5), (2, 5)):
        assert gradient(r, key) == 0
    assert gradient(r, (2, 4)) == 1
    assert gradient(r, (2, 3)) == -1


def test_psi_gradient_sum_vanishes_m05():
    fan = psi_divisor(5, 1)
    total = [0] * 15
    for t, w in fan.cones:
        s = next(iter(t.splits))
        for i, v in enumerate(direction_vector(t, s)):
            total[i] += w * v
    assert not any(total)


def test_psi_balanced():
    for k in range(1, 6):
        assert all(rep.balanced for rep in check_psi_balanced(5, k))
    assert all(rep.balanced for rep in check_psi_balanced(6, 1))
    with pytest.raises(ValueError):
        check_psi_balanced(4, 1)


def test_psi_symmetry_under_relabeling():
    # swapping labels 1 and 2 maps psi_1 cone-by-cone onto psi_2
    def swap(t: CombinatorialType) -> CombinatorialType:
        perm = {1: 2, 2: 1, 3: 3, 4: 4, 5: 5}
        return CombinatorialType.of(5, [[perm[v] for v in s.side] for s in t.splits])

    image = {swap(t).key for t, _ in psi_divisor(5, 1).cones}
    assert image == {t.key for t, _ in psi_divisor(5, 2).cones}


def test_canonical_divisor():
    trivalent = enumerate_types(5, 2)[0]
    assert sorted(canonical_divisor(trivalent).values()) == [1, 1, 1]
    star = CombinatorialType.of(5)
    assert sorted(canonical_divisor(star).values()) == [3]
    ray = enumerate_types(5, 1)[0]
    assert sorted(canonical_divisor(ray).values()) == [1, 2]


def test_psi_divisor_cones_hang_leaf_k_off_the_four_valent_vertex():
    for n in range(5, 8):
        codim_one = enumerate_types(n, n - 4)
        for k in range(1, n + 1):
            expected = []
            for t in codim_one:
                tree = to_tree(t)
                if k in tree.vertices[tree.valences().index(4)].leaves:
                    expected.append(t)
            fan = psi_divisor(n, k)
            assert [t for t, _ in fan.cones] == expected
            assert all(weight == 1 for _, weight in fan.cones)

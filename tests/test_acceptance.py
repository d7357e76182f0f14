"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything here is exact (no tolerances); run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time
from math import comb

from tropmod.divisors import (
    check_balanced,
    check_psi_balanced,
    check_smooth_local,
    moduli_fan,
    psi_divisor,
)
from tropmod.lattice import primitive
from tropmod.maps import forget, section
from tropmod.moduli import (
    ModuliPoint,
    RatioIndex,
    canonical_coordinates,
    direction_vector,
    double_ratio,
    embed,
    link_graph,
    reconstruct,
)
from tropmod.moduli import _sigma
from tropmod.trees import enumerate_types

import oracles
from conftest import random_length, random_point


def report(criterion: int, text: str):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_01_m04_embedding():
    images = {}
    for t in enumerate_types(4, 1):
        s = next(iter(t.splits))
        images[s.key] = embed(ModuliPoint.of(t, {s: 1})).entries
    assert images[(3, 4)] == (0, 1, 1)  # the split 12|34
    assert images[(2, 4)] == (1, 0, -1)  # the split 13|24
    assert images[(2, 3)] == (-1, -1, 0)  # the split 14|23
    total = tuple(sum(col) for col in zip(*images.values()))
    assert total == (0, 0, 0)
    report(1, "ray images (0,1,1), (1,0,-1), (-1,-1,0) with zero sum, exact")


def test_02_facet_and_ray_counts():
    start = time.time()
    assert len(enumerate_types(5, 2)) == 15
    assert len(enumerate_types(5, 1)) == 10
    assert len(enumerate_types(6, 3)) == 105
    assert len(enumerate_types(7, 4)) == 945
    for n in (6, 7):
        ours = {oracles.type_to_sides(t) for t in enumerate_types(n, n - 3)}
        assert ours == oracles.prufer_trivalent_types(n)
    assert time.time() - start < 10
    report(2, "counts 15/10/105/945 match the Prufer-sequence oracle")


def test_03_petersen_link():
    graph = link_graph(5)
    assert len(graph.vertices) == 10
    assert len(graph.edges) == 15
    assert set(graph.degrees()) == {3}
    assert oracles.girth(len(graph.vertices), graph.edges) == 5
    report(3, "link of the origin for n=5 is 3-regular on 10 vertices, girth 5")


def test_04_psi1_in_m05():
    fan = psi_divisor(5, 1)
    rays = {next(iter(t.splits)).key: t for t, _ in fan.cones}
    assert set(rays) == {(2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)}

    coords = canonical_coordinates(5)
    position = {r: i for i, r in enumerate(coords)}

    r1 = RatioIndex((2, 3), (4, 5))
    expected1 = {(2, 4): 1, (3, 5): 1, (2, 5): -1, (3, 4): -1, (2, 3): 0, (4, 5): 0}
    for key, value in expected1.items():
        t = rays[key]
        s = next(iter(t.splits))
        assert direction_vector(t, s)[position[r1]] == value

    r2 = RatioIndex((1, 2), (3, 4))
    expected2 = {(3, 4): 0, (3, 5): 0, (4, 5): 0, (2, 5): 0, (2, 4): 1, (2, 3): -1}
    for key, value in expected2.items():
        t = rays[key]
        s = next(iter(t.splits))
        assert direction_vector(t, s)[position[r2]] == value

    total = [0] * 15
    for t, w in fan.cones:
        s = next(iter(t.splits))
        for i, v in enumerate(direction_vector(t, s)):
            total[i] += w * v
    assert total == [0] * 15
    report(4, "psi_1 rays {23,24,25,34,35,45}; gradient tables and zero sum, exact")


def test_05_balancing_and_smoothness_n4_to_n7():
    start = time.time()
    for n in range(4, 8):
        reports = check_balanced(moduli_fan(n))
        assert len(reports) == len(enumerate_types(n, n - 4))
        assert all(rep.balanced for rep in reports)
        for tau in enumerate_types(n, n - 4):
            rep = check_smooth_local(n, tau)
            assert rep.balanced and rep.smooth
            for extra in rep.extra_splits:
                direction = direction_vector(tau, extra)
                assert primitive(direction) == direction
    elapsed = time.time() - start
    assert elapsed < 120
    report(5, f"balancing + integral smoothness at every codim-1 type, n=4..7 ({elapsed:.1f}s)")


def test_06_psi_balancing_n5_n6():
    start = time.time()
    for n in (5, 6):
        for k in range(1, n + 1):
            reports = check_psi_balanced(n, k)
            assert reports, "psi divisor has faces to check"
            assert all(rep.balanced for rep in reports)
    elapsed = time.time() - start
    assert elapsed < 60
    report(6, f"psi divisors balanced at all codim-2 faces, n=5,6, all k ({elapsed:.1f}s)")


def test_07_embedding_injectivity():
    start = time.time()
    rng = random.Random(70707)
    for n in range(5, 9):
        facets = enumerate_types(n, n - 3)
        for _ in range(1000):
            t = rng.choice(facets)
            x = ModuliPoint.of(t, {s: random_length(rng) for s in t.splits})
            assert reconstruct(embed(x), n) == x
    elapsed = time.time() - start
    assert elapsed < 120
    report(7, f"reconstruct(embed(x)) = x for 1000 random points per n=5..8 ({elapsed:.1f}s)")


def test_08_double_ratio_oracle_equivalence():
    start = time.time()
    rng = random.Random(80808)
    for _ in range(10_000):
        n = rng.choice((5, 6, 7))
        x = random_point(rng, n, dim=rng.randint(1, n - 3))
        r = rng.choice(canonical_coordinates(n))
        assert double_ratio(x, r) == oracles.path_double_ratio(x, r)
    elapsed = time.time() - start
    assert elapsed < 60
    report(8, f"sigma formula equals path-intersection oracle on 10^4 samples ({elapsed:.1f}s)")


def test_09_section_identity():
    start = time.time()
    rng = random.Random(90909)
    for n in (4, 5, 6, 7):
        for _ in range(500):
            x = random_point(rng, n, dim=rng.randint(0, n - 3))
            for k in sorted(x.labels):
                assert forget(section(x, k), n + 1) == x
    elapsed = time.time() - start
    assert elapsed < 30
    report(9, f"forget(section(x,k), n+1) = x for 500 points per n=4..7, all k ({elapsed:.1f}s)")


def test_10_quartet_and_same_sign_invariants():
    start = time.time()
    rng = random.Random(101010)
    for _ in range(10_000):
        n = rng.choice((5, 6, 7))
        x = random_point(rng, n, dim=rng.randint(0, n - 3))
        entries = embed(x).entries
        quad = rng.randrange(comb(n, 4))
        triple = entries[3 * quad : 3 * quad + 3]
        zeros = sum(1 for v in triple if v == 0)
        if zeros < 3:
            assert zeros == 1
            a, b = [v for v in triple if v != 0]
            assert abs(a) == abs(b) > 0
        r = rng.choice(canonical_coordinates(n))
        signs = {_sigma(s, r) for s, _ in x.lengths} - {0}
        assert len(signs) <= 1
    elapsed = time.time() - start
    assert elapsed < 60
    report(10, f"quartet pattern and same-sign invariants on 10^4 embeddings ({elapsed:.1f}s)")

"""Every path that makes a combinatorial type stores its splits as one tuple
in key order, so one split set gives one type, with one hash, however it
was made."""

import json
import random
from pathlib import Path

import pytest

from tropmod.divisors import (
    BalancingReport,
    _face_reports,
    _moduli_reports,
    _psi_reports,
    span_witness,
    verify_witness,
)
from tropmod.maps import decompose_boundary, forget, forget_cone, relabel, section
from tropmod.moduli import ModuliPoint, _split_direction, embed, reconstruct
from tropmod.serialization import fan_from_json
from tropmod.trees import (
    CombinatorialType,
    Split,
    _stream_types,
    _with_split,
    contract,
    resolutions,
)

from conftest import random_tree_point

FAN = Path(__file__).with_name("fan_n6_weight2.json")


def assert_key_order(t):
    assert type(t.splits) is tuple
    keys = [s.key for s in t.splits]
    # strictly increasing: in key order, and no split twice
    assert all(a < b for a, b in zip(keys, keys[1:]))


def assert_point_in_key_order(x):
    assert_key_order(x.ctype)
    assert tuple(s for s, _ in x.lengths) == x.ctype.splits


def assert_cones_in_key_order(rep):
    assert_key_order(rep.face)
    for extra in rep.extra_splits:
        cone = _with_split(rep.face, extra)
        assert_key_order(cone)
        assert cone == CombinatorialType(cone.labels, (extra, *rep.face.splits))


def test_stream_contract_and_resolutions_keep_key_order():
    for n in range(4, 8):
        for dim in range(n - 2):
            for t in _stream_types(n, dim):
                assert_key_order(t)
                for s in t.splits:
                    assert_key_order(contract(t, s))
        for tau in _stream_types(n, n - 4):
            for rho in resolutions(tau):
                assert_key_order(rho)


def test_adjacent_cones_keep_key_order():
    for n in range(4, 8):
        for rep in _moduli_reports(n, smooth=n % 2 == 0):
            assert_cones_in_key_order(rep)
    for n in (5, 6, 7):
        for k in (1, n):
            for rep in _psi_reports(n, k):
                assert_cones_in_key_order(rep)


def test_a_split_already_on_the_face_adds_no_facet():
    first = next(_stream_types(6, 2))
    assert first.text == "{23,234}"
    for t in (first, *_stream_types(7, 3)):
        for s in t.splits:
            # the pooled split and one made afresh from its other side
            for extra in (s, Split(s.labels, s.complement)):
                with pytest.raises(ValueError, match="already a split"):
                    _with_split(t, extra)
                # nor does a report verify with it as an extra split, though
                # its direction is in the face's span
                witness, residual = span_witness(t, _split_direction(extra))
                assert not any(residual)
                assert not verify_witness(BalancingReport(t, (extra,), (1,), True, None, witness))


def test_checked_constructor_sorts_and_dedupes_any_order():
    rng = random.Random(18)
    for t in _stream_types(7, 4):
        # each split twice, shuffled, and made afresh from either side
        fresh = [Split(s.labels, rng.choice((s.side, s.complement))) for s in t.splits * 2]
        rng.shuffle(fresh)
        for splits in (fresh, reversed(t.splits), set(t.splits), frozenset(fresh)):
            u = CombinatorialType(t.labels, splits)
            assert_key_order(u)
            assert u == t and hash(u) == hash(t)
            assert (u.key, u.text) == (t.key, t.text)


def test_fan_file_with_shuffled_cones_and_complement_sides_reads_in_key_order():
    obj = json.loads(FAN.read_text())
    # the file writes some sides as complements, and its cones out of order
    assert any(1 in side for cone in obj["cones"] for side in cone["splits"])
    keys = [sorted(map(sorted, cone["splits"])) for cone in obj["cones"]]
    assert keys != sorted(keys)
    fan = fan_from_json(obj)
    facets = list(_stream_types(6, 3))
    assert [cone for cone, _ in fan.cones] == facets
    assert {hash(cone) for cone, _ in fan.cones} == {hash(t) for t in facets}
    for cone, _ in fan.cones:
        assert_key_order(cone)
    for rep in _face_reports(fan):
        assert_cones_in_key_order(rep)


def test_forget_section_relabel_and_reconstruct_keep_key_order():
    rng = random.Random(180)
    for _ in range(60):
        n = rng.randint(5, 9)
        x = random_tree_point(rng, n, dim=rng.randint(0, n - 3))
        assert_point_in_key_order(x)
        j = rng.randint(1, n)
        assert_key_order(forget_cone(x.ctype, j))
        shrunk = forget(x, j)
        assert_point_in_key_order(shrunk)
        assert_point_in_key_order(relabel(shrunk))
        grown = section(x, rng.randint(1, n))
        assert_point_in_key_order(grown)
        for part in decompose_boundary(grown).components:
            assert_point_in_key_order(part)
        back = reconstruct(embed(x), n)
        assert_point_in_key_order(back)
        assert back == x
    # lengths given out of order land in key order
    x = ModuliPoint.of(6, {(5, 6): 3, (2, 3): 1, (4, 5, 6): 2})
    assert_point_in_key_order(x)

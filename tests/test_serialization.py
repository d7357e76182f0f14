import json
from fractions import Fraction

import pytest

from tropmod import serialization
from tropmod.divisors import check_balanced, check_smooth_local, moduli_fan
from tropmod.errors import MalformedInput, TropmodError
from tropmod.maps import decompose_boundary, forget
from tropmod.moduli import ModuliPoint, embed
from tropmod.rationals import (
    NEG_INF,
    POS_INF,
    format_extended,
    parse_extended,
)
from tropmod.trees import enumerate_types

from conftest import random_point


def test_extended_rational_strings():
    assert format_extended(Fraction(3, 2)) == "3/2"
    assert format_extended(Fraction(5)) == "5"
    assert format_extended(POS_INF) == "inf"
    assert format_extended(NEG_INF) == "-inf"
    assert parse_extended("3/2") == Fraction(3, 2)
    assert parse_extended("inf") is POS_INF
    assert parse_extended("-inf") is NEG_INF
    with pytest.raises(ValueError):
        parse_extended("not a number")


def test_point_roundtrip(rng):
    for n in (4, 5, 6):
        for _ in range(20):
            x = random_point(rng, n, dim=rng.randint(0, n - 3), infinite_chance=0.3)
            blob = json.dumps(serialization.point_to_json(x))
            assert serialization.point_from_json(json.loads(blob)) == x


def test_point_json_shape():
    x = ModuliPoint.of(5, {(4, 5): Fraction(3, 2), (3, 4, 5): POS_INF})
    obj = serialization.point_to_json(x)
    assert obj == {
        "n": 5,
        "splits": [
            {"side": [3, 4, 5], "length": "inf"},
            {"side": [4, 5], "length": "3/2"},
        ],
    }


def test_point_json_noncontiguous_labels():
    x = forget(ModuliPoint.of(5, {(4, 5): 2, (3, 4, 5): 1}), 3)
    obj = serialization.point_to_json(x)
    assert obj["labels"] == [1, 2, 4, 5]
    assert serialization.point_from_json(obj) == x


def test_vector_roundtrip(rng):
    x = random_point(rng, 5)
    vec = embed(x)
    blob = serialization.vector_to_json(vec)
    assert all(isinstance(s, str) for s in blob)
    back = serialization.vector_from_json(blob, 5)
    assert back == vec


def test_fan_roundtrip():
    fan = moduli_fan(5)
    obj = serialization.fan_to_json(fan)
    assert obj["n"] == 5 and obj["dim"] == 2 and len(obj["cones"]) == 15
    assert serialization.fan_from_json(json.loads(json.dumps(obj))) == fan


def test_decomposition_json(rng):
    x = random_point(rng, 6, infinite_chance=0.5)
    obj = serialization.decomposition_to_json(decompose_boundary(x))
    assert len(obj["components"]) == len(obj["gluings"]) + 1


def test_bad_inputs_rejected():
    with pytest.raises(ValueError):
        serialization.point_from_json({"n": 4})
    with pytest.raises(ValueError):
        serialization.fan_from_json({"n": 4, "cones": []})
    with pytest.raises(ValueError):
        serialization.fan_from_json({"n": 5, "dim": 1, "cones": []})
    with pytest.raises(ValueError):
        serialization.point_from_json(
            {"n": 4, "splits": [{"side": [3, 4], "length": "1"},
                                {"side": [1, 2], "length": "2"}]}
        )


def test_malformed_points_raise_the_library_error():
    good = {"side": [4, 5], "length": "1"}
    for splits in (
        [{"side": [4, 5], "length": 1.5}],
        [{"side": [4, 5]}],
        [{"side": [4, 5], "length": True}],
        [{"side": [4, 5], "length": None}],
        [{"side": [4, 5], "length": "1/0"}],
        [{"side": "45", "length": "1"}],
        [{"side": [4, True], "length": "1"}],
        ["45"],
        {"45": "1"},
    ):
        with pytest.raises(MalformedInput):
            serialization.point_from_json({"n": 5, "splits": splits})
    for obj in (
        {"n": 5.0, "splits": [good]},
        {"n": "5", "splits": [good]},
        {"n": 5, "labels": "12345", "splits": [good]},
        [],
    ):
        with pytest.raises(MalformedInput):
            serialization.point_from_json(obj)
    assert issubclass(MalformedInput, TropmodError) and issubclass(MalformedInput, ValueError)
    point = serialization.point_from_json({"n": 5, "splits": [{"side": [4, 5], "length": 3}]})
    assert point.lengths[0][1] == 3



def test_malformed_vectors_and_fans_raise_the_library_error():
    good = serialization.vector_to_json(embed(ModuliPoint.of(5, {(4, 5): "1"})))
    for bad in (good[:-1] + [1.5], good[:-1] + [True], good[:-1] + [None], "1,2", {"0": "1"}):
        with pytest.raises(MalformedInput):
            serialization.vector_from_json(bad, 5)
    assert serialization.vector_from_json(good[:-1] + [0], 5).entries[-1] == 0

    cone = {"splits": [[4, 5], [3, 4, 5]], "weight": 1}
    for fan in (
        {"n": "5", "dim": 2, "cones": [cone]},
        {"n": 5.0, "dim": 2, "cones": [cone]},
        {"n": 5, "dim": True, "cones": [cone]},
        {"n": 5, "dim": 2, "cones": {"0": cone}},
        {"n": 5, "dim": 2, "cones": [{"weight": 1}]},
        {"n": 5, "dim": 2, "cones": [[[4, 5], [3, 4, 5]]]},
        {"n": 5, "dim": 2, "cones": [{"splits": "45,345"}]},
        {"n": 5, "dim": 2, "cones": [{"splits": ["45", [3, 4, 5]]}]},
        {"n": 5, "dim": 2, "cones": [{"splits": [[4, 5.0], [3, 4, 5]]}]},
        {"n": 5, "dim": 2, "cones": [dict(cone, weight=2.5)]},
        {"n": 5, "dim": 2, "cones": [dict(cone, weight="2")]},
        {"n": 5, "dim": 2, "cones": [dict(cone, weight=True)]},
        {"n": 5, "dim": 2},
    ):
        with pytest.raises(MalformedInput):
            serialization.fan_from_json(fan)
    fan = serialization.fan_from_json({"n": 5, "dim": 2, "cones": [dict(cone, weight=2)]})
    assert fan.cones[0][1] == 2

def test_report_json_witness():
    (rep,) = check_balanced(moduli_fan(4))
    assert serialization.report_to_json(rep)["witness"] == {"coefficients": []}
    tau = enumerate_types(5, 1)[0]
    obj = serialization.report_to_json(check_smooth_local(5, tau))
    rep = check_smooth_local(5, tau)
    assert obj["witness"] == {"coefficients": list(rep.witness), "minor": list(rep.minor)}


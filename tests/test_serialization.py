import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropmod import serialization
from tropmod.divisors import WeightedFan, check_balanced, check_smooth_local, moduli_fan
from tropmod.errors import MalformedInput, TropmodError
from tropmod.maps import decompose_boundary, forget
from tropmod.moduli import ModuliPoint, embed
from tropmod.rationals import (
    NEG_INF,
    POS_INF,
    format_extended,
    parse_extended,
)
from tropmod.trees import CombinatorialType, _leaf_set, _pooled_split, enumerate_types

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

def test_a_repeated_label_is_refused_by_every_reader():
    for read, obj, message in (
        (serialization.point_from_json,
         {"n": 5, "splits": [{"side": [4, 5, 5], "length": "1"}]}, '"side" repeats label 5'),
        (serialization.point_from_json,
         {"n": 5, "labels": [1, 2, 3, 4, 4, 5], "splits": []}, '"labels" repeats label 4'),
        (serialization.point_from_json,
         {"n": 5, "labels": [7, 1, 7, 3, 1], "splits": []}, '"labels" repeats label 7'),
        (serialization.fan_from_json,
         {"n": 5, "dim": 1, "cones": [{"splits": [[2, 2, 3]]}]}, '"side" repeats label 2'),
        (serialization.fan_from_json,
         {"n": 5, "dim": 2, "cones": [{"splits": [[4, 5], [3, 5, 4, 5]]}]}, '"side" repeats label 5'),
    ):
        with pytest.raises(MalformedInput) as caught:
            read(obj)
        assert str(caught.value) == message


def _reference_fan(obj):
    """What the fan reader gave before its splits were pooled: a checked
    type per cone, or the message of the first refusal."""
    try:
        cones = [(CombinatorialType.of(obj["n"], c["splits"]), c["weight"]) for c in obj["cones"]]
        return WeightedFan(n=obj["n"], dim=obj["dim"], cones=tuple(cones))
    except (TropmodError, ValueError) as exc:
        return str(exc)


@st.composite
def fan_files(draw):
    """A moduli fan with its cones shuffled and its sides written either
    way, then changed a few times."""
    n = draw(st.sampled_from([4, 5, 6]))
    labels = set(range(1, n + 1))
    cones = [
        {"splits": [sorted(s.side) for s in t.splits], "weight": 1}
        for t in draw(st.permutations(enumerate_types(n, n - 3)))
    ]
    for cone in cones:
        cone["splits"] = [
            sorted(labels - set(side)) if draw(st.booleans()) else side for side in cone["splits"]
        ]
    for _ in range(draw(st.integers(0, 3))):
        cone = cones[draw(st.integers(0, len(cones) - 1))]
        sides = cone["splits"]
        if not sides:  # all dropped
            continue
        i = draw(st.integers(0, len(sides) - 1))
        change = draw(st.sampled_from(
            ["out of range", "single leaf", "empty", "clash", "repeat split", "drop split",
             "repeat cone", "weight"]
        ))
        if change == "out of range":
            sides[i] = sorted({*sides[i][1:], draw(st.sampled_from([0, -1, n + 1, 10**20]))})
        elif change == "single leaf":
            sides[i] = [draw(st.integers(1, n))]
        elif change == "empty":
            sides[i] = []
        elif change == "clash":
            sides.append(sorted(draw(st.sets(st.integers(1, n), min_size=2, max_size=n - 2))))
        elif change == "repeat split":
            sides.append(sorted(labels - set(sides[i])))
        elif change == "drop split":
            del sides[i]
        elif change == "repeat cone":
            cones.append({"splits": [sorted(labels - set(s)) for s in sides], "weight": 1})
        else:
            cone["weight"] = draw(st.sampled_from([2, 3, 0]))
    return {"n": n, "dim": n - 3, "cones": cones}


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(fan_files())
def test_pooled_fan_reader_matches_a_checked_type_per_cone(obj):
    expected = _reference_fan(obj)
    try:
        fan = serialization.fan_from_json(obj)
    except MalformedInput as exc:
        assert str(exc) == expected
        return
    assert fan == expected
    n = obj["n"]
    for cone, _ in fan.cones:
        assert cone.labels is _leaf_set(n)
        assert all(s is _pooled_split(n, s.mask) for s in cone.splits)


def test_report_json_witness():
    (rep,) = check_balanced(moduli_fan(4))
    assert serialization.report_to_json(rep)["witness"] == {"coefficients": []}
    tau = enumerate_types(5, 1)[0]
    obj = serialization.report_to_json(check_smooth_local(5, tau))
    rep = check_smooth_local(5, tau)
    assert obj["witness"] == {"coefficients": list(rep.witness), "minor": list(rep.minor)}



def test_refusals_show_a_value_by_at_most_its_first_40_characters():
    read_point, read_fan = serialization.point_from_json, serialization.fan_from_json
    long = "5" * 5000

    def point(entry):
        return {"n": 5, "splits": [entry]}

    def fan(cone):
        return {"n": 5, "dim": 2, "cones": [cone]}

    # (reader, document with a short value, its message, the value made long)
    for read, short, message, value in (
        (read_point, point({"side": [4, "5"], "length": "1"}),
         "\"side\" must be an integer, got '5'", lambda v: point({"side": [4, v], "length": "1"})),
        (read_point, point({"side": "45", "length": "1"}),
         "\"side\" must be a list of integers, got '45'", lambda v: point({"side": v, "length": "1"})),
        (read_point, point({"side": [4, 5]}),
         "each split needs keys \"side\" and \"length\", got {'side': [4, 5]}",
         lambda v: point({"side": [4, 5], "note": v})),
        (read_fan, fan({"weight": 1}),
         "each cone needs a key \"splits\", got {'weight': 1}", lambda v: fan({"weight": v})),
        (read_fan, fan({"splits": "45"}),
         "\"splits\" must be a list of sides, got '45'", lambda v: fan({"splits": v})),
        (read_fan, fan({"splits": [[4, "5"]]}),
         "\"side\" must be an integer, got '5'", lambda v: fan({"splits": [[4, v]]})),
    ):
        with pytest.raises(MalformedInput) as caught:
            read(short)
        assert str(caught.value) == message
        with pytest.raises(MalformedInput) as caught:
            read(value(long))
        text = str(caught.value)
        assert len(text) < 150 and text.startswith(message.split(" got ")[0])
        assert "5" * 41 not in text and "characters)" in text

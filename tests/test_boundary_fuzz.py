"""Malformed points, vectors and fans at the command line: exit 0 (or 2 for
a fan that fails its check), or exit 1 with empty stdout and one ``error:``
line, never a traceback.  A fan that the library reads writes back to
itself; every other refuses with ``MalformedInput``."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmod.cli import EXIT_CERTIFICATE, EXIT_OK, EXIT_USAGE, main
from tropmod.divisors import moduli_fan
from tropmod.errors import MalformedInput
from tropmod.moduli import ModuliPoint, embed
from tropmod.serialization import fan_from_json, fan_to_json, vector_to_json

# a JSON string standing for a bare 5,000-digit integer literal in the file
_LONG_LITERAL = "\u0000long literal"


def _long_digits(count, sign, tail):
    return sign + "1" * count + tail


values = st.one_of(
    st.sampled_from(["0", "1", "3/2", "-3/2", "12/8", "inf", "-inf", "-0"]),
    st.sampled_from(["+1", "1/", "/2", "1//2", "1/0", "1/-2", "--1", "-", "", " 1", "1.5", "1e3"]),
    st.builds(
        _long_digits,
        st.integers(4000, 4400),
        st.sampled_from(["", "-"]),
        st.sampled_from(["", "/3", "/" + "7" * 4301]),
    ),
    st.integers(-10, 10),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
    st.lists(st.sampled_from([1, "1", None]), max_size=2),
    st.just(_LONG_LITERAL),
)
sides = st.sampled_from([[4, 5], [1, 2], [3, 4, 5], [2, 3], "45", [9], [], [4, 4], [True, 5], None])
points = st.fixed_dictionaries(
    {
        "n": st.sampled_from([5, 5, 5, 4, "5", 5.0, None]),
        "splits": st.lists(st.fixed_dictionaries({"side": sides, "length": values}), max_size=3),
    }
)
_VECTOR = vector_to_json(embed(ModuliPoint.of(5, {(4, 5): "3/2", (1, 2): "1"})))


@st.composite
def vectors(draw):
    vector = list(_VECTOR)
    for _ in range(draw(st.integers(0, 3))):
        vector[draw(st.integers(0, len(vector) - 1))] = draw(values)
    return vector[: draw(st.sampled_from([len(vector), len(vector), len(vector) - 1, 0]))]


def run_on(document, argv):
    """``main`` on argv, its ``FILE`` the path of the document written as JSON."""
    text = json.dumps(document).replace(json.dumps(_LONG_LITERAL), "1" * 5000)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            code = main([path if a == "FILE" else a for a in argv], out=out)
    return code, out.getvalue(), err.getvalue()


def assert_clean(code, out, err):
    if code == EXIT_OK:
        assert err == ""
    else:
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(points)
def test_embed_on_fuzzed_points(point):
    assert_clean(*run_on(point, ["embed", "--point", "FILE"]))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(vectors())
def test_reconstruct_on_fuzzed_vectors(vector):
    assert_clean(*run_on(vector, ["reconstruct", "--vector", "FILE", "--n", "5"]))


# the n = 5 moduli fan as read from a file: 15 cones of dimension 2
_FAN = json.loads(json.dumps(fan_to_json(moduli_fan(5))))
fan_sides = st.sampled_from(
    [[2, 3], [4, 5], [3, 4, 5], [1, 4], [1, 2, 3], [6], [0, 2], [2, 7], [], [2, 2, 3], [2, 3, 4, 5]]
    + [[True, 3], [2.0, 3], "23", None, 23, [[2, 3]]]
)
weights = st.sampled_from([1, 2, 3, 10**30, 1, 2, 3, 10**30, 0, -1, True, "2", 2.5, None, [1]])


@st.composite
def fans(draw, ns):
    """The n = 5 moduli fan, some of its cones dropped, and a few cones,
    sides, weights, keys or the header changed."""
    shuffled = draw(st.permutations(_FAN["cones"]))
    cones = [dict(cone, splits=list(cone["splits"])) for cone in shuffled]
    cones = cones[: draw(st.sampled_from([15, 15, 15, 14, 9, 1, 0]))]
    for _ in range(draw(st.integers(0, 3)) if cones else 0):
        i = draw(st.integers(0, len(cones) - 1))
        cone = cones[i]
        if not isinstance(cone, dict) or "splits" not in cone:
            continue
        change = draw(
            st.sampled_from(["side", "extra side", "weight", "repeat", "drop splits", "junk"])
        )
        if change == "side":
            cone["splits"][draw(st.integers(0, len(cone["splits"]) - 1))] = draw(fan_sides)
        elif change == "extra side":
            cone["splits"].append(draw(fan_sides))
        elif change == "weight":
            cone["weight"] = draw(weights)
        elif change == "repeat":
            cones.append(dict(cone))
        elif change == "drop splits":
            del cone["splits"]
        else:
            cones[i] = draw(st.sampled_from([None, [[2, 3]], "cone", 1]))
    dim = draw(st.sampled_from([2] * 8 + [1, 3, -1, "2", None]))
    fan = {"n": draw(ns), "dim": dim, "cones": cones}
    key = draw(st.sampled_from([None] * 9 + ["n", "dim", "cones"]))
    if key == "cones":
        fan[key] = draw(st.sampled_from([None, [], {}, "x"]))
    elif key:
        del fan[key]
    return fan


library_ns = st.sampled_from([5] * 8 + [6, 6, 4, 3, 0, -2, 82, "5", 5.0, True, None])
# past the coordinate limit, refused before the fan is read
cli_ns = library_ns | st.sampled_from([10**12, 10**100])


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(fans(cli_ns))
def test_check_balancing_on_fuzzed_fans(fan):
    code, out, err = run_on(fan, ["check", "balancing", "--fan", "FILE"])
    if code in (EXIT_OK, EXIT_CERTIFICATE):
        assert err == ""
        assert out.endswith("all checks passed\n" if code == EXIT_OK else "CERTIFICATE FAILED\n")
    else:
        assert_clean(code, out, err)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(fans(library_ns))
def test_fan_reader_round_trips_or_refuses(fan):
    try:
        read = fan_from_json(fan)
    except MalformedInput:
        return
    assert fan_from_json(fan_to_json(read)) == read
    assert fan_from_json(json.loads(json.dumps(fan_to_json(read)))) == read

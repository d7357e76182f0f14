"""Malformed points and vectors at the command line: exit 0, or exit 1 with
empty stdout and one ``error:`` line, never a traceback."""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmod.cli import EXIT_OK, EXIT_USAGE, main
from tropmod.moduli import ModuliPoint, embed
from tropmod.serialization import vector_to_json

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
    """``main`` on argv plus the path of the document written as JSON."""
    text = json.dumps(document).replace(json.dumps(_LONG_LITERAL), "1" * 5000)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "input.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stderr(err):
            code = main(argv[:2] + [path] + argv[2:], out=out)
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
    assert_clean(*run_on(point, ["embed", "--point"]))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(vectors())
def test_reconstruct_on_fuzzed_vectors(vector):
    assert_clean(*run_on(vector, ["reconstruct", "--vector", "--n", "5"]))

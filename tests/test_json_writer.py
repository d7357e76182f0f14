"""The CLI's JSON writer against ``json.dumps(..., indent=2)``."""

import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmod.cli import EXIT_CERTIFICATE, EXIT_OK, _dump, _render, main
from tropmod.moduli import ModuliPoint
from tropmod.serialization import point_to_json

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**256)
    | st.integers(min_value=-(2**256), max_value=-(2**64))
    | st.text()
    | st.sampled_from(["", "é", "∞", "\U0001d11e", '"\\/\n\t', "1/2", "-inf"])
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.lists(inner, max_size=6).map(tuple)
    | st.lists(st.integers(), max_size=8)
    | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(documents)
def test_writer_matches_json_dumps(obj):
    expected = json.dumps(obj, indent=2)
    assert _render(obj) == expected
    out = io.StringIO()
    _dump(obj, out)
    assert out.getvalue() == expected + "\n"


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.dictionaries(st.text(max_size=5), st.lists(documents, max_size=4), max_size=4))
def test_streamed_lists_match_json_dumps(obj):
    # values that are iterators are written one item at a time
    out = io.StringIO()
    _dump({k: iter(v) for k, v in obj.items()}, out)
    assert out.getvalue() == json.dumps(obj, indent=2) + "\n"


def test_writer_hands_other_values_to_json():
    for obj in ({1: [2]}, [1.5, {"a": float("inf")}], {}, [True, 1], {"a": {}}):
        assert _render(obj) == json.dumps(obj, indent=2)


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def assert_indent_2(out):
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_cli_json_is_json_dumps_indent_2(tmp_path):
    for n in (4, 5, 6):
        for what in ("balancing", "smooth"):
            code, out = run(["check", what, "--n", str(n), "--format", "json"])
            assert code == EXIT_OK
            assert_indent_2(out)
        for dim in range(n - 2):
            code, out = run(["enumerate", "--n", str(n), "--dim", str(dim), "--format", "json"])
            assert code == EXIT_OK
            assert_indent_2(out)
    for n, k in ((5, 1), (6, 4)):
        code, out = run(["check", "psi", "--n", str(n), "--k", str(k), "--format", "json"])
        assert code == EXIT_OK
        assert_indent_2(out)

    _, fan = run(["export", "fan", "--n", "6"])
    assert_indent_2(fan)
    payload = json.loads(fan)
    payload["cones"][5]["weight"] = 2
    path = tmp_path / "fan.json"
    path.write_text(json.dumps(payload))
    code, out = run(["check", "balancing", "--fan", str(path), "--format", "json"])
    assert code == EXIT_CERTIFICATE
    assert_indent_2(out)
    assert json.loads(out)["all_passed"] is False

    finite = tmp_path / "finite.json"
    finite.write_text(json.dumps(point_to_json(ModuliPoint.of(6, {(5, 6): "3/2", (4, 5, 6): 7}))))
    boundary = tmp_path / "boundary.json"
    boundary.write_text(json.dumps(point_to_json(ModuliPoint.of(6, {(5, 6): 1, (4, 5, 6): "inf"}))))
    vector = tmp_path / "vector.json"
    vector.write_text(run(["embed", "--point", str(finite)])[1])
    for argv in (
        ["export", "link", "--n", "6", "--format", "json"],
        ["export", "embed", "--point", str(boundary)],
        ["embed", "--point", str(boundary)],
        ["reconstruct", "--vector", str(vector), "--n", "6"],
        ["decompose", "--point", str(boundary)],
        ["forget", "--point", str(finite), "--j", "2"],
        ["section", "--point", str(finite), "--k", "3"],
    ):
        code, out = run(argv)
        assert code == EXIT_OK
        assert_indent_2(out)

"""The CLI's JSON writer against ``json.dumps(..., indent=2)``."""

import io
import json
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from tropmod import divisors, moduli, serialization, trees
from tropmod.cli import (
    _MEMO_LEN,
    _SUMS_SIZE,
    EXIT_CERTIFICATE,
    EXIT_OK,
    _dump,
    _ints,
    _render,
    _sum_text,
    _sums,
    main,
)
from tropmod.maps import decompose_boundary
from tropmod.moduli import ModuliPoint
from tropmod.trees import _Ints
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


def test_int_tuples_rendered_again_at_any_pad_match_json_dumps():
    # plain tuples, joined each time, and splits' own tuples, kept
    sides = [(2, 3), _Ints((4, 5, 6)), _Ints(range(-3, 40)), (10**30, -(10**30))]
    # the same tuples at four depths, twice over, and once more as lists
    obj = {"a": sides, "b": [{"c": sides, "d": [sides]}], "e": sides, "f": [list(t) for t in sides]}
    for _ in range(2):
        assert _render(obj) == json.dumps(obj, indent=2)
        for pad in ("\n", "\n  ", "\n      ", "\n\t"):
            for t in sides:
                assert _render(t, pad) == json.dumps(t, indent=2).replace("\n", pad)


def test_bools_and_int_subclasses_never_reach_the_memo():
    class Level(int):
        def __str__(self):
            return "level"

    assert _render((1, 2), "\n  ") == "[\n    1,\n    2\n  ]"
    before = _ints.cache_info()
    # equal to (1, 2), with an equal hash: only a split's own tuple is
    # looked up, so no plain tuple can read the entry of (1, 2)
    assert _render(_Ints((1, 2)), "\n  ") == "[\n    1,\n    2\n  ]"
    assert _render((True, 2), "\n  ") == "[\n    true,\n    2\n  ]"
    assert _render((Level(1), 2), "\n  ") == "[\n    1,\n    2\n  ]"
    assert _render((Level(1),)) == json.dumps((Level(1),), indent=2)
    after = _ints.cache_info()
    assert after.hits + after.misses == before.hits + before.misses + 1


def test_memo_holds_only_values_of_one_split():
    # splits on 1..n: sides of size 2..n-2 away from leaf 1
    splits = {n: 2 ** (n - 1) - n - 1 for n in (7, 8)}
    _ints.cache_clear()
    assert run(["check", "balancing", "--n", "7", "--format", "json"])[0] == EXIT_OK
    # each split's side, in the face, as an extra split and in a cone, and
    # its direction: four (tuple, pad) keys; a face's sum would be a fifth
    assert _ints.cache_info().currsize <= 4 * splits[7]
    assert run(["enumerate", "--n", "8", "--dim", "4", "--format", "json"])[0] == EXIT_OK
    # each type lists its sides at one pad
    info = _ints.cache_info()
    assert info.currsize <= 4 * splits[7] + splits[8]
    assert info.hits > 10 * info.misses


def test_long_int_tuples_are_joined_but_not_kept():
    # a direction at n = 10 has 630 entries
    long = tuple(range(_MEMO_LEN + 1))
    before = _ints.cache_info()
    assert _render(long, "\n  ") == json.dumps(long, indent=2).replace("\n", "\n  ")
    after = _ints.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits, before.misses, before.currsize)


def _int_tuples(obj):
    """Each split's own tuple or plain tuple of plain ints in a serializer's
    output: what the writer keeps."""
    if type(obj) is dict:
        for value in obj.values():
            yield from _int_tuples(value)
    elif type(obj) is _Ints or (type(obj) is tuple and obj and set(map(type, obj)) == {int}):
        yield obj
    elif type(obj) in (list, tuple):
        for item in obj:
            yield from _int_tuples(item)


def test_serializers_hand_over_as_tuples_only_values_of_one_split():
    n = 6
    splits = [t.splits[0] for t in trees.enumerate_types(n, 1)]
    own = {s.key for s in splits} | {moduli._split_direction(s) for s in splits}
    fans = [divisors.moduli_fan(n), divisors.psi_divisor(n, 1)]
    reports = [r for fan in fans for r in divisors.check_balanced(fan)]
    reports += divisors.check_psi_balanced(n, 2)
    reports += [divisors.check_smooth_local(n, t) for t in trees.enumerate_types(n, n - 4)]
    point = ModuliPoint.of(n, {(5, 6): "3/2", (4, 5, 6): 7, (2, 3): "inf"})
    outputs = [serialization.report_to_json(r) for r in reports]
    outputs += [serialization.fan_to_json(fan) for fan in fans]
    outputs += [serialization.type_to_json(t) for d in range(n - 2) for t in trees.enumerate_types(n, d)]
    outputs += [
        point_to_json(point),
        serialization.vector_to_json(moduli.embed(point)),
        serialization.decomposition_to_json(decompose_boundary(point)),
    ]
    kept = [t for obj in outputs for t in _int_tuples(obj)]
    assert len({len(t) for t in kept}) > 1  # sides and directions both
    assert all(t in own for t in kept)
    # each is the split's own tuple, which the writer takes unchecked
    assert {type(t) for t in kept} == {_Ints}


def test_split_tuples_are_rendered_from_the_memo_unchecked():
    split = trees._pooled_split(6, 0b1100000)  # the split 56
    for value in (split.key, moduli._split_direction(split)):
        assert type(value) is _Ints
        expected = json.dumps(value, indent=2).replace("\n", "\n  ")
        assert _render(value, "\n  ") == expected
        before = _ints.cache_info()
        assert _render(value, "\n  ") == expected
        assert _ints.cache_info().hits == before.hits + 1


FAN_FILE = Path(__file__).with_name("fan_n6_weight2.json")
# a report's values, at the pad of a streamed item plus one level
SUM_PAD = "\n      "


def _fan_reports():
    return divisors._face_reports(serialization.fan_from_json(json.loads(FAN_FILE.read_text())))


@pytest.fixture
def sums_added(monkeypatch):
    """The reports whose weighted sum is added up, in order."""
    added = []
    weighted_sum = divisors.BalancingReport.weighted_sum.fget

    def counted(report):
        added.append(report)
        return weighted_sum(report)

    monkeypatch.setattr(divisors.BalancingReport, "weighted_sum", property(counted))
    return added


def _dumped_sum(report):
    return json.dumps(list(report.weighted_sum), indent=2).replace("\n", SUM_PAD)


def test_sums_from_the_memo_equal_the_reports_sums(sums_added):
    sources = [
        (["check", "balancing", "--n", "7"], lambda: divisors._moduli_reports(7)),
        (["check", "psi", "--n", "7", "--k", "3"], lambda: divisors._psi_reports(7, 3)),
        (["check", "balancing", "--fan", str(FAN_FILE)], _fan_reports),
    ]
    _sums.clear()
    for argv, reports in sources:
        run(argv + ["--format", "json"])  # leaves its latest sums in the memo
        hits = 0
        for report in reports():
            sums_added.clear()
            text = _sum_text(report, SUM_PAD)
            hits += not sums_added
            assert text == _dumped_sum(report)
        assert hits > 0
        assert len(_sums) <= _SUMS_SIZE


def test_a_changed_weight_misses_the_memo(sums_added):
    report = next(_fan_reports())
    _sum_text(report, SUM_PAD)
    sums_added.clear()
    assert _sum_text(report, SUM_PAD) == _dumped_sum(report)
    assert sums_added == [report]  # only the reference above
    first, *rest = report.weights
    heavier = divisors.BalancingReport(
        report.face,
        report.extra_splits,
        (first + 1, *rest),
        report.balanced,
        witness=report.witness,
    )
    sums_added.clear()
    text = _sum_text(heavier, SUM_PAD)
    assert sums_added == [heavier]
    assert text == _dumped_sum(heavier) != _dumped_sum(report)


def test_the_same_masks_at_another_n_miss_the_memo(sums_added):
    report = next(divisors._moduli_reports(6))
    _sums.clear()
    _sum_text(report, SUM_PAD)
    # the face and its extra splits with leaf 7 added at the root vertex:
    # the same sides, so the same (weight, mask) pairs
    face = trees.CombinatorialType.of(7, [s.side for s in report.face.splits])
    lifted = divisors.BalancingReport(
        face,
        tuple(trees._pooled_split(7, s.mask) for s in report.extra_splits),
        report.weights,
        True,
    )
    assert [s.mask for s in lifted.extra_splits] == [s.mask for s in report.extra_splits]
    sums_added.clear()
    text = _sum_text(lifted, SUM_PAD)
    assert sums_added == [lifted]
    assert text == _dumped_sum(lifted)
    assert len(lifted.weighted_sum) != len(report.weighted_sum)


def test_sum_memo_is_bounded_in_entries_and_length(sums_added):
    _sums.clear()
    first = next(divisors._moduli_reports(6))
    # S(6, 4) + S(7, 4) = 65 + 350 partitions, each at two pads
    for pad in ("\n", SUM_PAD):
        for n in (6, 7):
            for report in divisors._moduli_reports(n):
                _sum_text(report, pad)
    assert len(_sums) == _SUMS_SIZE
    # the latest used are kept, the least recently used dropped
    sums_added.clear()
    assert _sum_text(report, SUM_PAD) == _dumped_sum(report)
    assert sums_added == [report]
    _sum_text(first, "\n")
    assert sums_added == [report, first]
    # at n = 10 a sum has 630 entries: rendered each time, never kept
    face = trees.CombinatorialType.of(10, [(9, 10)])
    extra = trees._pooled_split(10, 0b11100000000)
    long = divisors.BalancingReport(face, (extra,), (1,), True)
    before = dict(_sums)
    assert _sum_text(long, SUM_PAD) == _dumped_sum(long)
    assert _sums == before


def test_cli_json_reports_match_the_serializer_across_n():
    # several n in one process, each after another has filled the memos
    for argv, reports in (
        (["check", "balancing", "--n", "6"], lambda: divisors._moduli_reports(6)),
        (["check", "balancing", "--n", "7"], lambda: divisors._moduli_reports(7)),
        (["check", "psi", "--n", "7", "--k", "3"], lambda: divisors._psi_reports(7, 3)),
        (["check", "balancing", "--n", "6"], lambda: divisors._moduli_reports(6)),
        (["check", "balancing", "--fan", str(FAN_FILE)], _fan_reports),
        (["check", "smooth", "--n", "6"], lambda: divisors._moduli_reports(6, smooth=True)),
    ):
        code, out = run(argv + ["--format", "json"])
        listed = [serialization.report_to_json(r) for r in reports()]
        passed = all(r["balanced"] and r["smooth"] is not False for r in listed)
        payload = {"check": argv[1], "reports": listed, "all_passed": passed}
        assert out == json.dumps(payload, indent=2) + "\n"
        assert code == (EXIT_OK if passed else EXIT_CERTIFICATE)


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

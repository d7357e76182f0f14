"""Planted faults: each certificate path must fail, by its own check, when
the mathematics under it is broken.  Each case patches one function with one
named fault, runs a command, and asserts which check catches it."""

import inspect
import io
import json
from pathlib import Path

import pytest

from test_witness import assert_matches_oracle, dense_reports, fans_across_field_widths
from tropmod import cli, divisors
from tropmod.cli import EXIT_CERTIFICATE, EXIT_OK, main
from tropmod.divisors import check_balanced, verify_witness
from tropmod.trees import Split, _branch_masks, _stream_types, enumerate_types, to_tree

FAN = Path(__file__).with_name("fan_n6_weight2.json")


def run(argv):
    buf = io.StringIO()
    code = main(argv, out=buf)
    return code, buf.getvalue()


def test_minor_of_determinant_two_is_not_smooth(monkeypatch):
    code, expected = run(["check", "smooth", "--n", "6"])
    assert code == EXIT_OK
    minor_determinant = divisors._minor_determinant
    calls = []

    def planted(*args):
        # the minor at the 40th codimension-1 type has determinant 2
        calls.append(args)
        return 2 if len(calls) == 40 else minor_determinant(*args)

    monkeypatch.setattr(divisors, "_minor_determinant", planted)
    code, out = run(["check", "smooth", "--n", "6"])
    assert code == EXIT_CERTIFICATE
    lines = expected.splitlines()
    lines[39] = lines[39].replace(", smooth", ", NOT SMOOTH")
    lines[-1] = "CERTIFICATE FAILED"
    assert lines[39].endswith(": 3 adjacent, balanced, NOT SMOOTH")
    assert out.splitlines() == lines


def test_flipped_sign_fails_exactly_the_partitions_that_use_the_split(monkeypatch):
    argv = ["check", "balancing", "--n", "7"]
    # the clean run first: a partition it decided must not pass in the next run
    code, expected = run(argv)
    assert code == EXIT_OK
    flipped = Split.of(7, {3, 5})
    split_support = divisors._split_support

    def planted(split):
        support = split_support(split)
        if split != flipped:
            return support
        (i, x), *rest = support
        return ((i, -x), *rest)

    monkeypatch.setattr(divisors, "_split_support", planted)
    # packed directions are cached by mask: start from none, so the fault
    # reaches the solve; the clean cache comes back when the test ends
    monkeypatch.setattr(divisors, "_packed", {})
    code, out = run(argv)
    assert code == EXIT_CERTIFICATE
    # a partition uses the split when its side is a union of blocks other
    # than the anchor's: then the split is a resolution or a face split on
    # the vertex.  The blocks are read off the realized tree.
    lines = expected.splitlines()
    failing = 0
    for i, face in enumerate(enumerate_types(7, 3)):
        tree = to_tree(face)
        _, *blocks = tree.branches(tree.valences().index(4))  # the anchor's first
        assert lines[i].startswith(f"face {face.text}: ")
        if frozenset().union(*[b for b in blocks if b <= flipped.side]) == flipped.side:
            lines[i] = lines[i].replace(", balanced", ", UNBALANCED")
            failing += 1
    lines[-1] = "CERTIFICATE FAILED"
    assert 0 < failing < len(lines) - 1
    assert out.splitlines() == lines


def test_field_one_byte_short_is_caught_by_the_dense_oracle(monkeypatch):
    # the fans bracket each field width's bound; with every field of more
    # than one byte made one byte short, the packed sums carry across fields
    field_width = divisors._field_width
    monkeypatch.setattr(
        divisors, "_field_width", lambda bound: field_width(bound) - 8 * (bound >= 128)
    )
    caught = 0
    for fan in fans_across_field_widths():
        oracle = dense_reports(fan)
        try:
            assert_matches_oracle(check_balanced(fan), oracle)
        except AssertionError:
            caught += 1
    assert caught


def test_check_keeping_only_the_last_verdict_is_caught_by_exit_2(monkeypatch):
    argv = ["check", "balancing", "--fan", str(FAN), "--format", "json"]

    def guard():
        code, out = run(argv)
        assert code == EXIT_CERTIFICATE and json.loads(out)["all_passed"] is False

    guard()
    source = inspect.getsource(cli._cmd_check)
    assert source.count("ok = ok and _passed(rep)") == 1
    namespace = dict(vars(cli))
    exec(source.replace("ok = ok and _passed(rep)", "ok = _passed(rep)"), namespace)
    monkeypatch.setitem(cli._COMMANDS, "check", namespace["_cmd_check"])
    code, out = run(argv)
    reports = json.loads(out)["reports"]
    # the unbalanced faces are still written; only the verdict over them is lost
    assert [rep["balanced"] for rep in reports].count(False) == 3 and reports[-1]["balanced"]
    with pytest.raises(AssertionError):
        guard()


def test_label_dropped_from_a_resolution_fails_exactly_the_faces_it_reaches(monkeypatch):
    argv = ["check", "balancing", "--n", "7"]
    code, expected = run(argv)
    assert code == EXIT_OK
    resolution_splits = divisors._resolution_splits

    def planted(labels, branches):
        # the first resolution with a side of 3 or more loses its largest label
        splits = resolution_splits(labels, branches)
        for i, s in enumerate(splits):
            if len(s.side) >= 3:
                short = Split(labels, s.side - {max(s.side)})
                return (*splits[:i], short, *splits[i + 1 :])
        return splits

    monkeypatch.setattr(divisors, "_resolution_splits", planted)
    code, out = run(argv)
    assert code == EXIT_CERTIFICATE
    # every side is two of the branches away from the anchor, so the fault
    # reaches a face unless those three branches are single leaves
    lines = expected.splitlines()
    for i, face in enumerate(_stream_types(7, 3)):
        _, b, c, d = _branch_masks(face)
        if (b | c | d).bit_count() > 3:
            lines[i] = lines[i].replace(", balanced", ", UNBALANCED")
    lines[-1] = "CERTIFICATE FAILED"
    assert 0 < sum("UNBALANCED" in line for line in lines) < len(lines) - 1
    assert out.splitlines() == lines


def _on_vertex(face, split):
    """Whether the split is an edge at the face's 4-valent vertex, read off
    the realized tree."""
    tree = to_tree(face)
    return split in tree.vertices[tree.valences().index(4)].splits


def test_local_witness_off_by_one_on_the_vertex_is_solved_by_the_fallback(monkeypatch):
    argvs = [
        ["check", what, "--n", "7", "--format", fmt]
        for what in ("balancing", "smooth")
        for fmt in ("text", "json")
    ]
    expected = [run(argv) for argv in argvs]
    x = Split.of(7, {6, 7})
    local_witness = divisors._local_witness

    def planted(splits, branches, coefficient=1):
        witness = local_witness(splits, branches, coefficient)
        return tuple(c + 1 if s == x and c else c for s, c in zip(splits, witness))

    field_bias = divisors._field_bias
    solved = []

    def counted(*args):
        solved.append(args)  # only the fallback solve reads the fields
        return field_bias(*args)

    monkeypatch.setattr(divisors, "_local_witness", planted)
    monkeypatch.setattr(divisors, "_field_bias", counted)
    # every face with x on its vertex fails the witness tried, so its
    # partition is never stored, and the solve finds the true coefficients
    reaches = sum(_on_vertex(face, x) for face in _stream_types(7, 3))
    for argv, clean in zip(argvs, expected):
        solved.clear()
        assert run(argv) == clean
        assert len(solved) == reaches > 0


def test_local_witness_off_by_one_off_the_vertex_is_an_equivalent_mutant(monkeypatch):
    # an equivalent mutant: _local_witness is called only at the first face
    # of each 4-partition, and a later face reads its coefficients off the
    # masks kept with the partition; a 1 off the vertex would fail the packed
    # equality and be solved past.  At n = 7 the first face of a partition
    # never has x off its vertex, so the fault changes nothing
    argvs = [["check", "balancing", "--n", "7", "--format", fmt] for fmt in ("text", "json")]
    expected = [run(argv) for argv in argvs]
    x = Split.of(7, {6, 7})
    local_witness = divisors._local_witness
    calls = []

    def planted(splits, branches, coefficient=1):
        calls.append(splits)
        witness = local_witness(splits, branches, coefficient)
        return tuple(c + 1 if s == x and not c else c for s, c in zip(splits, witness))

    monkeypatch.setattr(divisors, "_local_witness", planted)
    for argv, clean in zip(argvs, expected):
        calls.clear()
        assert run(argv) == clean
        assert len(calls) == 350  # S(7, 4): once per partition, not per face
    reports = list(divisors._moduli_reports(7))
    assert len(reports) == 1260
    assert any(x in rep.face.splits and not _on_vertex(rep.face, x) for rep in reports)
    assert all(rep.balanced and verify_witness(rep) for rep in reports)

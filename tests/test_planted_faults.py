"""Planted faults: each certificate path must fail, by its own check, when
the mathematics under it is broken.  Each case patches one function with one
named fault, runs a command, and asserts which check catches it."""

import io

from test_witness import assert_matches_oracle, dense_reports, fans_across_field_widths
from tropmod import divisors
from tropmod.cli import EXIT_CERTIFICATE, EXIT_OK, main
from tropmod.divisors import check_balanced
from tropmod.trees import Split, enumerate_types, to_tree


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

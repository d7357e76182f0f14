"""Planted faults: each certificate path must fail, by its own check, when
the mathematics under it is broken.  Each case patches one function with one
named fault, runs a command, and asserts which check catches it."""

import inspect
import io
import json
import random
from pathlib import Path

import pytest

from conftest import random_tree_point
from test_moduli import REFUSED, _near_images, _outcome
from test_witness import assert_matches_oracle, dense_reports, fans_across_field_widths
from tropmod import cli, divisors, moduli
from tropmod.cli import EXIT_CERTIFICATE, EXIT_OK, main
from tropmod.divisors import check_balanced, verify_witness
from tropmod.moduli import ModuliPoint
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


@pytest.fixture
def fresh_packed():
    """Packed directions are cached by split: a test that plants a fault in
    a direction clears the cache so the fault reaches the solve, and the
    cache is cleared again when the test ends, so no faulty entry outlives it."""
    divisors._packed_direction.cache_clear()
    yield
    divisors._packed_direction.cache_clear()


def test_flipped_sign_fails_exactly_the_partitions_that_use_the_split(monkeypatch, fresh_packed):
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
    # the clean run cached every direction: start from none, so the fault
    # reaches the solve
    divisors._packed_direction.cache_clear()
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


def test_flipped_sign_fails_the_same_psi_faces_as_the_contract_listing(
    monkeypatch, fresh_packed
):
    argv = ["check", "psi", "--n", "7", "--k", "3"]
    # the clean run first: a partition it decided must not pass in the next run
    code, expected = run(argv)
    assert code == EXIT_OK
    flipped = Split.of(7, {5, 6})
    split_support = divisors._split_support

    def planted(split):
        support = split_support(split)
        if split != flipped:
            return support
        (i, x), *rest = support
        return ((i, -x), *rest)

    monkeypatch.setattr(divisors, "_split_support", planted)
    divisors._packed_direction.cache_clear()
    code, out = run(argv)
    assert code == EXIT_CERTIFICATE
    # the listing contracts every psi cone and solves every face, with no
    # memo, so a memo that hid the fault would differ from it
    reports = list(divisors._psi_reports(7, 3))
    assert reports == list(divisors._face_reports(divisors.psi_divisor(7, 3)))
    verdicts = [rep.balanced for rep in reports]
    assert True in verdicts and False in verdicts
    lines = expected.splitlines()
    for i, rep in enumerate(reports):
        assert lines[i].startswith(f"face {rep.face.text}: ")
        if not rep.balanced:
            lines[i] = lines[i].replace(", balanced", ", UNBALANCED")
    lines[-1] = "CERTIFICATE FAILED"
    assert out.splitlines() == lines


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_planted_wrong_extra_split_is_unbalanced_and_not_smooth(monkeypatch, fmt):
    argv = ["check", "smooth", "--n", "6", "--format", fmt]
    code, expected = run(argv)
    assert code == EXIT_OK
    balance_at = divisors._balance_at
    planted = []

    def wrong_extra(face, extras, *rest):
        # at face {23,56}, the first of its partition, the last adjacent
        # cone takes the first one's extra split; its minor stays unimodular
        if face.text == "{23,56}":
            planted.append(face)
            extras = extras[:-1] + extras[:1]
        return balance_at(face, extras, *rest)

    monkeypatch.setattr(divisors, "_balance_at", wrong_extra)
    code, out = run(argv)
    assert code == EXIT_CERTIFICATE and len(planted) == 1
    if fmt == "text":
        lines = expected.splitlines()
        at = lines.index("codim-1 type {23,56}: 3 adjacent, balanced, smooth")
        lines[at] = "codim-1 type {23,56}: 3 adjacent, UNBALANCED, NOT SMOOTH"
        lines[-1] = "CERTIFICATE FAILED"
        assert out.splitlines() == lines
    else:
        before, after = json.loads(expected), json.loads(out)
        faces = [rep["face"] for rep in before["reports"]]
        at = faces.index([[2, 3], [5, 6]])
        assert before["reports"][at]["smooth"] is True
        before["reports"][at].update(balanced=False, smooth=False, witness=None)
        before["all_passed"] = False
        assert after == before


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


@pytest.mark.parametrize("smooth", [False, True])
def test_extras_of_another_partition_handed_to_a_face_fail_its_witness(smooth, monkeypatch):
    # the memo hands the 100th face it serves the extra splits of the
    # partition decided just before, with its own masks: the face is
    # reported balanced on the kept coefficients, so verify_witness must
    # see that its extra splits are not its own
    vertex_report = divisors._vertex_report
    entries, served, planted = [], [], []

    class Swapping(dict):
        def __setitem__(self, key, entry):
            entries.append((key, entry))
            super().__setitem__(key, entry)

        def get(self, key):
            entry = super().get(key)
            if entry is not None:
                served.append(key)
                if len(served) == 100:
                    other = next(e for k, e in reversed(entries) if k != key)
                    planted.append(other[0])
                    return (other[0], *entry[1:])
            return entry

    memo = Swapping()

    def swapped(tau, branches, blocks, coefficient, decided, smooth):
        report = vertex_report(tau, branches, blocks, coefficient, memo, smooth)
        if len(planted) == 1 and len(served) == 100:
            planted.append(report)
        return report

    monkeypatch.setattr(divisors, "_vertex_report", swapped)
    reports = list(divisors._moduli_reports(7, smooth))
    extras, report = planted
    assert report.extra_splits is extras and report.balanced
    assert [rep for rep in reports if not verify_witness(rep)] == [report]


def _dropped(found):
    """A candidate reader's fault: its first split left out."""
    return dict(list(found.items())[1:])


def _moved(found):
    """A candidate reader's fault: one length moved by 1/denominator, down
    (to 0 when it was 1/denominator)."""
    return {s: least - (i == 0) for i, (s, least) in enumerate(found.items())}


def _crossed(found):
    """A candidate reader's fault: a split added that crosses the first one
    (one leaf of its side with one leaf off it)."""
    if not found:
        return found
    split = next(iter(found))
    a = min(split.side)
    b = min(split.complement - {1})
    return {**found, Split(split.labels, frozenset((a, b))): 1}


def _reconstruct_outcomes(vectors):
    return [_outcome(moduli.reconstruct, vector, n) for vector, n in vectors]


def _images_and_near_images():
    rng = random.Random(20261020)
    # lengths of 1/denominator, which a length moved down makes 0
    ones = [ModuliPoint.of(4, {(3, 4): 1}), ModuliPoint.of(6, {(5, 6): 1, (4, 5, 6): "1/3"})]
    vectors = [(list(moduli.embed(x).entries), x.n) for x in ones]
    for n in (4, 5, 6, 7, 8, 9):
        for i in range(8):
            x = random_tree_point(rng, n, dim=rng.randint(1, n - 3) if i % 2 else None)
            image = list(moduli.embed(x).entries)
            vectors += [(v, n) for v in [image, *_near_images(rng, image, n)]]
    return vectors


def _assert_sound(vectors, expected):
    """No vector comes back as a point other than its own, every image with a
    split is refused by its re-embedding, and every vector off the image
    keeps its message."""
    for outcome, before in zip(_reconstruct_outcomes(vectors), expected):
        if isinstance(before, str) or not before.lengths:  # a fault leaves {} as it is
            assert outcome == before
        else:
            assert outcome == REFUSED


@pytest.mark.parametrize("fault", [_dropped, _moved, _crossed])
def test_faulty_candidate_reader_is_refused_soundly(fault, monkeypatch):
    # the certificate refuses each faulty candidate, and with no other path
    # the vector is refused: an image by its re-embedding, a near image by
    # the message it had
    vectors = _images_and_near_images()
    expected = _reconstruct_outcomes(vectors)
    assert sum(isinstance(o, str) for o in expected) > 50
    candidate_splits = moduli._candidate_splits
    monkeypatch.setattr(
        moduli, "_candidate_splits", lambda scaled, n: fault(candidate_splits(scaled, n))
    )
    _assert_sound(vectors, expected)


def test_candidate_accepted_without_its_re_embedding_is_caught(monkeypatch):
    vectors = _images_and_near_images()
    expected = _reconstruct_outcomes(vectors)
    candidate_splits = moduli._candidate_splits
    monkeypatch.setattr(
        moduli, "_candidate_splits", lambda scaled, n: _dropped(candidate_splits(scaled, n))
    )
    _assert_sound(vectors, expected)
    source = inspect.getsource(moduli._certified)
    assert source.count("if image != scaled:") == 1
    namespace = dict(vars(moduli))
    exec(source.replace("if image != scaled:", "if False:"), namespace)
    monkeypatch.setattr(moduli, "_certified", namespace["_certified"])
    with pytest.raises(AssertionError):
        _assert_sound(vectors, expected)

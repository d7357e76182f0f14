"""The psi divisor's faces read off their vertices, against the listing that
contracts every psi cone at every split and groups the faces."""

import io

import pytest

from tropmod import cli, divisors
from tropmod.divisors import (
    _face_reports,
    _psi_reports,
    check_psi_balanced,
    psi_divisor,
    verify_witness,
)
from tropmod.trees import enumerate_types, to_tree

CASES = [(n, k) for n in (5, 6, 7) for k in range(1, n + 1)] + [(8, 1), (8, 4), (8, 8)]


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


@pytest.mark.parametrize("n,k", CASES)
def test_streamed_psi_reports_match_the_contract_listing(n, k, monkeypatch):
    # the listing passes no witness, so each of its reports holds the
    # coefficients that the isolating solve read
    listing = list(_face_reports(psi_divisor(n, k)))
    balance_at = divisors._balance_at
    tried = []

    def recorded(face, extras, weights, witness=None, *rest):
        tried.append((face, witness))
        return balance_at(face, extras, weights, witness, *rest)

    monkeypatch.setattr(divisors, "_balance_at", recorded)
    assert list(_psi_reports(n, k)) == listing
    # each face solved, the first of its partition, tried the coefficients
    # the isolating solve read; the other faces are read off the partition
    solved = {rep.face: rep.witness for rep in listing}
    assert tried and all(witness == solved[face] for face, witness in tried)
    # leaf k at a 5-valent vertex, or at one of two 4-valent vertices
    assert {len(rep.extra_splits) for rep in listing} == ({6} if n == 5 else {3, 6})


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_planted_wrong_witness_is_overruled_by_the_isolating_solve(monkeypatch, fmt):
    argv = ["check", "psi", "--n", "7", "--k", "3", "--format", fmt]
    expected = run(argv)
    local_witness = divisors._local_witness
    isolating_coordinates = divisors._isolating_coordinates
    planted, solved = [], []

    def off_by_one(splits, branches, coefficient=1):
        # the first witness of each rule gets its first entry off by one
        witness = local_witness(splits, branches, coefficient)
        if coefficient in planted:
            return witness
        planted.append(coefficient)
        return (witness[0] + 1,) + witness[1:]

    def counted(face):
        solved.append(face)
        return isolating_coordinates(face)

    monkeypatch.setattr(divisors, "_local_witness", off_by_one)
    monkeypatch.setattr(divisors, "_isolating_coordinates", counted)
    assert run(argv) == expected
    assert sorted(planted) == [1, 2] and len(solved) == 2


def test_planted_wrong_extra_split_is_unbalanced_by_name(monkeypatch):
    argv = ["check", "psi", "--n", "7", "--k", "3"]
    code, expected = run(argv)
    assert code == cli.EXIT_OK
    balance_at = divisors._balance_at
    faces = []

    def wrong_extra(face, extras, *rest):
        # at the 100th face solved, the first of its partition, the last
        # adjacent cone takes the first one's extra split
        faces.append(face)
        if len(faces) == 100:
            extras = extras[:-1] + extras[:1]
        return balance_at(face, extras, *rest)

    monkeypatch.setattr(divisors, "_balance_at", wrong_extra)
    code, out = run(argv)
    assert code == cli.EXIT_CERTIFICATE
    # the partition is not stored, so its later faces are solved unplanted
    lines = expected.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith(f"face {faces[99].text}: "))
    lines[at] = lines[at].replace(", balanced", ", UNBALANCED")
    lines[-1] = "CERTIFICATE FAILED"
    assert "UNBALANCED" in lines[at]
    assert out.splitlines() == lines


def _solving_vertex(face, k):
    """The kind of a psi face, 5 or 4 by the valence of leaf k's vertex, and
    the branches at the vertex where it is balanced, read off the realized
    tree; None when the type is no face."""
    tree = to_tree(face)
    valences = tree.valences()
    home = next(i for i, v in enumerate(tree.vertices) if k in v.leaves)
    if valences[home] == 5:
        return 5, frozenset(tree.branches(home))
    if valences[home] == 4:
        other = next(i for i, v in enumerate(valences) if v == 4 and i != home)
        return 4, frozenset(tree.branches(other))
    return None


@pytest.mark.parametrize("n,k,faces,solves", [(7, 3, 315, 175), (8, 4, 5040, 1120)])
def test_each_psi_partition_is_solved_once_and_every_report_verifies(
    n, k, faces, solves, monkeypatch
):
    balance_at = divisors._balance_at
    solved = []

    def counted(face, *rest):
        solved.append(_solving_vertex(face, k))
        return balance_at(face, *rest)

    monkeypatch.setattr(divisors, "_balance_at", counted)
    reports = list(_psi_reports(n, k))
    vertices = [_solving_vertex(face, k) for face in enumerate_types(n, n - 5)]
    partitions = {v for v in vertices if v is not None}
    # one solve per kind of face and partition of the leaves at its vertex
    assert len(solved) == len(set(solved)) == len(partitions) == solves
    assert len(reports) == len(vertices) - vertices.count(None) == faces
    assert [rep.face for rep in reports] == [
        face for face, v in zip(enumerate_types(n, n - 5), vertices) if v is not None
    ]
    assert all(verify_witness(rep) for rep in reports)


@pytest.mark.parametrize("k", [True, 2.0, "3", None])
def test_leaf_label_that_is_no_int_is_refused_by_name(k):
    # True was read as leaf 1, and 2.0 failed inside with a TypeError
    for make in (psi_divisor, check_psi_balanced):
        with pytest.raises(ValueError) as err:
            make(6, k)
        assert str(err.value) == f"leaf label k must be an integer in 1..6, got {k!r}"

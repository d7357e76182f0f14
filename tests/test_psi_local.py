"""The psi divisor's faces read off their vertices, against the listing that
contracts every psi cone at every split and groups the faces."""

import io

import pytest

from tropmod import cli, divisors
from tropmod.divisors import _face_reports, _psi_reports, psi_divisor
from tropmod.trees import CombinatorialType

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
    witnesses = []

    def recorded(face, adjacent, splits, witness=None, *rest):
        witnesses.append(witness)
        return balance_at(face, adjacent, splits, witness, *rest)

    monkeypatch.setattr(divisors, "_balance_at", recorded)
    assert list(_psi_reports(n, k)) == listing
    assert witnesses == [rep.witness for rep in listing]
    # leaf k at a 5-valent vertex, or at one of two 4-valent vertices
    assert {len(rep.adjacent) for rep in listing} == ({6} if n == 5 else {3, 6})


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

    def counted(face, splits):
        solved.append(face)
        return isolating_coordinates(face, splits)

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

    def wrong_extra(face, adjacent, splits, *rest):
        # at the 100th face, the last adjacent cone takes the first one's extra split
        faces.append(face)
        if len(faces) == 100:
            extra = adjacent[0][2]
            cone = CombinatorialType._trusted(face.labels, face.splits | {extra})
            adjacent = adjacent[:-1] + [(cone, 1, extra)]
        return balance_at(face, adjacent, splits, *rest)

    monkeypatch.setattr(divisors, "_balance_at", wrong_extra)
    code, out = run(argv)
    assert code == cli.EXIT_CERTIFICATE
    lines = expected.splitlines()
    lines[99] = lines[99].replace(", balanced", ", UNBALANCED")
    lines[-1] = "CERTIFICATE FAILED"
    assert lines[99].startswith(f"face {faces[99].text}: ") and "UNBALANCED" in lines[99]
    assert out.splitlines() == lines

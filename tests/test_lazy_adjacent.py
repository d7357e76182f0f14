"""A report keeps its extra splits and weights; its adjacent facets are
built on first read, equal to the eagerly built ones, and never built by
the command-line writers."""

import io
import json
from pathlib import Path

import pytest

from oracles import bareiss_smooth_report
from tropmod import cli, serialization
from tropmod.divisors import (
    AdjacentFacet,
    _face_reports,
    _moduli_reports,
    _psi_reports,
    moduli_fan,
    psi_divisor,
)
from tropmod.trees import contract

FAN_FILE = Path(__file__).with_name("fan_n6_weight2.json")


def _fan():
    return serialization.fan_from_json(json.loads(FAN_FILE.read_text()))


def _eager_adjacent(fan):
    """Each face of the fan to its adjacent facets, built one by one from
    the cones that hold it, in the order of their extra splits."""
    faces = {}
    for cone, weight in fan.cones:
        for s in cone.splits:
            face = contract(cone, s)
            faces.setdefault(face, []).append(AdjacentFacet(face, s, weight))
    return {
        face: tuple(sorted(recs, key=lambda rec: rec.extra_split.key))
        for face, recs in faces.items()
    }


SOURCES = {
    "balancing": (lambda: _moduli_reports(7), lambda: moduli_fan(7)),
    "smooth": (lambda: _moduli_reports(7, smooth=True), lambda: moduli_fan(7)),
    "psi": (lambda: _psi_reports(7, 3), lambda: psi_divisor(7, 3)),
    "fan": (lambda: _face_reports(_fan()), _fan),
}


@pytest.mark.parametrize("source", SOURCES)
def test_adjacent_is_built_on_first_read_and_kept(source):
    reports, fan = SOURCES[source]
    fan = fan()
    eager = _eager_adjacent(fan)
    reports = list(reports())
    assert len(reports) == len(eager)
    for rep in reports:
        assert rep._adjacent is None
        adjacent = rep.adjacent
        assert type(adjacent) is tuple and adjacent == eager[rep.face]
        assert rep.adjacent is adjacent
    if source == "smooth":
        listing = [bareiss_smooth_report(7, rep.face)[0] for rep in reports]
    else:
        listing = list(_face_reports(fan))
    assert reports == listing
    assert [hash(rep) for rep in reports] == [hash(rep) for rep in listing]


def test_faces_of_a_decided_partition_share_its_extras_and_weights():
    reports = list(_moduli_reports(7))
    extras = {id(rep._extras) for rep in reports}
    weights = {id(rep._weights) for rep in reports}
    # one tuple of extra splits per 4-partition, S(7, 4) = 350, and one
    # tuple of unit weights for every face read off a partition
    assert len(extras) == 350
    assert len(weights) == 350 + 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "balancing", "--n", "7"],
        ["check", "smooth", "--n", "7"],
        ["check", "psi", "--n", "7", "--k", "3"],
        ["check", "balancing", "--fan", str(FAN_FILE)],
    ],
)
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_writers_build_no_adjacent_facet(argv, fmt, monkeypatch):
    built = []
    init = AdjacentFacet.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(AdjacentFacet, "__init__", counted)
    code = cli.main(argv + ["--format", fmt], out=io.StringIO())
    assert code in (cli.EXIT_OK, cli.EXIT_CERTIFICATE)
    assert built == []
    # the count is live: reading a report's facets builds them
    next(_moduli_reports(5)).adjacent
    assert len(built) == 3

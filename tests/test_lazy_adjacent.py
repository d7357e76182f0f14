"""A report's extra splits and weights are those of the fan's cones at its
face; the faces of one partition share its extra splits, and every face
decided at a vertex one tuple of unit weights."""

import json
from pathlib import Path

import pytest

from oracles import bareiss_smooth_report
from tropmod import serialization
from tropmod.divisors import (
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
    """Each face of the fan to the extra splits and the weights of the
    cones that hold it, read one by one, in the order of their extra
    splits."""
    faces = {}
    for cone, weight in fan.cones:
        for s in cone.splits:
            faces.setdefault(contract(cone, s), []).append((s, weight))
    out = {}
    for face, pairs in faces.items():
        pairs.sort(key=lambda sw: sw[0].key)
        out[face] = (tuple(s for s, _ in pairs), tuple(w for _, w in pairs))
    return out


SOURCES = {
    "balancing": (lambda: _moduli_reports(7), lambda: moduli_fan(7)),
    "smooth": (lambda: _moduli_reports(7, smooth=True), lambda: moduli_fan(7)),
    "psi": (lambda: _psi_reports(7, 3), lambda: psi_divisor(7, 3)),
    "fan": (lambda: _face_reports(_fan()), _fan),
}


@pytest.mark.parametrize("source", SOURCES)
def test_extra_splits_and_weights_are_the_fans_cones(source):
    reports, fan = SOURCES[source]
    fan = fan()
    eager = _eager_adjacent(fan)
    reports = list(reports())
    assert len(reports) == len(eager)
    for rep in reports:
        assert type(rep.extra_splits) is tuple and type(rep.weights) is tuple
        assert (rep.extra_splits, rep.weights) == eager[rep.face]
    if source == "smooth":
        listing = [bareiss_smooth_report(7, rep.face)[0] for rep in reports]
    else:
        listing = list(_face_reports(fan))
    assert reports == listing
    assert [hash(rep) for rep in reports] == [hash(rep) for rep in listing]


def test_faces_of_a_decided_partition_share_its_extras_and_weights():
    reports = list(_moduli_reports(7))
    extras = {id(rep.extra_splits) for rep in reports}
    weights = {id(rep.weights) for rep in reports}
    # one tuple of extra splits per 4-partition, S(7, 4) = 350, and one
    # tuple of unit weights for every face
    assert len(extras) == 350
    assert len(weights) == 1

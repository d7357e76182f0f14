"""The public value classes: plain immutable slotted classes whose copies,
pickles, reprs and fast constructors behave as they did as dataclasses,
and a command-line start that loads no ``dataclasses`` machinery."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from tropmod import (
    AdjacentFacet,
    BalancingReport,
    BoundaryDecomposition,
    CombinatorialType,
    EmbeddingVector,
    LinkGraph,
    ModuliPoint,
    RatioIndex,
    Split,
    TreeRealization,
    TreeVertex,
    WeightedFan,
    check_balanced,
    decompose_boundary,
    embed,
    moduli_fan,
    to_tree,
)
from tropmod.rationals import POS_INF


def t5():
    return CombinatorialType.of(5, [{4, 5}])


def p4():
    return ModuliPoint.of(4, {(3, 4): Fraction(1, 2)})


def report():
    return check_balanced(moduli_fan(4))[0]


# (class, sample, its repr as a dataclass, the sample built by ``_trusted``)
CASES = [
    (Split, lambda: t5().splits[0], "Split(45)", None),
    (
        CombinatorialType,
        t5,
        "CombinatorialType(n=5, {45})",
        lambda t: CombinatorialType._trusted(t.labels, t.splits),
    ),
    (
        TreeVertex,
        lambda: to_tree(t5()).vertices[1],
        "TreeVertex(leaves=frozenset({4, 5}), splits=frozenset({Split(45)}))",
        None,
    ),
    (
        TreeRealization,
        lambda: to_tree(t5()),
        "TreeRealization(vertices=(TreeVertex(leaves=frozenset({1, 2, 3}), "
        "splits=frozenset({Split(45)})), TreeVertex(leaves=frozenset({4, 5}), "
        "splits=frozenset({Split(45)}))), edges=((Split(45), 0, 1),))",
        None,
    ),
    (RatioIndex, lambda: RatioIndex((1, 2), (3, 4)), "RatioIndex((1, 2),(3, 4))", None),
    (ModuliPoint, p4, "ModuliPoint(n=4, {34:1/2})", None),
    (
        EmbeddingVector,
        lambda: embed(p4()),
        "EmbeddingVector(n=4, entries=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 2)))",
        lambda v: EmbeddingVector._trusted(v.n, v.entries),
    ),
    (
        LinkGraph,
        lambda: LinkGraph(5, (t5(),), ((0, 0),), (t5(),)),
        "LinkGraph(n=5, vertices=(CombinatorialType(n=5, {45}),), edges=((0, 0),), "
        "quadrants=(CombinatorialType(n=5, {45}),))",
        None,
    ),
    (
        WeightedFan,
        lambda: moduli_fan(4),
        "WeightedFan(n=4, dim=1, cones=((CombinatorialType(n=4, {23}), 1), "
        "(CombinatorialType(n=4, {24}), 1), (CombinatorialType(n=4, {34}), 1)))",
        None,
    ),
    (
        AdjacentFacet,
        lambda: report().adjacent[0],
        "AdjacentFacet(face=CombinatorialType(n=4, {}), extra_split=Split(23), weight=1)",
        None,
    ),
    (
        BalancingReport,
        report,
        "BalancingReport(face=CombinatorialType(n=4, {}), adjacent=("
        + ", ".join(
            f"AdjacentFacet(face=CombinatorialType(n=4, {{}}), extra_split=Split({s}), weight=1)"
            for s in (23, 24, 34)
        )
        + "), balanced=True, smooth=None, witness=(), minor=None)",
        None,
    ),
    (
        BoundaryDecomposition,
        lambda: decompose_boundary(ModuliPoint.of(5, {(4, 5): POS_INF})),
        "BoundaryDecomposition(components=(ModuliPoint(n=4, {}), ModuliPoint(n=3, {})), "
        "gluings=(((0, 6), (1, 7)),))",
        None,
    ),
]


@pytest.mark.parametrize("cls, sample, text, trusted", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_class_copies_freezes_shows_and_trusts(cls, sample, text, trusted):
    value = sample()
    assert type(value) is cls
    copies = [copy.copy(value), copy.deepcopy(value)]
    copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert type(other) is cls and other == value and hash(other) == hash(value)
    field = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text
    if trusted is not None:
        twin = trusted(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_split_equality_leaves_its_caches_out():
    fresh, used = Split.of(5, {4, 5}), Split.of(5, {1, 2, 3})
    assert used.key and used.text and used.mask
    assert fresh == used and hash(fresh) == hash(used) == hash(used.side)
    assert fresh != CombinatorialType.of(5, [{4, 5}]) and fresh != (fresh.labels, fresh.side)


def test_cli_starts_without_dataclasses_or_inspect():
    # -S: no site .pth can load or hide a module
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, tropmod.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={"PATH": "", "PYTHONPATH": str(src)},
    ).stdout
    assert out == "[]\n"

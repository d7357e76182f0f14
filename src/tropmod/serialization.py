"""Lossless JSON formats: points, embedding vectors, fans, reports.

Rationals travel as "p/q" strings (denominator 1 omitted), infinities as
"inf" / "-inf"; no floats anywhere.  All emitted structures use canonical
orderings so output is byte-for-byte reproducible.

What depends on one split alone, its side and its direction, is handed
over as the split's own tuple, which the CLI's writer renders once per
split; a report's "sum" is a list, or in the CLI a stand-in that the writer
renders once per set of adjacent facets.  Readers refuse a label list that
repeats a label, and a fan is read onto the pooled splits of 1..n.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .divisors import BalancingReport, WeightedFan
from .errors import MalformedInput, TropmodError, _shown
from .maps import BoundaryDecomposition
from .moduli import EmbeddingVector, ModuliPoint, _check_coordinates, _split_direction
from .rationals import ExtendedRational, TooManyDigits, format_extended, parse_extended
from .trees import CombinatorialType, Split, _as_labels, _leaf_set, _pooled_split, _with_split


def split_to_json(split: Split) -> List[int]:
    return list(split.key)


def point_to_json(x: ModuliPoint) -> dict:
    """Point format: {"n": ..., "splits": [{"side": [...], "length": "p/q"|"inf"}]}.

    When the leaf labels are not 1..n (possible after ``forget`` without
    relabeling) an extra "labels" key carries them.
    """
    out: dict = {"n": x.n}
    if x.labels != frozenset(range(1, x.n + 1)):
        out["labels"] = sorted(x.labels)
    out["splits"] = [
        {"side": split_to_json(s), "length": format_extended(v)} for s, v in x.lengths
    ]
    return out


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInput(f"{what} must be an integer, got {_shown(value)}")
    return value


def _labels(value, what: str) -> List[int]:
    """A list of leaf labels: integers, none repeated."""
    if not isinstance(value, (list, tuple)):
        raise MalformedInput(f"{what} must be a list of integers, got {_shown(value)}")
    out = [_integer(x, what) for x in value]
    if len(set(out)) < len(out):
        seen = set()
        for x in out:
            if x in seen:
                raise MalformedInput(f"{what} repeats label {_shown(x)}")
            seen.add(x)
    return out


def _extended(value, what: str) -> ExtendedRational:
    """``parse_extended``, its refusals raised as ``MalformedInput`` that
    echo at most the first 40 characters of the value."""
    try:
        return parse_extended(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        why = f": {exc}" if isinstance(exc, TooManyDigits) else ""
        raise MalformedInput(f'{what} must be a "p/q" string, got {_shown(value)}{why}') from None


def point_from_json(obj: dict) -> ModuliPoint:
    if not isinstance(obj, dict) or "n" not in obj or "splits" not in obj:
        raise MalformedInput('a point object needs keys "n" and "splits"')
    n = _integer(obj["n"], '"n"')
    labels = _as_labels(_labels(obj["labels"], '"labels"') if "labels" in obj else n)
    if not isinstance(obj["splits"], list):
        raise MalformedInput('"splits" must be a list')
    lengths = {}
    for entry in obj["splits"]:
        if not isinstance(entry, dict) or not {"side", "length"} <= set(entry):
            raise MalformedInput(f'each split needs keys "side" and "length", got {_shown(entry)}')
        split = Split.of(labels, _labels(entry["side"], '"side"'))
        if split in lengths:
            raise MalformedInput(f"duplicate split {split.text} in point")
        lengths[split] = _extended(entry["length"], '"length"')
    point = ModuliPoint.of(labels, lengths)
    if point.n != n:
        raise MalformedInput('"n" does not match the number of labels')
    return point


def vector_to_json(v: EmbeddingVector) -> List[str]:
    """Vector format: a flat array of "p/q" | "inf" | "-inf" strings in
    canonical coordinate order.

    Each distinct entry object is formatted once; ``embed`` shares one object
    per distinct value.
    """
    distinct = {id(e): e for e in v.entries}
    text = {key: format_extended(e) for key, e in distinct.items()}
    return [text[id(e)] for e in v.entries]


def vector_from_json(obj: Sequence, n: int) -> EmbeddingVector:
    """Parse a vector; each distinct string entry is checked and parsed once."""
    if not isinstance(obj, (list, tuple)):
        raise MalformedInput("a vector is a flat JSON array of rational strings")
    parsed: Dict[str, ExtendedRational] = {}
    entries = []
    for e in obj:
        if type(e) is str:
            value = parsed.get(e)
            if value is None:
                value = parsed[e] = _extended(e, "vector entry")
        else:
            value = _extended(e, "vector entry")
        entries.append(value)
    _check_coordinates(n, entries)
    return EmbeddingVector._trusted(n, tuple(entries))


def fan_to_json(fan: WeightedFan) -> dict:
    return {
        "n": fan.n,
        "dim": fan.dim,
        "cones": [_cone_json(c, w) for c, w in fan.cones],
    }


def _cone_json(cone: CombinatorialType, weight: int) -> dict:
    return {"splits": type_to_json(cone), "weight": weight}


def fan_from_json(obj: dict) -> WeightedFan:
    """Read a fan; the output of ``fan_to_json`` reads back as it is.

    Every refusal is a ``MalformedInput``, including those of the types and
    the fan it builds (a label out of range, clashing splits, a cone of
    another dimension, a repeated cone), which keep their messages.  Each
    cone is built on the pooled splits of 1..n (see ``_pooled_cone``), so
    the faces and directions of the certificate find them by identity.
    """
    if not isinstance(obj, dict) or not {"n", "dim", "cones"} <= set(obj):
        raise MalformedInput('a fan object needs keys "n", "dim" and "cones"')
    n = _integer(obj["n"], '"n"')
    dim = _integer(obj["dim"], '"dim"')
    if not isinstance(obj["cones"], list):
        raise MalformedInput('"cones" must be a list')
    cones = []
    try:
        for entry in obj["cones"]:
            if not isinstance(entry, dict) or "splits" not in entry:
                raise MalformedInput(f'each cone needs a key "splits", got {_shown(entry)}')
            splits = entry["splits"]
            if not isinstance(splits, (list, tuple)):
                raise MalformedInput(f'"splits" must be a list of sides, got {_shown(splits)}')
            sides = [_labels(side, '"side"') for side in splits]
            weight = _integer(entry.get("weight", 1), '"weight"')
            cones.append((_pooled_cone(n, sides), weight))
        return WeightedFan(n=n, dim=dim, cones=tuple(cones))
    except (TropmodError, ValueError) as exc:
        raise MalformedInput(str(exc)) from None


def _pooled_cone(n: int, sides: List[List[int]]) -> CombinatorialType:
    """``CombinatorialType.of(n, sides)`` with the same refusals, on the
    pooled splits: each side is checked as ``Split`` checks it and taken by
    its mask away from leaf 1."""
    if n < 3:
        raise ValueError("at least three marked leaves are required")
    full = (1 << (n + 1)) - 2  # the mask of 1..n
    masks = set()
    for side in sides:
        if not all(0 < x <= n for x in side):
            raise ValueError("side must consist of leaf labels")
        if not 2 <= len(side) <= n - 2:
            raise ValueError("both sides of a split need at least two leaves")
        mask = sum(1 << x for x in side)
        masks.add(full ^ mask if mask & 2 else mask)
    return CombinatorialType(_leaf_set(n), [_pooled_split(n, m) for m in masks])


def type_to_json(t: CombinatorialType) -> Tuple[Tuple[int, ...], ...]:
    """The sides in key order, each the split's own ``key`` tuple, which
    the CLI's writer renders once per split."""
    return t.key


def report_to_json(report: BalancingReport) -> dict:
    """A report's JSON object.  Sides and directions are the splits' own
    tuples, as in ``type_to_json``; the sum, the coefficients and the minor,
    made for this face alone, are lists."""
    return _report_json(report, list(report.weighted_sum))


def _report_json(report: BalancingReport, weighted_sum) -> dict:
    """``report_to_json`` with ``weighted_sum`` as its "sum": the CLI's
    writer passes a stand-in that it renders from its memo of sums."""
    face = report.face
    return {
        "face": type_to_json(face),
        "adjacent": [
            {
                "cone": type_to_json(_with_split(face, extra)),
                "extra_split": extra.key,
                "weight": weight,
                "direction": _split_direction(extra),
            }
            for extra, weight in zip(report.extra_splits, report.weights)
        ],
        "sum": weighted_sum,
        "balanced": report.balanced,
        "smooth": report.smooth,
        "witness": _witness_to_json(report),
    }


def _witness_to_json(report: BalancingReport) -> Optional[dict]:
    """{"coefficients": [...]} (plus "minor" for smoothness), or null."""
    if report.witness is None:
        return None
    out: dict = {"coefficients": list(report.witness)}
    if report.minor is not None:
        out["minor"] = list(report.minor)
    return out


def decomposition_to_json(d: BoundaryDecomposition) -> dict:
    return {
        "components": [point_to_json(p) for p in d.components],
        "gluings": [
            [[comp_a, marker_a], [comp_b, marker_b]]
            for (comp_a, marker_a), (comp_b, marker_b) in d.gluings
        ],
    }


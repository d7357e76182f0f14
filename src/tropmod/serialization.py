"""Lossless JSON formats: points, embedding vectors, fans, reports.

Rationals travel as "p/q" strings (denominator 1 omitted), infinities as
"inf" / "-inf"; no floats anywhere.  All emitted structures use canonical
orderings so output is byte-for-byte reproducible.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .divisors import BalancingReport, WeightedFan
from .errors import MalformedInput, _shown
from .maps import BoundaryDecomposition
from .moduli import EmbeddingVector, ModuliPoint, _check_coordinates
from .rationals import ExtendedRational, TooManyDigits, format_extended, parse_extended
from .trees import CombinatorialType, Split, _as_labels


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
        raise MalformedInput(f"{what} must be an integer, got {value!r}")
    return value


def _integers(value, what: str) -> List[int]:
    if not isinstance(value, list):
        raise MalformedInput(f"{what} must be a list of integers, got {value!r}")
    return [_integer(x, what) for x in value]


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
    labels = _as_labels(_integers(obj["labels"], '"labels"') if "labels" in obj else n)
    if not isinstance(obj["splits"], list):
        raise MalformedInput('"splits" must be a list')
    lengths = {}
    for entry in obj["splits"]:
        if not isinstance(entry, dict) or not {"side", "length"} <= set(entry):
            raise MalformedInput(f'each split needs keys "side" and "length", got {entry!r}')
        split = Split.of(labels, _integers(entry["side"], '"side"'))
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
        "cones": [{"splits": type_to_json(c), "weight": w} for c, w in fan.cones],
    }


def fan_from_json(obj: dict) -> WeightedFan:
    if not isinstance(obj, dict) or not {"n", "dim", "cones"} <= set(obj):
        raise MalformedInput('a fan object needs keys "n", "dim" and "cones"')
    n = _integer(obj["n"], '"n"')
    dim = _integer(obj["dim"], '"dim"')
    if not isinstance(obj["cones"], list):
        raise MalformedInput('"cones" must be a list')
    cones = []
    for entry in obj["cones"]:
        if not isinstance(entry, dict) or "splits" not in entry:
            raise MalformedInput(f'each cone needs a key "splits", got {entry!r}')
        if not isinstance(entry["splits"], list):
            raise MalformedInput(f'"splits" must be a list of sides, got {entry["splits"]!r}')
        sides = [_integers(side, '"side"') for side in entry["splits"]]
        weight = _integer(entry.get("weight", 1), '"weight"')
        cones.append((CombinatorialType.of(n, sides), weight))
    return WeightedFan(n=n, dim=dim, cones=tuple(cones))


def type_to_json(t: CombinatorialType) -> List[List[int]]:
    return [list(k) for k in t.key]


def report_to_json(report: BalancingReport) -> dict:
    return {
        "face": type_to_json(report.face),
        "adjacent": [
            {
                "cone": type_to_json(rec.cone),
                "extra_split": split_to_json(rec.extra_split),
                "weight": rec.weight,
                "direction": list(rec.direction),
            }
            for rec in report.adjacent
        ],
        "sum": list(report.weighted_sum),
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


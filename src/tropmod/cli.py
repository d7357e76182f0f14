"""Command-line front end: enumeration, embedding, certification, export.

Each kind of check and each export target takes only the flags it reads,
written after it: check balancing (--n N | --fan FILE), check smooth --n N
and check psi --n N --k K, each with [--format text|json]; export link --n N
[--format dot|json], export fan --n N and export embed --point FILE, each
with [--output FILE].  A missing flag, or one the kind does not read, is a
usage error.

Exit codes: 0 on success, 1 on usage or input errors (a request for more
than ``MAX_TYPES`` types or vector entries among them) or when a reader
closes stdout early, 2 when a requested certificate fails.  Output ordering
is canonical, so runs are byte-for-byte reproducible.  The TROPMOD_THREADS
environment variable caps the number of worker threads for certificate
checks and must be a positive integer; the checks run serially, which meets
any cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from decimal import Decimal
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _string
from math import comb
from typing import Optional, Sequence

from . import divisors, maps, moduli, serialization, trees
from .errors import TropmodError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CERTIFICATE = 2

# The most types a command may make, counted before any is made: at n = 10
# the 4,729,725 codim-1 types pass, at n = 11 the 34,459,425 facets do not.
# It also bounds the N = 3·C(n,4) entries of the dense vectors that embed,
# export embed and check balancing --fan build, checked once the input is
# read: at n = 81 the 4,991,220 pass, at n = 82 the 5,247,180 do not.
MAX_TYPES = 5_000_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _thread_cap() -> int:
    raw = os.environ.get("TROPMOD_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"TROPMOD_THREADS must be a positive integer, got {raw!r}")
    if cap < 1:
        raise UsageError(f"TROPMOD_THREADS must be a positive integer, got {raw!r}")
    return cap


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}")


def _render(value, pad: str = "\n") -> str:
    """The text of ``json.dumps(value, indent=2)``, started on a line with
    newline-and-indentation ``pad``.

    A list or tuple of plain ints is joined in C by ``_join_ints``.  A tuple
    of at most ``_MEMO_LEN`` plain ints is rendered once per pad and then
    taken from the memo ``_ints``: the serializers hand over as tuples only
    what depends on one split alone, its side (``Split.key``) and its
    direction, which a report or a type table repeats thousands of times,
    and hand over as lists everything made for one face, type or edge
    (sums, coefficients, minors, link edges).  The memo is bounded in
    entries and in the length of each: ``_MEMO_SIZE`` texts of at most
    ``_MEMO_LEN`` ints, so a run that writes more splits than it repeats
    keeps only its latest texts, and a direction too long to be worth
    keeping (n >= 10) is joined each time.  A value of a kind the
    CLI does not write (a float, a subclass, a dict with non-string keys)
    goes to ``json.dumps`` and is re-indented.
    """
    kind = type(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        # checked before the lookup: (True, 2) == (1, 2), with equal hashes
        if set(map(type, value)) == {int}:
            if kind is tuple and len(value) <= _MEMO_LEN:
                return _ints(value, pad)
            return _join_ints(value, pad)
        inner = pad + "  "
        items = [_render(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict and value and set(map(type, value)) == {str}:
        inner = pad + "  "
        items = [_string(k) + ": " + _render(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if kind is str:
        return _string(value)
    if kind is int:
        return str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return json.dumps(value, indent=2).replace("\n", pad)


def _join_ints(value, pad: str) -> str:
    """``_render`` of a nonempty list or tuple of plain ints."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(map(str, value)) + pad + "]"


# A check report at n = 9 renders 246 splits at four pads, all kept.  A
# direction has 3 * comb(n, 4) entries, so only those of n <= 9 are kept,
# about 5 kB of text each, and a side has at most n - 2.  enumerate and
# export link repeat a side only up to n = 14 (at n = 15 the 2-dimensional
# types pass MAX_TYPES), where the 8,177 splits outnumber the entries.
_MEMO_SIZE = 4096
_MEMO_LEN = 512
_ints = lru_cache(maxsize=_MEMO_SIZE)(_join_ints)


def _dump(obj, out) -> None:
    """Write ``json.dumps(obj, indent=2)`` and a newline to ``out``.

    A dict is written one key at a time, and a value of it that is an
    iterator (not a list) one rendered item at a time, so a long report is
    never held as one string.  A value that is callable is called when its
    key is written, so it can follow the iterators written before it.
    """
    if type(obj) is not dict or not obj or set(map(type, obj)) != {str}:
        out.write(_render(obj) + "\n")
        return
    sep = "{\n  "
    for key, value in obj.items():
        out.write(sep + _string(key) + ": ")
        sep = ",\n  "
        if isinstance(value, Iterator):
            opened = False
            for item in value:
                out.write((",\n    " if opened else "[\n    ") + _render(item, "\n    "))
                opened = True
            out.write("\n  ]" if opened else "[]")
        elif callable(value):
            out.write(_render(value(), "\n  "))
        else:
            out.write(_render(value, "\n  "))
    out.write("\n}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="tropmod", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list combinatorial types")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("embed", help="embed a point (vector JSON to stdout)")
    p.add_argument("--point", metavar="FILE", required=True)
    p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("reconstruct", help="invert the embedding on a finite vector")
    p.add_argument("--vector", metavar="FILE", required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("check", help="run a certificate; exit 2 on failure")
    kinds = p.add_subparsers(dest="what", required=True)
    q = kinds.add_parser("balancing", help="balancing of the moduli fan or of a fan file")
    source = q.add_mutually_exclusive_group(required=True)
    source.add_argument("--n", type=int)
    source.add_argument("--fan", metavar="FILE")
    q = kinds.add_parser("smooth", help="local smoothness at every codimension-1 type")
    q.add_argument("--n", type=int, required=True)
    q = kinds.add_parser("psi", help="balancing of the psi divisor of leaf k")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    for q in kinds.choices.values():
        q.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("forget", help="apply a forgetful map to a point")
    p.add_argument("--point", metavar="FILE", required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--relabel", action="store_true", help="relabel leaves densely to 1..n")

    p = sub.add_parser("section", help="apply the section of marking k to a point")
    p.add_argument("--point", metavar="FILE", required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("decompose", help="cut a boundary point along infinite edges")
    p.add_argument("--point", metavar="FILE", required=True)

    p = sub.add_parser("export", help="export the link graph, a fan, or an embedding")
    targets = p.add_subparsers(dest="target", required=True)
    q = targets.add_parser("link", help="the link of the origin")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--format", choices=("dot", "json"), default="dot")
    q = targets.add_parser("fan", help="the moduli fan as JSON")
    q.add_argument("--n", type=int, required=True)
    q = targets.add_parser("embed", help="the embedding vector of a point")
    q.add_argument("--point", metavar="FILE", required=True)
    for q in targets.choices.values():
        q.add_argument("--output", metavar="FILE")

    # usage errors name the choices, not the dest
    for action in (sub, kinds, targets):
        action.metavar = "{" + ",".join(action.choices) + "}"
    return parser


def _count_within_limit(n: int, *dims: int) -> int:
    """The number of types on {1..n} of these dimensions, refused past ``MAX_TYPES``.

    Every set of ``dim`` splits of one facet is a type, so comb(n - 3, dim)
    bounds the count from below.  It is checked first, because the exact
    count takes O(n * dim) big-integer products.
    """
    floor = sum(comb(n - 3, dim) for dim in dims if 0 <= dim <= n - 3)
    if floor > MAX_TYPES:
        _refuse_types("at least ", floor, n)
    count = sum(trees._count_types(n, dim) for dim in dims)
    if count > MAX_TYPES:
        _refuse_types("", count, n)
    return count


def _refuse_types(prefix: str, count: int, n: int) -> None:
    try:
        text = str(count)
    except ValueError:  # more digits than int-to-str conversion allows
        text = f"a {Decimal(count).adjusted() + 1}-digit number of"
    raise UsageError(
        f"{prefix}{text} combinatorial types at n = {n} exceed the limit of {MAX_TYPES}"
    )


def _coordinates_within_limit(n: int) -> None:
    """Refuse a dense vector on n leaves of more than ``MAX_TYPES`` entries."""
    size = 3 * comb(n, 4)
    if size > MAX_TYPES:
        raise UsageError(f"{size} embedding coordinates at n = {n} exceed the limit of {MAX_TYPES}")


def _cmd_enumerate(args, out) -> int:
    count = _count_within_limit(args.n, args.dim)
    types = trees._stream_types(args.n, args.dim)
    if args.format == "json":
        _dump(
            {
                "n": args.n,
                "dim": args.dim,
                "count": count,
                "types": map(serialization.type_to_json, types),
            },
            out,
        )
    else:
        out.write(f"{count}\n")
        for t in types:
            out.write(t.text + "\n")
    return EXIT_OK


def _cmd_embed(args, out) -> int:
    point = serialization.point_from_json(_load_json(args.point))
    _coordinates_within_limit(point.n)
    vector = moduli.embed(point)
    if args.format == "text":
        # every distinct entry is formatted before the first line is written,
        # so one past the int-to-string limit leaves stdout empty
        text = {id(e): serialization.format_extended(e) for e in vector.entries}
        for r, value in zip(vector.coordinates, vector.entries):
            out.write(f"{r.first}{r.second}: {text[id(value)]}\n")
    else:
        _dump(serialization.vector_to_json(vector), out)
    return EXIT_OK


def _cmd_reconstruct(args, out) -> int:
    vector = serialization.vector_from_json(_load_json(args.vector), args.n)
    point = moduli.reconstruct(vector, args.n)
    _dump(serialization.point_to_json(point), out)
    return EXIT_OK


def _passed(report: divisors.BalancingReport) -> bool:
    return report.balanced and report.smooth is not False


def _cmd_check(args, out) -> int:
    _thread_cap()  # validated; the faces are solved serially, which meets any cap
    if args.n is not None:
        _count_within_limit(args.n, args.n - 4)
    if args.what == "balancing":
        if args.fan is not None:
            obj = _load_json(args.fan)
            n = obj.get("n") if isinstance(obj, dict) else None
            if type(n) is int and n >= 0:
                # before the fan is read, which makes the n labels
                _coordinates_within_limit(n)
            reports = divisors._face_reports(serialization.fan_from_json(obj))
        else:
            reports = divisors._moduli_reports(args.n)
    elif args.what == "psi":
        reports = divisors._psi_reports(args.n, args.k)
    else:  # smooth
        if args.n < 4:
            raise UsageError("check smooth needs --n >= 4")
        reports = divisors._moduli_reports(args.n, smooth=True)

    ok = True

    def tracked():
        nonlocal ok
        for rep in reports:
            ok = ok and _passed(rep)
            yield rep

    if args.format == "json":
        payload = {
            "check": args.what,
            "reports": map(serialization.report_to_json, tracked()),
            # called once the reports are written
            "all_passed": lambda: ok,
        }
        _dump(payload, out)
    else:
        label = "face" if args.what != "smooth" else "codim-1 type"
        for rep in tracked():
            verdict = "balanced" if rep.balanced else "UNBALANCED"
            if rep.smooth is not None:
                verdict += ", smooth" if rep.smooth else ", NOT SMOOTH"
            out.write(f"{label} {rep.face.text}: {len(rep.adjacent)} adjacent, {verdict}\n")
        out.write(("all checks passed" if ok else "CERTIFICATE FAILED") + "\n")
    return EXIT_OK if ok else EXIT_CERTIFICATE


def _cmd_forget(args, out) -> int:
    point = serialization.point_from_json(_load_json(args.point))
    image = maps.forget(point, args.j)
    if args.relabel:
        image = maps.relabel(image)
    _dump(serialization.point_to_json(image), out)
    return EXIT_OK


def _cmd_section(args, out) -> int:
    point = serialization.point_from_json(_load_json(args.point))
    _dump(serialization.point_to_json(maps.section(point, args.k)), out)
    return EXIT_OK


def _cmd_decompose(args, out) -> int:
    point = serialization.point_from_json(_load_json(args.point))
    _dump(serialization.decomposition_to_json(maps.decompose_boundary(point)), out)
    return EXIT_OK


def _link_dot(graph: moduli.LinkGraph) -> str:
    names = [ray.splits[0].text for ray in graph.vertices]
    lines = [f"graph link_n{graph.n} {{"]
    lines += [f'  "{name}";' for name in names]
    for (a, b), quadrant in zip(graph.edges, graph.quadrants):
        lines.append(f'  "{names[a]}" -- "{names[b]}"; // {quadrant.text}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_export(args, out) -> int:
    if args.target == "link":
        if args.n < 5:
            raise UsageError("export link needs --n >= 5")
        _count_within_limit(args.n, 1, 2)
        graph = moduli.link_graph(args.n)
        if args.format == "dot":
            text = _link_dot(graph)
        else:
            payload = {
                "n": args.n,
                "vertices": [serialization.type_to_json(t) for t in graph.vertices],
                "edges": [list(edge) for edge in graph.edges],
            }
            text = _render(payload) + "\n"
    elif args.target == "fan":
        _count_within_limit(args.n, args.n - 3)
        text = _render(serialization.fan_to_json(divisors.moduli_fan(args.n))) + "\n"
    else:  # embed
        point = serialization.point_from_json(_load_json(args.point))
        _coordinates_within_limit(point.n)
        text = _render(serialization.vector_to_json(moduli.embed(point))) + "\n"

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {args.output}: {exc}")
    else:
        out.write(text)
    return EXIT_OK


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "embed": _cmd_embed,
    "reconstruct": _cmd_reconstruct,
    "check": _cmd_check,
    "forget": _cmd_forget,
    "section": _cmd_section,
    "decompose": _cmd_decompose,
    "export": _cmd_export,
}


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
        return _COMMANDS[args.command](args, out)
    except (UsageError, TropmodError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main_entry() -> None:
    """The console script: ``main``, ending quietly with exit 1 when a
    reader closes stdout early (``tropmod ... | head -1``)."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: point it at devnull
        # so that flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    main_entry()

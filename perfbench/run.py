#!/usr/bin/env python3
"""The tropmod benchmark: certificate, enumeration and point workloads.

    python3 perfbench/run.py --workload certify-moduli --seed 1 --seconds 30 --trace 0

Runs the workload in a closed loop with a single client: one program process
at a time, each a fresh ``python -m tropmod.cli`` (or ``child.py points``)
with PYTHONPATH set to the checkout's ``src``.  It repeats whole cycles of
the workload's commands until the next cycle would overrun ``--seconds``,
checks every output, and prints one JSON object as its last line of stdout.
Times are scaled to a reference CPU speed measured while the program runs
(see spawn.py), because the speed of a shared virtual CPU drifts.

With ``--trace 0`` the metrics are the end-to-end metrics; with ``--trace 1``
the cycles alternate between untraced and traced runs, and the metrics are
the per-layer ones read from the tracer in ``child.py``.

Other modes: ``--workload all`` runs every workload and prints one table;
``--quick`` uses small n; ``--self-test`` checks that an injected wrong
output or digest counts as a failure; ``--record`` rewrites ``digests.json``
from the current program (only when its output is meant to change).
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Callable, Dict, List, Optional

from child import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")
SPAWN = os.path.join(HERE, "spawn.py")
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("certify-moduli", "certify-fan", "enumerate", "points")

# n for each command; "quick" is the same shape at small n.
SIZES = {
    "full": {"balancing": 8, "smooth": 7, "psi": 8, "fan": 7, "enumerate": 8,
             "points": {8: 40, 9: 40, 10: 60, 11: 30, 12: 20, 13: 50}},
    "quick": {"balancing": 6, "smooth": 5, "psi": 6, "fan": 5, "enumerate": 6,
              "points": {5: 8, 6: 8, 7: 8}},
}

SETUP_PROBES = 3  # set-up measurements before each cycle, and after the last
PIPE_BYTES = 1 << 20
RUN_LIMIT_S = 170.0  # every process is killed once a run has taken this long
# Every time is scaled to a reference CPU speed, at which the probe loop in
# spawn.py takes REF_PROBE_S (the median on the reference machine): a time t
# measured while the probe took p reads t * REF_PROBE_S / p.
REF_PROBE_S = 0.0008

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "items_per_s": "1/s", "op_p50_ms": "ms", "op_p95_ms": "ms",
}

# Spans and counters of the tracer in child.py, summed over a cycle's processes.
TRACED_FUNCS = (
    "trees.enumerate_types", "trees.to_tree", "trees.contract", "trees.resolutions",
    "trees.valence_profile", "lattice.in_rational_span", "lattice.in_integer_span",
    "lattice.is_saturated", "moduli.direction_vector", "moduli.embed",
    "moduli.reconstruct", "divisors.check_balanced", "divisors.check_smooth_local",
    "divisors.psi_divisor", "divisors.moduli_fan", "maps.forget", "maps.section",
    "maps.decompose_boundary", "maps.relabel",
)


def per_layer_units() -> Dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for name in TRACED_FUNCS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for group in ("write", "read"):
        units[f"serialization.{group}.calls"] = "count"
        units[f"serialization.{group}.self_s"] = "s"
    units.update({
        "trees.to_tree.hit_ratio": "ratio", "lattice.entries_in": "count",
        "divisors.faces": "count", "cli.bytes_out": "bytes", "trace.overhead_s": "s",
    })
    return units


class Abort(Exception):
    """The benchmark cannot run here; exit non-zero without a result."""


# ---------------------------------------------------------------- inputs
# Trees are built here without the package, so inputs never depend on it.

def _tree_splits(edges, n: int) -> List[frozenset]:
    """Canonical split sides (away from leaf 1) of a tree given by its edges.

    Leaves are the labels 1..n, internal vertices are negative integers.
    """
    adjacent: Dict[int, List[int]] = {}
    for u, v in edges:
        adjacent.setdefault(u, []).append(v)
        adjacent.setdefault(v, []).append(u)
    labels = frozenset(range(1, n + 1))
    out = []
    for u, v in edges:
        if u > 0 or v > 0:
            continue
        seen, stack = {u, v}, [v]
        while stack:
            w = stack.pop()
            for x in adjacent[w]:
                if x not in seen:
                    seen.add(x)
                    stack.append(x)
        side = frozenset(x for x in seen if x > 0)
        out.append(labels - side if 1 in side else side)
    return out


def all_trivalent(n: int) -> List[List[frozenset]]:
    """Every trivalent tree on 1..n: leaf m goes on each of the 2m-5 edges."""
    trees = [[(-1, 1), (-1, 2), (-1, 3)]]
    for m in range(4, n + 1):
        grown = []
        for edges in trees:
            for i, (u, v) in enumerate(edges):
                w = -(m - 2)
                grown.append(edges[:i] + edges[i + 1:] + [(u, w), (w, v), (w, m)])
        trees = grown
    return [_tree_splits(edges, n) for edges in trees]


def random_trivalent(rng: random.Random, n: int) -> List[frozenset]:
    edges = [(-1, 1), (-1, 2), (-1, 3)]
    for m in range(4, n + 1):
        u, v = edges.pop(rng.randrange(len(edges)))
        w = -(m - 2)
        edges += [(u, w), (w, v), (w, m)]
    return _tree_splits(edges, n)


def side_json(side, labels, rng: random.Random) -> List[int]:
    """One side of a split, chosen by the seed; the program must canonicalize."""
    return sorted(side if rng.random() < 0.5 else labels - side)


def make_fan(rng: random.Random, n: int) -> dict:
    """The moduli fan on n leaves, one cone at weight 2, cones shuffled."""
    labels = frozenset(range(1, n + 1))
    cones = all_trivalent(n)
    heavy = rng.randrange(len(cones))
    entries = []
    for i, splits in enumerate(cones):
        entries.append({"splits": [side_json(s, labels, rng) for s in rng.sample(splits, len(splits))],
                        "weight": 2 if i == heavy else 1})
    order = list(range(len(entries)))
    rng.shuffle(order)
    heavy_cone = sorted(sorted(s) for s in cones[heavy])
    return {"fan": {"n": n, "dim": n - 3, "cones": [entries[i] for i in order]},
            "heavy": heavy_cone}


def canonical_point(labels, lengths) -> dict:
    """The point JSON the program writes: canonical sides, sorted, "p/q" lengths."""
    labels = frozenset(labels)
    anchor = min(labels)
    items = sorted((tuple(sorted(labels - s if anchor in s else s)), v) for s, v in lengths.items())
    out = {"n": len(labels)}
    if labels != frozenset(range(1, len(labels) + 1)):
        out["labels"] = sorted(labels)
    out["splits"] = [{"side": list(s), "length": str(v)} for s, v in items]
    return out


def make_points(rng: random.Random, counts: Dict[int, int]) -> List[dict]:
    """Seeded points, half trivalent and half partly contracted, lengths p/q."""
    cases = []
    for n, count in counts.items():
        labels = frozenset(range(1, n + 1))
        for i in range(count):
            splits = random_trivalent(rng, n)
            if i % 2:  # every other point has a third of its splits contracted
                splits = rng.sample(splits, len(splits) - (n - 3) // 3)
            lengths = {s: Fraction(rng.randint(1, 99), rng.randint(1, 12)) for s in splits}
            point = {"n": n, "splits": [{"side": side_json(s, labels, rng), "length": str(v)}
                                        for s, v in lengths.items()]}
            rng.shuffle(point["splits"])
            cases.append({"point": point, "k": rng.randint(1, n), "j": rng.randint(1, n),
                          "lengths": lengths})
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------- processes

def child_env() -> Dict[str, str]:
    """The caller's environment without TROPMOD_THREADS and PYTHON* settings
    (PYTHONUNBUFFERED alone makes every output line a system call), plus
    the package sources and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if k != "TROPMOD_THREADS" and not k.startswith("PYTHON")}
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0")
    return env


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_mb: float
    sha256: str
    nbytes: int
    nlines: int
    data: Optional[bytes]
    stderr: str
    scale: float  # REF_PROBE_S over the probe time while the process ran


class Runner:
    """Runs one program process at a time, through spawn.py, until the deadline.

    The program runs on the last CPU this process may use, together with the
    speed probe in spawn.py; this process keeps off that CPU, so that reading
    the program's output does not slow it down.
    """

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.tamper = False  # corrupt the next process's first output byte
        self.stderr_path = os.path.join(WORK, "stderr.txt")
        self.cpus = sorted(os.sched_getaffinity(0))
        self.channel, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.spawner = subprocess.Popen(
                [sys.executable, SPAWN, str(theirs.fileno()), str(self.cpus[-1])],
                pass_fds=[theirs.fileno()], env=child_env(), cwd=ROOT)
        if len(self.cpus) > 1:
            os.sched_setaffinity(0, self.cpus[:-1])

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.channel.close()
        self.spawner.wait()
        os.sched_setaffinity(0, self.cpus)

    def run(self, argv: List[str], keep: bool = False) -> Proc:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        digest, nbytes, nlines, chunks = hashlib.sha256(), 0, 0, []
        read_end, write_end = os.pipe()
        try:
            # A 1 MiB pipe lets the program write its output without waiting
            # for this process to be scheduled after every 64 KiB.
            fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:
            pass
        with open(self.stderr_path, "wb") as err, open(read_end, "rb", buffering=0) as out:
            try:
                request = json.dumps({"argv": argv, "timeout": remaining}).encode()
                socket.send_fds(self.channel, [request], [write_end, err.fileno()])
            finally:
                os.close(write_end)
            while True:
                chunk = out.read(PIPE_BYTES)
                if not chunk:
                    break
                if self.tamper:
                    chunk = bytes([chunk[0] ^ 1]) + chunk[1:]
                    self.tamper = False
                digest.update(chunk)
                nbytes += len(chunk)
                nlines += chunk.count(b"\n")
                if keep:
                    chunks.append(chunk)
            reply = json.loads(self.channel.recv(1 << 16) or b'{"error": "spawn.py ended"}')
        if "error" in reply:
            raise OSError(reply["error"])
        with open(self.stderr_path, "r", encoding="utf-8", errors="replace") as err:
            stderr = err.read()[-2000:]
        return Proc(code=reply["code"], wall=reply["wall"], cpu=reply["cpu"],
                    rss_mb=reply["rss_kb"] / 1024.0, sha256=digest.hexdigest(), nbytes=nbytes,
                    nlines=nlines, data=b"".join(chunks) if keep else None, stderr=stderr,
                    scale=REF_PROBE_S / reply["probe"])


def setup_probe(runner: Runner) -> Proc:
    proc = runner.run(["-c", "import tropmod.cli"])
    if proc.code != 0:
        raise Abort(f"importing tropmod.cli failed:\n{proc.stderr}")
    return proc


# ---------------------------------------------------------------- checks

def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def project_check(doc: dict) -> dict:
    """A check report restricted to the keys it had when the digests were recorded."""
    return {
        "check": doc["check"],
        "all_passed": doc["all_passed"],
        "reports": [
            {"face": r["face"],
             "adjacent": [{k: a[k] for k in ("cone", "extra_split", "weight", "direction")}
                          for a in r["adjacent"]],
             "sum": r["sum"], "balanced": r["balanced"], "smooth": r["smooth"]}
            for r in doc["reports"]
        ],
    }


def project_enumerate(doc: dict) -> dict:
    return {k: doc[k] for k in ("n", "dim", "count", "types")}


def double_factorial(m: int) -> int:
    return prod(range(m, 0, -2))


def facets(n: int) -> int:
    return double_factorial(2 * n - 5)


def codim1(n: int) -> int:
    """Codimension-1 faces of the moduli fan: n-3 per facet, each shared by 3."""
    return facets(n) * (n - 3) // 3


def link_size(n: int) -> int:
    """Vertices (splits) plus edges (compatible pairs of splits) of the link."""
    sides = [frozenset(s) for k in range(2, n - 1) for s in combinations(range(2, n + 1), k)]
    assert len(sides) == 2 ** (n - 1) - n - 1
    pairs = sum(1 for a, b in combinations(sides, 2) if a.isdisjoint(b) or a <= b or b <= a)
    return len(sides) + pairs


@dataclass
class Op:
    """One CLI command: its arguments, expected exit code and output check."""

    args: List[str]
    key: str = ""  # digests.json entry of a text output
    exit_code: int = 0
    extra_lines: int = 1  # lines of a text output that are not work items
    expect_items: Optional[int] = None  # independent count, where one is known
    check_json: Optional[Callable[[dict, dict], int]] = None  # (doc, digests) -> items


def check_fan_report(heavy: List[List[int]], n: int):
    """Exit 2, exactly the n-3 faces of the weight-2 cone fail, and with that
    cone's weight set back to 1 the report is the moduli fan's, digit for digit."""
    failing = sorted([s for s in heavy if s != drop] for drop in heavy)

    def check(doc: dict, digests: dict) -> int:
        proj = project_check(doc)
        reports = proj["reports"]
        bad = [r["face"] for r in reports if not r["balanced"]]
        if proj["all_passed"] or sorted(bad) != failing:
            raise AssertionError(f"failing faces {bad}, expected {failing}")
        for r in reports:
            if r["face"] not in failing:
                continue
            hits = [a for a in r["adjacent"] if a["cone"] == heavy]
            if len(hits) != 1 or hits[0]["weight"] != 2:
                raise AssertionError(f"face {r['face']}: weight-2 cone not adjacent once")
            hits[0]["weight"] = 1
            r["sum"] = [x - d for x, d in zip(r["sum"], hits[0]["direction"])]
            r["balanced"] = True
        proj["all_passed"] = True
        want = digests[f"check balancing --n {n} --format json"]["sha256"]
        if json_digest(proj) != want:
            raise AssertionError("report differs from the moduli fan's beyond the weight-2 cone")
        return len(reports)

    return check


def check_enumerate_json(key: str, count: int):
    def check(doc: dict, digests: dict) -> int:
        proj = project_enumerate(doc)
        if proj["count"] != count or len(proj["types"]) != count:
            raise AssertionError(f"count {proj['count']}, expected {count}")
        if json_digest(proj) != digests[key]["sha256"]:
            raise AssertionError("enumeration JSON differs from the recorded one")
        return count
    return check


def check_text(op: Op, proc: Proc, digests: dict) -> int:
    items = proc.nlines - op.extra_lines
    want = digests[op.key]
    if proc.sha256 != want["sha256"]:
        raise AssertionError("output differs from the recorded one")
    if items != want["items"] or (op.expect_items is not None and items != op.expect_items):
        raise AssertionError(f"{items} items, expected {op.expect_items or want['items']}")
    return items


def check_point(case: dict, record: dict) -> None:
    """The point identities, against JSON built here from the generated input."""
    if "error" in record:
        raise AssertionError(record["error"])
    point = case["point"]
    n = point["n"]
    labels = frozenset(range(1, n + 1))
    lengths = case["lengths"]
    expected = canonical_point(labels, lengths)
    if record["reconstructed"] != expected:
        raise AssertionError("reconstruct(embed(x)) != x")
    if record["unsectioned"] != expected:
        raise AssertionError("forget(section(x, k), new leaf) != x")
    # section(x, k) has one infinite edge, the one cutting off {k, new leaf}
    k, new = case["k"], n + 1
    d = record["decomposed"]
    if len(d["components"]) != 2 or len(d["gluings"]) != 1:
        raise AssertionError("boundary decomposition is not two components, one gluing")
    (ca, ma), (cb, mb) = d["gluings"][0]
    markers = {ca: ma, cb: mb}
    small = [c for c, comp in enumerate(d["components"]) if k in comp.get("labels", ())
             and new in comp.get("labels", ())]
    if len(small) != 1 or set(markers) != {0, 1} or {ma, mb} != {new + 1, new + 2}:
        raise AssertionError("gluing data does not match the cut edge")
    tip, rest = d["components"][small[0]], d["components"][1 - small[0]]
    if sorted(tip["labels"]) != sorted([k, new, markers[small[0]]]) or tip["splits"]:
        raise AssertionError("the cut-off component is not the tripod {k, new, marker}")
    marker = markers[1 - small[0]]
    renamed = {frozenset(k if x == marker else x for x in s["side"]): Fraction(s["length"])
               for s in rest["splits"]}
    if sorted(rest["labels"]) != sorted((labels - {k}) | {marker}) or \
            canonical_point(labels, renamed) != expected:
        raise AssertionError("the main component is not x with k renamed")
    # forget(x, j) then relabel, done here on the splits
    j = case["j"]
    rest_labels = labels - {j}
    merged: Dict[frozenset, Fraction] = {}
    for side, length in lengths.items():
        s = side - {j}
        if len(s) >= 2 and len(rest_labels - s) >= 2:
            s = rest_labels - s if min(rest_labels) in s else s
            merged[s] = merged.get(s, 0) + length
    rank = {old: i + 1 for i, old in enumerate(sorted(rest_labels))}
    dense = {frozenset(rank[x] for x in s): v for s, v in merged.items()}
    if record["forgotten"] != canonical_point(frozenset(range(1, n)), dense):
        raise AssertionError("relabel(forget(x, j)) is wrong")


# ---------------------------------------------------------------- workloads

@dataclass
class Cycle:
    """One pass over a workload's operations; times are scaled (see REF_PROBE_S)."""

    traced: bool
    raw_wall: float = 0.0  # as measured, to plan the run
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    items: int = 0
    ops_ms: Dict[int, float] = field(default_factory=dict)  # operation index -> latency
    attempted: int = 0
    failed: int = 0
    bytes_out: int = 0
    traces: List[tuple] = field(default_factory=list)  # (trace, scale) per process


class Workload:
    def __init__(self, name: str, seed: int, mode: str, digests: dict):
        self.name, self.mode, self.digests = name, mode, digests
        self.sizes = SIZES[mode]
        self.rng = random.Random(f"{name}:{seed}")
        self.ops: List[Op] = []
        self.cases: List[dict] = []
        os.makedirs(WORK, exist_ok=True)
        getattr(self, "_prepare_" + name.replace("-", "_"))()

    # inputs are generated once per run, before any timing
    def _prepare_certify_moduli(self):
        b, s = self.sizes["balancing"], self.sizes["smooth"]
        self.ops = [
            Op(["check", "balancing", "--n", str(b)], f"check balancing --n {b}",
               expect_items=codim1(b)),
            Op(["check", "smooth", "--n", str(s)], f"check smooth --n {s}",
               expect_items=codim1(s)),
        ]

    def _prepare_certify_fan(self):
        p, n = self.sizes["psi"], self.sizes["fan"]
        k = self.rng.randint(1, p)
        made = make_fan(self.rng, n)
        path = os.path.join(WORK, "fan.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(made["fan"], handle)
        self.ops = [
            Op(["check", "psi", "--n", str(p), "--k", str(k)], f"check psi --n {p} --k {k}"),
            Op(["check", "balancing", "--fan", path, "--format", "json"], exit_code=2,
               check_json=check_fan_report(made["heavy"], n)),
        ]

    def _prepare_enumerate(self):
        e = self.sizes["enumerate"]
        json_key = f"enumerate --n {e} --dim {e - 4} --format json"
        self.ops = [
            Op(["enumerate", "--n", str(e), "--dim", str(e - 3)], f"enumerate --n {e} --dim {e - 3}",
               expect_items=facets(e)),
            Op(json_key.split(), check_json=check_enumerate_json(json_key, codim1(e))),
            Op(["export", "link", "--n", str(e)], f"export link --n {e}", extra_lines=2,
               expect_items=link_size(e)),
        ]

    def _prepare_points(self):
        self.cases = make_points(self.rng, self.sizes["points"])
        self.points_path = os.path.join(WORK, "points.json")
        with open(self.points_path, "w", encoding="utf-8") as handle:
            json.dump([{k: c[k] for k in ("point", "k", "j")} for c in self.cases], handle)

    def cycle(self, runner: Runner, traced: bool) -> Cycle:
        result = Cycle(traced=traced)
        if self.name == "points":
            self._points_cycle(runner, traced, result)
        else:
            for index, op in enumerate(self.ops):
                self._cli_op(runner, traced, index, op, result)
        return result

    def _trace_path(self) -> str:
        return os.path.join(WORK, "trace.json")

    def _read_trace(self, result: Cycle, scale: float) -> None:
        with open(self._trace_path(), "r", encoding="utf-8") as handle:
            result.traces.append((json.load(handle), scale))
        os.remove(self._trace_path())

    def _cli_op(self, runner: Runner, traced: bool, index: int, op: Op, result: Cycle):
        if traced:
            argv = [CHILD, "cli", self._trace_path()] + op.args
        else:
            argv = ["-m", "tropmod.cli"] + op.args
        result.attempted += 1
        proc = None
        try:
            proc = runner.run(argv, keep=op.check_json is not None)
            if proc.code != op.exit_code:
                raise AssertionError(f"exit {proc.code}, expected {op.exit_code}\n{proc.stderr}")
            if op.check_json is not None:
                items = op.check_json(json.loads(proc.data), self.digests)
            else:
                items = check_text(op, proc, self.digests)
            result.items += items
            if traced:
                self._read_trace(result, proc.scale)
        except (AssertionError, KeyError, TypeError, ValueError, OSError) as exc:
            result.failed += 1
            print(f"FAIL {self.name}: {' '.join(op.args)}: {exc}", file=sys.stderr)
        if proc is not None:
            result.raw_wall += proc.wall
            result.wall += proc.wall * proc.scale
            result.cpu += proc.cpu * proc.scale
            result.rss_mb = max(result.rss_mb, proc.rss_mb)
            result.ops_ms[index] = proc.wall * proc.scale * 1e3
            result.bytes_out += proc.nbytes

    def _points_cycle(self, runner: Runner, traced: bool, result: Cycle):
        trace = self._trace_path() if traced else "-"
        result.attempted += len(self.cases)
        try:
            proc = runner.run([CHILD, "points", self.points_path, trace], keep=True)
        except OSError as exc:
            result.failed += len(self.cases)
            print(f"FAIL points: {exc}", file=sys.stderr)
            return
        result.raw_wall, result.rss_mb = proc.wall, proc.rss_mb
        result.wall, result.cpu = proc.wall * proc.scale, proc.cpu * proc.scale
        lines = proc.data.decode("utf-8", errors="replace").splitlines()
        for i, case in enumerate(self.cases):
            try:
                record = json.loads(lines[i])
                check_point(case, record)
                result.ops_ms[i] = record["ms"] * proc.scale
                result.items += 1
            except (AssertionError, IndexError, KeyError, TypeError, ValueError) as exc:
                result.failed += 1
                print(f"FAIL points case {i}: {exc}", file=sys.stderr)
        if proc.code != 0:
            print(f"FAIL points: exit {proc.code}\n{proc.stderr}", file=sys.stderr)
            result.failed = len(self.cases)
        if traced and result.failed == 0:
            self._read_trace(result, proc.scale)


# ---------------------------------------------------------------- measuring

def load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as handle:
        return json.load(handle)


def quantile(values: List[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def measure(name: str, seed: int, seconds: float, trace: bool, mode: str,
            digests: Optional[dict] = None, tamper: bool = False):
    """Run one workload; returns (cycles, set-up processes)."""
    digests = digests if digests is not None else load_digests()[mode]
    workload = Workload(name, seed, mode, digests)
    start = time.perf_counter()
    setups: List[Proc] = []
    cycles: List[Cycle] = []
    with Runner(deadline=start + RUN_LIMIT_S) as runner:
        setup_probe(runner)  # writes the package's bytecode on a fresh checkout; not a sample
        runner.tamper = tamper
        while True:
            setups += [setup_probe(runner) for _ in range(SETUP_PROBES)]
            traced = trace and len(cycles) % 2 == 1
            cycles.append(workload.cycle(runner, traced))
            elapsed = time.perf_counter() - start
            typical = statistics.mean(c.raw_wall for c in cycles)
            done = not trace or any(c.traced for c in cycles)
            if (done and elapsed + typical > seconds) or elapsed + typical > RUN_LIMIT_S:
                break
        if time.perf_counter() < runner.deadline:
            setups += [setup_probe(runner) for _ in range(SETUP_PROBES)]
    return cycles, setups


def op_latencies(cycles: List[Cycle]) -> List[float]:
    """Each operation's median latency over the cycles: the samples of op_p*_ms."""
    by_op: Dict[int, List[float]] = {}
    for cycle in cycles:
        for op, ms in cycle.ops_ms.items():
            by_op.setdefault(op, []).append(ms)
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(cycles: List[Cycle], setups: List[Proc]) -> Dict[str, float]:
    plain = [c for c in cycles if not c.traced]
    ops = op_latencies(plain) or [0.0]  # empty only when every operation failed
    return {
        "setup_s": statistics.median(p.wall * p.scale for p in setups),
        "wall_s": statistics.median(c.wall for c in plain),
        "cpu_s": statistics.median(c.cpu for c in plain),
        "peak_rss_mb": max(c.rss_mb for c in plain),
        "items_per_s": statistics.median(c.items / c.wall if c.wall else 0.0 for c in plain),
        "op_p50_ms": statistics.median(ops),
        "op_p95_ms": quantile(ops, 0.95),
    }


def layer_values(cycle: Cycle) -> Dict[str, float]:
    """Per-layer metrics of one traced cycle, summed over its processes."""
    units = per_layer_units()
    values = {name: 0.0 if unit == "s" else 0 for name, unit in units.items()}
    hits = total = 0
    for trace, scale in cycle.traces:
        for layer, (calls, own) in trace["layers"].items():
            values[f"{layer}.calls"] += calls
            values[f"{layer}.self_s"] += own * scale
        for key, (calls, own) in trace["funcs"].items():
            if key in TRACED_FUNCS:
                values[f"{key}.calls"] += calls
                values[f"{key}.self_s"] += own * scale
            elif key.startswith("serialization.") and key.endswith(("_to_json", "_from_json")):
                group = "write" if key.endswith("_to_json") else "read"
                values[f"serialization.{group}.calls"] += calls
                values[f"serialization.{group}.self_s"] += own * scale
        for key, count in trace["counts"].items():
            values[key] += count
        h, m = trace["caches"].get("trees.to_tree", (0, 0))
        hits, total = hits + h, total + h + m
    values["trees.to_tree.hit_ratio"] = hits / total if total else 0.0
    values["cli.bytes_out"] = cycle.bytes_out
    return values


def per_layer(cycles: List[Cycle]) -> Dict[str, float]:
    traced = [c for c in cycles if c.traced]
    plain = [c for c in cycles if not c.traced]
    if not traced:
        raise Abort("no traced cycle fit in the run")
    wrapped = {key for c in traced for trace, _ in c.traces for key in trace["funcs"]}
    for key in TRACED_FUNCS:
        if key not in wrapped:
            print(f"note: {key} not found in the package; its metrics read 0", file=sys.stderr)
    samples = [layer_values(c) for c in traced]
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    values["trace.overhead_s"] = (statistics.median(c.wall for c in traced)
                                  - statistics.median(c.wall for c in plain))
    return values


def report(name: str, cycles: List[Cycle], setups: List[Proc], trace: bool) -> dict:
    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    plain = [c for c in cycles if not c.traced]
    if trace:
        values, units = per_layer(cycles), per_layer_units()
    else:
        values, units = end_to_end(cycles, setups), END_TO_END
    print(f"# {name}: {len(plain)} untraced and {len(cycles) - len(plain)} traced cycles, "
          f"{len(op_latencies(plain))} operations, {len(setups)} set-up samples, "
          f"{failed} of {attempted} operations failed")
    print(f"# as measured, before scaling to the reference speed: wall "
          f"{statistics.median(c.raw_wall for c in plain):.6g} s per cycle, set-up "
          f"{statistics.median(p.wall for p in setups):.6g} s, speed probe at set-up "
          f"{statistics.median(REF_PROBE_S / p.scale for p in setups) * 1e3:.4g} ms "
          f"(reference {REF_PROBE_S * 1e3:.4g} ms)")
    for key, value in values.items():
        print(f"{name:>15} {key:<38} {value:>14.6g} {units[key]}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}


# ---------------------------------------------------------------- other modes

RECORD_OPS = {
    "full": ["check balancing --n 8", "check smooth --n 7", "check balancing --n 7 --format json",
             *[f"check psi --n 8 --k {k}" for k in range(1, 9)],
             "enumerate --n 8 --dim 5", "enumerate --n 8 --dim 4 --format json",
             "export link --n 8"],
    "quick": ["check balancing --n 6", "check smooth --n 5", "check balancing --n 5 --format json",
              *[f"check psi --n 6 --k {k}" for k in range(1, 7)],
              "enumerate --n 6 --dim 3", "enumerate --n 6 --dim 2 --format json",
              "export link --n 6"],
}


def record() -> None:
    """Write the digests of every checked output of the current program."""
    os.makedirs(WORK, exist_ok=True)
    table = {}
    with Runner(deadline=time.perf_counter() + 3600) as runner:
        for mode, keys in RECORD_OPS.items():
            table[mode] = {}
            for key in keys:
                json_out = key.endswith("--format json")
                proc = runner.run(["-m", "tropmod.cli"] + key.split(), keep=json_out)
                if proc.code != 0:
                    raise Abort(f"{key}: exit {proc.code}\n{proc.stderr}")
                if json_out:
                    doc = json.loads(proc.data)
                    proj = project_check(doc) if key.startswith("check") else project_enumerate(doc)
                    entry = {"sha256": json_digest(proj),
                             "items": len(doc["reports"]) if "reports" in doc else doc["count"]}
                else:
                    lines_after = 2 if key.startswith("export") else 1
                    entry = {"sha256": proc.sha256, "items": proc.nlines - lines_after}
                table[mode][key] = entry
                print(f"{mode} {key}: {entry['items']} items", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def self_test(seed: int) -> int:
    """Quick runs: clean ones pass, a wrong output or a wrong digest fails."""
    digests = load_digests()["quick"]
    wrong = {k: dict(v, sha256="0" * 64) for k, v in digests.items()}
    status = 0
    for name in WORKLOADS:
        for label, table, tamper, want_fail in (("clean", digests, False, False),
                                                ("wrong output", digests, True, True),
                                                ("wrong digest", wrong, False, name != "points")):
            cycles, _ = measure(name, seed, 0, False, "quick", digests=table, tamper=tamper)
            failed = sum(c.failed for c in cycles)
            ok = (failed > 0) == want_fail
            status |= not ok
            print(f"{'PASS' if ok else 'FAIL'} self-test {name}, {label}: {failed} failed")
    return status


def check_checkout() -> None:
    if not os.path.isfile(os.path.join(SRC, "tropmod", "cli.py")):
        raise Abort(f"no package sources at {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small n, for a fast look")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.record:
            record()
            return 0
        if args.self_test:
            return self_test(args.seed)
        mode = "quick" if args.quick else "full"
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            cycles, setups = measure(name, args.seed, args.seconds, bool(args.trace), mode)
            results[name] = report(name, cycles, setups, bool(args.trace))
    except Abort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(results) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

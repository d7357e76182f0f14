"""Program-side half of the benchmark: traced CLI runs and the points loop.

Each mode runs in a fresh interpreter whose PYTHONPATH holds the package
sources; ``run.py`` starts it, times it from outside and checks its output.

    python child.py cli TRACE_FILE TROPMOD_ARG...
    python child.py points INPUT_FILE TRACE_FILE|-

``cli`` runs ``tropmod.cli.main`` with the tracer installed and writes the
trace to TRACE_FILE.  ``points`` runs the point round trips on the JSON cases
in INPUT_FILE, one JSON line per case on stdout, traced unless TRACE_FILE is
``-``.

The tracer times the package from outside.  Every public function of a layer
module is replaced, in its own module and in every ``tropmod`` module that
imported it by name, by a wrapper that keeps a span stack, so a function's
self time is its duration minus the durations of the spans it called.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

LAYERS = ("cli", "divisors", "lattice", "moduli", "trees", "maps", "serialization")


def _entries(args) -> int:
    """Integer entries in the vectors and matrices passed to a lattice function."""
    total = 0
    for arg in args:
        if len(arg) and not isinstance(arg[0], int):
            total += sum(len(row) for row in arg)
        else:
            total += len(arg)
    return total


class Tracer:
    """Aggregated spans: calls and self time per function and per layer."""

    def __init__(self):
        self.stack = []  # one [layer, seconds spent in child spans] per open span
        self.funcs = {}  # "layer.name" -> [calls, self seconds]
        self.layers = {layer: [0, 0.0] for layer in LAYERS}  # calls from outside, self s
        self.counts = {"lattice.entries_in": 0, "divisors.faces": 0}
        self.cached = {}  # "layer.name" -> the lru_cache wrapper behind the span
        self.paused = False

    def install(self) -> None:
        modules = {layer: importlib.import_module("tropmod." + layer) for layer in LAYERS}
        importers = [m for name, m in sys.modules.items() if name.split(".")[0] == "tropmod"]
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or isinstance(fn, type) or not callable(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                if hasattr(fn, "cache_info"):
                    self.cached[f"{layer}.{name}"] = fn
                span = self._wrap(layer, name, fn)
                for importer in importers:
                    for attr, value in list(vars(importer).items()):
                        if value is fn:
                            setattr(importer, attr, span)

    def _wrap(self, layer: str, name: str, fn):
        stats = self.funcs.setdefault(f"{layer}.{name}", [0, 0.0])
        layer_stats = self.layers[layer]
        stack = self.stack
        counts = self.counts
        count_faces = name in ("check_balanced", "check_smooth_local")

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if not stack or stack[-1][0] != layer:
                layer_stats[0] += 1
                if layer == "lattice":
                    counts["lattice.entries_in"] += _entries(args)
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                own = elapsed - frame[1]
                stats[0] += 1
                stats[1] += own
                layer_stats[1] += own
                if stack:
                    stack[-1][1] += elapsed
            if count_faces:
                counts["divisors.faces"] += len(result) if isinstance(result, list) else 1
            return result

        return span

    def dump(self, path: str) -> None:
        caches = {}
        for key, fn in self.cached.items():
            info = fn.cache_info()
            caches[key] = [info.hits, info.misses]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"funcs": self.funcs, "layers": self.layers, "counts": self.counts,
                 "caches": caches},
                handle,
            )


def run_cli(trace_path: str, argv) -> int:
    tracer = Tracer()
    tracer.install()
    from tropmod import cli

    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path)


def run_points(input_path: str, trace_path: str) -> int:
    with open(input_path, "r", encoding="utf-8") as handle:
        cases = json.load(handle)
    tracer = Tracer()
    if trace_path != "-":
        tracer.install()
    from tropmod import maps, moduli, serialization

    out = sys.stdout
    for case in cases:
        try:
            start = perf_counter()
            x = serialization.point_from_json(case["point"])
            n = x.n
            v = moduli.embed(x)
            text = json.dumps(serialization.vector_to_json(v))
            y = moduli.reconstruct(serialization.vector_from_json(json.loads(text), n), n)
            s = maps.section(x, case["k"])
            d = maps.decompose_boundary(s)
            z = maps.forget(s, n + 1)
            f = maps.relabel(maps.forget(x, case["j"]))
            elapsed = perf_counter() - start
            # Serializing the results for the checks is not part of the round trip.
            tracer.paused = True
            record = {
                "ms": elapsed * 1e3,
                "reconstructed": serialization.point_to_json(y),
                "unsectioned": serialization.point_to_json(z),
                "decomposed": serialization.decomposition_to_json(d),
                "forgotten": serialization.point_to_json(f),
            }
            tracer.paused = False
        except Exception as exc:  # one failing case must not end the loop
            tracer.paused = False
            record = {"error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(record) + "\n")
    out.flush()
    if trace_path != "-":
        tracer.dump(trace_path)
    return 0


def main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "cli":
        return run_cli(argv[1], argv[2:])
    if len(argv) == 3 and argv[0] == "points":
        return run_points(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

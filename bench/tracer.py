"""Spans around every public tropiso function, installed from outside ``src/``.

``Tracer.install`` replaces each public function of each tropiso module by a
wrapper in every namespace it is bound in (``tropiso.dequant.solve_optimal``
as well as ``tropiso.assignment.solve_optimal``), so calls between modules
are seen too.  A span is ``[name, start, end, parent]``; spans stay in memory
until ``dump``.  A span's self time is its duration minus that of its
direct children, so self times summed over all spans equal the summed
duration of the root spans (one per benchmark operation).

Hooks count derived quantities from arguments and returned objects at the
same boundaries: optima enumerated, cap hits, subsets scanned, vertices and
linear systems, hull cells.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import json
import math
import time
from collections import Counter, defaultdict

import tropiso
import tropiso.cli

MODULES = ("core", "assignment", "isodiametric", "polytrope", "dequant", "geometry",
           "matio", "cli")


def _arg(args, kwargs, pos, name, default):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _parity_hook(counts, rep, args, kwargs):
    counts["optima_enumerated"] += rep.enumerated_count
    counts["capped"] += rep.method.value == "capped"


def _enumerate_hook(counts, res, args, kwargs):
    counts["optima_enumerated"] += len(res[0])
    counts["capped"] += bool(res[1])


def _qvol_plus_hook(counts, res, args, kwargs):
    A = args[0]
    if _arg(args, kwargs, 1, "method", "brute-force") == "brute-force":
        counts["subsets_scanned"] += math.comb(A.cols, A.rows)


def _sign_generic_hook(counts, rep, args, kwargs):
    A = args[0]
    rows = A.rows + bool(_arg(args, kwargs, 1, "bar", False))
    counts["subsets_scanned"] += math.comb(max(rows, A.cols), min(rows, A.cols))


def _hull_hook(counts, res, args, kwargs):
    counts["hull_cells"] += res.cells


def _vertices_hook(counts, res, args, kwargs):
    hrep, d = args[0], args[1]
    counts["systems_tried"] += math.comb(len(hrep), d - 1)
    counts["vertices"] += len(res)


HOOKS = {
    "assignment.parity_report": _parity_hook,
    "assignment.enumerate_optima": _enumerate_hook,
    "dequant.qvol_plus": _qvol_plus_hook,
    "dequant.sign_generic": _sign_generic_hook,
    "geometry.hull_volume": _hull_hook,
    "polytrope.enumerate_vertices": _vertices_hook,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1:3] = start, end
            if hook is not None:
                hook(counts, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        namespaces = [tropiso] + [getattr(tropiso, m) for m in MODULES]
        wrappers = {}
        for mod in namespaces:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or not fn.__module__.startswith("tropiso.")):
                    continue
                if fn not in wrappers:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"
                    wrappers[fn] = self._wrap(name, fn, HOOKS.get(name))
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def remove(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    @contextlib.contextmanager
    def root(self, name: str):
        """A root span around one benchmark operation."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, -1])
        self.stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx][1:3] = start, end

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[k]
        return out

    def calls(self, name: str, parent: str | None = None) -> int:
        spans = self.spans
        return sum(1 for s in spans
                   if s[0] == name and (parent is None or (s[3] >= 0 and spans[s[3]][0] == parent)))

    def root_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: names once, then [name, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: k for k, n in enumerate(names)}
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [[index[n], round((s - t0) * 1e6, 3), round((e - t0) * 1e6, 3), p]
                for n, s, e, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"unit": "us", "names": names, "spans": rows}, fh)

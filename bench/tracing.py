"""Per-layer spans, recorded from outside the program.

A Tracer replaces module attributes of clubcomb with timing wrappers.  The
program calls its layers through module attributes (cli calls
compiler.compile, compiler calls finord.factor, comb.run_equation calls
normalize through comb's globals), so the wrappers see every call.  A layer
name that no longer exists is skipped: its span goes missing and the run
carries on.

Spans live in parallel lists of plain ints until the run ends, so tracing
adds almost nothing for the garbage collector to scan.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

LAYERS = (
    "cli.main",
    "poly.parse",
    "poly.usage",
    "finord.minimal_club",
    "finord.factor",
    "compiler.compile_bracketing",
    "compiler.compile",
    "comb.normalize",
    "comb.format_comb",
    "comb.parse_comb",
)


def _gens(chain) -> list[tuple[str, int]]:
    kinds = [g.kind.value for g in chain]
    return [("finord.gens_t", kinds.count("transposition")),
            ("finord.gens_s", kinds.count("degeneracy")),
            ("finord.gens_d", kinds.count("face"))]


# Work counted from a layer's return value, at the same boundary as its span.
OBSERVERS = {
    "comb.normalize": lambda result: [("comb.normalize.steps", result.steps)],
    "finord.factor": _gens,
}


class Tracer:
    def __init__(self):
        self.layer: list[int] = []
        self.parent: list[int] = []
        self.request: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.counts: list[tuple[int, str, int]] = []  # (request, counter, amount)
        self.current_request = -1
        self._open: list[int] = [-1]
        self._installed: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for code, name in enumerate(LAYERS):
            module_name, attr = name.split(".")
            module = importlib.import_module(f"clubcomb.{module_name}")
            original = getattr(module, attr, None)
            if original is None:
                continue
            setattr(module, attr, self._wrap(code, original, OBSERVERS.get(name)))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrap(self, code: int, fn, observe):
        layer, parent, request, start, end = (
            self.layer, self.parent, self.request, self.start, self.end)
        open_spans, counts = self._open, self.counts

        def traced(*args, **kwargs):
            index = len(start)
            layer.append(code)
            parent.append(open_spans[-1])
            request.append(self.current_request)
            end.append(0)
            open_spans.append(index)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                open_spans.pop()
            if observe is not None:
                for counter, amount in observe(result):
                    counts.append((self.current_request, counter, amount))
            return result

        return traced

    def self_times(self) -> list[int]:
        """Each span's duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for index, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[index] - self.start[index]
        return own

    def totals(self, key=lambda request: None) -> dict:
        """Self time (ns) and calls per (layer name, key(request))."""
        self_ns: dict = defaultdict(int)
        calls: dict = defaultdict(int)
        for code, req, own in zip(self.layer, self.request, self.self_times()):
            k = (LAYERS[code], key(req))
            self_ns[k] += own
            calls[k] += 1
        return {"self_ns": self_ns, "calls": calls}

    def dump(self) -> dict:
        return {
            "layers": list(LAYERS),
            "columns": ["layer", "parent", "request", "start_ns", "end_ns"],
            "spans": [list(row) for row in zip(
                self.layer, self.parent, self.request, self.start, self.end)],
            "counts": [list(c) for c in self.counts],
        }

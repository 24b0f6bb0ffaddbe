"""Spans around the calls into burnkit's layers, recorded from outside.

`Tracer.installed` replaces, in every loaded burnkit module, each attribute
bound to a traced function with a wrapper, and wraps three methods of the
model classes.  Calls between layers go through those attributes, so the
wrappers see them without any change to the program.  A wrapper records
a span (layer, start, end, parent span, op) and, for some layers, a work
count.  The originals are put back when the block ends.  Spans stay in
memory until `write` stores them, after the run.
"""

from __future__ import annotations

import gzip
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from burnkit import burning, cli, engine, exact, gen, greedy, model, spider


def _segment_vertices(args, kwargs, result) -> int:
    lengths, hub = args[0], args[1]
    return int(np.sum(lengths)) + int(hub)


# (owner, attribute, layer, work count from (args, kwargs, result) or None)
SPANS = [
    (gen, "random_spider", "gen", None),
    (gen, "random_path_forest", "gen", None),
    (model, "spider_to_graph", "model.segment_graph", None),
    (model, "path_forest_to_graph", "model.segment_graph", None),
    (model.LabeledGraph, "__init__", "model.edge_graph", None),
    (model.BudgetedCover, "__post_init__", "model.cover", None),
    (model.BurnSchedule, "__post_init__", "model.cover", None),
    (engine, "burn_times_segments", "engine.segments", _segment_vertices),
    (engine, "burn_times_csr", "engine.csr", lambda a, k, r: len(a[1]) // 2),
    (burning, "schedule_from_cover", "burning.schedule",
     lambda a, k, r: max(0, len(r.sources) - len(a[1].pairs))),
    (burning, "_schedule_sequential", "burning.sequential", None),
    (burning, "verify_schedule", "burning.verify", None),
    (burning, "simulate", "burning.simulate", None),
    (greedy, "greedy_burn", "greedy.pairs", lambda a, k, r: len(r[2].steps)),
    (spider, "burn_spider", "spider.pairs", None),
    (exact, "exact_burning_number", "exact.burning_number", None),
    (exact, "exact_path_forest", "exact.path_forest", None),
    (cli, "_load_graph", "cli.load_graph", None),
    (cli, "main", "cli.main", None),
]

# Work counts, named after the layer whose spans carry them.
WORK = {
    "engine.segments": "engine.segments.vertices",
    "engine.csr": "engine.csr.edges",
    "burning.schedule": "burning.fillers",
    "greedy.pairs": "greedy.steps",
}

LAYERS = list(dict.fromkeys(layer for _, _, layer, _ in SPANS))


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (layer, start, end, parent, op, work)
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, layer, fn, work):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (layer, start, end, parent, self.op, 0)
            if work is not None:
                self.spans[idx] = (layer, start, end, parent, self.op, work(args, kwargs, result))
            return result
        return traced

    def _patch(self, owner, attr, wrapper_of) -> None:
        original = getattr(owner, attr)
        wrapper = wrapper_of(original)
        if isinstance(owner, type):
            owners = [owner]
        else:
            owners = [
                mod for key, mod in list(sys.modules.items())
                if key.split(".")[0] == "burnkit" and mod is not None
                and any(val is original for val in vars(mod).values())
            ]
        for mod in owners:
            for name, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, name, val))
                    setattr(mod, name, wrapper)

    @contextmanager
    def installed(self):
        """Trace the calls made inside the block, then put the originals back."""
        for owner, attr, layer, work in SPANS:
            self._patch(owner, attr, lambda fn, layer=layer, work=work: self._span(layer, fn, work))
        try:
            yield self
        finally:
            for owner, name, original in reversed(self._saved):
                setattr(owner, name, original)
            self._saved.clear()

    def totals(self, since: int, until: int | None = None) -> dict[str, float]:
        """Self seconds, calls and work per layer over spans[since:until]."""
        spans = self.spans[since:until]
        child = defaultdict(float)
        for layer, start, end, parent, _, _ in spans:
            if parent >= since:
                child[parent] += end - start
        out = defaultdict(float)
        for offset, (layer, start, end, _, _, work) in enumerate(spans):
            out[f"{layer}.s"] += end - start - child[since + offset]
            out[f"{layer}.calls"] += 1
            if layer in WORK:
                out[WORK[layer]] += work
        return out

    def per_layer(self, loop_mark: int, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit) per round of the pool; gen per input build.

        Spans before loop_mark come from one build of the inputs, the rest
        from `rounds` rounds of the pool.
        """
        build = self.totals(0, loop_mark)
        loop = self.totals(loop_mark)
        metrics = {}
        for layer in LAYERS:
            totals, per = (build, 1) if layer == "gen" else (loop, rounds)
            metrics[f"{layer}.s"] = (totals[f"{layer}.s"] / per, "s")
            metrics[f"{layer}.calls"] = (totals[f"{layer}.calls"] / per, "count")
        for name in WORK.values():
            metrics[name] = (loop[name] / rounds, "count")
        metrics["trace.spans"] = ((len(self.spans) - loop_mark) / rounds, "count")
        return metrics

    def write(self, path, stamp: dict) -> None:
        """Store the stamp, then one JSON list per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(stamp) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

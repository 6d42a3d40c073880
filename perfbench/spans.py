"""In-memory span tracing around the package's public functions.

The tracer replaces each traced function at every fpxplain module
attribute that holds it (callers such as attribution import some of them
by name), records one span per call, and restores the originals on
uninstall. A span is (name, group, start, end, parent index, query id,
raised). A group's self time is the sum over its spans of the span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

# time groups whose entries are counted as calls under a per-layer name
LAYER_CALLS = {"trees": "trees.calls", "transforms": "transforms.condition_calls",
               "runner": "runner.calls"}


def _dp_cells(name: str, args: tuple) -> int:
    """Cells charged by perceptron._check_dp_budget, from Perceptron.scaled."""
    p = args[0]
    ws = p.scaled[0]
    n = len(ws)
    if name == "cc_perceptron_pseudopoly":
        fixed = set(args[2])
        free = [w for i, w in enumerate(ws) if i not in fixed]
        return (sum(abs(w) for w in free) + 1) * max(1, len(free))
    span = sum(abs(w) for w in ws) + 1
    if name == "expected_value_perceptron":
        return span * max(1, n)
    return span * max(1, n) * (n + 1)  # h_table_perceptron


DP_FUNCTIONS = ("cc_perceptron_pseudopoly", "expected_value_perceptron",
                "h_table_perceptron")


class Tracer:
    def __init__(self, layers: dict):
        self.groups = {}  # "module.attr" -> group, e.g. "trees.exists"
        for metric, entry in layers.items():
            for fn in entry.get("functions", ()):
                self.groups[fn] = metric[:-2]
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.query = None
        self.dp_cells = 0
        self.h_table_misses = 0  # size_stratified_sums cache misses while installed
        self._patched: list[tuple] = []

    # -- recording

    def span(self, name: str, group: str, fn, *args, **kwargs):
        parent = self.stack[-1] if self.stack else None
        index = len(self.spans)
        self.spans.append(None)
        self.stack.append(index)
        raised = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            raised = False
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[index] = (name, group, start, end, parent, self.query, raised)
            attr = name.rpartition(".")[2]
            if attr in DP_FUNCTIONS and not raised:
                self.dp_cells += _dp_cells(attr, args)

    def _wrap(self, name: str, group: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, group, fn, *args, **kwargs)
        return traced

    # -- installation

    def install(self):
        self._misses_before = self._cache_misses()
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "fpxplain" or key.startswith("fpxplain.")]
        for qualified, group in self.groups.items():
            module_name, attr = qualified.split(".")
            home = importlib.import_module(f"fpxplain.{module_name}")
            original = getattr(home, attr)
            wrapper = self._wrap(qualified, group, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        self.h_table_misses += self._cache_misses() - self._misses_before

    @staticmethod
    def _cache_misses() -> int:
        from fpxplain import attribution
        return attribution.size_stratified_sums.cache_info().misses

    # -- summaries

    def self_times(self) -> Counter:
        child = Counter()
        for name, group, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for index, (name, group, start, end, _, _, _) in enumerate(self.spans):
            out[group] += end - start - child[index]
        return out

    def counts(self) -> Counter:
        """Entries into each layer, errors of run_query, DP cells."""
        out = Counter()
        for name, group, _, _, parent, _, raised in self.spans:
            layer = group.split(".")[0]
            parent_layer = None if parent is None else self.spans[parent][1].split(".")[0]
            if layer in LAYER_CALLS and parent_layer != layer:
                out[LAYER_CALLS[layer]] += 1
            if name == "perceptron.h_table_perceptron":
                out["perceptron.h_table_calls"] += 1
            if name == "runner.run_query" and raised:
                out["runner.errors"] += 1
        out["perceptron.dp_cells"] += self.dp_cells
        out["attribution.h_table_calls"] += self.h_table_misses
        return out

    def to_json(self) -> dict:
        return {"spans": self.spans, "dp_cells": self.dp_cells,
                "h_table_misses": self.h_table_misses}

    def merge(self, data: dict):
        """Append the spans another process recorded, see to_json(), under
        the span now open in this process."""
        base = len(self.spans)
        root = self.stack[-1] if self.stack else None
        for name, group, start, end, parent, query, raised in data["spans"]:
            parent = root if parent is None else parent + base
            self.spans.append((name, group, start, end, parent, query, raised))
        self.dp_cells += data["dp_cells"]
        self.h_table_misses += data["h_table_misses"]

    def dump(self, fh):
        """Write one JSON line per span."""
        for name, _, start, end, parent, query, raised in self.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "query": query,
                                 "raised": raised}) + "\n")

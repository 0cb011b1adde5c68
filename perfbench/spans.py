"""Spans around the benchmark's calls into the package, kept in memory.

A workload makes every package call through `tracer.call(name, fn, ...)`.
The untraced run uses NullTracer, whose `call` is a plain call; the traced
run uses Tracer, which records one span per call: name, start, end, the
item span that caused it, and the item id.  With memory=True a Tracer also
records each call's tracemalloc peak above the memory traced at its start;
that pass is kept apart because tracemalloc slows numpy-heavy code.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from contextlib import contextmanager
from typing import Dict, List, Optional

# span names whose time per item is reported as "<name>.ms"
TIMED = ("metric.cross_distances", "metric.apsp", "algorithms.greedy_ball",
         "algorithms.greedy_fill", "algorithms.refined", "algorithms.line",
         "algorithms.tree", "baselines.medoid_opt", "baselines.kmeans_pp",
         "baselines.social_cost", "audit.context", "audit.audit")
# audit calls that rebuild the audit context inside: "<name>.self_ms"
SELF_TIMED = ("audit.min_beta", "audit.max_blocking_size", "audit.is_in_core")
# calls whose tracemalloc peak is reported as "<name>.peak_mb"
PEAKS = ("metric.cross_distances", "algorithms.greedy_ball", "baselines.medoid_opt",
         "audit.context")
# counters, reported as a mean per item that records them
COUNTS = ("metric.table_mb", "algorithms.greedy_ball.openings",
          "algorithms.greedy_fill.added", "algorithms.refined.clusters",
          "audit.deviation_columns")


class NullTracer:
    """Calls straight through; used for every timed end-to-end number."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass

    @contextmanager
    def item(self, item_id):
        yield


class Tracer(NullTracer):
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: List[dict] = []
        self.counts: List[tuple] = []  # (item, name, value)
        self.errors = 0
        self._item = None
        self._parent = None

    @contextmanager
    def item(self, item_id):
        self._item = item_id
        span = {"name": "item", "start": time.perf_counter(), "end": None,
                "parent": None, "item": item_id, "id": len(self.spans)}
        self.spans.append(span)
        self._parent = span["id"]
        try:
            yield
        finally:
            span["end"] = time.perf_counter()
            self._item = self._parent = None

    def call(self, name, fn, *args, **kwargs):
        if self.memory:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            if name.startswith("audit."):
                self.errors += 1
            raise
        finally:
            end = time.perf_counter()
            span = {"name": name, "start": start, "end": end, "parent": self._parent,
                    "item": self._item, "id": len(self.spans)}
            if self.memory:
                span["peak_bytes"] = tracemalloc.get_traced_memory()[1] - base
            self.spans.append(span)

    def count(self, name, value):
        self.counts.append((self._item, name, float(value)))

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for item, name, value in self.counts:
                fh.write(json.dumps({"count": name, "item": item, "value": value}) + "\n")


def _per_item_ms(spans: List[dict], name: str) -> Optional[float]:
    """Mean over items making the call of the item's total time in it."""
    total = 0.0
    items = set()
    for s in spans:
        if s["name"] == name:
            total += s["end"] - s["start"]
            items.add(s["item"])
    return 1000.0 * total / len(items) if items else None


def layer_metrics(timing: Tracer, memory: Tracer, overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never calls reads 0."""
    out: Dict[str, float] = {}
    for name in TIMED:
        out[name + ".ms"] = _per_item_ms(timing.spans, name) or 0.0
    ctx = [s["end"] - s["start"] for s in timing.spans if s["name"] == "audit.context"]
    ctx_ms = 1000.0 * sum(ctx) / len(ctx) if ctx else 0.0
    for name in SELF_TIMED:
        calls = [s for s in timing.spans if s["name"] == name]
        items = {s["item"] for s in calls}
        total = 1000.0 * sum(s["end"] - s["start"] for s in calls) - ctx_ms * len(calls)
        out[name + ".self_ms"] = total / len(items) if items else 0.0
    for name in PEAKS:
        peaks = [s["peak_bytes"] for s in memory.spans if s["name"] == name]
        out[name + ".peak_mb"] = max(peaks) / 1e6 if peaks else 0.0
    for name in COUNTS:
        per_item: Dict = {}
        for item, cname, value in timing.counts:
            if cname == name:
                per_item[item] = per_item.get(item, 0.0) + value
        out[name] = sum(per_item.values()) / len(per_item) if per_item else 0.0
    out["audit.errors"] = float(timing.errors)
    out["trace.overhead_pct"] = overhead_pct
    return out

"""Runs one workload: set-up, warm-up, then a closed loop of items.

One client, one process: each item starts only after the previous one
has finished, and nothing runs in parallel.  Everything but the item calls
themselves (input generation, correctness checks, digests) happens with
the clock stopped; each item is checked right after it ran, and only its
digest is kept, so memory does not grow with the number of items.
"""
from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time
import tracemalloc
from typing import Dict, List

import coreclust as cc
from checks import digest, run_digest
from spans import NullTracer, Tracer, layer_metrics

NULL = NullTracer()


def _item(workload, inputs, tracer, i: int):
    """Item i as (result, seconds); result is (x, out, error), where error is
    the message of a CoreclustError the item raised."""
    x = inputs.item(i)  # may generate inputs, so before the clock starts
    out = error = None
    with tracer.item(i):
        t0 = time.perf_counter()
        try:
            out = workload.run_item(x, tracer)
        except cc.CoreclustError as exc:
            error = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return (x, out, error), dt


class Pass:
    """Item digests, problems and item times of one pass over the items."""

    def __init__(self, workload, reference: List[str]):
        self.workload, self.reference = workload, reference
        self.digests: List[str] = []
        self.problems: Dict[int, List[str]] = {}
        self.times: List[float] = []

    def add(self, result, dt: float) -> None:
        """Check one item (clock stopped); only its digest is kept."""
        x, out, error = result
        self.times.append(dt)
        if error is not None:
            self.digests.append("error")
            self.problems[x.index] = [error]
            return
        errs = self.workload.check(x, out)
        d = digest(self.workload.record(out))
        if x.index < len(self.reference) and self.reference[x.index] != d:
            errs.append(f"digest {d} != stored {self.reference[x.index]}")
        self.digests.append(d)
        if errs:
            self.problems[x.index] = errs

    def report(self, label: str) -> None:
        for index in sorted(self.problems)[:5]:
            for err in self.problems[index][:3]:
                print(f"FAILED {label} item {index}: {err}", file=sys.stderr)


def timed_pass(workload, inputs, seconds: float, reference, setup, setups: int) -> Pass:
    """Items 0, 1, ... until `seconds` of item time have been spent.

    setup() is also called `setups` times, clock stopped, at even marks of
    item time, so that set-up is sampled across the run rather than in one
    moment of a shared machine.
    """
    p = Pass(workload, reference)
    marks = [seconds * j / (setups + 1) for j in range(1, setups + 1)]
    total = 0.0
    while total < seconds:
        while marks and total >= marks[0]:
            marks.pop(0)
            setup()
        result, dt = _item(workload, inputs, NULL, len(p.times))
        p.add(result, dt)
        total += dt
    for _ in marks:  # a run faster than its marks still samples every set-up
        setup()
    return p


def paired_passes(workload, plain_inputs, traced_inputs, tracer, seconds: float,
                  reference):
    """Each item untraced, then the same item traced on a fresh copy of its
    inputs, until `seconds` of untraced item time; pairing keeps the
    machine's drift out of the tracing overhead.  After each traced item
    its layers are split out with `decompose`, clock stopped."""
    plain, traced = Pass(workload, reference), Pass(workload, reference)
    while sum(plain.times) < seconds:
        i = len(plain.times)
        plain.add(*_item(workload, plain_inputs, NULL, i))
        result, dt = _item(workload, traced_inputs, tracer, i)
        traced.add(result, dt)
        x, out, error = result
        errs = []
        if traced.digests[i] != plain.digests[i]:
            errs.append(f"traced digest {traced.digests[i]} != untraced {plain.digests[i]}")
        if error is None:
            with tracer.item(i):
                errs += workload.decompose(x, out, tracer)
        if errs:
            traced.problems.setdefault(i, []).extend(errs)
    return plain, traced


def run(workload, seed: int, seconds: float, trace: bool, reference: List[str],
        out_dir: str) -> dict:
    """One run; the result object the benchmark prints as its last line."""
    setup_times = []

    def setup():
        gc.collect()  # every sample starts from a collected heap
        t0 = time.perf_counter()
        inputs = workload.build(seed)
        setup_times.append(time.perf_counter() - t0)
        return inputs

    builds = [setup() for _ in range(3 if trace else 1)]
    warm = workload.warmup(seed)
    for i in range(workload.warm_items):
        workload.run_item(warm.item(i), NULL)

    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{workload.name}-s{seed}-t{int(trace)}")
    if not trace:
        main = timed_pass(workload, builds[0], seconds, reference, setup,
                          workload.setup_reps - 1)
        main.report("timed")
        times = main.times
        attempted, failed = len(times), len(main.problems)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": len(times) / sum(times),
            "item_ms_p50": 1000.0 * statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        summary = {"items": attempted}
        if attempted >= 100:  # a p90 with at least ten items beyond it
            summary["item_ms_p90"] = 1000.0 * statistics.quantiles(times, n=10)[8]
    else:
        tracer = Tracer()
        main, traced = paired_passes(workload, builds[0], builds[1], tracer, seconds / 2,
                                     reference)
        overhead = 100.0 * (sum(traced.times) / sum(main.times) - 1.0)
        memory = Tracer(memory=True)
        tracemalloc.start()
        try:
            for i in range(workload.memory_items):
                x = builds[2].item(i)
                with memory.item(i):
                    workload.decompose(x, workload.run_item(x, memory), memory)
        finally:
            tracemalloc.stop()
        main.report("untraced")
        traced.report("traced")
        attempted = len(main.times) + len(traced.times)
        failed = len(main.problems) + len(traced.problems)
        metrics = layer_metrics(tracer, memory, overhead)
        tracer.dump(stem + ".spans.jsonl")
        memory.dump(stem + ".memory.jsonl")
        summary = {"items": len(main.times), "trace_overhead_pct": overhead}
    with open(stem + ".digests.json", "w") as fh:
        json.dump(main.digests, fh)
    summary["failed_ratio"] = failed / attempted
    summary["digest"] = run_digest(main.digests)
    summary["reference"] = ("MISMATCH" if any("stored" in e for errs in main.problems.values()
                                              for e in errs) else "match")
    summary["reference_items"] = min(len(reference), len(main.digests))
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "summary": summary}

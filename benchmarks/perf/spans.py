"""In-memory spans for the benchmark's traced runs.

The benchmark records spans from its own files, around the calls it makes
into each layer; nothing under ``src/`` is touched.  A span has a name
(``<layer>.<what>``), a start, an end, the span that caused it, the
workload and the pass it belongs to.  Calls that happen tens of thousands
of times a pass (interpreter steps, lock-manager calls) are *merged*: all
calls with one name under one parent share a record that carries the call
count and the summed busy time, so a trace stays a few hundred records.

A span's self time is its busy time minus the busy time of its children.
A layer's self time in a pass is the sum over that layer's spans.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from contextlib import contextmanager
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional


class Span:
    __slots__ = ("name", "parent", "pass_id", "start", "end", "busy",
                 "count", "child_busy", "merged", "t0")

    def __init__(self, name: str, parent: Optional["Span"],
                 pass_id: int) -> None:
        self.name = name
        self.parent = parent
        self.pass_id = pass_id
        self.start = 0.0
        self.end = 0.0
        self.busy = 0.0
        self.count = 0
        self.child_busy = 0.0
        self.merged: Optional[Dict[str, "Span"]] = None
        self.t0 = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child_busy


class Tracer:
    """Records spans of one worker; ``current`` is the innermost open one."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self.current: Optional[Span] = None
        self.pass_id = -1

    # -- one record per call -------------------------------------------

    def begin(self, name: str) -> Span:
        span = Span(name, self.current, self.pass_id)
        self.spans.append(span)
        self.current = span
        span.start = perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = perf_counter()
        span.busy = span.end - span.start
        span.count = 1
        self.current = span.parent
        if span.parent is not None:
            span.parent.child_busy += span.busy

    @contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    @contextmanager
    def one_pass(self):
        self.pass_id += 1
        with self.span("pass") as span:
            yield span

    # -- one record per (parent, name): the hot paths ------------------

    def enter(self, name: str) -> Span:
        parent = self.current
        merged = parent.merged
        if merged is None:
            merged = parent.merged = {}
        span = merged.get(name)
        if span is None:
            span = merged[name] = Span(name, parent, self.pass_id)
            self.spans.append(span)
            span.start = perf_counter()
        self.current = span
        span.t0 = perf_counter()
        return span

    def exit(self, span: Span) -> None:
        now = perf_counter()
        elapsed = now - span.t0
        span.end = now
        span.busy += elapsed
        span.count += 1
        span.parent.child_busy += elapsed
        self.current = span.parent

    def call(self, name: str, fn, *args, **kwargs):
        span = self.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(span)

    def wrap(self, name: str, fn):
        """*fn* with every call recorded under the merged span *name*."""
        return partial(self.call, name, fn)

    def wrap_generator(self, name: str, gen):
        """Drive *gen*, recording each resumption under *name*; yields
        what it yields and returns what it returns."""
        while True:
            span = self.enter(name)
            try:
                event = next(gen)
            except StopIteration as stop:
                return stop.value
            finally:
                self.exit(span)
            yield event

    # -- reading the trace back ----------------------------------------

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """pass id -> span name -> summed self time."""
        result: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        for span in self.spans:
            result[span.pass_id][span.name] += span.self_time
        return result

    def median_self_times(self) -> Dict[str, float]:
        """span name -> median over passes of its summed self time."""
        per_pass = self.self_times()
        names = {name for times in per_pass.values() for name in times}
        return {name: statistics.median(times.get(name, 0.0)
                                        for times in per_pass.values())
                for name in names}

    def median_counts(self) -> Dict[str, float]:
        """span name -> median over passes of its call count."""
        per_pass: Dict[int, Dict[str, int]] = defaultdict(
            lambda: defaultdict(int))
        for span in self.spans:
            per_pass[span.pass_id][span.name] += span.count
        names = {name for counts in per_pass.values() for name in counts}
        return {name: statistics.median(counts.get(name, 0)
                                        for counts in per_pass.values())
                for name in names}

    def write(self, path: str) -> None:
        index = {id(span): n for n, span in enumerate(self.spans)}
        records = [{
            "id": index[id(span)],
            "name": span.name,
            "parent": (index[id(span.parent)]
                       if span.parent is not None else None),
            "workload": self.workload,
            "pass": span.pass_id,
            "start": span.start,
            "end": span.end,
            "busy": span.busy,
            "calls": span.count,
            "self": span.self_time,
        } for span in self.spans]
        with open(path, "w") as handle:
            json.dump({"workload": self.workload, "spans": records},
                      handle, indent=1)


def layer_of(span_name: str) -> str:
    """``lang.lex`` -> ``lang``; the root ``pass`` span is the harness."""
    return span_name.split(".", 1)[0] if "." in span_name else "harness"


def layer_self_times(span_times: Dict[str, float]) -> Dict[str, float]:
    layers: Dict[str, float] = defaultdict(float)
    for name, seconds in span_times.items():
        layers[layer_of(name)] += seconds
    return dict(layers)

"""Spans and counters recorded around the benchmark's calls into gtftlab.

A span covers one call into a layer's public function (``population.run``,
``cli.main`` and so on) or one whole task. Spans and counters stay in memory
until the run ends; then they are written out and reduced to per-layer
metrics. ``NullTracer`` has
the same interface and records nothing; untraced runs use it so that the
end-to-end metrics carry no tracing cost beyond one extra Python call per
layer call.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    task: int | None


class NullTracer:
    """Calls straight through; used for the untraced, end-to-end runs."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key, amount):
        pass

    def begin_task(self, task_id):
        pass

    def end_task(self, name):
        pass


class Tracer(NullTracer):
    """Records a span per layer call, nested under the span of its task."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._task: int | None = None
        self._task_span: int | None = None
        self._task_start = 0.0

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id - 1

    def call(self, name, fn, *args, **kwargs):
        span_id = self._new_id()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.spans.append(Span(span_id, name, start, end, self._task_span, self._task))

    def add(self, key, amount):
        self.counts[key] += amount

    def write(self, path) -> None:
        """Write every span as one JSON line, then the counters."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
            out.write(json.dumps({"counts": self.counts}) + "\n")

    def begin_task(self, task_id):
        self._task = task_id
        self._task_span = self._new_id()
        self._task_start = time.perf_counter()

    def end_task(self, name):
        end = time.perf_counter()
        self.spans.append(
            Span(self._task_span, "task." + name, self._task_start, end, None, self._task)
        )
        self._task = self._task_span = None


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    The benchmark is single-threaded, so the children of one span never
    overlap and their durations can simply be summed.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    return {s.span_id: (s.end - s.start) - child_time[s.span_id] for s in spans}


def busy_by_name(spans: list[Span]) -> dict[str, float]:
    """Self time summed per span name."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += own[s.span_id]
    return out


def busy(busy_names: dict[str, float], prefix: str) -> float:
    """Self time of every span named ``prefix`` or ``prefix.<anything>``."""
    return sum(
        t for name, t in busy_names.items() if name == prefix or name.startswith(prefix + ".")
    )

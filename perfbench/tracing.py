"""Spans and counters recorded around the benchmark's calls into bohrlab.

A span has a name (the layer call, e.g. ``measures.construct``), a start,
an end, the span that encloses it and the op it belongs to.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the time its child spans cover; children of one span never
overlap, because every op runs on one thread.

End-to-end runs use ``NULL``, whose spans and counters cost one attribute
lookup and a no-op context manager per call.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    on = True

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, op id]
        self.counts: dict[str, float] = defaultdict(int)
        self.samples: dict[str, list] = defaultdict(list)
        self.op = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self.op]
        self.spans.append(rec)
        self._open.append(idx)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        out = [end - start for _, start, end, _, _ in self.spans]
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: number of calls and summed self time."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        for rec, self_s in zip(self.spans, self.self_times()):
            calls[rec[0]] += 1
            busy[rec[0]] += self_s
        return {name: {"calls": calls[name], "busy_s": busy[name]} for name in calls}

    def median(self, name: str, default: float = 0.0) -> float:
        vals = self.samples.get(name)
        return statistics.median(vals) if vals else default

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "spans": [dict(zip(keys, rec)) for rec in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


class _NullTracer:
    on = False
    op = None
    _ctx = nullcontext()

    def span(self, name: str):
        return self._ctx

    def count(self, name: str, n: float = 1) -> None:
        pass

    def sample(self, name: str, value: float) -> None:
        pass


NULL = _NullTracer()

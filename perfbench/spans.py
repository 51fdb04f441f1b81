"""In-memory span recorder for the benchmark's traced runs.

A span is (name, start, end, parent). Spans are opened around each call the
benchmark makes into a `resdyn` layer; the layer is the first dotted
component of the span name. Spans stay in memory and are written out once,
when the run ends. A disabled recorder hands out one shared no-op span, so
an untraced run pays only an attribute lookup and a method call per span.
"""

from __future__ import annotations

import time
from collections import defaultdict

LAYERS = ("scenarios", "dynamics", "autodiff", "encoders", "svgp", "core")


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _Span:
    __slots__ = ("rec", "index")

    def __init__(self, rec: "SpanRecorder", name: str):
        self.rec = rec
        parent = rec._open[-1] if rec._open else -1
        self.index = len(rec.spans)
        rec.spans.append([name, time.perf_counter(), 0.0, parent])
        rec._open.append(self.index)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.rec.spans[self.index][2] = time.perf_counter()
        self.rec._open.pop()
        return False


class SpanRecorder:
    """Collects spans and named counts while `enabled` is true."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def span(self, name: str):
        return _Span(self, name) if self.enabled else _NULL

    def count(self, name: str, n: float = 1) -> None:
        if self.enabled:
            self.counts[name] += n

    def subtree(self, root_name: str) -> list[int]:
        """Indices of every span under (and including) the spans named
        `root_name`."""
        inside = [False] * len(self.spans)
        out = []
        for i, (name, _, _, parent) in enumerate(self.spans):
            if name == root_name or (parent >= 0 and inside[parent]):
                inside[i] = True
                out.append(i)
        return out

    def summary(self, root_name: str) -> dict[str, dict[str, float]]:
        """Per span name under `root_name`: calls, busy (total) and self
        seconds. Self time is the duration minus what direct children cover."""
        idx = self.subtree(root_name)
        child_time = defaultdict(float)
        for i in idx:
            name, start, end, parent = self.spans[i]
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i in idx:
            name, start, end, _ = self.spans[i]
            rec = out[name]
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += end - start - child_time[i]
        return dict(out)

    def layer_self_time(self, root_name: str) -> dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, rec in self.summary(root_name).items():
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += rec["self_s"]
        return totals

    def as_dict(self) -> dict:
        """Spans (times in seconds from the first span's start) and counts,
        ready for JSON."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return {"spans": [{"name": n, "start_s": s - t0, "end_s": e - t0, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}

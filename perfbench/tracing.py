"""In-memory spans around the benchmark's calls into the program.

A span holds its name, start, end, parent span and slide id.  Spans are
kept in memory and written out once, when the traced run ends.  A span's
self time is its duration minus the time its child spans cover; children
of one span run one after another, so that is the sum of their durations.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    span_id: int
    name: str
    parent: int | None
    slide: str | None
    start: float
    end: float = float("nan")

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, slide: str | None = None):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, parent, slide, time.perf_counter())
        self.spans.append(s)
        self._open.append(s.span_id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> list[tuple[Span, float]]:
        child_sum = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_sum[s.parent] += s.duration
        return [(s, s.duration - child_sum[s.span_id]) for s in self.spans]

    def write(self, path) -> None:
        """One JSON object per line, with the span's self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in self.self_times():
                fh.write(json.dumps(dict(asdict(s), self_s=self_s)) + "\n")


def per_slide_self_ms(tracer: Tracer, names) -> dict[str, float]:
    """slide id -> summed self time (ms) of the named spans on that slide."""
    names = set(names)
    out: dict[str, float] = {}
    for s, self_s in tracer.self_times():
        if s.name in names and s.slide is not None:
            out[s.slide] = out.get(s.slide, 0.0) + self_s * 1000.0
    return out


def total_self_ms(tracer: Tracer, names) -> float:
    """Summed self time (ms) of every span with one of the names."""
    names = set(names)
    return sum(self_s for s, self_s in tracer.self_times() if s.name in names) * 1000.0

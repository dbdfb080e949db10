"""In-memory span recorder for the traced benchmark run.

A span is ``[name, parent, start, end, failed]``; ``parent`` is the index
of the enclosing span or -1.  Spans close on exceptions as well as on
returns, so a call that raises is timed like one that succeeds.  The
layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Collects nested spans; nothing is written until :meth:`dump`."""

    def __init__(self):
        self.spans = []
        self._open = []

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def self_times(self) -> list:
        """Each span's duration minus the time covered by its children."""
        own = [end - start for _, _, start, end, _ in self.spans]
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_totals(self, own: list) -> dict:
        """Self time per layer, from :meth:`self_times`."""
        totals = defaultdict(float)
        for span, seconds in zip(self.spans, own):
            totals[span[0].split(".", 1)[0]] += seconds
        return dict(totals)

    def durations(self, name: str, failed: bool | None = None) -> list:
        """Durations of the spans called ``name``, optionally by outcome."""
        return [
            end - start
            for n, _, start, end, err in self.spans
            if n == name and (failed is None or err == failed)
        ]

    def dump(self, path, extra: dict) -> None:
        """Write the spans and ``extra`` as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "span_fields": ["name", "parent", "start", "end", "failed"],
                       "spans": self.spans}, fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.index = len(tracer.spans)
        parent = tracer._open[-1] if tracer._open else -1
        tracer.spans.append([self.name, parent, perf_counter(), 0.0, False])
        tracer._open.append(self.index)
        return self

    def __exit__(self, exc_type, exc, tb):
        span = self.tracer.spans[self.index]
        span[3] = perf_counter()
        span[4] = exc_type is not None
        self.tracer._open.pop()
        return False

"""In-memory spans around the benchmark's calls into each layer of pga.

A span records its name, start, end, the span it was opened inside and a
trace id shared by every span of one group's operation.  Spans stay in
memory while passes run and are written out once, when the run ends.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # [name, trace_id, parent index or None, start, end]
        self._open = []

    @contextmanager
    def span(self, name: str, trace_id: str):
        parent = self._open[-1] if self._open else None
        record = [name, trace_id, parent, perf_counter(), None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = perf_counter()
            self._open.pop()

    def mark(self) -> int:
        """Index of the next span, to select the spans of one pass."""
        return len(self.spans)

    def self_times(self, first: int = 0, last: int | None = None) -> list:
        """Duration minus the time covered by child spans, per span."""
        spans = self.spans[first:last]
        own = [s[4] - s[3] for s in spans]
        for s in spans:
            if s[2] is not None and s[2] >= first:
                own[s[2] - first] -= s[4] - s[3]
        return own

    def self_by_name(self, first: int = 0, last: int | None = None) -> dict:
        totals = {}
        for s, own in zip(self.spans[first:last], self.self_times(first, last)):
            totals[s[0]] = totals.get(s[0], 0.0) + own
        return totals

    def write(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as out:
            for i, (s, t) in enumerate(zip(self.spans, own)):
                name, trace_id, parent, start, end = s
                out.write(json.dumps({
                    "id": i, "name": name, "trace": trace_id, "parent": parent,
                    "start": start, "end": end, "self_s": t,
                }) + "\n")

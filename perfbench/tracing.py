"""In-memory spans around calls into spinweave's public functions.

A span records its name (``module.function``), start and end in
nanoseconds, the index of its parent span and the job it belongs to.
Spans are kept in a list and written out once the benchmark ends.  A
span's self time is its duration minus the time its direct children
cover.
"""

from __future__ import annotations

import json
import time
from pathlib import Path


class Untraced:
    """Same ``call`` interface as :class:`Tracer`; counts calls, keeps no spans."""

    def __init__(self):
        self.calls = 0

    def call(self, name, fn, *args, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self, job_id: int = 0):
        # each span: [name, start_ns, end_ns, parent_index or None, job_id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job_id = job_id

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter_ns(), 0, parent, self.job_id]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter_ns()
            self._stack.pop()

    @property
    def calls(self) -> int:
        return len(self.spans)

    def self_times_ns(self) -> list[int]:
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, total and self seconds, durations in ms."""
        out: dict[str, dict] = {}
        for (name, start, end, _, _), own in zip(self.spans, self.self_times_ns()):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0, "ms": []})
            entry["count"] += 1
            entry["total_s"] += (end - start) * 1e-9
            entry["self_s"] += own * 1e-9
            entry["ms"].append((end - start) * 1e-6)
        return out

    def covered_s(self) -> float:
        """Seconds covered by root spans (spans never overlap at the root)."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent is None) * 1e-9

    def write(self, path: Path) -> None:
        keys = ("name", "start_ns", "end_ns", "parent", "job")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")

"""Spans recorded by the benchmark around its calls into ``paradoxlab``.

A span is ``(run_id, span_id, parent_id, name, start, end)`` with times
from ``time.perf_counter``.  Spans stay in memory and are written once,
when the worker ends.  Span names are the per-layer metric stems of
``BENCHMARK.json`` (``centrality.eigenvector``, ``formats.parse_edge_list``,
...), so a layer's time is the sum of its spans.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records nested spans; ``run_id`` tags every span opened under it."""

    def __init__(self):
        self.run_id = ""
        self.spans: list[tuple[str, int, int | None, str, float, float]] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span_id = len(self.spans) + len(self._open)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((self.run_id, span_id, parent, name, start, end))

    def totals(self, run_id: str) -> dict[str, float]:
        """Seconds spent in spans of each name within one run.

        Spans of one name never nest, so summing their durations counts
        each interval once.
        """
        out: dict[str, float] = defaultdict(float)
        for rid, _, _, name, start, end in self.spans:
            if rid == run_id:
                out[name] += end - start
        return dict(out)

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for rid, sid, parent, name, start, end in sorted(
                    self.spans, key=lambda s: s[4]):
                fh.write(json.dumps({"run": rid, "id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


class NullTracer:
    """Tracing off: ``span`` is a shared no-op context."""

    run_id = ""
    _NULL = contextlib.nullcontext()

    def span(self, name: str):
        return self._NULL

    def totals(self, run_id: str) -> dict[str, float]:
        return {}

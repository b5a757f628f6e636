"""In-memory span recording around the library's public functions.

The tracer replaces a function at the module attribute its callers look it
up through (for example kernels.naive_trig_sum, which sum_auto and verify
both resolve at call time) with a wrapper that records a span: name, start,
end and parent. Spans stay in memory; fold() turns the buffered ones into
per-name aggregates between ops, and the first `keep` spans are written out
when the run ends. Only the benchmark process is patched; the library's
files are untouched.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

#: Counter hook of a wrapped function: (counters, args, kwargs, result).
CountFn = Callable[[dict, tuple, dict, object], None]


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the parent span in the same list, -1 for a root


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never exceeds the duration and is never
    negative.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start_ns, span.end_ns))
    out = []
    for index, span in enumerate(spans):
        covered = 0
        reach = span.start_ns
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end_ns)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end_ns - span.start_ns - covered)
    return out


class Tracer:
    """Span recorder with per-name call counts, busy and self time."""

    def __init__(self, keep: int = 100_000) -> None:
        self.keep = keep
        self.kept: list[Span] = []
        self.total_spans = 0
        self.counters: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.busy_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self._buffer: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, count: CountFn | None = None) -> Callable:
        buffer, stack, counters = self._buffer, self._stack, self.counters
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            record = [name, clock(), 0, stack[-1] if stack else -1]
            stack.append(len(buffer))
            buffer.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, module: object, attr: str, name: str, count: CountFn | None = None) -> None:
        """Replace module.attr by a span-recording wrapper of itself."""
        self.replace(module, attr, self.wrap(name, getattr(module, attr), count))

    def replace(self, module: object, attr: str, wrapper: Callable) -> None:
        """Set module.attr to wrapper until restore()."""
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def fold(self) -> None:
        """Aggregate the buffered spans; call only when no span is open."""
        if self._stack:
            raise RuntimeError("fold() inside an open span")
        spans = [Span(*record) for record in self._buffer]
        for span, own in zip(spans, self_times(spans)):
            self.calls[span.name] += 1
            self.busy_ns[span.name] += span.end_ns - span.start_ns
            self.self_ns[span.name] += own
        room = self.keep - len(self.kept)
        if room > 0:
            base = self.total_spans
            for span in spans[:room]:
                parent = span.parent + base if span.parent >= 0 else -1
                self.kept.append(span._replace(parent=parent))
        self.total_spans += len(spans)
        self._buffer.clear()

    def write(self, path: Path, meta: dict) -> None:
        """Write the kept spans (parents index the same list) and aggregates."""
        self.fold()
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            **meta,
            "spans_total": self.total_spans,
            "spans_kept": len(self.kept),
            "aggregates": {
                name: {"calls": self.calls[name], "busy_ns": self.busy_ns[name],
                       "self_ns": self.self_ns[name]}
                for name in sorted(self.calls)
            },
            "counters": dict(sorted(self.counters.items())),
            "spans": [list(span) for span in self.kept],
        }
        path.write_text(json.dumps(doc) + "\n")

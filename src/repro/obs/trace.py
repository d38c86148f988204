"""Hierarchical spans with injected clocks and NDJSON export.

A :class:`Tracer` hands out spans through ``with tracer.span("name",
key=value):``.  Parent links come from the innermost open span of the
current context (a per-tracer ``ContextVar``: each thread, and each
asyncio task - one serve request - has its own), ids from a
process-wide counter, and timestamps from the tracer's *injected*
clock — tests pass a fake monotonic counter so exported traces are
byte-deterministic; production uses ``time.perf_counter``.

The default process tracer is **disabled** (``sink=None``): a span on
the disabled path costs one attribute check and yields ``None``.  Hot
paths that cannot afford even a context-manager frame (the launch
engine) additionally guard on ``get_tracer().enabled``.

Export is one JSON object per finished span, one per line (NDJSON),
written in span-*completion* order; ``parent_id`` reconstructs the
hierarchy.  The format is pinned in docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed operation; ``attrs`` carry dimensions (system, op)."""

    name: str
    span_id: int
    parent_id: int | None
    start: float
    end: float | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return 0.0 if self.end is None else self.end - self.start

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "attrs": self.attrs,
        }


class NdjsonSink:
    """Span sink writing one sorted-key JSON object per line."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def __call__(self, span: Span) -> None:
        line = json.dumps(span.as_dict(), sort_keys=True)
        with self._lock:
            self._stream.write(line + "\n")


class Tracer:
    """Span factory; disabled (no sink) unless explicitly wired up."""

    def __init__(self, sink=None, clock=time.perf_counter) -> None:
        self.sink = sink
        self.clock = clock
        self._lock = threading.Lock()
        self._last_id = 0
        self._current: ContextVar[Span | None] = ContextVar(
            "repro.obs.trace.current", default=None
        )

    @property
    def enabled(self) -> bool:
        return self.sink is not None

    def _next_id(self) -> int:
        with self._lock:
            self._last_id += 1
            return self._last_id

    def current_span(self) -> Span | None:
        return self._current.get()

    @contextmanager
    def span(self, name: str, **attrs):
        if self.sink is None:
            yield None
            return
        parent = self._current.get()
        record = Span(
            name=name,
            span_id=self._next_id(),
            parent_id=None if parent is None else parent.span_id,
            start=self.clock(),
            attrs=attrs,
        )
        token = self._current.set(record)
        try:
            yield record
        finally:
            self._current.reset(token)
            record.end = self.clock()
            self.sink(record)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install a tracer process-wide; returns the previous one."""
    global _TRACER
    previous = _TRACER
    _TRACER = tracer
    return previous


def span(name: str, **attrs):
    """``with span("campaign.batch", system=...):`` on the tracer."""
    return _TRACER.span(name, **attrs)

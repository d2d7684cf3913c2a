"""Thread-safe span tracer with wall-clock timing and attributes.

Spans nest per thread: entering a span pushes it on a thread-local
stack, so each record knows its parent span and depth.  Timestamps are
wall-clock (``time.time``) so spans recorded in different processes —
shard workers ship theirs back inside ``ShardResult`` — line up on one
timeline; durations come from ``time.perf_counter`` deltas.

A :class:`Span` always measures its duration (callers like the report
engine read ``span.duration`` for their own output), but the record is
only retained while telemetry is enabled, so a disabled tracer holds
nothing and costs two clock reads per span.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.obs.metrics import telemetry_enabled


@dataclass
class SpanRecord:
    """One finished span — plain data, picklable for shard transport."""

    name: str
    #: Wall-clock start, seconds since the epoch.
    ts: float
    #: Wall-clock duration in seconds (``perf_counter`` delta).
    duration: float
    pid: int
    tid: int
    #: Nesting depth within the recording thread (0 = top level).
    depth: int = 0
    #: Name of the enclosing span, if any.
    parent: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)


class Span:
    """Context manager measuring one span; records on exit if enabled."""

    __slots__ = ("name", "attrs", "duration", "_tracer", "_started", "_ts", "_depth", "_parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs
        self.duration = 0.0
        self._tracer = tracer
        self._started = 0.0
        self._ts = 0.0
        self._depth = 0
        self._parent: Optional[str] = None

    def set(self, **attrs: object) -> None:
        """Attach attributes after entry (e.g. result sizes)."""

        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        self._depth = len(stack)
        self._parent = stack[-1].name if stack else None
        stack.append(self)
        self._ts = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self._started
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if telemetry_enabled():
            if exc_type is not None:
                self.attrs.setdefault("error", exc_type.__name__)
            self._tracer._append(
                SpanRecord(
                    name=self.name,
                    ts=self._ts,
                    duration=self.duration,
                    pid=os.getpid(),
                    tid=threading.get_ident(),
                    depth=self._depth,
                    parent=self._parent,
                    attrs=self.attrs,
                )
            )


class Tracer:
    """Collects span records; thread-safe; mergeable across processes."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: List[SpanRecord] = []
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    def span(self, name: str, **attrs: object) -> Span:
        """A context manager timing ``name`` with the given attributes."""

        return Span(self, name, attrs)

    def record(
        self, name: str, *, ts: float, duration: float, **attrs: object
    ) -> None:
        """Append an already-measured span (hot loops that time themselves).

        No-op while telemetry is disabled, like a :class:`Span` exit.
        """

        if not telemetry_enabled():
            return
        self._append(
            SpanRecord(
                name=name,
                ts=ts,
                duration=duration,
                pid=os.getpid(),
                tid=threading.get_ident(),
                attrs=attrs,
            )
        )

    def adopt(self, records: Iterable[SpanRecord]) -> None:
        """Merge spans recorded elsewhere (shard workers) onto this timeline."""

        records = list(records)
        if not records:
            return
        with self._lock:
            self._records.extend(records)

    def records(self) -> List[SpanRecord]:
        with self._lock:
            return list(self._records)

    def reset(self) -> None:
        with self._lock:
            self._records.clear()


#: The process-global default tracer all instrumentation records into.
_TRACER = Tracer()


def tracer() -> Tracer:
    return _TRACER

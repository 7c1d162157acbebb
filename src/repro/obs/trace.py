"""Sim-time tracer: nested spans and point events over simulated time.

Unlike a wall-clock tracer, records are stamped with *simulated* time —
device seconds, fleet days, or cluster logical time — because
that is the axis operators reason about in a simulated run
("which recovery storm coincided with the capacity cliff at year 6?").

The tracer keeps two bounded ring buffers (completed spans and point
events) so year-scale runs cannot exhaust memory; the newest records
win. :meth:`SimTimeTracer.export_jsonl` merges both and writes one
JSON object per line, ordered by sim time (ties broken by record
sequence, preserving causality for same-instant records).

The clock is pluggable: pass any object with a ``now`` attribute, a
zero-argument callable, or nothing
(time sticks at 0.0 until a harness wires a clock via
:meth:`SimTimeTracer.set_clock`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro import artifact
from repro.errors import ConfigError


def _as_clock(clock) -> Callable[[], float]:
    if clock is None:
        return lambda: 0.0
    if callable(clock):
        return clock
    if hasattr(clock, "now"):
        return lambda: float(clock.now)
    raise ConfigError(
        f"clock must be None, a callable, or have a .now attribute; "
        f"got {clock!r}")


@dataclass
class SpanRecord:
    """One completed span."""

    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float
    seq: int
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": "span",
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "time": self.start,
            "end_time": self.end,
            "attrs": self.attrs,
        }


@dataclass
class EventRecord:
    """One point event."""

    name: str
    time: float
    seq: int
    span_id: int | None
    attrs: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": "event",
            "name": self.name,
            "time": self.time,
            "span_id": self.span_id,
            "attrs": self.attrs,
        }


class _ActiveSpan:
    """Context manager handle for an in-flight span."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "start",
                 "attrs", "_seq")

    def __init__(self, tracer: "SimTimeTracer", span_id: int,
                 parent_id: int | None, name: str, start: float,
                 seq: int, attrs: dict) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self._seq = seq
        self.attrs = attrs

    def set(self, **attrs) -> "_ActiveSpan":
        """Attach attributes to the span mid-flight."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_ActiveSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._finish(self)
        return False


class SimTimeTracer:
    """Produces sim-time-stamped spans and events.

    Args:
        clock: initial time source (see module docstring); replaceable
            at any point with :meth:`set_clock`.
        capacity: ring-buffer size for completed spans and for events
            (each buffer holds this many records).
    """

    def __init__(self, clock=None, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ConfigError(
                f"capacity must be positive, got {capacity!r}")
        self._clock = _as_clock(clock)
        self.capacity = capacity
        self._spans: deque[SpanRecord] = deque(maxlen=capacity)
        self._events: deque[EventRecord] = deque(maxlen=capacity)
        self._stack: list[_ActiveSpan] = []
        self._next_id = 0
        self._seq = 0
        self.dropped = 0  # records evicted from a full ring

    # -- clock -------------------------------------------------------------

    def set_clock(self, clock) -> Callable[[], float]:
        """Swap the sim-time source (``.now`` object or callable).

        Returns the clock it replaced, so a run that borrows the tracer
        can hand it back: ``previous = tracer.set_clock(mine)`` ...
        ``tracer.set_clock(previous)``.
        """
        previous = self._clock
        self._clock = _as_clock(clock)
        return previous

    def now(self) -> float:
        return float(self._clock())

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs) -> _ActiveSpan:
        """Open a nested span; use as a context manager."""
        self._next_id += 1
        self._seq += 1
        parent = self._stack[-1].span_id if self._stack else None
        active = _ActiveSpan(self, self._next_id, parent, name,
                             self.now(), self._seq, dict(attrs))
        self._stack.append(active)
        return active

    def _finish(self, active: _ActiveSpan) -> None:
        # Tolerate mis-nested exits (exceptions unwinding several spans).
        while self._stack:
            popped = self._stack.pop()
            if popped is active:
                break
        if len(self._spans) == self.capacity:
            self.dropped += 1
        self._spans.append(SpanRecord(
            span_id=active.span_id, parent_id=active.parent_id,
            name=active.name, start=active.start, end=self.now(),
            seq=active._seq, attrs=active.attrs))

    def event(self, name: str, **attrs) -> None:
        """Record a point event at the current sim time."""
        self._seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(EventRecord(
            name=name, time=self.now(), seq=self._seq,
            span_id=self._stack[-1].span_id if self._stack else None,
            attrs=attrs))

    # -- introspection / export --------------------------------------------

    @property
    def active_depth(self) -> int:
        return len(self._stack)

    def records(self) -> list[SpanRecord | EventRecord]:
        """All retained records, ordered by (sim time, sequence)."""
        merged: list[SpanRecord | EventRecord] = list(self._spans)
        merged.extend(self._events)
        merged.sort(key=lambda r: (
            r.start if isinstance(r, SpanRecord) else r.time, r.seq))
        return merged

    def export_jsonl(self, path: str | Path) -> Path:
        """Write one JSON object per record, ordered by sim time."""
        return artifact.write_jsonl(
            path, (record.to_json() for record in self.records()))

    def clear(self) -> None:
        self._spans.clear()
        self._events.clear()
        self._stack.clear()
        self.dropped = 0

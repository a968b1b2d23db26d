"""Structured spans on a simulated clock.

The engines are deterministic and never read the wall clock — runtime is
a *priced* quantity, not a measured one — so span timestamps cannot come
from ``time.time()`` without destroying reproducibility.  Instead the
tracer owns a :class:`SimulatedClock`: a monotonic event counter that
advances by one tick per recorded event.  Two runs of the same workload
therefore produce byte-identical span streams, which is what lets the
golden-trace and inertness tests compare artifacts exactly.

A span records its name, parent, start/stop tick, and a flat attribute
dict; zero-duration events are spans whose start and stop coincide.
Nesting is tracked with an explicit stack, so instrumented call trees
(run → superstep → gather/apply/sync) come out as a proper forest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.utils.canonical import jsonable

__all__ = ["SimulatedClock", "Span", "Tracer"]


class SimulatedClock:
    """Monotonic tick counter standing in for a wall clock."""

    def __init__(self) -> None:
        self._ticks = 0

    @property
    def ticks(self) -> int:
        return self._ticks

    def advance(self) -> int:
        """Advance one tick and return the new time."""
        self._ticks += 1
        return self._ticks


@dataclass
class Span:
    """One named interval in the simulated timeline."""

    name: str
    span_id: int
    parent_id: Optional[int]
    start_tick: int
    end_tick: Optional[int] = None
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_open(self) -> bool:
        return self.end_tick is None

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on an open or closed span."""
        self.attributes.update(attrs)

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_tick": self.start_tick,
            "end_tick": self.end_tick,
            "attributes": jsonable(self.attributes),
        }


class _SpanHandle:
    """Context manager that closes its span on exit."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def set(self, **attrs: Any) -> None:
        self.span.set(**attrs)

    def close(self) -> None:
        """Close the span (idempotent); the non-``with`` form of exit."""
        if self.span.is_open:
            self._tracer.end(self.span)

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class Tracer:
    """Records spans into an ordered list on a simulated clock."""

    def __init__(self) -> None:
        self.clock = SimulatedClock()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0

    # -------------------------------------------------------------- #

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a child span of the innermost open span.

        Usable as a context manager; attributes may be added later via
        ``handle.set(...)`` while the span is open.
        """
        parent = self._stack[-1].span_id if self._stack else None
        s = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            start_tick=self.clock.advance(),
            attributes=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(s)
        self._stack.append(s)
        return _SpanHandle(self, s)

    def end(self, span: Span) -> None:
        """Close ``span`` (and any unclosed children, innermost first)."""
        while self._stack:
            top = self._stack.pop()
            top.end_tick = self.clock.advance()
            if top is span:
                return
        if span.end_tick is None:  # not on the stack (already popped)
            span.end_tick = self.clock.advance()

    def event(self, name: str, **attrs: Any) -> Span:
        """Record a zero-duration span at the current position."""
        parent = self._stack[-1].span_id if self._stack else None
        tick = self.clock.advance()
        s = Span(
            name=name,
            span_id=self._next_id,
            parent_id=parent,
            start_tick=tick,
            end_tick=tick,
            attributes=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(s)
        return s

    # -------------------------------------------------------------- #

    def named(self, name: str) -> List[Span]:
        """All spans called ``name``, in recording order."""
        return [s for s in self.spans if s.name == name]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def __len__(self) -> int:
        return len(self.spans)


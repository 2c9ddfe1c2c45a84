"""The Tracer protocol and its two built-in implementations.

Design goals, in priority order:

1. **Zero cost when off.** Every hook point in the engine follows the
   pattern ``tr = current_tracer(); tr.enabled and tr.instant(...)`` —
   with the default :class:`NullTracer` the per-hook cost is one function
   call returning a module global plus one attribute load and a short-
   circuited boolean, with *no* argument tuple or dict ever built.
2. **Bounded memory when on.** :class:`RecordingTracer` stores records in
   a ring buffer (``collections.deque(maxlen=...)``): a 600-second Linear
   Road run cannot exhaust memory no matter how chatty the engine is.
   Dropped-record counts are kept so exports can disclose truncation.
3. **One timebase.** Record timestamps are microseconds on whatever clock
   the engine runs (virtual time in the simulation harness), which maps
   1:1 onto the ``ts`` field of the Chrome trace-event format.

Three record kinds cover everything the engine emits:

``span``
    a named duration (an actor firing, a director iteration);
``instant``
    a point event (a scheduler decision, a window formation, a shed drop);
``counter``
    a named time series sample (queue depth, backlog).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator, Optional


class TraceRecord:
    """One typed telemetry record on the engine's µs timebase."""

    __slots__ = ("kind", "name", "ts", "dur", "actor", "args")

    def __init__(
        self,
        kind: str,
        name: str,
        ts: int,
        dur: int = 0,
        actor: Optional[str] = None,
        args: Optional[dict[str, Any]] = None,
    ):
        self.kind = kind  # "span" | "instant" | "counter"
        self.name = name
        self.ts = ts
        self.dur = dur
        self.actor = actor
        self.args = args

    def to_dict(self) -> dict[str, Any]:
        """A plain-dict view (JSONL export, tests)."""
        out: dict[str, Any] = {
            "kind": self.kind,
            "name": self.name,
            "ts": self.ts,
        }
        if self.kind == "span":
            out["dur"] = self.dur
        if self.actor is not None:
            out["actor"] = self.actor
        if self.args:
            out["args"] = self.args
        return out

    def __repr__(self) -> str:
        actor = f" actor={self.actor}" if self.actor else ""
        return f"TraceRecord({self.kind} {self.name!r} ts={self.ts}{actor})"


class Tracer:
    """Protocol every tracer implements; also the do-nothing base.

    Hook points check :attr:`enabled` before building any arguments, so
    subclasses that want records must set ``enabled = True``.
    """

    #: Hook sites skip all argument construction when this is False.
    enabled = False

    def span(
        self,
        name: str,
        ts: int,
        dur: int,
        actor: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a named duration starting at *ts* lasting *dur* µs."""

    def instant(
        self, name: str, ts: int, actor: Optional[str] = None, **args: Any
    ) -> None:
        """Record a point event at *ts*."""

    def counter(
        self, name: str, ts: int, value: float, actor: Optional[str] = None
    ) -> None:
        """Record a sample of the named time series at *ts*."""


class NullTracer(Tracer):
    """The default tracer: drops everything, costs (almost) nothing.

    ``enabled`` stays False, so hook sites short-circuit before even
    calling the methods; the methods exist only so direct calls are safe.
    """

    enabled = False


class RecordingTracer(Tracer):
    """Captures records into a bounded ring buffer.

    *capacity* bounds memory: once full, the oldest records are evicted
    (``deque(maxlen)`` semantics) and :attr:`dropped` counts the
    evictions so exporters can disclose truncation.
    """

    enabled = True

    def __init__(self, capacity: int = 1_000_000):
        if capacity <= 0:
            raise ValueError("RecordingTracer capacity must be positive")
        self.capacity = capacity
        self._records: deque[TraceRecord] = deque(maxlen=capacity)
        #: How many records the ring buffer evicted (oldest-first).
        self.dropped = 0
        #: Total records ever offered (kept + dropped).
        self.emitted = 0

    # ------------------------------------------------------------------
    def _push(self, record: TraceRecord) -> None:
        records = self._records
        if len(records) == self.capacity:
            self.dropped += 1
        records.append(record)
        self.emitted += 1

    def span(
        self,
        name: str,
        ts: int,
        dur: int,
        actor: Optional[str] = None,
        **args: Any,
    ) -> None:
        """Record a completed span (actor firing, iteration...)."""
        self._push(TraceRecord("span", name, ts, dur, actor, args or None))

    def instant(
        self, name: str, ts: int, actor: Optional[str] = None, **args: Any
    ) -> None:
        """Record a point event (decision, formation, drop...)."""
        self._push(TraceRecord("instant", name, ts, 0, actor, args or None))

    def counter(
        self, name: str, ts: int, value: float, actor: Optional[str] = None
    ) -> None:
        """Record a counter sample (queue depth, backlog...)."""
        self._push(
            TraceRecord("counter", name, ts, 0, actor, {"value": value})
        )

    # ------------------------------------------------------------------
    def records(self) -> list[TraceRecord]:
        """The retained records, oldest first."""
        return list(self._records)

    def clear(self) -> None:
        """Discard retained records (drop/emit counters are kept)."""
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)


#: The process-wide tracer every hook point consults.  Module-global (not
#: per-director) so hook points deep inside window operators and receivers
#: need no plumbing; :func:`use_tracer` scopes an override.
_TRACER: Tracer = NullTracer()

#: Mirror of ``_TRACER.enabled``, kept in sync by :func:`set_tracer`.
#: Hook sites on per-event paths test this single module attribute —
#: one attribute load and a branch — before touching ``_TRACER``.
ENABLED: bool = False


def current_tracer() -> Tracer:
    """The tracer hook points should emit to (hot path; cheap)."""
    return _TRACER


def set_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install *tracer* process-wide; ``None`` restores the NullTracer.

    Returns the previously installed tracer so callers can restore it.
    """
    global _TRACER, ENABLED
    previous = _TRACER
    _TRACER = tracer if tracer is not None else NullTracer()
    ENABLED = _TRACER.enabled
    return previous


@contextmanager
def use_tracer(tracer: Tracer):
    """Context manager: install *tracer* for the block, then restore."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)

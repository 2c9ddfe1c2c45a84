"""Receivers: the queue objects sitting at the receiving end of a channel.

In Kepler/PtolemyII the *receiver* is supplied by the director, not by the
actor — the director thereby controls the communication model.  This module
defines the director-agnostic receivers:

* :class:`FIFOReceiver` — a plain buffered queue (used by SDF/DDF/PN/DE);
* :class:`WindowedReceiver` — the CONFLuEnCE receiver: every ``put`` stamps
  the token into a :class:`~repro.core.events.CWEvent`, routes it through a
  :class:`~repro.core.windows.WindowOperator`, and any produced windows are
  stored on an output queue that the owning actor's ``get`` drains.

The STAFiLOS ``TMWindowedReceiver`` (in :mod:`repro.stafilos.tm_receiver`)
extends :class:`WindowedReceiver` so produced windows are handed to the
scheduler instead of buffered locally.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Optional

from ..observability import tracer as _obs
from .events import CWEvent
from .exceptions import ReceiverError
from .windows import Window, WindowOperator, WindowSpec


class Receiver(ABC):
    """Abstract receiver: the director-provided end point of a channel."""

    def __init__(self, port=None):
        #: The input port this receiver belongs to (set on attachment).
        self.port = port

    @abstractmethod
    def put(self, event: CWEvent) -> None:
        """Accept an event arriving over the channel."""

    def put_batch(self, events: list[CWEvent]) -> None:
        """Accept a train of events in arrival order.

        Semantically identical to ``for event in events: self.put(event)``;
        subclasses override it to amortize per-event bookkeeping.
        """
        for event in events:
            self.put(event)

    def can_stage(self) -> bool:
        """May a fan-out port deliver its trains to this receiver staged?

        Staged, ``put_batch(events, staged)`` takes the whole train in
        but hands nothing on: it appends ``(position in the train of the
        event that produced its first item, self, items)`` to *staged*,
        and the port calls ``admit_staged(items)`` once every consumer
        has the train (:meth:`OutputPort.broadcast_batch
        <repro.core.ports.OutputPort.broadcast_batch>`).  Answered per
        train; only receivers that feed a scheduler implement it.
        """
        return False

    @abstractmethod
    def get(self) -> Any:
        """Return the next readable item (event or window)."""

    @abstractmethod
    def has_token(self) -> bool:
        """True when :meth:`get` would succeed."""

    def size(self) -> int:
        """Number of readable items currently buffered."""
        return 1 if self.has_token() else 0

    def clear(self) -> None:
        """Discard all buffered content."""


class FIFOReceiver(Receiver):
    """An unbounded first-in/first-out event queue."""

    def __init__(self, port=None):
        super().__init__(port)
        self._queue: deque[CWEvent] = deque()

    def put(self, event: CWEvent) -> None:
        self._queue.append(event)

    def put_batch(self, events: list[CWEvent]) -> None:
        self._queue.extend(events)

    def get(self) -> CWEvent:
        if not self._queue:
            raise ReceiverError(
                f"get() on empty FIFO receiver of port {self.port!r}"
            )
        return self._queue.popleft()

    def has_token(self) -> bool:
        return bool(self._queue)

    def size(self) -> int:
        return len(self._queue)

    def peek(self) -> CWEvent:
        if not self._queue:
            raise ReceiverError("peek() on empty FIFO receiver")
        return self._queue[0]

    def clear(self) -> None:
        self._queue.clear()

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot the buffered events (Checkpointable protocol)."""
        return {"queue": list(self._queue)}

    def state_restore(self, state: dict) -> None:
        """Re-apply dumped buffered events (Checkpointable protocol)."""
        self._queue = deque(state["queue"])


class WindowedReceiver(Receiver):
    """The CONFLuEnCE windowed receiver.

    ``put`` inserts the event into the appropriate group-by queue of the
    window operator and, within the same call, checks whether a new window
    is produced; produced windows are stored on the output queue returned by
    ``get``.  Events that slide out of scope go to the port's ``expired_to``
    handler when one is declared; an attached receiver without a handler
    discards them (nothing will ever read them, and a continuous run would
    hold every one forever).  Only a port-less receiver — a caller driving
    it directly — accumulates them on :attr:`expired` until
    :meth:`drain_expired`.
    """

    def __init__(self, spec: Optional[WindowSpec], port=None):
        super().__init__(port)
        #: A port without a declared window behaves as a 1-token window —
        #: a plain event queue; a director's receiver then hands on the
        #: bare event instead of the singleton window around it.
        self._passthrough = spec is None
        if spec is None:
            spec = WindowSpec.tokens(1, 1, delete_used_events=True)
        self.spec = spec
        self.operator = WindowOperator(spec)
        self._windows: deque[Window] = deque()
        #: Lateness policy for events behind the applied frontier
        #: (:class:`repro.frontier.LatenessPolicy`); ``None`` admits all.
        self.lateness = None
        #: Newest event-time frontier applied to this queue.
        self._frontier_us = -1

    # ------------------------------------------------------------------
    def put(self, event: CWEvent) -> None:
        if (
            self.lateness is not None
            and self._frontier_us >= 0
            and event.timestamp < self._frontier_us
        ):
            disposition = self.lateness.disposition(
                event.timestamp, self._frontier_us
            )
            if disposition != "ontime":
                self._dispose_late(event, disposition)
                return
        operator = self.operator
        for window in operator.put(event):
            self._deliver(window)
        if operator.expired:
            self._route_expired()

    def put_batch(self, events: list[CWEvent]) -> None:
        """Insert a train of events through one operator call.

        Falls back to per-event :meth:`put` whenever expired routing is
        configured or a lateness policy is armed — both interleave side
        effects between insertions, so only the plain streaming case is
        amortized.  Window production order is identical either way.
        """
        target = self.port.expired_to if self.port is not None else None
        if target is not None or (
            self.lateness is not None and self._frontier_us >= 0
        ):
            for event in events:
                self.put(event)
            return
        operator = self.operator
        for window in operator.put_batch(events):
            self._deliver(window)
        if operator.expired:
            self._route_expired()

    def _dispose_late(self, event: CWEvent, disposition: str) -> None:
        """Drop or side-output one event the lateness policy rejected."""
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "event.late",
                event.timestamp,
                self.port.actor.name if self.port is not None else "?",
                frontier=self._frontier_us,
                disposition=disposition,
            )
        self._note_late(event)
        if disposition == "expired":
            target = self.port.expired_to if self.port is not None else None
            if target is not None:
                target.put(event)

    def _note_late(self, event: CWEvent) -> None:
        """Hook for subclasses to count/retire a rejected late event."""

    def _deliver(self, window: Window) -> None:
        """Route a produced window; subclasses override to hand it off."""
        if _obs.ENABLED and self.port is not None:
            _obs._TRACER.instant(
                "window.ready",
                window.timestamp if len(window) else 0,
                self.port.actor.name,
                port=self.port.name,
                size=len(window),
            )
        self._windows.append(window)

    def _route_expired(self) -> None:
        """Hand expired events to the port's handler, or discard them.

        A port-less receiver keeps them: its caller owns the queue.
        """
        if self.port is None or not self.operator.expired:
            return
        target = self.port.expired_to
        if target is None:
            self.operator.expired.clear()
            return
        for event in self.operator.drain_expired():
            target.put(event)

    def get(self) -> Window:
        if not self._windows:
            raise ReceiverError(
                f"get() on windowed receiver of port {self.port!r} "
                "with no produced window"
            )
        return self._windows.popleft()

    def has_token(self) -> bool:
        return bool(self._windows)

    def size(self) -> int:
        return len(self._windows)

    # ------------------------------------------------------------------
    # Timeouts and maintenance
    # ------------------------------------------------------------------
    def next_deadline(self) -> Optional[int]:
        """Event-time deadline of the earliest pending time window."""
        return self.operator.next_deadline()

    def force_timeout(self, now: Optional[int] = None) -> int:
        """Force-close pending windows; returns how many were produced."""
        produced = self.operator.force_timeout(now)
        for window in produced:
            self._deliver(window)
        self._route_expired()
        return len(produced)

    def next_frontier_boundary(self, up_to_us: int):
        """Earliest closable time-pane boundary at or before *up_to_us*."""
        return self.operator.next_frontier_boundary(up_to_us)

    def close_on_frontier(self, up_to_us: int) -> int:
        """Apply an event-time frontier; returns produced window count.

        Closes every complete time pane (right boundary at or before
        *up_to_us*) and records the bound so later arrivals behind it
        are classified by the lateness policy.  Count/wave windows only
        record the bound.
        """
        if up_to_us > self._frontier_us:
            self._frontier_us = up_to_us
        produced = self.operator.close_on_frontier(up_to_us)
        for window in produced:
            self._deliver(window)
        self._route_expired()
        return len(produced)

    @property
    def expired(self) -> deque[CWEvent]:
        return self.operator.expired

    def drain_expired(self) -> list[CWEvent]:
        return self.operator.drain_expired()

    def pending_events(self) -> int:
        """Events buffered inside the operator, not yet in any window."""
        return self.operator.pending_count()

    def clear(self) -> None:
        self._windows.clear()
        self.operator = WindowOperator(self.spec)

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot operator state + produced-window queue (Checkpointable)."""
        state = {
            "operator": self.operator.state_dump(),
            "windows": list(self._windows),
        }
        if self._frontier_us >= 0:
            # Only frontier-enabled runs carry the key, so dumps of
            # frontier-less runs stay byte-identical to the seed's.
            state["frontier_us"] = self._frontier_us
        return state

    def state_restore(self, state: dict) -> None:
        """Re-apply a dump in place on the rebuilt receiver (Checkpointable)."""
        self.operator.state_restore(state["operator"])
        self._windows = deque(state["windows"])
        self._frontier_us = state.get("frontier_us", -1)

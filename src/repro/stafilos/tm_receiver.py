"""The TM Windowed Receiver.

Based on the TM receiver of PtolemyII's TM (timed-multitasking) domain and
extending the CONFLuEnCE windowed receiver: when an upstream actor
broadcasts an event, ``put`` runs the window semantics on the group-by
queue, and any produced window is **enqueued at the actor's ready queue at
the SCWF director** (rather than buffered for a blocking reader).  When the
director later decides to run the actor, it dequeues the window and stages
it on the firing context the actor's ``fire`` reads from — the receiver
itself buffers nothing.

Ports without a declared window behave as plain event queues: every event
is immediately ready work (a "window" of one event, delivered as the bare
event).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..core.events import CWEvent
from ..core.receivers import WindowedReceiver
from ..core.windows import Window, WindowSpec
from ..observability import tracer as _obs

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scwf_director import SCWFDirector


class TMWindowedReceiver(WindowedReceiver):
    """Windowed receiver that hands produced windows to the scheduler."""

    def __init__(
        self,
        spec: Optional[WindowSpec],
        director: "SCWFDirector",
        port=None,
    ):
        super().__init__(spec, port)
        self._director = director

    def put(self, event: CWEvent) -> None:
        if self._passthrough:
            # Fast path: a windowless port wraps every event in a
            # tokens(1, 1) singleton window only to unwrap it again in
            # ``_deliver``.  Skip the window operator entirely — the
            # passthrough spec never pends, expires, or times out, so
            # the observable behaviour is bit-identical.  (The threaded
            # engine's receiver takes the same shortcut.)
            port = self.port
            self._director.schedule_ready(port.actor, port.name, event)
            return
        super().put(event)

    def put_batch(
        self, events: list[CWEvent], staged: Optional[list] = None, keys=None
    ) -> None:
        """Train intake: one scheduler call for a windowless port's train.

        Passthrough ports hand the whole event train to the scheduler in
        a single ``schedule_ready_batch`` — the per-event path's dominant
        cost.  Windowed ports run the (possibly amortized) operator batch
        insert, with the events' group *keys* when the port computed
        them.  With *staged* (``OutputPort.stage``) the items the train
        produced are appended to it instead of scheduled;
        :meth:`admit` follows.
        """
        if staged is not None:
            if self._passthrough:
                staged.append((0, self, events))
                return
            produced_by: list[int] = []
            windows = self.operator.put_batch(events, produced_by, keys)
            if windows:
                staged.append((produced_by[0], self, windows))
            self._route_expired()
            return
        if self._passthrough:
            port = self.port
            self._director.schedule_ready_batch(port.actor, port.name, events)
            return
        super().put_batch(events, keys)

    def can_stage(self) -> bool:
        """Staging defers every side effect of a delivery but the insert,
        so it is granted only while nothing watches single deliveries:
        no load shedder, ``expired_to`` handler or armed lateness
        policy.  (A frontier tracker counts at the director's intake.)
        """
        return (
            self._director.scheduler.shedder is None
            and self.port.expired_to is None
            and (self.lateness is None or self._frontier_us < 0)
        )

    def admit(self, items: list, stamps: Optional[list[int]] = None) -> None:
        """Schedule what a staged ``put_batch`` produced, in one call; a
        held train passes each item's admission time (*stamps*)."""
        port = self.port
        if _obs.ENABLED and not self._passthrough:
            for window in items:
                self._trace_ready(window)
        self._director.schedule_ready_batch(
            port.actor, port.name, items, stamps
        )

    def _note_late(self, event: CWEvent) -> None:
        tracker = self._director.frontier
        if tracker is not None:
            tracker.note_late()

    # ------------------------------------------------------------------
    def _deliver(self, window: Window) -> None:
        """A produced window goes to the per-actor ready queue."""
        item: Window | CWEvent = window
        if self._passthrough:
            item = window.events[0]
        assert self.port is not None
        if _obs.ENABLED and not self._passthrough:
            # Passthrough events are ubiquitous; window completions are
            # the signal worth a record per delivery.
            self._trace_ready(window)
        self._director.schedule_ready(self.port.actor, self.port.name, item)

    def _trace_ready(self, window: Window) -> None:
        _obs._TRACER.instant(
            "window.ready",
            window.timestamp if len(window) else 0,
            self.port.actor.name,
            port=self.port.name,
            size=len(window),
        )

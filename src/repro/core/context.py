"""Firing contexts: how an actor reads inputs and emits outputs.

A director never lets actors touch receivers directly.  Instead, before each
invocation it *stages* the data the actor may consume (a window, an event, a
batch of arrivals) into a :class:`FiringContext`, and the actor's lifecycle
methods interact only with that context:

``ctx.read(port)``
    pop the next staged item for the named input port (or ``None``);
``ctx.send(port, value)``
    emit a value on the named output port — the context wraps it into a
    timestamped, wave-stamped :class:`~repro.core.events.CWEvent` and, at
    ``close()``, hands it to the port's delivery *route*;
``ctx.now``
    the current engine time in microseconds (virtual or wall, depending on
    the runtime).

Wave bookkeeping happens here: outputs of a firing become children of the
wave of the item that triggered the firing, and the last output of the
firing is marked ``last_in_wave`` when the context closes.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Optional

from .events import CWEvent
from .exceptions import ActorError
from .waves import WaveGenerator, WaveScope
from .windows import Window

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .actors import Actor
    from .ports import OutputPort

class RouteTable(dict):
    """``{port name: route}`` of one actor, each route built on first use.

    A *route* is anything with ``deliver(event)`` and
    ``deliver_train(events)``: where one output port's emissions go.
    Directors hand every context of an actor the same table, so a port's
    route is resolved once, not once per event.
    """

    __slots__ = ("_actor", "_build")

    def __init__(self, actor: "Actor", build: Callable[["OutputPort"], Any]):
        super().__init__()
        self._actor = actor
        self._build = build

    def __missing__(self, port_name: str):
        port = self._actor.output_ports.get(port_name)
        if port is None:
            raise ActorError(
                f"{self._actor.name} has no output port {port_name!r}"
            )
        route = self[port_name] = self._build(port)
        return route


class FiringContext:
    """Mutable per-invocation staging area and emission gateway."""

    def __init__(
        self,
        actor: "Actor",
        now: int,
        routes: RouteTable,
        wave_generator: Optional[WaveGenerator] = None,
    ):
        self.actor = actor
        self.now = now
        #: Where each output port's emissions go: the actor's route
        #: table, the same one for every context of the actor.
        self._routes = routes
        self._wave_generator = wave_generator
        #: One deque per input port, kept (emptied) across ``reset``.
        self._staged: dict[str, deque] = {}
        #: The open wave scope, or ``None`` before the first ``read``;
        #: always the one recycled ``_spare_scope`` instance.
        self._scope: Optional[WaveScope] = None
        self._spare_scope = WaveScope()
        self._trigger_timestamp: Optional[int] = None
        #: ``(route, event)`` emissions buffered until ``close()``: the
        #: last event of a firing must carry its ``last_in_wave`` mark
        #: *before* downstream receivers see it, so nothing is delivered
        #: mid-firing.
        self._pending: list[tuple[Any, CWEvent]] = []
        #: Emissions of sealed firings (:meth:`seal`), kept across
        #: ``reset`` until :meth:`deliver_held`: per firing, the engine
        #: time it was sealed at and its ``(route, event)`` pairs.
        self._held: list[tuple[int, list[tuple[Any, CWEvent]]]] = []
        #: Event-train emission: runs of consecutive emissions on one port
        #: are delivered as a single train of up to ``_emit_chunk`` events
        #: (``None`` = unbounded).  The default of 1 delivers per event.
        self._emit_chunk: Optional[int] = 1
        #: Emission counters for the statistics module.
        self.inputs_consumed = 0
        self.outputs_produced = 0

    def enable_batch_emission(self, chunk: Optional[int]) -> None:
        """Deliver same-port emission runs as trains of up to *chunk* events."""
        self._emit_chunk = chunk

    def reset(self, now: int) -> None:
        """Recycle this context for the next firing of the same actor.

        Equivalent to constructing a fresh context with the same routes:
        staged items, pending emissions, the wave scope and the counters
        are all cleared (emissions already sealed stay held).  Used by
        the train fire loop to avoid one allocation per drained item.
        """
        self.now = now
        for queue in self._staged.values():
            queue.clear()
        self._pending.clear()
        self._scope = None
        self._trigger_timestamp = None
        self.inputs_consumed = 0
        self.outputs_produced = 0

    # ------------------------------------------------------------------
    # Staging (director side)
    # ------------------------------------------------------------------
    def stage(self, port_name: str, item: Window | CWEvent) -> None:
        """Make *item* available to the actor's next ``read`` on the port."""
        queue = self._staged.get(port_name)
        if queue is None:
            queue = self._staged[port_name] = deque()
        queue.append(item)

    def staged_count(self, port_name: str) -> int:
        return len(self._staged.get(port_name, ()))

    def has_staged(self, port_name: Optional[str] = None) -> bool:
        if port_name is not None:
            return bool(self._staged.get(port_name))
        return any(self._staged.values())

    # ------------------------------------------------------------------
    # Reading (actor side)
    # ------------------------------------------------------------------
    def read(self, port_name: str) -> Window | CWEvent | None:
        """Pop the next staged window/event for *port_name*, or ``None``."""
        queue = self._staged.get(port_name)
        if not queue:
            if port_name not in self.actor.input_ports:
                raise ActorError(
                    f"{self.actor.name} has no input port {port_name!r}"
                )
            return None
        item = queue.popleft()
        self.inputs_consumed += 1
        self._adopt_wave(item)
        return item

    def read_value(self, port_name: str) -> Any:
        """Like :meth:`read` but unwraps single events to their payload."""
        item = self.read(port_name)
        if isinstance(item, CWEvent):
            return item.value
        return item

    def _adopt_wave(self, item: Window | CWEvent) -> None:
        """Outputs of this firing descend from the consumed item's wave."""
        if isinstance(item, Window):
            if not item.events:
                return
            newest = max(item.events)
            wave, timestamp = newest.wave, newest.timestamp
        else:
            wave, timestamp = item.wave, item.timestamp
        scope = self._scope
        if scope is not None:
            # Reading a second item: the previous sub-wave is complete.
            scope.close()
        else:
            scope = self._scope = self._spare_scope
        scope.open(wave)
        self._trigger_timestamp = timestamp

    # ------------------------------------------------------------------
    # Emission (actor side)
    # ------------------------------------------------------------------
    def send(
        self,
        port_name: str,
        value: Any,
        timestamp: Optional[int] = None,
    ) -> CWEvent:
        """Emit *value* on *port_name* as a wave-stamped CWEvent."""
        route = self._routes[port_name]  # ActorError on an unknown port
        scope = self._scope
        if scope is not None:
            if timestamp is None:
                timestamp = self._trigger_timestamp
            event = CWEvent(value, timestamp, scope.tag_for_output())
            scope._last_event = event
        elif self._wave_generator is None:
            raise ActorError(
                f"{self.actor.name} emitted without a consumed event and "
                "without a wave generator (source actors need one)"
            )
        else:
            # Source emission: a brand-new external event starts a new
            # wave, and a root event is its own wave head.
            event = CWEvent(
                value,
                self.now if timestamp is None else timestamp,
                self._wave_generator.next_root(),
                True,
            )
        self.outputs_produced += 1
        self._pending.append((route, event))
        return event

    # ------------------------------------------------------------------
    def close(self) -> None:
        """End of firing: mark the sub-wave's last event, then deliver.

        Emissions buffered during the firing go down their routes here,
        after the wave marks are final, in production order.  A firing
        that raises never delivers — its partial output is discarded, not
        half-applied.
        """
        if self._scope is not None:
            self._scope.close()
            self._scope = None
        pending = self._pending
        if not pending:
            return
        self._pending = []
        chunk = self._emit_chunk
        n = len(pending)
        if chunk == 1 or n == 1:
            for route, event in pending:
                route.deliver(event)
            return
        # Maximal same-port runs travel as trains of up to ``chunk`` events.
        i = 0
        while i < n:
            route = pending[i][0]
            limit = n if chunk is None else min(n, i + chunk)
            j = i + 1
            while j < limit and pending[j][0] is route:
                j += 1
            if j - i == 1:
                route.deliver(pending[i][1])
            else:
                route.deliver_train([event for _, event in pending[i:j]])
            i = j

    def seal(self, now: int) -> None:
        """End of a firing whose emissions are held for the train.

        The wave marks become final, as at :meth:`close`, but nothing is
        delivered: the emissions wait for :meth:`deliver_held`, stamped
        with *now*, the engine time ``close`` would have delivered them
        at.
        """
        if self._scope is not None:
            self._scope.close()
            self._scope = None
        if self._pending:
            self._held.append((now, self._pending))
            self._pending = []

    def deliver_held(self) -> list[CWEvent]:
        """Deliver what the sealed firings emitted; returns those events
        in production order.

        Each route gets its whole share in one staged delivery, and the
        receivers are admitted by the position of the event that
        produced their first item, across all the actor's routes — the
        order in which per-firing delivery would first have reached
        each of them (``OutputPort.broadcast_batch`` applies the same
        rule to one port).  Every item is admitted at the stamp of the
        firing that produced it.
        """
        held = self._held
        if not held:
            return []
        self._held = []
        events: list[CWEvent] = []
        shares: dict[Any, tuple[list, list, list]] = {}
        for stamp, pending in held:
            for route, event in pending:
                share = shares.get(route)
                if share is None:
                    share = shares[route] = ([], [], [])
                share[0].append(event)
                share[1].append(stamp)
                share[2].append(len(events))
                events.append(event)
        staged: list[tuple] = []
        for route, (share, stamps, positions) in shares.items():
            route.port.stage_held(share, stamps, positions, staged)
        staged.sort(key=itemgetter(0))  # stable: channel order among equals
        for _, receiver, items, stamps in staged:
            receiver.admit_held(items, stamps)
        return events

    def abort(self) -> None:
        """Discard buffered emissions: the firing failed mid-way."""
        self._pending.clear()
        self._scope = None

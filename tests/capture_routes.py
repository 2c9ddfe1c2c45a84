"""A fake route table: a firing context's emissions, captured.

Every :class:`~repro.core.context.FiringContext` delivers through its
actor's :class:`~repro.core.context.RouteTable`.  Tests that fire an actor
by hand and look at what it emitted pass a :class:`CaptureRoutes` instead
of a director's table::

    routes = CaptureRoutes(actor)
    ctx = FiringContext(actor, 0, routes, WaveGenerator())
    actor.fire(ctx)
    ctx.close()
    routes.values()  # what the firing sent, in delivery order
"""

from __future__ import annotations

from functools import partial

from repro.core.context import RouteTable


class _CaptureRoute:
    """The route protocol, recording instead of delivering."""

    def __init__(self, table: "CaptureRoutes", port):
        self._table = table
        self.port = port

    def deliver(self, event) -> None:
        self._table.emitted.append((self.port.name, event))

    def deliver_train(self, events) -> None:
        self._table.trains.append((self.port.name, list(events)))


class CaptureRoutes(RouteTable):
    """``RouteTable`` whose routes record what they are handed.

    ``emitted`` holds ``(port name, event)`` per single delivery, and
    ``trains`` ``(port name, events)`` per train delivery, each in
    delivery order.
    """

    def __init__(self, actor):
        super().__init__(actor, partial(_CaptureRoute, self))
        self.emitted: list = []
        self.trains: list = []

    def events(self) -> list:
        """Every single delivery's event, in order."""
        return [event for _, event in self.emitted]

    def values(self) -> list:
        """Every single delivery's payload, in order."""
        return [event.value for _, event in self.emitted]

"""Ports and channels: the communication interfaces between actors.

Communication in the CWf model happens between an actor's *output port* and
the *input ports* of downstream actors.  An input port owns exactly one
receiver (provided by the director — that is how the director controls the
communication model); when several upstream channels feed the same input
port, their events merge into that single receiver's queue, which matches
the "active queue on the input of the activity" picture of the paper.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING, Optional

from ..observability import tracer as _obs
from .events import CWEvent
from .exceptions import PortError
from .receivers import Receiver
from .windows import WindowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .actors import Actor


class Port:
    """Common state shared by input and output ports."""

    def __init__(self, actor: "Actor", name: str):
        self.actor = actor
        self.name = name

    @property
    def full_name(self) -> str:
        return f"{self.actor.name}.{self.name}"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.full_name})"


class InputPort(Port):
    """An input port: owns the active queue (receiver) feeding its actor.

    ``window`` declares the window semantics the director should configure
    on this queue; directors that do not understand windows (plain SDF/DDF)
    reject ports that declare one.
    """

    def __init__(
        self,
        actor: "Actor",
        name: str,
        window: Optional[WindowSpec] = None,
    ):
        super().__init__(actor, name)
        self.window = window
        self.receiver: Optional[Receiver] = None
        #: Channels terminating here (for graph introspection only).
        self.incoming: list["Channel"] = []
        #: True when a composite boundary feeds this port via injection,
        #: so validation accepts it without an incoming channel.
        self.boundary = False
        #: Optional destination for events expiring out of this port's
        #: window ("pushed to an expired items queue which are optionally
        #: handled by another workflow activity", paper §2.1).
        self.expired_to: Optional["InputPort"] = None

    def attach_receiver(self, receiver: Receiver) -> None:
        receiver.port = self
        self.receiver = receiver

    def put(self, event: CWEvent) -> None:
        if self.receiver is None:
            raise PortError(
                f"input port {self.full_name} has no receiver; "
                "was the workflow initialized by a director?"
            )
        self.receiver.put(event)

    def has_token(self) -> bool:
        return self.receiver is not None and self.receiver.has_token()

    def get(self):
        if self.receiver is None:
            raise PortError(f"input port {self.full_name} has no receiver")
        return self.receiver.get()


class OutputPort(Port):
    """An output port: broadcasts produced events to all remote receivers."""

    def __init__(self, actor: "Actor", name: str):
        super().__init__(actor, name)
        self.outgoing: list["Channel"] = []

    def broadcast(self, event: CWEvent) -> None:
        """Deliver *event* to the receiver of every connected input port."""
        for channel in self.outgoing:
            channel.sink.receiver.put(event)

    def broadcast_batch(self, events: list[CWEvent]) -> None:
        """Deliver a train of events: once per channel, not once per event.

        With a single outgoing channel the whole train moves through one
        ``put_batch`` chain.  A fan-out port delivers **column-wise**:
        every consumer's receiver takes the whole train in one staged
        ``put_batch`` (see :meth:`Receiver.can_stage
        <repro.core.receivers.Receiver.can_stage>`), then each consumer
        is admitted once with everything the train produced for it —
        consumers ordered by the position in the train of the event that
        produced their first item, channel order among equals.  That is
        the order in which per-event delivery first reaches each
        consumer, and first activation is all of the cross-consumer
        order a scheduler observes (round-robin draws a rotation ticket
        when a ready queue turns non-empty).

        Per-event delivery (``broadcast`` per event) stays as the
        fallback wherever the interleaving itself is observable: two
        channels lead into the same consumer actor, or a receiver
        declines to stage.  Whether a tracer is recording does not
        matter: a traced fan-out stages exactly as an untraced one.
        """
        outgoing = self.outgoing
        if len(outgoing) == 1:
            outgoing[0].sink.receiver.put_batch(events)
            return
        receivers = [channel.sink.receiver for channel in outgoing]
        if len({channel.sink.actor for channel in outgoing}) < len(
            outgoing
        ) or not all(receiver.can_stage() for receiver in receivers):
            for event in events:
                for receiver in receivers:
                    receiver.put(event)
            return
        staged: list[tuple] = []
        for receiver in receivers:
            receiver.put_batch(events, staged)
        staged.sort(key=itemgetter(0))  # stable: channel order among equals
        for _, receiver, items in staged:
            receiver.admit_staged(items)

    def stage_held(
        self,
        events: list[CWEvent],
        stamps: list[int],
        positions: list[int],
        staged: list,
    ) -> None:
        """Stage a held train in every consumer, admitting nothing.

        The held form of :meth:`broadcast_batch`.  A held route ends in
        windowless ports only (``SCWFDirector._may_hold``).  The train
        comes from several firings, so every item carries the engine
        time it would have been admitted at (*stamps*) and its position
        in the producer's whole held output (*positions*).  Appends
        ``(position of the first item, receiver, items, their stamps)``
        per consumer to *staged*; the producer admits them once every
        one of its routes has staged (``FiringContext.deliver_held``).
        """
        if _obs.ENABLED:
            _obs._TRACER.instant(
                "actor.emit_train",
                events[0].timestamp,
                self.actor.name,
                port=self.name,
                count=len(events),
            )
        local: list[tuple] = []
        for channel in self.outgoing:
            channel.sink.receiver.put_batch(events, local)
        for _, receiver, items in local:
            staged.append((positions[0], receiver, items, stamps))

    @property
    def destinations(self) -> list[InputPort]:
        return [channel.sink for channel in self.outgoing]


class Channel:
    """A directed connection from an output port to an input port."""

    def __init__(self, source: OutputPort, sink: InputPort):
        if isinstance(source, InputPort) or isinstance(sink, OutputPort):
            raise PortError(
                "channels connect an OutputPort to an InputPort "
                f"(got {source!r} -> {sink!r})"
            )
        self.source = source
        self.sink = sink
        source.outgoing.append(self)
        sink.incoming.append(self)

    def __repr__(self) -> str:
        return f"Channel({self.source.full_name} -> {self.sink.full_name})"

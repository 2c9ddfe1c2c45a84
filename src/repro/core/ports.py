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

    def broadcast_batch(self, events: list[CWEvent]) -> bool:
        """Deliver a train of events: once per channel, not once per event.

        A single channel takes the whole train in one ``put_batch``; a
        fan-out port delivers it **column-wise**: :meth:`stage` in every
        consumer, then :func:`admit_in_order`.  Returns ``False``, having
        changed nothing, where the per-event interleave is observable —
        two channels into one consumer actor, a receiver that declines
        to stage (:meth:`Receiver.can_stage
        <repro.core.receivers.Receiver.can_stage>`), a consumer's
        group-by key that raises on the train — and the caller delivers
        the train per event instead, so a raise comes where per-event
        delivery meets it.  A recording tracer changes nothing.
        """
        outgoing = self.outgoing
        if len(outgoing) == 1:
            receiver = outgoing[0].sink.receiver
            try:
                keys = receiver.group_keys(events)
            except Exception:
                return False
            receiver.put_batch(events, keys=keys)
            return True
        staged: list[tuple] = []
        if (
            len({channel.sink.actor for channel in outgoing}) < len(outgoing)
            or not all(each.sink.receiver.can_stage() for each in outgoing)
            or not self.stage(events, staged)
        ):
            return False
        admit_in_order(staged)
        return True

    def stage(
        self, events: list[CWEvent], staged: list, offset: int = 0,
        stamps: Optional[list[int]] = None,
    ) -> bool:
        """Stage a train in every consumer, admitting nothing.

        Every consumer's group keys are computed first (``False``, with
        nothing changed, if one raises) and passed into its staged
        ``put_batch``; ``(offset + position of the event that produced
        its first item, receiver, items, stamps)`` is appended to
        *staged* per consumer.  A held train passes its share's *offset*
        in the producer's output and each event's admission time
        (*stamps*); its ports are windowless, so its items are events.
        """
        receivers = [channel.sink.receiver for channel in self.outgoing]
        try:
            keys = [receiver.group_keys(events) for receiver in receivers]
        except Exception:
            return False
        local: list[tuple] = []
        for receiver, its_keys in zip(receivers, keys):
            receiver.put_batch(events, local, its_keys)
        for position, receiver, items in local:
            staged.append((offset + position, receiver, items, stamps))
        return True

    @property
    def destinations(self) -> list[InputPort]:
        return [channel.sink for channel in self.outgoing]


def admit_in_order(staged: list) -> None:
    """Admit what :meth:`OutputPort.stage` staged, one call per consumer.

    Consumers are admitted by the position of the event that produced
    their first item, channel order among equals: the order in which
    per-event delivery first reaches each of them, and first activation
    is all of the cross-consumer order a scheduler observes (round-robin
    draws a rotation ticket when a ready queue turns non-empty).
    """
    staged.sort(key=itemgetter(0))  # stable: channel order among equals
    for _, receiver, items, stamps in staged:
        receiver.admit(items, stamps)


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

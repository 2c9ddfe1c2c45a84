"""Receiver behaviour: FIFO and windowed."""

import pytest

from repro.core.actors import MapActor, SinkActor
from repro.core.events import CWEvent
from repro.core.exceptions import ReceiverError
from repro.core.receivers import FIFOReceiver, WindowedReceiver
from repro.core.waves import WaveTag
from repro.core.windows import WindowOperator, WindowSpec
from repro.frontier import LatenessPolicy


def event(value, ts=0):
    event.counter += 1
    return CWEvent(value, ts, WaveTag.root(event.counter))


event.counter = 0


class TestFIFOReceiver:
    def test_fifo_order(self):
        receiver = FIFOReceiver()
        receiver.put(event("a"))
        receiver.put(event("b"))
        assert receiver.get().value == "a"
        assert receiver.get().value == "b"

    def test_empty_get_raises(self):
        with pytest.raises(ReceiverError):
            FIFOReceiver().get()

    def test_has_token_and_size(self):
        receiver = FIFOReceiver()
        assert not receiver.has_token()
        receiver.put(event("a"))
        assert receiver.has_token()
        assert receiver.size() == 1

    def test_peek_does_not_consume(self):
        receiver = FIFOReceiver()
        receiver.put(event("a"))
        assert receiver.peek().value == "a"
        assert receiver.size() == 1

    def test_clear(self):
        receiver = FIFOReceiver()
        receiver.put(event("a"))
        receiver.clear()
        assert not receiver.has_token()


class TestWindowedReceiver:
    def test_put_produces_windows_inline(self):
        receiver = WindowedReceiver(WindowSpec.tokens(2, 2))
        receiver.put(event("a"))
        assert not receiver.has_token()
        receiver.put(event("b"))
        assert receiver.has_token()
        assert receiver.get().values == ["a", "b"]

    def test_get_without_window_raises(self):
        receiver = WindowedReceiver(WindowSpec.tokens(2, 2))
        with pytest.raises(ReceiverError):
            receiver.get()

    def test_expired_events_accessible(self):
        receiver = WindowedReceiver(WindowSpec.tokens(2, 1))
        for name in "abc":
            receiver.put(event(name))
        # [a,b] then [b,c] formed; a then b slid out of scope.
        assert [e.value for e in receiver.drain_expired()] == ["a", "b"]

    def test_pending_events_counts_unwindowed(self):
        receiver = WindowedReceiver(WindowSpec.tokens(3, 1))
        receiver.put(event("a"))
        assert receiver.pending_events() == 1

    def test_force_timeout_returns_count(self):
        receiver = WindowedReceiver(WindowSpec.tokens(5, 1))
        receiver.put(event("a"))
        assert receiver.force_timeout() == 1
        assert receiver.get().forced

    def test_clear_resets_operator(self):
        receiver = WindowedReceiver(WindowSpec.tokens(2, 2))
        receiver.put(event("a"))
        receiver.clear()
        assert receiver.pending_events() == 0
        receiver.put(event("b"))
        assert not receiver.has_token()  # needs two fresh events

    def test_next_deadline_for_time_windows(self):
        receiver = WindowedReceiver(WindowSpec.time(1_000_000))
        receiver.put(event("a", ts=0))
        assert receiver.next_deadline() == 1_000_000


def _attached(spec, handler: bool):
    """A receiver attached to a real port, with or without ``expired_to``."""
    port = MapActor("windowed", lambda v: v, window=spec).input("in")
    port.attach_receiver(WindowedReceiver(spec))
    sink = None
    if handler:
        sink = SinkActor("handler").input("in")
        sink.attach_receiver(FIFOReceiver())
        port.expired_to = sink
    return port.receiver, sink


def _drive(receiver, entry):
    """Slide events out through one entry point; return the windows."""
    events = [CWEvent(n, n * 10, WaveTag.root(n)) for n in range(1, 9)]
    if entry == "put":
        for item in events:
            receiver.put(item)
    elif entry == "put_batch":
        receiver.put_batch(events[:5])
        receiver.put_batch(events[5:])
    elif entry == "force_timeout":
        receiver.put_batch(events)
        receiver.force_timeout(now=1_000)
    else:
        receiver.put_batch(events)
        receiver.close_on_frontier(1_000)
    windows = []
    while receiver.has_token():
        windows.append(receiver.get().values)
    return windows


class TestExpiredOwnership:
    """Who holds an event once no window can contain it any more."""

    #: Sliding specs: each entry point below pushes events out of scope.
    SPECS = {
        "put": WindowSpec.tokens(3, 2),
        "put_batch": WindowSpec.tokens(3, 2),
        "force_timeout": WindowSpec.time(30, 10),
        "close_on_frontier": WindowSpec.time(30, 10),
    }

    @pytest.mark.parametrize("entry", sorted(SPECS))
    def test_portless_keeps_handlerless_discards_handler_receives(
        self, entry
    ):
        spec = self.SPECS[entry]
        owned = WindowedReceiver(spec)
        windows = _drive(owned, entry)
        expected = [(e.value, e.timestamp) for e in owned.expired]
        assert expected, "the scenario must expire something"
        assert [
            (e.value, e.timestamp) for e in owned.drain_expired()
        ] == expected
        assert not owned.expired

        discarding, _ = _attached(spec, handler=False)
        assert _drive(discarding, entry) == windows
        assert not discarding.operator.expired

        routed, sink = _attached(spec, handler=True)
        assert _drive(routed, entry) == windows
        assert not routed.operator.expired
        delivered = []
        while sink.receiver.has_token():
            item = sink.receiver.get()
            delivered.append((item.value, item.timestamp))
        assert delivered == expected

    def test_handlerless_discard_happens_inside_every_call(self):
        """Never a call after which an attached receiver still holds one."""
        receiver, _ = _attached(WindowSpec.tokens(2, 1), handler=False)
        for n in range(1, 20):
            receiver.put(CWEvent(n, n, WaveTag.root(n)))
            assert not receiver.operator.expired
        assert receiver.pending_events() == 1

    def test_bare_operator_accumulates_until_drained(self):
        operator = WindowOperator(WindowSpec.tokens(2, 1))
        for n in range(1, 6):
            operator.put(CWEvent(n, n, WaveTag.root(n)))
        assert [e.value for e in operator.expired] == [1, 2, 3, 4]
        assert [e.value for e in operator.drain_expired()] == [1, 2, 3, 4]
        assert not operator.expired

    def test_late_event_side_output_still_goes_to_the_handler(self):
        """``--lateness expired``: the handler route, not the queue."""
        spec = WindowSpec.time(100)
        for handler in (True, False):
            receiver, sink = _attached(spec, handler=handler)
            receiver.lateness = LatenessPolicy("expired")
            receiver.put(CWEvent("on time", 10, WaveTag.root(1)))
            receiver.close_on_frontier(110)
            receiver.put(CWEvent("late", 50, WaveTag.root(2)))
            assert receiver.pending_events() == 0
            assert not receiver.operator.expired
            if handler:
                # The tumbling pane's own event expired on close, then
                # the late one was side-output behind it.
                delivered = []
                while sink.receiver.has_token():
                    delivered.append(sink.receiver.get())
                assert [(e.value, e.timestamp) for e in delivered] == [
                    ("on time", 10), ("late", 50)
                ]

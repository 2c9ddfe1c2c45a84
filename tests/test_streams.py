"""Push-stream substrate: the JSON-lines codec and the real TCP source."""

import time

import pytest

from repro.checkpoint import (
    capture_snapshot,
    deserialize_snapshot,
    restore_snapshot,
    serialize_snapshot,
)
from repro.core import MapActor, SinkActor, Workflow
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import RoundRobinScheduler, SCWFDirector
from repro.streams import (
    CodecError,
    JSONLinesCodec,
    publish_lines,
    TCPStreamSource,
)


class TestCodecs:
    def test_json_roundtrip(self):
        codec = JSONLinesCodec()
        assert codec.decode(codec.encode({"a": 1})) == {"a": 1}

    def test_json_encodes_dataclasses(self):
        from repro.linearroad.types import PositionReport

        codec = JSONLinesCodec()
        report = PositionReport(1, 2, 3.0, 0, 1, 0, 5, 26500)
        assert codec.decode(codec.encode(report))["car_id"] == 2

    def test_json_bad_line_raises(self):
        with pytest.raises(CodecError):
            JSONLinesCodec().decode("{nope")


class TestTCPStreamSource:
    def test_push_over_real_socket_into_workflow(self):
        clock = VirtualClock()
        source = TCPStreamSource("tcp", codec=JSONLinesCodec(), clock=clock)
        host, port = source.listen()
        try:
            sent = publish_lines(
                host, port, [{"v": i} for i in range(20)]
            )
            assert sent == 20
            deadline = time.monotonic() + 5.0
            while source.received < 20 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert source.received == 20

            workflow = Workflow("tcp-wf")
            double = MapActor("double", lambda v: v["v"] * 2)
            sink = SinkActor("sink")
            workflow.add_all([source, double, sink])
            workflow.connect(source, double)
            workflow.connect(double, sink)
            director = SCWFDirector(
                RoundRobinScheduler(10_000), clock, CostModel()
            )
            director.attach(workflow)
            SimulationRuntime(director, clock).run(1.0, drain=True)
            assert sorted(sink.values) == [i * 2 for i in range(20)]
        finally:
            source.close()

    def test_decode_errors_counted_not_fatal(self):
        source = TCPStreamSource("tcp2")
        host, port = source.listen()
        try:
            import socket as socket_module

            with socket_module.create_connection((host, port), 2.0) as conn:
                conn.sendall(b'{"ok":1}\n{broken\n{"ok":2}\n')
            deadline = time.monotonic() + 5.0
            while source.received < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert source.received == 2
            assert source.decode_errors == 1
        finally:
            source.close()

    def test_stop_returns_promptly_while_peer_stalls(self):
        """Shutdown regression: a connected peer that never closes (and
        never sends a newline) must not wedge ``stop()`` — the reader is
        interrupted by closing the connection socket and joined with a
        timeout."""
        import socket as socket_module

        source = TCPStreamSource("tcp-stall")
        host, port = source.listen()
        peer = socket_module.create_connection((host, port), 2.0)
        try:
            # Partial line, no terminator: the reader blocks in recv().
            peer.sendall(b'{"v": 1')
            time.sleep(0.1)  # let the accept loop pick the peer up
            started = time.monotonic()
            assert source.stop() is True
            assert time.monotonic() - started < 2.0
            # Idempotent, and close() remains an alias of stop().
            assert source.stop() is True
            source.close()
        finally:
            peer.close()

    def test_unpumped_arrivals_survive_a_snapshot(self):
        """Arrivals a listening source holds but has not pumped yet are
        checkpointed: a fresh source restored from the snapshot pumps the
        same ``(timestamp, value)`` sequence the original does."""

        def engine():
            clock = VirtualClock()
            source = TCPStreamSource("tcp", codec=JSONLinesCodec(), clock=clock)
            sink = SinkActor("sink")
            workflow = Workflow("tcp-ckpt")
            workflow.add_all([source, sink])
            workflow.connect(source, sink)
            director = SCWFDirector(
                RoundRobinScheduler(10_000), clock, CostModel()
            )
            director.attach(workflow)
            director.initialize_all()
            return director, clock, source, sink

        def pumped(director, clock, sink):
            SimulationRuntime(director, clock).run(1.0, drain=True)
            return [(event.timestamp, event.value) for _, event in sink.items]

        director, clock, source, sink = engine()
        host, port = source.listen()
        try:
            for batch in range(2):
                publish_lines(
                    host, port, [{"v": batch * 10 + i} for i in range(5)]
                )
                deadline = time.monotonic() + 5.0
                while (
                    source.received < 5 * (batch + 1)
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                clock.advance(1_000)
            assert source.received == 10
            payload = serialize_snapshot(capture_snapshot(director))
        finally:
            source.stop()

        expected = pumped(director, clock, sink)
        assert len(expected) == 10
        assert {timestamp for timestamp, _ in expected} == {0, 1_000}

        fresh_director, fresh_clock, _, fresh_sink = engine()
        restore_snapshot(fresh_director, deserialize_snapshot(payload))
        assert pumped(fresh_director, fresh_clock, fresh_sink) == expected

    def test_listen_again_after_stop(self):
        source = TCPStreamSource("tcp-again", codec=JSONLinesCodec())
        host, port = source.listen()
        assert source.stop() is True
        host, port = source.listen()
        try:
            assert publish_lines(host, port, [{"v": 9}]) == 1
            deadline = time.monotonic() + 5.0
            while source.received < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert source.received == 1
        finally:
            source.stop()

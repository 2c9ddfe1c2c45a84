"""Firing contexts: staging, reads, wave-stamped emission."""

import pytest

from repro.core.actors import Actor
from repro.core.context import FiringContext
from repro.core.events import CWEvent
from repro.core.exceptions import ActorError
from repro.core.waves import WaveGenerator, WaveTag
from repro.core.windows import Window
from tests.capture_routes import CaptureRoutes


class Probe(Actor):
    def __init__(self):
        super().__init__("probe")
        self.add_input("in")
        self.add_output("out")

    def fire(self, ctx):
        pass


def collecting_context(actor, wave_generator=None):
    routes = CaptureRoutes(actor)
    return FiringContext(actor, 50, routes, wave_generator), routes.emitted


class TestStagingAndReads:
    def test_read_returns_staged_in_order(self):
        actor = Probe()
        ctx, _ = collecting_context(actor)
        first = CWEvent("a", 1, WaveTag.root(1))
        second = CWEvent("b", 2, WaveTag.root(2))
        ctx.stage("in", first)
        ctx.stage("in", second)
        assert ctx.read("in") is first
        assert ctx.read("in") is second
        assert ctx.read("in") is None

    def test_read_unknown_port_raises(self):
        actor = Probe()
        ctx, _ = collecting_context(actor)
        with pytest.raises(ActorError):
            ctx.read("nope")

    def test_read_value_unwraps_events(self):
        actor = Probe()
        ctx, _ = collecting_context(actor)
        ctx.stage("in", CWEvent("payload", 1, WaveTag.root(1)))
        assert ctx.read_value("in") == "payload"

    def test_staged_count_and_has_staged(self):
        actor = Probe()
        ctx, _ = collecting_context(actor)
        assert not ctx.has_staged()
        ctx.stage("in", CWEvent("a", 1, WaveTag.root(1)))
        assert ctx.staged_count("in") == 1
        assert ctx.has_staged("in")


class TestWaveStamping:
    def test_outputs_become_children_of_consumed_wave(self):
        actor = Probe()
        ctx, emitted = collecting_context(actor)
        ctx.stage("in", CWEvent("a", 30, WaveTag.root(4)))
        ctx.read("in")
        ctx.send("out", "r1")
        ctx.send("out", "r2")
        ctx.close()
        waves = [str(event.wave) for _, event in emitted]
        assert waves == ["4.1", "4.2"]
        assert [event.last_in_wave for _, event in emitted] == [False, True]

    def test_outputs_inherit_trigger_timestamp(self):
        actor = Probe()
        ctx, emitted = collecting_context(actor)
        ctx.stage("in", CWEvent("a", 30, WaveTag.root(4)))
        ctx.read("in")
        ctx.send("out", "r")
        ctx.close()
        assert emitted[0][1].timestamp == 30

    def test_window_read_adopts_newest_event_wave(self):
        actor = Probe()
        ctx, emitted = collecting_context(actor)
        events = [
            CWEvent("a", 10, WaveTag.root(1)),
            CWEvent("b", 20, WaveTag.root(2)),
        ]
        ctx.stage("in", Window(events))
        ctx.read("in")
        ctx.send("out", "r")
        ctx.close()
        assert emitted[0][1].wave.parent == WaveTag.root(2)
        assert emitted[0][1].timestamp == 20

    def test_source_emission_starts_new_wave(self):
        actor = Probe()
        generator = WaveGenerator()
        ctx, emitted = collecting_context(actor, generator)
        ctx.send("out", "fresh")
        ctx.close()
        event = emitted[0][1]
        assert event.wave.is_root()
        assert event.last_in_wave
        assert event.timestamp == 50  # context "now"

    def test_source_emission_without_generator_raises(self):
        actor = Probe()
        ctx, _ = collecting_context(actor, wave_generator=None)
        with pytest.raises(ActorError):
            ctx.send("out", "fresh")

    def test_send_unknown_port_raises(self):
        actor = Probe()
        ctx, _ = collecting_context(actor)
        with pytest.raises(ActorError):
            ctx.send("nope", 1)

    def test_explicit_timestamp_override(self):
        actor = Probe()
        ctx, emitted = collecting_context(actor, WaveGenerator())
        ctx.send("out", "x", timestamp=999)
        ctx.close()
        assert emitted[0][1].timestamp == 999

    def test_counters(self):
        actor = Probe()
        ctx, _ = collecting_context(actor, WaveGenerator())
        ctx.stage("in", CWEvent("a", 1, WaveTag.root(1)))
        ctx.read("in")
        ctx.send("out", "r")
        assert ctx.inputs_consumed == 1
        assert ctx.outputs_produced == 1

"""Actor base classes: sources, sinks, map/function actors, composites."""

import pytest

from repro.core.actors import (
    Actor,
    CompositeActor,
    FunctionActor,
    MapActor,
    SinkActor,
    SourceActor,
)
from repro.core.context import FiringContext
from repro.core.exceptions import ActorError
from repro.core.waves import WaveGenerator
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.directors.ddf import DDFDirector
from tests.capture_routes import CaptureRoutes


def make_context(actor, now=0):
    routes = CaptureRoutes(actor)
    ctx = FiringContext(actor, now, routes, WaveGenerator())
    return ctx, routes.emitted


class TestActorBasics:
    def test_actor_needs_name(self):
        with pytest.raises(ActorError):
            SinkActor("")

    def test_default_priority_is_twenty(self):
        assert SinkActor("s").priority == 20

    def test_fire_is_abstract(self):
        class Bare(Actor):
            pass

        actor = Bare("b")
        with pytest.raises(NotImplementedError):
            actor.fire(make_context(actor)[0])


class TestSourceActor:
    def test_pump_emits_due_arrivals_only(self):
        src = SourceActor("s", arrivals=[(10, "a"), (20, "b"), (99, "c")])
        src.add_output("out")
        ctx, emitted = make_context(src, now=25)
        assert src.pump(ctx) == 2
        ctx.close()
        assert [e.value for _, e in emitted] == ["a", "b"]
        assert src.next_arrival_time() == 99

    def test_arrival_timestamps_preserved(self):
        src = SourceActor("s", arrivals=[(10, "a")])
        src.add_output("out")
        ctx, emitted = make_context(src, now=50)
        src.pump(ctx)
        ctx.close()
        assert emitted[0][1].timestamp == 10

    def test_batch_limit(self):
        src = SourceActor("s", arrivals=[(1, i) for i in range(5)],
                          batch_limit=2)
        src.add_output("out")
        ctx, emitted = make_context(src, now=10)
        assert src.pump(ctx) == 2
        ctx.close()
        assert src.pending_arrivals(10) == 3

    def test_pending_and_exhausted(self):
        src = SourceActor("s", arrivals=[(10, "a")])
        src.add_output("out")
        assert src.pending_arrivals(5) == 0
        assert src.pending_arrivals(10) == 1
        assert not src.exhausted()
        ctx, _ = make_context(src, now=10)
        src.pump(ctx)
        assert src.exhausted()
        assert src.next_arrival_time() is None

    def test_load_replaces_schedule(self):
        src = SourceActor("s")
        src.add_output("out")
        src.load([(5, "x")])
        assert src.next_arrival_time() == 5

    def test_arrivals_sorted_on_construction(self):
        src = SourceActor("s", arrivals=[(20, "b"), (10, "a")])
        src.add_output("out")
        assert src.next_arrival_time() == 10

    def test_multi_output_source_needs_override(self):
        src = SourceActor("s", arrivals=[(1, "a")])
        src.add_output("x")
        src.add_output("y")
        ctx, _ = make_context(src, now=5)
        with pytest.raises(ActorError):
            src.pump(ctx)


class TestMapActor:
    def run_map(self, fn, values):
        actor = MapActor("m", fn)
        ctx, emitted = make_context(actor)
        from repro.core.events import CWEvent
        from repro.core.waves import WaveTag

        for index, value in enumerate(values):
            ctx.stage("in", CWEvent(value, 0, WaveTag.root(index + 1)))
            actor.fire(ctx)
        ctx.close()
        return [e.value for _, e in emitted]

    def test_transforms_values(self):
        assert self.run_map(lambda v: v * 2, [1, 2]) == [2, 4]

    def test_none_drops(self):
        assert self.run_map(lambda v: None, [1]) == []

    def test_list_fans_out(self):
        assert self.run_map(lambda v: [v, v], [1]) == [1, 1]

    def test_empty_read_is_noop(self):
        actor = MapActor("m", lambda v: v)
        ctx, emitted = make_context(actor)
        actor.fire(ctx)
        assert emitted == []


class TestSinkActor:
    def test_records_items_and_response_times(self):
        from repro.core.events import CWEvent
        from repro.core.waves import WaveTag

        sink = SinkActor("s")
        ctx, _ = make_context(sink, now=100)
        ctx.stage("in", CWEvent("v", 40, WaveTag.root(1)))
        sink.fire(ctx)
        assert sink.values == ["v"]
        assert sink.response_times_us == [(100, 60)]

    def test_callback_invoked(self):
        from repro.core.events import CWEvent
        from repro.core.waves import WaveTag

        seen = []
        sink = SinkActor("s", callback=lambda ctx, item: seen.append(item))
        ctx, _ = make_context(sink)
        ctx.stage("in", CWEvent("v", 0, WaveTag.root(1)))
        sink.fire(ctx)
        assert len(seen) == 1


class TestCompositeActor:
    def build(self):
        inner = Workflow("inner")
        double = FunctionActor(
            "double",
            lambda ctx: ctx.send("out", ctx.read("in").value * 2),
        )
        out = SinkActor("out")
        inner.add_all([double, out])
        inner.connect(double, out)
        composite = CompositeActor("comp", inner, DDFDirector())
        composite.add_input("in")
        composite.add_output("out")
        composite.bind_input("in", double, "in")
        composite.bind_output("out", out)
        return composite

    def test_composite_runs_subworkflow(self):
        from repro.core.events import CWEvent
        from repro.core.waves import WaveTag

        composite = self.build()
        ctx, emitted = make_context(composite)
        composite.initialize(ctx)
        ctx.stage("in", CWEvent(21, 7, WaveTag.root(1)))
        composite.fire(ctx)
        ctx.close()
        assert [e.value for _, e in emitted] == [42]

    def test_fire_before_initialize_raises(self):
        composite = self.build()
        ctx, _ = make_context(composite)
        with pytest.raises(ActorError):
            composite.fire(ctx)

    def test_bind_validates_ports(self):
        composite = self.build()
        with pytest.raises(Exception):
            composite.bind_input("nope", None, "in")

"""The TM Windowed Receiver: windows flow to the scheduler (Figure 4)."""

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.events import CWEvent
from repro.core.waves import WaveTag
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.stafilos.schedulers import RoundRobinScheduler
from repro.stafilos.scwf_director import SCWFDirector


def build(window=None):
    workflow = Workflow("tm")
    source = SourceActor("src", arrivals=[])
    source.add_output("out")
    actor = MapActor("actor", lambda v: v, window=window)
    sink = SinkActor("sink")
    workflow.add_all([source, actor, sink])
    workflow.connect(source, actor)
    workflow.connect(actor, sink)
    scheduler = RoundRobinScheduler(10_000)
    director = SCWFDirector(scheduler, VirtualClock(), CostModel())
    director.attach(workflow)
    director.initialize_all()
    return director, scheduler, actor


def event(value, ts=0):
    event.counter = getattr(event, "counter", 0) + 1
    return CWEvent(value, ts, WaveTag.root(event.counter))


class TestEventFlow:
    def test_window_production_enqueues_at_scheduler(self):
        director, scheduler, actor = build(WindowSpec.tokens(2, 2))
        receiver = actor.input("in").receiver
        receiver.put(event("a"))
        assert scheduler.ready_count(actor) == 0  # window not yet formed
        receiver.put(event("b"))
        assert scheduler.ready_count(actor) == 1

    def test_passthrough_port_schedules_single_events(self):
        director, scheduler, actor = build(window=None)
        receiver = actor.input("in").receiver
        receiver.put(event("a"))
        assert scheduler.ready_count(actor) == 1
        ready = scheduler.dequeue_item(actor)
        assert isinstance(ready.item, CWEvent)

    def test_admission_counts_and_statistics(self):
        director, scheduler, actor = build(window=None)
        receiver = actor.input("in").receiver
        receiver.put(event("a"))
        assert director.total_events_admitted == 1
        stats = director.statistics.get(actor)
        assert stats.inputs_total == 1

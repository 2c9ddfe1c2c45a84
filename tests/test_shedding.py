"""Load shedding under overload (§4.3 extension)."""

import pytest

from repro.core import MapActor, SinkActor, SourceActor, Workflow
from repro.core.exceptions import SchedulerError
from repro.core.statistics import StatisticsRegistry
from repro.overload import BacklogShedder
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import (
    QuantumPriorityScheduler,
    RoundRobinScheduler,
    SCWFDirector,
)


def make_scheduler_with_backlog(protect_priority=5):
    workflow = Workflow("shed")
    source = SourceActor("src", arrivals=[])
    source.add_output("out")
    urgent = MapActor("urgent", lambda v: v)
    urgent.priority = 5
    bulk = MapActor("bulk", lambda v: v)
    bulk.priority = 20
    sink = SinkActor("sink")
    workflow.add_all([source, urgent, bulk, sink])
    workflow.connect(source, urgent)
    workflow.connect(source, bulk)
    workflow.connect(urgent, sink)
    workflow.connect(bulk, sink)
    scheduler = RoundRobinScheduler(10_000)
    scheduler.shedder = BacklogShedder(
        max_total_backlog=5, protect_priority=protect_priority
    )
    scheduler.initialize(workflow, StatisticsRegistry())
    return scheduler, urgent, bulk


def enqueue(scheduler, actor, count, start_ts=0):
    from repro.core.events import CWEvent
    from repro.core.waves import WaveTag

    for index in range(count):
        enqueue.counter = getattr(enqueue, "counter", 0) + 1
        scheduler.enqueue(
            actor,
            "in",
            CWEvent("v", start_ts + index, WaveTag.root(enqueue.counter)),
        )


class TestBacklogShedder:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            BacklogShedder(0)
        with pytest.raises(SchedulerError):
            BacklogShedder(5, strategy="drop-random")

    def test_backlog_bounded(self):
        scheduler, urgent, bulk = make_scheduler_with_backlog()
        enqueue(scheduler, bulk, 20)
        assert scheduler.total_backlog() <= 5
        assert scheduler.shedder.dropped == 15
        assert scheduler.shedder.dropped_by_actor == {"bulk": 15}

    def test_protected_actors_never_shed(self):
        scheduler, urgent, bulk = make_scheduler_with_backlog()
        enqueue(scheduler, urgent, 20)
        # Everything over the bound is protected: nothing droppable.
        assert scheduler.total_backlog() == 20
        assert scheduler.shedder.dropped == 0

    def test_drop_oldest_keeps_fresh_items(self):
        scheduler, urgent, bulk = make_scheduler_with_backlog()
        enqueue(scheduler, bulk, 10)
        remaining = []
        while scheduler.ready[bulk.name]:
            remaining.append(scheduler.ready[bulk.name].pop().timestamp)
        assert remaining == [5, 6, 7, 8, 9]

    def test_drop_newest_keeps_stale_items(self):
        scheduler, urgent, bulk = make_scheduler_with_backlog()
        scheduler.shedder = BacklogShedder(
            max_total_backlog=5, strategy="drop-newest"
        )
        enqueue(scheduler, bulk, 10)
        remaining = []
        while scheduler.ready[bulk.name]:
            remaining.append(scheduler.ready[bulk.name].pop().timestamp)
        assert remaining == [0, 1, 2, 3, 4]


class TestSheddingEndToEnd:
    def test_overloaded_workflow_keeps_output_latency(self):
        """With shedding, the sink path stays fresh under 2x overload."""

        def run(shedder):
            workflow = Workflow("overload")
            source = SourceActor(
                "src", arrivals=[(i * 1_000, i) for i in range(2_000)]
            )
            source.add_output("out")
            heavy = MapActor("heavy", lambda v: v)
            heavy.priority = 20
            heavy.nominal_cost_us = 2_000  # 2x the offered interarrival
            sink = SinkActor("sink")
            sink.priority = 5
            workflow.add_all([source, heavy, sink])
            workflow.connect(source, heavy)
            workflow.connect(heavy, sink)
            scheduler = QuantumPriorityScheduler(500)
            scheduler.shedder = shedder
            clock = VirtualClock()
            director = SCWFDirector(scheduler, clock, CostModel())
            director.attach(workflow)
            SimulationRuntime(director, clock).run(2.0)
            last_responses = [
                response for _, response in sink.response_times_us[-50:]
            ]
            return sink, scheduler, last_responses

        _, _, unshed_tail = run(None)
        sink, scheduler, shed_tail = run(BacklogShedder(max_total_backlog=20))
        assert scheduler.shedder.dropped > 0
        # Shedding trades completeness for freshness.
        assert max(shed_tail) < max(unshed_tail)

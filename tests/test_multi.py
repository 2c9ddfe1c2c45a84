"""Two-level multi-workflow scheduling (§5)."""

import pytest

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.exceptions import SchedulerError
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.stafilos.multi import (
    ConnectionController,
    GlobalScheduler,
    InstanceState,
    WorkflowInstance,
)
from repro.stafilos.schedulers import RoundRobinScheduler
from repro.stafilos.scwf_director import SCWFDirector


def make_instance(name, n_events=20, cost=1000, weight=1.0):
    workflow = Workflow(name)
    source = SourceActor("src", arrivals=[(i * 100, i) for i in range(n_events)])
    source.add_output("out")
    relay = MapActor("relay", lambda v: v)
    relay.nominal_cost_us = cost
    sink = SinkActor("sink")
    workflow.add_all([source, relay, sink])
    workflow.connect(source, relay)
    workflow.connect(relay, sink)
    director = SCWFDirector(
        RoundRobinScheduler(10_000), VirtualClock(), CostModel()
    )
    director.attach(workflow)
    return WorkflowInstance(name, director, weight=weight), sink


class TestGlobalScheduler:
    def test_two_instances_both_progress(self):
        scheduler = GlobalScheduler(round_quantum_us=50_000)
        inst_a, sink_a = make_instance("a")
        inst_b, sink_b = make_instance("b")
        scheduler.add(inst_a)
        scheduler.add(inst_b)
        scheduler.run(until_s=1.0)
        assert len(sink_a.values) == 20
        assert len(sink_b.values) == 20

    def test_quiet_window_is_forced_by_its_timeout(self):
        """An idle instance wakes for a window deadline, not only for an
        arrival: the same stream yields the same window under the
        single-workflow runtime."""
        workflow = Workflow("timed")
        source = SourceActor("src", arrivals=[(0, 1), (100_000, 2)])
        source.add_output("out")
        total = MapActor(
            "sum",
            lambda values: sum(values),
            window=WindowSpec.time(1_000_000, timeout=1_000_000),
        )
        sink = SinkActor("sink")
        workflow.add_all([source, total, sink])
        workflow.connect(source, total)
        workflow.connect(total, sink)
        director = SCWFDirector(
            RoundRobinScheduler(10_000), VirtualClock(), CostModel()
        )
        director.attach(workflow)
        scheduler = GlobalScheduler(round_quantum_us=300_000)
        scheduler.add(WorkflowInstance("timed", director))
        scheduler.run(until_s=10.0)
        assert sink.values == [3]
        assert director.next_window_deadline() is None

    def test_duplicate_names_rejected(self):
        scheduler = GlobalScheduler()
        inst, _ = make_instance("a")
        scheduler.add(inst)
        with pytest.raises(SchedulerError):
            scheduler.add(make_instance("a")[0])

    def test_paused_instance_makes_no_progress(self):
        scheduler = GlobalScheduler(round_quantum_us=50_000)
        inst_a, sink_a = make_instance("a")
        inst_b, sink_b = make_instance("b")
        scheduler.add(inst_a)
        scheduler.add(inst_b)
        inst_b.pause()
        scheduler.run(until_s=0.5)
        assert len(sink_a.values) == 20
        assert sink_b.values == []

    def test_weights_divide_round_quantum(self):
        scheduler = GlobalScheduler(round_quantum_us=90_000)
        heavy, _ = make_instance("heavy", weight=2.0)
        light, _ = make_instance("light", weight=1.0)
        scheduler.add(heavy)
        scheduler.add(light)
        scheduler.run_round()
        # Virtual-time shares are proportional to weight.
        assert heavy.director.clock.now_us >= light.director.clock.now_us

    def test_remove_stops_instance(self):
        scheduler = GlobalScheduler()
        inst, _ = make_instance("a")
        scheduler.add(inst)
        removed = scheduler.remove("a")
        assert removed.state is InstanceState.STOPPED
        with pytest.raises(SchedulerError):
            scheduler.get("a")


class TestConnectionController:
    def test_command_surface(self):
        scheduler = GlobalScheduler()
        inst, _ = make_instance("wf1")
        scheduler.add(inst)
        controller = ConnectionController(scheduler)
        assert "wf1" in controller.command("list")
        assert controller.command("pause wf1") == "paused wf1"
        assert inst.state is InstanceState.PAUSED
        assert controller.command("resume wf1") == "resumed wf1"
        assert controller.command("weight wf1 2.5").endswith("2.5")
        assert controller.command("remove wf1") == "removed wf1"
        assert controller.command("pause nope").startswith("error")
        assert controller.command("bogus").startswith("error")
        assert len(controller.log) == 7

    def test_stopped_instance_cannot_resume(self):
        inst, _ = make_instance("a")
        inst.stop()
        with pytest.raises(SchedulerError):
            inst.resume()

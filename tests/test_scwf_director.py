"""The SCWF director: the iteration cycle of Figure 3."""

import pytest

from repro.core.actors import Actor, MapActor, SinkActor, SourceActor
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.frontier import FrontierTracker
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.stafilos.schedulers import (
    FIFOScheduler,
    QuantumPriorityScheduler,
    RateBasedScheduler,
    RoundRobinScheduler,
)
from repro.stafilos.scwf_director import SCWFDirector
from repro.stafilos.tm_receiver import TMWindowedReceiver

ALL_SCHEDULERS = [
    lambda: QuantumPriorityScheduler(500),
    lambda: RoundRobinScheduler(10_000),
    lambda: RateBasedScheduler(),
    lambda: FIFOScheduler(),
]


class TestDirectorCycle:
    @pytest.mark.parametrize("make_scheduler", ALL_SCHEDULERS)
    def test_pipeline_under_every_policy(self, pipeline_builder, make_scheduler):
        system = pipeline_builder(
            [(i * 1000, i) for i in range(10)], make_scheduler()
        )
        system["runtime"].run(1.0, drain=True)
        assert system["sink"].values == [i * 2 for i in range(10)]

    def test_receivers_are_tm_windowed(self, pipeline_builder):
        system = pipeline_builder([], QuantumPriorityScheduler(500))
        receiver = system["transform"].input("in").receiver
        assert isinstance(receiver, TMWindowedReceiver)

    def test_statistics_recorded(self, pipeline_builder):
        system = pipeline_builder(
            [(0, 1), (0, 2)], RoundRobinScheduler(10_000)
        )
        system["runtime"].run(1.0, drain=True)
        stats = system["director"].statistics.get(system["transform"])
        assert stats.invocations == 2
        assert stats.avg_cost_us > 0

    def test_clock_advances_with_costs(self, pipeline_builder):
        system = pipeline_builder(
            [(0, 1)], RoundRobinScheduler(10_000),
            cost_model=CostModel(default_cost_us=500),
        )
        system["runtime"].run(1.0, drain=True)
        assert system["clock"].now_us > 500

    def test_wave_lineage_preserved_to_sink(self, pipeline_builder):
        system = pipeline_builder([(0, 5)], QuantumPriorityScheduler(500))
        system["runtime"].run(1.0, drain=True)
        _, item = system["sink"].items[0]
        assert item.wave.depth == 1  # child of the source's root wave

    def test_response_time_uses_arrival_timestamp(self, pipeline_builder):
        system = pipeline_builder([(100, 1)], RoundRobinScheduler(10_000))
        system["runtime"].run(1.0, drain=True)
        emitted_at, response = system["sink"].response_times_us[0]
        assert response == emitted_at - 100


class TestWindowTimeouts:
    def build_timed(self, frontier=None):
        workflow = Workflow("timed")
        source = SourceActor("src", arrivals=[(0, 1), (100_000, 2)])
        source.add_output("out")
        agg = MapActor(
            "sum",
            lambda values: sum(values),
            window=WindowSpec.time(
                1_000_000, timeout=500_000
            ),
        )
        sink = SinkActor("sink")
        workflow.add_all([source, agg, sink])
        workflow.connect(source, agg)
        workflow.connect(agg, sink)
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000), clock, CostModel()
        )
        if frontier is not None:
            director.enable_frontier(frontier)
        director.attach(workflow)
        return workflow, director, clock, sink

    def test_quiet_stream_window_forced_by_timeout(self):
        workflow, director, clock, sink = self.build_timed()
        runtime = SimulationRuntime(director, clock)
        runtime.run(5.0, drain=True)
        # No event ever crossed the 1s boundary; the timeout produced it.
        assert sink.values == [3]

    def test_deadline_visible_before_timeout(self):
        workflow, director, clock, sink = self.build_timed()
        director.initialize_all()
        director.run_iteration()
        deadline = director.next_window_deadline()
        assert deadline == 1_000_000 + 500_000


    def build_two_watched(self, first_timeout, second_timeout, chained):
        """Two timed receivers, ``first`` registered before ``second``.

        *chained*: ``second`` is ``first``'s expired-items handler;
        otherwise both read the source directly.
        """
        workflow = Workflow("two")
        source = SourceActor("src", arrivals=[(0, 1), (100_000, 2)])
        source.add_output("out")
        first = MapActor(
            "first",
            sum,
            window=WindowSpec.time(1_000_000, timeout=first_timeout),
        )
        second = MapActor(
            "second",
            sum,
            window=WindowSpec.time(1_000_000, timeout=second_timeout),
        )
        sink = SinkActor("sink")
        workflow.add_all([source, first, second, sink])
        workflow.connect(source, first)
        workflow.connect(first, sink)
        workflow.connect(second, sink)
        if chained:
            workflow.connect_expired(first, second)
        else:
            workflow.connect(source, second)
        director = SCWFDirector(
            RoundRobinScheduler(10_000), VirtualClock(), CostModel()
        )
        director.attach(workflow)
        director.initialize_all()
        director.run_iteration()
        forced = []
        for receiver in director._deadline_watch:
            def spy(now, receiver=receiver, force=receiver.force_timeout):
                forced.append(receiver.port.actor.name)
                return force(now)

            receiver.force_timeout = spy
        return director, forced

    def test_due_set_is_fixed_before_any_receiver_is_forced(self):
        """Forcing ``first`` routes its expired events into ``second``,
        whose 1 us timeout is then already past — it still waits for the
        next call, as it did when the due set was popped off a heap."""
        director, forced = self.build_two_watched(
            1_000_000, 1, chained=True
        )
        first, second = director._deadline_watch
        assert second.next_deadline() is None
        assert director.fire_window_timeouts(5_000_000) == 1
        assert forced == ["first"]
        assert second.next_deadline() == 1_000_000
        assert director.next_window_deadline() == 1_000_001
        assert director.fire_window_timeouts(5_000_000) == 1
        assert forced == ["first", "second"]
        assert director.next_window_deadline() is None

    def test_due_receivers_fire_in_registration_order(self):
        director, forced = self.build_two_watched(
            2_000_000, 1_000_000, chained=False
        )
        # ``second`` holds the earlier deadline; ``first`` registered first.
        assert director.next_window_deadline() == 2_000_000
        assert director.fire_window_timeouts(3_000_000) == 2
        assert forced == ["first", "second"]

    def test_frontier_closure_registers_no_watch(self):
        """Under ``frontier="close"`` panes close on event time; the
        engine-time timeout would race it, so nothing is watched."""
        _, director, _, _ = self.build_timed(FrontierTracker(mode="close"))
        assert len(director._timed_receivers) == 1
        assert director._deadline_watch == []
        assert director.next_window_deadline() is None


class TestCompositeEntry:
    def test_run_to_quiescence_via_composite_protocol(self, pipeline_builder):
        system = pipeline_builder([(0, 1)], FIFOScheduler())
        director = system["director"]
        director.initialize_all()
        fired = director.run_to_quiescence(0)
        assert fired > 0
        assert system["sink"].values == [2]

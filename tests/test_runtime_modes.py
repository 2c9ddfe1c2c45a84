"""Execution-mode coverage: timed windows under the threaded simulator
and the wall-clock SCWF engine."""

import pytest

from repro.core import (
    MapActor,
    SinkActor,
    SourceActor,
    WindowSpec,
    Workflow,
)
from repro.simulation import (
    CostModel,
    SimulationRuntime,
    ThreadedCWFDirector,
    VirtualClock,
    WallClock,
)
from repro.stafilos import RoundRobinScheduler, SCWFDirector

SECOND = 1_000_000


class TestThreadedTimedWindows:
    def test_timeout_closes_quiet_window_in_threaded_sim(self):
        workflow = Workflow("threaded-timed")
        source = SourceActor("src", arrivals=[(0, 5.0), (100_000, 7.0)])
        source.add_output("out")
        mean = MapActor(
            "mean",
            lambda values: sum(values) / len(values),
            window=WindowSpec.time(
                1 * SECOND, timeout=SECOND // 2
            ),
        )
        sink = SinkActor("sink")
        workflow.add_all([source, mean, sink])
        workflow.connect(source, mean)
        workflow.connect(mean, sink)
        clock = VirtualClock()
        director = ThreadedCWFDirector(clock, CostModel())
        director.attach(workflow)
        SimulationRuntime(director, clock).run(10.0, drain=True)
        assert sink.values == [6.0]

    def test_next_window_deadline_reported(self):
        workflow = Workflow("deadline")
        source = SourceActor("src", arrivals=[(0, 1.0)])
        source.add_output("out")
        agg = MapActor(
            "agg",
            lambda values: values,
            window=WindowSpec.time(SECOND, timeout=SECOND),
        )
        sink = SinkActor("sink")
        workflow.add_all([source, agg, sink])
        workflow.connect(source, agg)
        workflow.connect(agg, sink)
        clock = VirtualClock()
        director = ThreadedCWFDirector(clock, CostModel())
        director.attach(workflow)
        director.initialize_all()
        director.run_iteration()
        assert director.next_window_deadline() == 2 * SECOND


class TestWallClockSCWF:
    def test_scheduled_engine_runs_live(self):
        """The SCWF director on a real clock: a live scheduled engine."""
        workflow = Workflow("wall")
        # 2 ms of event time between arrivals at 1:1 scale.
        source = SourceActor(
            "src", arrivals=[(i * 2_000, i) for i in range(10)]
        )
        source.add_output("out")
        double = MapActor("double", lambda v: v * 2)
        sink = SinkActor("sink")
        workflow.add_all([source, double, sink])
        workflow.connect(source, double)
        workflow.connect(double, sink)
        clock = WallClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000), clock, CostModel()
        )
        director.attach(workflow)
        runtime = SimulationRuntime(director, clock)
        runtime.run(until_s=1.0, drain=True)
        assert sink.values == [i * 2 for i in range(10)]
        # Responses measured in real elapsed microseconds: non-negative.
        assert all(r >= 0 for _, r in sink.response_times_us)

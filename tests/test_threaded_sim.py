"""The simulated thread-based PNCWF director."""

import hashlib

import pytest

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.simulation.threaded import ThreadedCWFDirector


def build(arrivals, window=None, cost_model=None):
    workflow = Workflow("threaded")
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")
    transform = MapActor(
        "double",
        lambda v: [x * 2 for x in v] if isinstance(v, list) else v * 2,
        window=window,
    )
    sink = SinkActor("sink")
    workflow.add_all([source, transform, sink])
    workflow.connect(source, transform)
    workflow.connect(transform, sink)
    clock = VirtualClock()
    director = ThreadedCWFDirector(clock, cost_model or CostModel())
    director.attach(workflow)
    return director, clock, sink, SimulationRuntime(director, clock)


class TestThreadedExecution:
    def test_pipeline_results_match_scwf(self):
        director, clock, sink, runtime = build(
            [(i * 1000, i) for i in range(10)]
        )
        runtime.run(1.0, drain=True)
        assert sink.values == [i * 2 for i in range(10)]

    def test_context_switches_charged(self):
        model = CostModel(context_switch_us=1000)
        director, clock, sink, runtime = build([(0, 1)], cost_model=model)
        runtime.run(1.0, drain=True)
        assert director.context_switches > 0
        assert clock.now_us >= director.context_switches * 1000

    def test_sync_overhead_scales_with_fanout(self):
        def run_with(sync_us):
            model = CostModel(
                sync_per_event_us=sync_us, context_switch_us=0
            )
            director, clock, sink, runtime = build(
                [(0, i) for i in range(5)], cost_model=model
            )
            runtime.run(1.0, drain=True)
            return clock.now_us

        assert run_with(500) > run_with(0)

    def test_windowed_receivers_work(self):
        director, clock, sink, runtime = build(
            [(i * 1000, i) for i in range(6)],
            window=WindowSpec.tokens(2, 2),
        )
        runtime.run(1.0, drain=True)
        # MapActor fans a returned list out as individual sends.
        assert sink.values == [0, 2, 4, 6, 8, 10]

    def test_sources_pump_one_arrival_per_visit(self):
        # Blocking-read semantics: a source thread emits one event per
        # read, so a single slice with a long backlog does not pump the
        # whole backlog in one go unless the slice allows it.
        director, clock, sink, runtime = build(
            [(0, i) for i in range(50)],
            cost_model=CostModel(
                source_per_event_us=3000, context_switch_us=0
            ),
        )
        director.initialize_all()
        internal, emitted = director.run_iteration()
        assert emitted <= 3  # bounded by the 4ms OS slice

    def test_backlog_reporting(self):
        director, clock, sink, runtime = build([(0, 1)])
        director.initialize_all()
        assert director.backlog() == 0


class TestLinearRoadPin:
    def test_a_seeded_run_keeps_its_clock_switches_and_tolls(self):
        """60 s of Linear Road (L = 0.5, seed 1), drained, on the
        simulated PNCWF director.  The figures were recorded before the
        per-event sync charge moved onto the director's delivery route;
        any change to what a context switch, a queue hop or a firing
        costs moves them."""
        from repro.harness import ExperimentConfig, SchedulerSpec
        from repro.harness.experiment import build_engine
        from repro.linearroad.generator import WorkloadConfig

        config = ExperimentConfig(
            SchedulerSpec("PNCWF"),
            workload=WorkloadConfig(duration_s=60),
            seeds=(1,),
        )
        engine = build_engine(config, 1)
        engine.run(drain=True)
        tolls = [
            (now, e.timestamp, e.value)
            for now, e in engine.system.toll_out.items
        ]
        digest = hashlib.sha256(repr(tolls).encode()).hexdigest()[:16]
        assert engine.clock.now_us == 160_000_895
        assert engine.director.context_switches == 11_044
        assert (len(tolls), digest) == (1_321, "0751ae74a4a1d764")

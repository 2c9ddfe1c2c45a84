"""Virtual clock, cost model and simulation runtime."""

import gc

import pytest

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.context import FiringContext
from repro.core.exceptions import SimulationError
from repro.core.waves import WaveGenerator
from repro.core.workflow import Workflow
from repro.simulation.clock import VirtualClock, WallClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.stafilos.schedulers import RoundRobinScheduler
from repro.stafilos.scwf_director import SCWFDirector
from tests.capture_routes import CaptureRoutes


class TestVirtualClock:
    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(10)
        clock.advance(5)
        assert clock.now_us == 15

    def test_negative_advance_rejected(self):
        with pytest.raises(SimulationError):
            VirtualClock().advance(-1)

    def test_jump_to_never_goes_backwards(self):
        clock = VirtualClock(100)
        clock.jump_to(50)
        assert clock.now_us == 100
        clock.jump_to(200)
        assert clock.now_us == 200


class TestWallClock:
    def test_now_scales(self):
        import time

        clock = WallClock(time_scale=1000.0)
        time.sleep(0.005)
        assert clock.now_us >= 4_000

    def test_advance_is_passive(self):
        clock = WallClock()
        before = clock.now_us
        assert clock.advance(10_000_000) >= before


class TestCostModel:
    def actor_and_ctx(self, inputs=0, outputs=0):
        actor = MapActor("m", lambda v: v)
        ctx = FiringContext(actor, 0, CaptureRoutes(actor), WaveGenerator())
        ctx.inputs_consumed = inputs
        ctx.outputs_produced = outputs
        return actor, ctx

    def test_base_plus_io_charges(self):
        model = CostModel(
            default_cost_us=100, per_input_us=10, per_output_us=20
        )
        actor, ctx = self.actor_and_ctx(inputs=2, outputs=3)
        assert model.invocation_cost(actor, ctx) == 100 + 20 + 60

    def test_nominal_cost_overrides_default(self):
        model = CostModel(default_cost_us=100)
        actor, ctx = self.actor_and_ctx()
        actor.nominal_cost_us = 777
        assert model.invocation_cost(actor, ctx) == 777

    def test_scale_multiplies(self):
        model = CostModel(default_cost_us=100, scale=2.0)
        actor, ctx = self.actor_and_ctx()
        assert model.invocation_cost(actor, ctx) == 200

    def test_jitter_reproducible_per_seed(self):
        def costs(seed):
            model = CostModel(default_cost_us=1000, jitter=0.1, seed=seed)
            actor, ctx = self.actor_and_ctx()
            return [model.invocation_cost(actor, ctx) for _ in range(5)]

        assert costs(1) == costs(1)
        assert costs(1) != costs(2)

    def test_source_cost_per_event(self):
        model = CostModel(source_per_event_us=50, default_cost_us=100)
        source = SourceActor("s")
        assert model.source_cost(source, 4) == 100 // 4 + 200

    def test_clone_overrides(self):
        model = CostModel(default_cost_us=100)
        clone = model.clone(default_cost_us=500, scale=3.0)
        assert clone.default_cost_us == 500
        assert clone.scale == 3.0
        assert model.default_cost_us == 100


class RuntimeFixture:
    def build(self, arrivals, relay=lambda v: v):
        workflow = Workflow("w")
        source = SourceActor("src", arrivals=arrivals)
        source.add_output("out")
        relay = MapActor("relay", relay)
        sink = SinkActor("sink")
        workflow.add_all([source, relay, sink])
        workflow.connect(source, relay)
        workflow.connect(relay, sink)
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000), clock, CostModel()
        )
        director.attach(workflow)
        return SimulationRuntime(director, clock), clock, sink


class TestSimulationRuntime(RuntimeFixture):
    def test_idle_engine_jumps_to_next_arrival(self):
        runtime, clock, sink = self.build([(5_000_000, "x")])
        runtime.run(10.0)
        assert sink.values == ["x"]
        # The clock jumped rather than spinning through 5 virtual seconds.
        assert runtime.iterations_run < 100

    def test_horizon_respected_without_drain(self):
        runtime, clock, sink = self.build([(1_000_000, "a"), (9_000_000, "b")])
        runtime.run(5.0)
        assert sink.values == ["a"]

    def test_drain_processes_everything(self):
        runtime, clock, sink = self.build([(1_000_000, "a"), (9_000_000, "b")])
        runtime.run(5.0, drain=True)
        assert sink.values == ["a", "b"]

    def test_fully_drained_run_terminates_early(self):
        runtime, clock, sink = self.build([(1000, "a")])
        runtime.run(1000.0)
        assert clock.now_us < 1_000_000_000

    def test_iteration_guard(self):
        runtime, clock, sink = self.build([(0, "x")])
        with pytest.raises(SimulationError):
            runtime.run(10.0, max_iterations=0)


class TestRunScopedFreeze(RuntimeFixture):
    """``run`` freezes the pre-run heap for as long as it loops, no longer."""

    def test_frozen_while_running_and_thawed_on_return(self):
        runtime, _, sink = self.build(
            [(1_000, "a")], relay=lambda v: gc.get_freeze_count() > 0
        )
        assert gc.get_freeze_count() == 0
        runtime.run(1.0, drain=True)
        assert sink.values == [True]
        assert gc.get_freeze_count() == 0

    def test_thawed_when_the_run_raises(self):
        runtime, _, _ = self.build([(0, "a"), (5_000_000, "b")])
        with pytest.raises(SimulationError):
            runtime.run(10.0, max_iterations=1)
        assert runtime.director.total_internal_firings > 0  # it did loop
        assert gc.get_freeze_count() == 0

    def test_a_callers_freeze_is_left_alone(self):
        runtime, _, sink = self.build([(1_000, "a")])
        gc.freeze()
        try:
            held = gc.get_freeze_count()
            runtime.run(1.0, drain=True)
            assert sink.values == ["a"]
            # Neither thawed nor topped up with the run's own objects
            # (frozen objects the run released leave the count).
            assert 0 < gc.get_freeze_count() <= held
        finally:
            gc.unfreeze()

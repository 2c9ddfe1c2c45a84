"""The expired-items queue handled by another workflow activity (§2.1)."""

import pytest

from repro.core import (
    MapActor,
    SinkActor,
    SourceActor,
    WindowSpec,
    Workflow,
    WorkflowError,
)
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.harness.experiment import _execute_seed
from repro.linearroad.generator import WorkloadConfig
from repro.resilience import FaultPolicy
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import RoundRobinScheduler, SCWFDirector


def build(spec, arrivals):
    workflow = Workflow("expiry")
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")
    windowed = MapActor("windowed", lambda values: sum(values), window=spec)
    main_sink = SinkActor("main")
    expired_sink = SinkActor("expired_handler")
    expired_sink.add_output("unused")  # handlers may be full actors
    workflow.add_all([source, windowed, main_sink, expired_sink])
    workflow.connect(source, windowed)
    workflow.connect(windowed, main_sink)
    workflow.connect_expired(windowed, expired_sink)
    clock = VirtualClock()
    director = SCWFDirector(
        RoundRobinScheduler(10_000), clock, CostModel()
    )
    director.attach(workflow)
    return workflow, director, clock, main_sink, expired_sink


class TestExpiredRouting:
    def test_slid_out_events_reach_handler(self):
        arrivals = [(i * 1000, i) for i in range(5)]
        _, director, clock, main, handler = build(
            WindowSpec.tokens(3, 1), arrivals
        )
        SimulationRuntime(director, clock).run(1.0, drain=True)
        # Windows [0,1,2],[1,2,3],[2,3,4] -> sums; 0,1,2 slide out.
        assert main.values == [3, 6, 9]
        assert handler.values == [0, 1, 2]

    def test_expired_events_keep_their_timestamps(self):
        arrivals = [(i * 1000, i) for i in range(4)]
        _, director, clock, main, handler = build(
            WindowSpec.tokens(2, 1), arrivals
        )
        SimulationRuntime(director, clock).run(1.0, drain=True)
        timestamps = [item.timestamp for _, item in handler.items]
        assert timestamps == [0, 1000, 2000]

    def test_time_window_expiry_routing(self):
        second = 1_000_000
        arrivals = [(i * second, i) for i in range(6)]
        _, director, clock, main, handler = build(
            WindowSpec.time(2 * second), arrivals
        )
        SimulationRuntime(director, clock).run(10.0, drain=True)
        # Tumbling 2s windows: [0,1] and [2,3] closed; their events expire.
        assert handler.values[:4] == [0, 1, 2, 3]

    def test_delete_used_events_never_expire(self):
        arrivals = [(i * 1000, i) for i in range(6)]
        _, director, clock, main, handler = build(
            WindowSpec.tokens(3, delete_used_events=True), arrivals
        )
        SimulationRuntime(director, clock).run(1.0, drain=True)
        assert handler.values == []

    def test_routing_requires_window(self):
        workflow = Workflow("bad")
        plain = SinkActor("plain")
        handler = SinkActor("handler")
        workflow.add_all([plain, handler])
        with pytest.raises(WorkflowError):
            workflow.connect_expired(plain, handler)

    def test_self_routing_rejected(self):
        workflow = Workflow("self")
        windowed = MapActor(
            "w", lambda v: v, window=WindowSpec.tokens(2, 1)
        )
        workflow.add(windowed)
        with pytest.raises(WorkflowError):
            workflow.connect_expired(windowed, windowed)


class TestFaultBarrier:
    def build_flaky(self, error_policy):
        workflow = Workflow("flaky")
        source = SourceActor("src", arrivals=[(i * 1000, i) for i in range(6)])
        source.add_output("out")

        def explode_on_odd(value):
            if value % 2:
                raise ValueError("boom")
            return value

        worker = MapActor("worker", explode_on_odd)
        sink = SinkActor("sink")
        workflow.add_all([source, worker, sink])
        workflow.connect(source, worker)
        workflow.connect(worker, sink)
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000),
            clock,
            CostModel(),
            error_policy=error_policy,
        )
        director.attach(workflow)
        return director, clock, sink

    def test_default_policy_propagates(self):
        director, clock, sink = self.build_flaky(FaultPolicy(propagate=True))
        with pytest.raises(ValueError):
            SimulationRuntime(director, clock).run(1.0, drain=True)

    def test_drop_policy_survives_and_counts(self):
        director, clock, sink = self.build_flaky(FaultPolicy())
        SimulationRuntime(director, clock).run(1.0, drain=True)
        assert sink.values == [0, 2, 4]
        assert director.actor_errors == {"worker": 3}

    def test_unknown_policy_rejected(self):
        from repro.core.exceptions import DirectorError

        with pytest.raises(DirectorError):
            SCWFDirector(
                RoundRobinScheduler(10_000),
                VirtualClock(),
                CostModel(),
                error_policy="retry",
            )


class TestHandlerlessPortsHoldNothing:
    """No Linear Road port declares a handler: nothing slid-out is kept."""

    @staticmethod
    def receivers_after(duration_s):
        config = ExperimentConfig(
            scheduler=SchedulerSpec("RR", quantum_us=40_000),
            workload=WorkloadConfig(duration_s=duration_s, peak_rate=40),
            seeds=(1,),
        )
        _, director, _ = _execute_seed(config, 1)
        return [
            port.receiver
            for actor in director.workflow.actors.values()
            for port in actor.input_ports.values()
            if port.window is not None
        ]

    def test_linear_road_run_leaves_every_expired_queue_empty(self):
        seen = []
        for duration_s in (80, 160):
            receivers = self.receivers_after(duration_s)
            assert receivers
            assert all(r.port.expired_to is None for r in receivers)
            assert all(not r.operator.expired for r in receivers)
            admitted = sum(r.operator.total_events for r in receivers)
            held = sum(
                r.pending_events() + len(r.operator.expired)
                for r in receivers
            )
            assert 0 < held < admitted  # windows did slide events out
            seen.append((admitted, held))
        # What a receiver holds follows what is pending, not what was
        # ever admitted (the two were equal while ``expired`` leaked).
        (admitted_t, held_t), (admitted_2t, held_2t) = seen
        assert held_2t - held_t < (admitted_2t - admitted_t) // 2

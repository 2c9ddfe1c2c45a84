"""The elastic overload control loop (repro.overload)."""

import pytest

from repro.core import MapActor, SinkActor, SourceActor, Workflow
from repro.core.exceptions import SchedulerError
from repro.linearroad.generator import LinearRoadWorkload, WorkloadConfig
from repro.overload import (
    BacklogShedder,
    OverloadController,
    QoSPolicy,
    TokenBucket,
)
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import QuantumPriorityScheduler, SCWFDirector


def delivered(sink):
    """CWEvent lacks value equality; compare sink outputs structurally."""
    return [(t, event.value, event.timestamp) for t, event in sink.items]


def build_overloaded_engine(qos=None, legacy_shedder=None, arrivals=2_000):
    """A 2x-overloaded three-actor pipeline (source -> heavy -> sink)."""
    workflow = Workflow("overload")
    source = SourceActor(
        "src", arrivals=[(i * 1_000, i) for i in range(arrivals)]
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
    clock = VirtualClock()
    director = SCWFDirector(scheduler, clock, CostModel())
    controller = None
    if qos is not None:
        controller = director.apply_qos(qos)
        controller.attach_latency_probe(lambda: sink.response_times_us)
    if legacy_shedder is not None:
        scheduler.shedder = legacy_shedder
    director.attach(workflow)
    return director, scheduler, clock, sink, controller


class TestQoSPolicy:
    def test_validation(self):
        with pytest.raises(SchedulerError):
            QoSPolicy()  # enables nothing
        with pytest.raises(SchedulerError):
            QoSPolicy(max_total_backlog=0)
        with pytest.raises(SchedulerError):
            QoSPolicy(max_total_backlog=5, shed_strategy="drop-random")
        with pytest.raises(SchedulerError):
            QoSPolicy(admission_rate=-1.0)
        with pytest.raises(SchedulerError):
            QoSPolicy(max_ready_backlog=100, resume_fraction=1.5)
        with pytest.raises(SchedulerError):
            QoSPolicy(latency_slo_s=0.0)

    def test_parse_round_trip(self):
        policy = QoSPolicy.parse(
            "slo=5,backlog=20000,source-pending=200,admit=400,burst=50,"
            "pause=50000,resume=0.25,period=2.5,adapt-quantum=1"
        )
        assert policy.latency_slo_s == 5.0
        assert policy.max_total_backlog == 20_000
        assert policy.max_source_pending == 200
        assert policy.admission_rate == 400.0
        assert policy.admission_burst == 50
        assert policy.max_ready_backlog == 50_000
        assert policy.resume_fraction == 0.25
        assert policy.control_period_s == 2.5
        assert policy.adapt_quantum is True

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(SchedulerError):
            QoSPolicy.parse("frobnicate=3")
        with pytest.raises(SchedulerError):
            QoSPolicy.parse("slo")
        with pytest.raises(SchedulerError):
            QoSPolicy.parse("slo=5,adapt-train=1")  # removed with the knob

    def test_burst_capacity_defaults_to_one_second(self):
        assert QoSPolicy(admission_rate=250.0).burst_capacity == 250.0
        assert (
            QoSPolicy(admission_rate=250.0, admission_burst=10).burst_capacity
            == 10.0
        )


class TestTokenBucket:
    def test_deterministic_refill(self):
        bucket = TokenBucket(rate_per_s=10.0, capacity=5)
        assert bucket.available(0) == 5
        bucket.consume(5)
        assert bucket.available(0) == 0
        # 10 tokens/s => one token every 100ms of engine time.
        assert bucket.available(99_999) == 0
        assert bucket.available(100_001) == 1
        assert bucket.next_token_time(100_001) == 100_001

    def test_next_token_time_jumps_past_the_deficit(self):
        bucket = TokenBucket(rate_per_s=10.0, capacity=1)
        bucket.consume(1)
        jump = bucket.next_token_time(0)
        assert jump > 0
        assert bucket.available(jump) >= 1


class TestLegacyEquivalence:
    def test_qos_sheds_identically_to_bare_shedder(self):
        """A shedding-only policy drops what a bare shedder drops."""
        outcomes = []
        for engine in (
            build_overloaded_engine(
                legacy_shedder=BacklogShedder(max_total_backlog=20)
            ),
            build_overloaded_engine(qos=QoSPolicy(max_total_backlog=20)),
        ):
            director, scheduler, clock, sink, _ = engine
            SimulationRuntime(director, clock).run(2.0)
            outcomes.append((scheduler, sink))
        legacy_sched, legacy_sink = outcomes[0]
        qos_sched, qos_sink = outcomes[1]
        assert qos_sched.shedder.dropped == legacy_sched.shedder.dropped > 0
        assert (
            qos_sched.shedder.dropped_by_actor
            == legacy_sched.shedder.dropped_by_actor
        )
        assert delivered(qos_sink) == delivered(legacy_sink)
        assert qos_sink.response_times_us == legacy_sink.response_times_us

    def test_legacy_kwargs_still_work(self):
        shedder = BacklogShedder(
            max_total_backlog=7,
            strategy="drop-newest",
            protect_priority=3,
            max_source_pending=9,
        )
        assert shedder.max_total_backlog == 7
        assert shedder.strategy == "drop-newest"
        assert shedder.protect_priority == 3
        assert shedder.max_source_pending == 9


class TestBackpressure:
    def test_pause_bounds_backlog_without_loss(self):
        """Backpressure pauses pumping instead of dropping or growing."""
        # A huge watermark never pauses: this measures the uncontrolled
        # backlog peak through the same observation machinery.
        director, _, clock, sink, probe = build_overloaded_engine(
            qos=QoSPolicy(max_ready_backlog=10**9), arrivals=800
        )
        SimulationRuntime(director, clock).run(5.0)
        uncontrolled_peak = probe.backlog_peak
        uncontrolled_payloads = sorted(
            (value, ts) for _, value, ts in delivered(sink)
        )
        assert probe.pauses == 0

        director, _, clock, sink, controller = build_overloaded_engine(
            qos=QoSPolicy(max_ready_backlog=50), arrivals=800
        )
        SimulationRuntime(director, clock).run(5.0)
        assert controller.pauses > 0
        assert controller.dropped == 0
        assert controller.backlog_peak < uncontrolled_peak
        # Lossless: every event still reaches the sink — later (pausing
        # delays delivery), but nothing is dropped.
        payloads = sorted((value, ts) for _, value, ts in delivered(sink))
        assert payloads == uncontrolled_payloads


class TestAdaptiveControlLoop:
    QOS = QoSPolicy(
        latency_slo_s=0.5,
        control_period_s=0.25,
        max_total_backlog=100_000,
        min_backlog_bound=16,
        adapt_quantum=True,
        min_quantum_us=100,
    )

    def run_controlled(self):
        director, scheduler, clock, sink, controller = (
            build_overloaded_engine(qos=self.QOS, arrivals=8_000)
        )
        SimulationRuntime(director, clock).run(8.0)
        return director, scheduler, sink, controller

    def test_control_loop_converges_on_the_slo(self):
        director, scheduler, sink, controller = self.run_controlled()
        assert controller.ticks > 0
        # Overload drove the bound down from its 100k ceiling.
        assert controller.backlog_bound < 100_000
        assert controller.dropped > 0
        # After adaptation the tail of observed responses meets the SLO.
        tail = sorted(r for _, r in sink.response_times_us[-100:])
        p99_tail_s = tail[int(0.99 * (len(tail) - 1))] / 1e6
        assert p99_tail_s <= self.QOS.latency_slo_s

        director2, _, clock2, sink2, _ = build_overloaded_engine(
            arrivals=8_000
        )
        SimulationRuntime(director2, clock2).run(8.0)
        tail2 = sorted(r for _, r in sink2.response_times_us[-100:])
        p99_uncontrolled_s = tail2[int(0.99 * (len(tail2) - 1))] / 1e6
        assert p99_uncontrolled_s > self.QOS.latency_slo_s

    def test_control_loop_is_deterministic(self):
        first = self.run_controlled()
        second = self.run_controlled()
        assert first[3].state_dump() == second[3].state_dump()
        assert delivered(first[2]) == delivered(second[2])
        assert first[2].response_times_us == second[2].response_times_us

    def test_controller_tunes_the_qbs_quantum(self):
        _, scheduler, _, _, controller = build_overloaded_engine(
            qos=QoSPolicy.parse("slo=5,adapt-quantum=1")
        )
        assert controller._read_quantum() == 500
        controller._write_quantum(250)
        assert scheduler.basic_quantum_us == 250

    def test_counters_reach_the_statistics_snapshot(self):
        director, scheduler, _, controller = self.run_controlled()
        engine = director.statistics.snapshot()["__engine__"]
        assert engine["overload_ticks"] == controller.ticks
        assert engine["overload_dropped"] == controller.dropped
        assert "overload_backlog_bound" in engine


class TestCheckpointRoundTrip:
    def test_state_dump_restore_round_trip(self):
        qos = QoSPolicy(
            latency_slo_s=0.5,
            control_period_s=0.25,
            max_total_backlog=5_000,
            admission_rate=800.0,
            max_ready_backlog=2_000,
            adapt_quantum=True,
        )
        director, scheduler, clock, sink, controller = (
            build_overloaded_engine(qos=qos, arrivals=2_000)
        )
        SimulationRuntime(director, clock).run(2.0)
        dump = controller.state_dump()
        assert dump["ticks"] == controller.ticks
        assert dump["buckets"]  # the source's bucket was materialized

        _, fresh_scheduler, _, _, fresh = build_overloaded_engine(qos=qos)
        fresh.state_restore(dump)
        assert fresh.state_dump() == dump
        # Adaptive tunings are re-applied onto the rebuilt engine.
        assert fresh_scheduler.basic_quantum_us == dump["quantum_us"]

    def test_snapshot_captures_the_overload_component(self):
        from repro.checkpoint.snapshot import capture_snapshot

        qos = QoSPolicy(max_ready_backlog=1_000, admission_rate=500.0)
        director, _, clock, _, controller = build_overloaded_engine(qos=qos)
        director.initialize_all()
        SimulationRuntime(director, clock).run(1.0)
        snapshot = capture_snapshot(director)
        assert "overload" in snapshot
        assert snapshot["overload"] == controller.state_dump()


class TestBurstyGenerator:
    def test_default_factor_is_byte_identical(self):
        base = LinearRoadWorkload(WorkloadConfig(duration_s=60, seed=4))
        explicit = LinearRoadWorkload(
            WorkloadConfig(duration_s=60, seed=4, burst_factor=1.0)
        )
        assert base.arrivals() == explicit.arrivals()

    def test_burst_mode_preserves_reports_and_mean_rate(self):
        config = WorkloadConfig(duration_s=60, seed=4)
        bursty_config = WorkloadConfig(
            duration_s=60, seed=4, burst_factor=10.0, burst_period_s=10
        )
        smooth = LinearRoadWorkload(config).arrivals()
        bursty = LinearRoadWorkload(bursty_config).arrivals()
        # Same reports, bit for bit — only delivery times move.
        assert [r for _, r in smooth] == [r for _, r in bursty]
        # Monotone warp: stays sorted, never delivers later than smooth.
        times = [t for t, _ in bursty]
        assert times == sorted(times)
        assert all(b <= s for (s, _), (b, _) in zip(smooth, bursty))
        # Arrivals compress into the head 1/10th of each 10s period.
        period_us = 10 * 1_000_000
        assert all(t % period_us <= period_us // 10 for t in times)

    def test_burst_factor_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(burst_factor=0.5)
        with pytest.raises(ValueError):
            WorkloadConfig(burst_period_s=0)

    def test_scaled_preserves_burst_fields(self):
        config = WorkloadConfig(burst_factor=4.0, burst_period_s=5)
        scaled = config.scaled(2.0)
        assert scaled.burst_factor == 4.0
        assert scaled.burst_period_s == 5
        assert scaled.peak_rate == config.peak_rate * 2.0

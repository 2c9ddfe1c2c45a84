"""The resilience subsystem: policies, supervision, retries, dead letters."""

import time

import pytest

from repro.core import MapActor, SinkActor, SourceActor, Workflow
from repro.core.exceptions import (
    DirectorError,
    InjectedFault,
    ResilienceError,
)
from repro.directors.pncwf import PNCWFDirector
from repro.observability import RecordingTracer, use_tracer
from repro.resilience import (
    DeadLetterQueue,
    FailureAction,
    FaultInjector,
    FaultPolicy,
    FaultSupervisor,
    install_faults,
    parse_fault_spec,
)
from repro.simulation import (
    CostModel,
    SimulationRuntime,
    ThreadedCWFDirector,
    VirtualClock,
)
from repro.stafilos import RoundRobinScheduler, SCWFDirector


def flaky_workflow(arrivals=None, fail_on=lambda v: v % 2):
    """source -> worker (fails on chosen values) -> sink."""
    workflow = Workflow("flaky")
    arrivals = arrivals or [(i * 1000, i) for i in range(6)]
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")

    def explode(value):
        if fail_on(value):
            raise ValueError(f"boom on {value}")
        return value

    worker = MapActor("worker", explode)
    sink = SinkActor("sink")
    workflow.add_all([source, worker, sink])
    workflow.connect(source, worker)
    workflow.connect(worker, sink)
    return workflow, sink


class TestFaultPolicy:
    def test_coerce(self):
        assert FaultPolicy.coerce(None) == FaultPolicy()
        policy = FaultPolicy(max_retries=3)
        assert FaultPolicy.coerce(policy) is policy

    def test_strings_rejected(self):
        for legacy in ("raise", "drop", "retry"):
            with pytest.raises(ResilienceError):
                FaultPolicy.coerce(legacy)

    def test_validation(self):
        with pytest.raises(ResilienceError):
            FaultPolicy(max_retries=-1)
        with pytest.raises(ResilienceError):
            FaultPolicy(error_budget=0)
        with pytest.raises(ResilienceError):
            FaultPolicy(backoff_factor=0.5)

    def test_backoff_is_exponential_and_capped(self):
        policy = FaultPolicy(
            max_retries=5,
            backoff_base_us=100,
            backoff_factor=2.0,
            backoff_max_us=350,
        )
        assert [policy.backoff_us_for(a) for a in (1, 2, 3, 4)] == [
            100,
            200,
            350,
            350,
        ]


class TestDeadLetterQueue:
    def test_bounded_with_eviction(self):
        from repro.resilience import DeadLetter

        queue = DeadLetterQueue(capacity=2)
        for i in range(3):
            queue.append(
                DeadLetter(
                    actor="a",
                    port="in",
                    item=i,
                    error_type="ValueError",
                    error_message="x",
                    attempts=1,
                    timestamp_us=i,
                )
            )
        assert len(queue) == 2
        assert queue.dropped == 1
        assert queue.total_enqueued == 3
        assert [letter.item for letter in queue] == [1, 2]


class TestSupervisor:
    def test_retry_then_dead_letter(self):
        workflow, _ = flaky_workflow()
        actor = workflow.actors["worker"]
        supervisor = FaultSupervisor(FaultPolicy(max_retries=1))
        error = ValueError("x")
        first = supervisor.on_failure(actor, "in", 1, error, 1, 0)
        assert first.action is FailureAction.RETRY
        assert first.backoff_us > 0
        second = supervisor.on_failure(actor, "in", 1, error, 2, 0)
        assert second.action is FailureAction.DEAD_LETTER
        assert len(supervisor.dead_letters) == 1
        assert supervisor.health("worker").retries == 1

    def test_error_budget_trips_quarantine(self):
        workflow, _ = flaky_workflow()
        actor = workflow.actors["worker"]
        supervisor = FaultSupervisor(FaultPolicy(error_budget=2))
        error = ValueError("x")
        supervisor.on_failure(actor, "in", 1, error, 1, 0)
        assert not supervisor.is_quarantined("worker")
        decision = supervisor.on_failure(actor, "in", 2, error, 1, 0)
        assert decision.quarantined
        assert supervisor.is_quarantined("worker")
        supervisor.reset("worker")
        assert not supervisor.is_quarantined("worker")

    def test_success_resets_streak(self):
        workflow, _ = flaky_workflow()
        actor = workflow.actors["worker"]
        supervisor = FaultSupervisor(FaultPolicy(error_budget=2))
        supervisor.on_failure(actor, "in", 1, ValueError("x"), 1, 0)
        supervisor.on_success(actor)
        supervisor.on_failure(actor, "in", 2, ValueError("x"), 1, 0)
        assert not supervisor.is_quarantined("worker")


class TestSCWFResilience:
    def run_with(self, policy, fail_on=lambda v: v % 2):
        workflow, sink = flaky_workflow(fail_on=fail_on)
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000),
            clock,
            CostModel(),
            error_policy=policy,
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(1.0, drain=True)
        return director, sink

    def test_poison_pill_lands_in_dlq(self):
        director, sink = self.run_with(
            FaultPolicy(), fail_on=lambda v: v == 3
        )
        assert sink.values == [0, 1, 2, 4, 5]
        letters = list(director.dead_letters)
        assert len(letters) == 1
        assert letters[0].actor == "worker"
        assert letters[0].error_type == "ValueError"
        assert "3" in letters[0].error_message

    def test_retries_recover_transient_failures(self):
        failures = {"budget": 2}

        def transient(value):
            # The first two attempts (ever) fail, everything after works.
            if failures["budget"] > 0:
                failures["budget"] -= 1
                raise ValueError("transient")
            return value

        workflow, sink = flaky_workflow()
        workflow.actors["worker"]._fn = transient  # type: ignore[attr-defined]
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000),
            clock,
            CostModel(),
            error_policy=FaultPolicy(max_retries=3),
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(1.0, drain=True)
        assert sink.values == [0, 1, 2, 3, 4, 5]
        assert len(director.dead_letters) == 0
        assert director.supervisor.health("worker").retries == 2

    def test_quarantine_bypasses_execution(self):
        # Values >= 3 fail *consecutively*: after two exhausted failures
        # the circuit opens and the remaining poison value is
        # dead-lettered without executing.
        director, sink = self.run_with(
            FaultPolicy(error_budget=2), fail_on=lambda v: v >= 3
        )
        assert sink.values == [0, 1, 2]
        assert director.supervisor.is_quarantined("worker")
        letters = list(director.dead_letters)
        assert len(letters) == 3
        assert letters[-1].quarantined

    def test_trace_events_emitted(self):
        tracer = RecordingTracer()
        with use_tracer(tracer):
            workflow, _ = flaky_workflow()
            clock = VirtualClock()
            workflow.actors["worker"]._fn = (  # type: ignore[attr-defined]
                lambda value: (_ for _ in ()).throw(ValueError("boom"))
                if value >= 2
                else value
            )
            director = SCWFDirector(
                RoundRobinScheduler(10_000),
                clock,
                CostModel(),
                error_policy=FaultPolicy(max_retries=1, error_budget=2),
            )
            director.attach(workflow)
            SimulationRuntime(director, clock).run(1.0, drain=True)
        names = {record.name for record in tracer.records()}
        assert "actor.retry" in names
        assert "deadletter.enqueued" in names
        assert "actor.quarantined" in names

    def test_statistics_carry_failure_counters(self):
        director, _ = self.run_with(FaultPolicy(max_retries=1))
        snapshot = director.statistics.snapshot()["worker"]
        assert snapshot["failures"] == 6  # 3 poison values x 2 attempts
        assert snapshot["retries"] == 3
        assert snapshot["dead_letters"] == 3

    def test_failed_firing_not_recorded_as_invocation(self):
        director, _ = self.run_with(FaultPolicy())
        stats = director.statistics.snapshot()["worker"]
        # Only the three successful firings count as invocations.
        assert stats["invocations"] == 3


class TestThreadedSimResilience:
    def test_poison_pill_survives(self):
        workflow, sink = flaky_workflow(fail_on=lambda v: v == 3)
        clock = VirtualClock()
        director = ThreadedCWFDirector(
            clock, CostModel(), error_policy=FaultPolicy()
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(1.0, drain=True)
        assert sink.values == [0, 1, 2, 4, 5]
        assert len(director.dead_letters) == 1
        assert director.actor_errors == {"worker": 1}

    def test_default_policy_propagates(self):
        workflow, _ = flaky_workflow()
        clock = VirtualClock()
        director = ThreadedCWFDirector(clock, CostModel())
        director.attach(workflow)
        with pytest.raises(ValueError):
            SimulationRuntime(director, clock).run(1.0, drain=True)

    def test_unknown_policy_rejected(self):
        with pytest.raises(DirectorError):
            ThreadedCWFDirector(
                VirtualClock(), CostModel(), error_policy="bogus"
            )


class TestLivePNCWFResilience:
    def run_live(self, policy, fail_on=lambda v: v == 3):
        workflow, sink = flaky_workflow(
            arrivals=[(i * 20_000, i) for i in range(6)], fail_on=fail_on
        )
        director = PNCWFDirector(
            time_scale=50.0, poll_timeout_s=0.01, error_policy=policy
        )
        director.attach(workflow)
        director.initialize_all()
        director.start()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and len(sink.items) < 5:
            time.sleep(0.01)
        report = director.stop()
        return director, sink, report

    def test_poison_pill_keeps_threads_alive(self):
        director, sink, report = self.run_live(FaultPolicy())
        assert sorted(sink.values) == [0, 1, 2, 4, 5]
        assert report["lost_threads"] == []
        assert report["dead_letters"] == 1
        assert report["actors"]["worker"]["failures"] == 1
        assert report is director.stop_report

    def test_retry_policy_recovers(self):
        flaked = []

        def fail_once(value):
            # Each value fails on its first attempt only.
            if value not in flaked:
                flaked.append(value)
                return True
            return False

        director, sink, report = self.run_live(
            FaultPolicy(max_retries=2, backoff_base_us=100),
            fail_on=fail_once,
        )
        assert sorted(sink.values) == [0, 1, 2, 3, 4, 5]
        assert report["lost_threads"] == []
        assert report["dead_letters"] == 0
        assert report["actors"]["worker"]["retries"] >= 1


class TestFaultInjection:
    def test_parse_spec(self):
        specs = parse_fault_spec("a*:rate=0.5,seed=2;b:every=10,limit=3")
        assert specs[0].pattern == "a*" and specs[0].rate == 0.5
        assert specs[1].every == 10 and specs[1].limit == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ResilienceError):
            parse_fault_spec("a:frequency=2")
        with pytest.raises(ResilienceError):
            parse_fault_spec("a:rate=high")
        with pytest.raises(ResilienceError):
            parse_fault_spec("  ;  ")
        with pytest.raises(ResilienceError):
            parse_fault_spec("a")  # never fires

    def test_every_schedule_is_exact(self):
        workflow, sink = flaky_workflow(fail_on=lambda v: False)
        injectors = install_faults(workflow, "worker:every=2")
        assert len(injectors) == 1
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000),
            clock,
            CostModel(),
            error_policy=FaultPolicy(),
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(1.0, drain=True)
        # Firings 2, 4 and 6 fail deterministically.
        assert sink.values == [0, 2, 4]
        assert injectors[0].injected == 3
        letters = list(director.dead_letters)
        assert all(l.error_type == "InjectedFault" for l in letters)

    def test_rate_schedule_is_deterministic(self):
        def run():
            workflow, sink = flaky_workflow(
                arrivals=[(i * 100, i) for i in range(50)],
                fail_on=lambda v: False,
            )
            injectors = install_faults(workflow, "worker:rate=0.3,seed=9")
            clock = VirtualClock()
            director = SCWFDirector(
                RoundRobinScheduler(10_000),
                clock,
                CostModel(),
                error_policy=FaultPolicy(),
            )
            director.attach(workflow)
            SimulationRuntime(director, clock).run(1.0, drain=True)
            return sink.values, injectors[0].injected

        first, injected_a = run()
        second, injected_b = run()
        assert first == second
        assert injected_a == injected_b > 0

    def test_uninstall_restores_fire(self):
        workflow, _ = flaky_workflow(fail_on=lambda v: False)
        actor = workflow.actors["worker"]
        injector = FaultInjector(
            actor, parse_fault_spec("worker:every=1")
        ).install()
        with pytest.raises(InjectedFault):
            actor.fire(None)
        injector.uninstall()
        assert "fire" not in vars(actor)

    def test_sources_are_skipped(self):
        workflow, _ = flaky_workflow()
        injectors = install_faults(workflow, "*:every=1")
        assert sorted(i.actor.name for i in injectors) == ["sink", "worker"]

"""Overload control: one QoSPolicy instead of hand-tuned shedding knobs.

A pipeline is offered 2x the load it can serve.  Run uncontrolled, the
ready backlog grows without bound and response times climb all run long.
Run under a :class:`repro.QoSPolicy` with a latency SLO, the elastic
controller (``repro.overload.OverloadController``) tightens the backlog
bound every control period and sheds just enough stale work to pull p99
response time back under the objective.

A bare static bound is the policy's shedding group alone:
``QoSPolicy(max_total_backlog=...)``.

Run:  python examples/overload_control.py
"""

from repro import (
    CostModel,
    MapActor,
    QBSScheduler,
    QoSPolicy,
    SCWFDirector,
    SimulationRuntime,
    SinkActor,
    SourceActor,
    VirtualClock,
    Workflow,
)


def build_engine(qos=None):
    """source -> analyze -> notify, offered 2x the service rate."""
    workflow = Workflow("hotpath")
    # Events at 1 ms spacing, but each costs ~2 ms to analyze.
    feed = SourceActor(
        "feed", arrivals=[(i * 1_000, i) for i in range(6_000)]
    )
    feed.add_output("out")
    analyze = MapActor("analyze", lambda v: v)
    analyze.priority = 20  # best-effort: sheddable under pressure
    analyze.nominal_cost_us = 2_000
    notify = SinkActor("notify")
    notify.priority = 5  # protected output path
    workflow.add_all([feed, analyze, notify])
    workflow.connect(feed, analyze)
    workflow.connect(analyze, notify)

    clock = VirtualClock()
    director = SCWFDirector(QBSScheduler(500), clock, CostModel())
    controller = None
    if qos is not None:
        controller = director.apply_qos(qos)
        controller.attach_latency_probe(lambda: notify.response_times_us)
    director.attach(workflow)
    return director, clock, notify, controller


def p99_s(sink, tail=100):
    responses = sorted(r for _, r in sink.response_times_us[-tail:])
    return responses[int(0.99 * (len(responses) - 1))] / 1e6


def main() -> None:
    # Uncontrolled: queues grow for the whole run.
    director, clock, sink, _ = build_engine()
    SimulationRuntime(director, clock).run(6.0)
    uncontrolled_p99 = p99_s(sink)
    print(f"uncontrolled: p99 {uncontrolled_p99:.2f}s, "
          f"backlog at end {director.backlog()}")

    # One declarative policy: a 500 ms SLO steering the shedding bound
    # between 16 and 100 000 queued events.
    policy = QoSPolicy(
        latency_slo_s=0.5,
        control_period_s=0.25,
        max_total_backlog=100_000,
        min_backlog_bound=16,
    )
    director, clock, sink, controller = build_engine(qos=policy)
    SimulationRuntime(director, clock).run(6.0)
    controlled_p99 = p99_s(sink)
    print(f"with {policy.describe()}: p99 {controlled_p99:.2f}s "
          f"({controller.ticks} control ticks, "
          f"{controller.dropped} shed, "
          f"backlog bound settled at {controller.backlog_bound})")

    assert controller.ticks > 0, "control loop never ran"
    assert controlled_p99 <= policy.latency_slo_s, "SLO missed"
    assert uncontrolled_p99 > policy.latency_slo_s, "baseline not overloaded"
    print("OK: the control loop held p99 under the SLO; "
          "the uncontrolled run violated it")


if __name__ == "__main__":
    main()

"""Overload SLO gate: bursty Linear Road versus the elastic QoS loop.

Linear Road's correctness contract is a deadline, not a throughput
figure: toll notifications must reach the driver within 5 s.  This
benchmark drives the workflow with bursty traffic — each 10 s period's
arrivals compressed into its first second, so the instantaneous rate is
10x the mean while the mean itself sits ~1.2x over capacity — and
compares two runs:

* **uncontrolled** (the static pre-QoS engine): burst residue carries
  over from period to period and p99 toll-notification latency blows
  through the SLO by an order of magnitude;
* **controlled** (one declarative ``QoSPolicy`` with
  ``latency_slo_s=5``): the ``repro.overload`` loop observes p99 and
  backlog slope once per control period and retunes admission and the
  input-side shed bound until the toll path drains between bursts.

The control period deliberately matches the burst period: each tick
then judges a full burst+quiet cycle, so the loop neither relaxes
faster than the disturbance recurs nor tightens on a half-seen window.
The gate asserts the controlled run meets the SLO in steady state (the
second half of the run — the first half is the arrival ramp plus the
loop's cold-start convergence) while the uncontrolled run violates it,
and that the loop actually engaged (ticks and drops non-zero).
"""

from repro import QoSPolicy
from repro.harness import default_cost_model
from repro.linearroad import LinearRoadWorkload, build_linear_road
from repro.linearroad.generator import WorkloadConfig
from repro.simulation import SimulationRuntime, VirtualClock
from repro.stafilos import QuantumPriorityScheduler, SCWFDirector

SLO_S = 5.0  # the paper's Linear Road toll-notification deadline

# Ramp to ~1.2x mean capacity in the first quarter, then hold; bursts
# deliver each 10 s period's arrivals in its first second (10x mean).
WORKLOAD = WorkloadConfig(
    duration_s=240,
    peak_rate=170,
    ramp_fraction=0.25,
    seed=1,
    burst_factor=10.0,
    burst_period_s=10,
)

QOS = QoSPolicy(
    latency_slo_s=SLO_S,
    control_period_s=float(WORKLOAD.burst_period_s),
    max_total_backlog=100_000,
    min_backlog_bound=64,
    max_source_pending=5_000,
    max_ready_backlog=2_000,
    admission_rate=WORKLOAD.peak_rate,
)


def p99_s(samples):
    responses = sorted(r for _, r in samples)
    return responses[int(0.99 * (len(responses) - 1))] / 1e6


def run(qos):
    workload = LinearRoadWorkload(WORKLOAD)
    system = build_linear_road(workload.arrivals())
    scheduler = QuantumPriorityScheduler(500)
    clock = VirtualClock()
    director = SCWFDirector(scheduler, clock, default_cost_model())
    controller = None
    if qos is not None:
        controller = director.apply_qos(qos)
        controller.attach_latency_probe(
            lambda: system.toll_response_times_us
        )
    director.attach(system.workflow)
    SimulationRuntime(director, clock).run(WORKLOAD.duration_s)
    samples = system.toll_response_times_us
    half_us = WORKLOAD.duration_s / 2 * 1e6
    steady = [(t, r) for t, r in samples if t >= half_us]
    return {
        "p99_s": p99_s(samples),
        "steady_p99_s": p99_s(steady),
        "tolls": len(samples),
        "dropped": (
            0
            if controller is None
            else controller.dropped + controller.dropped_at_sources
        ),
        "ticks": 0 if controller is None else controller.ticks,
    }


def test_overload_slo(once):
    uncontrolled, controlled = once(lambda: (run(None), run(QOS)))
    print()
    print(f"Bursty Linear Road (10x mean bursts), {SLO_S:.0f}s SLO:")
    print(f"  uncontrolled: p99 {uncontrolled['p99_s']:.2f}s "
          f"(steady-state {uncontrolled['steady_p99_s']:.2f}s), "
          f"tolls {uncontrolled['tolls']}")
    print(f"  QoS loop:     p99 {controlled['p99_s']:.2f}s "
          f"(steady-state {controlled['steady_p99_s']:.2f}s), "
          f"tolls {controlled['tolls']}, "
          f"{controlled['dropped']} shed over {controlled['ticks']} ticks")
    assert controlled["ticks"] > 0, "control loop never ran"
    assert controlled["dropped"] > 0, "control loop never shed"
    assert uncontrolled["steady_p99_s"] > SLO_S, (
        "baseline must violate the SLO"
    )
    assert controlled["steady_p99_s"] <= SLO_S, (
        "controlled run missed the SLO"
    )

"""Ablation: load shedding under overload (the paper's §4.3 pointer).

The paper's discussion suggests integrating load shedding to satisfy SLAs
under overload.  This ablation drives Linear Road well past capacity and
compares QBS with and without a backlog-bounded shedder: shedding should
keep toll-notification response times bounded (no thrash) at the price of
dropped maintenance work.
"""

from conftest import bench_seeds
from repro.harness import default_cost_model
from repro.linearroad import build_linear_road, LinearRoadWorkload
from repro.linearroad.generator import WorkloadConfig
from repro.linearroad.metrics import ResponseTimeSeries
from repro.overload import BacklogShedder
from repro.simulation import SimulationRuntime, VirtualClock
from repro.stafilos import QuantumPriorityScheduler, SCWFDirector

# ~1.2x overall capacity: the maintenance path overloads (the engine
# thrashes without shedding) while the protected toll path still fits.
WORKLOAD = WorkloadConfig(duration_s=360, peak_rate=170, seed=1)


def run(shedder):
    workload = LinearRoadWorkload(WORKLOAD)
    system = build_linear_road(workload.arrivals())
    scheduler = QuantumPriorityScheduler(500)
    scheduler.shedder = shedder
    clock = VirtualClock()
    director = SCWFDirector(scheduler, clock, default_cost_model())
    director.attach(system.workflow)
    SimulationRuntime(director, clock).run(WORKLOAD.duration_s)
    series = ResponseTimeSeries.from_samples(
        system.toll_response_times_us, 10, WORKLOAD.duration_s
    )
    dropped = 0
    if shedder is not None:
        dropped = shedder.dropped + shedder.dropped_at_sources
    return {
        "thrash": series.thrash_time_s(),
        "tail_response_s": series.responses_s[-1] if series.points else None,
        "tolls": len(system.toll_out.items),
        "dropped": dropped,
    }


def test_ablation_load_shedding(once):
    baseline, shed = once(
        lambda: (
            run(None),
            run(
                BacklogShedder(
                    max_total_backlog=1_000, max_source_pending=200
                )
            ),
        )
    )
    print()
    print("Ablation: load shedding at ~1.2x capacity")
    print(f"  no shedding:  thrash={baseline['thrash']}, "
          f"tail response {baseline['tail_response_s']:.1f}s, "
          f"tolls {baseline['tolls']}")
    print(f"  with shedder: thrash={shed['thrash']}, "
          f"tail response {shed['tail_response_s']:.1f}s, "
          f"tolls {shed['tolls']}, events dropped {shed['dropped']}")
    assert baseline["thrash"] is not None, "overload must thrash unshed"
    assert shed["dropped"] > 0
    # Shedding buys a substantially fresher output path and at least as
    # many delivered tolls.  (It cannot eliminate the blow-up entirely:
    # the protected TollCalculation actor's own quantum share saturates,
    # and the shedder honours priority protection — see EXPERIMENTS.md.)
    assert shed["tail_response_s"] < baseline["tail_response_s"] * 0.75
    assert shed["tolls"] >= baseline["tolls"]

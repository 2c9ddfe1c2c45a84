"""Operator-chain fusion throughput on a deep map-pipeline micro-workload.

The headline number of the fusion work: end-to-end events/second through
a 12-hop map chain, fused vs. unfused, both at the director's shipped
defaults.  Fusion collapses the twelve per-hop
dispatches (decision, dequeue, context, receiver, re-enqueue) into one
composed firing that traverses the whole chain with zero intermediate
queue churn, so the win multiplies with chain depth — and it is pure
wall-clock: the bench canonicalizes the sink trace and asserts the fused
runs produced exactly what the unfused run did before comparing timings.

Gated two ways by ``make bench-fusion``:

* absolute means vs. ``baselines/fusion.json`` (2x tolerance, like the
  train and dispatch gates) so the composed path cannot silently regress
  to per-hop dispatch cost;
* a relative gate (``test_fusion_speedup_gate``) asserting the fused
  chain is at least 2x faster than the unfused run on this machine,
  whatever its absolute speed.
"""

import time

import pytest

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.workflow import Workflow
from repro.fusion import fuse_workflow
from repro.simulation import CostModel, SimulationRuntime, VirtualClock
from repro.stafilos import RoundRobinScheduler, SCWFDirector

#: Enough arrivals that per-hop dispatch overhead dominates setup cost.
N_EVENTS = 4_000

#: Deep enough that intermediate-queue churn, not the endpoints,
#: dominates the unfused run (a 1-map relay has nothing to fuse).
CHAIN_DEPTH = 12

VARIANTS = {"unfused": False, "fused": True}


def run_chain(fuse):
    """Source -> m1 -> ... -> m8 -> sink; canonicalized sink trace."""
    workflow = Workflow("fusion-micro")
    source = SourceActor("src", arrivals=[(i, i) for i in range(N_EVENTS)])
    source.add_output("out")
    maps = [
        MapActor(f"m{hop}", lambda v: v + 1) for hop in range(CHAIN_DEPTH)
    ]
    sink = SinkActor("sink")
    workflow.add_all([source, *maps, sink])
    workflow.connect(source, maps[0])
    for upstream, downstream in zip(maps, maps[1:]):
        workflow.connect(upstream, downstream)
    workflow.connect(maps[-1], sink)
    if fuse:
        report = fuse_workflow(workflow)
        assert report.fused_actors == CHAIN_DEPTH
    clock = VirtualClock()
    director = SCWFDirector(RoundRobinScheduler(10_000), clock, CostModel())
    director.attach(workflow)
    SimulationRuntime(director, clock).run(30.0, drain=True)
    return [
        (event.timestamp, tuple(event.wave.path), event.value)
        for _, event in sink.items
    ]


@pytest.mark.parametrize("label", sorted(VARIANTS))
def test_fusion_chain_throughput(benchmark, label):
    """Absolute chain cost fused/unfused (gated vs. fusion.json)."""
    trace = benchmark.pedantic(
        run_chain, args=(VARIANTS[label],), rounds=3, iterations=1
    )
    assert len(trace) == N_EVENTS


def _best_of(runs, fn, *args):
    best = None
    result = None
    for _ in range(runs):
        start = time.perf_counter()
        result = fn(*args)
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


def test_fusion_speedup_gate():
    """The fused chain must be >= 2x events/sec of the unfused run.

    Both sides run the engine as shipped, so the gate isolates what
    fusion itself buys.  Bit-identity is asserted first so a "speedup"
    can never come from doing different work.
    """
    t_unfused, trace_unfused = _best_of(3, run_chain, False)
    t_fused, trace_fused = _best_of(3, run_chain, True)
    assert trace_fused == trace_unfused  # same results, fewer dispatches
    speedup = t_unfused / t_fused
    assert speedup >= 2.0, (
        f"fusion speedup {speedup:.2f}x < 2.0x floor "
        f"(unfused={t_unfused * 1e3:.1f}ms fused={t_fused * 1e3:.1f}ms)"
    )

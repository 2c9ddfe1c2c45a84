"""Operator-chain fusion (``repro.fusion``).

The tentpole invariants:

* **fusion is invisible** — for every scheduler and every train size,
  a fused run produces bit-identical sink outputs (values, external
  timestamps, wave-tag paths, ``last_in_wave`` marks) and identical
  count-based per-actor statistics versus the unfused engine.  Only the
  engine-clock *trajectory* (fewer dispatch overheads) and therefore
  engine-time-stamped series (sink arrival times, input-rate windows,
  the source's cost batching) may differ;
* **fused execution is train-size independent** — the fused engine is
  *fully* bit-identical (clock included) across train sizes;
* fused engines checkpoint and restore like any other.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import (
    capture_snapshot,
    deserialize_snapshot,
    restore_snapshot,
    serialize_snapshot,
    structure_fingerprint,
)
from repro.core.actors import Actor, MapActor, SinkActor, SourceActor
from repro.core.exceptions import SimulationError
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.fusion import detect_chains, FusedChain, fuse_workflow
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.stafilos.schedulers import (
    FIFOScheduler,
    QuantumPriorityScheduler,
    RateBasedScheduler,
    RoundRobinScheduler,
)
from repro.stafilos.scwf_director import SCWFDirector
from tests.per_event_director import PerEventSCWFDirector

TRAIN_SIZES = (1, 64, None)

SCHEDULERS = (
    lambda: QuantumPriorityScheduler(500),
    lambda: RoundRobinScheduler(10_000),
    lambda: RateBasedScheduler(),
    lambda: FIFOScheduler(),
)

#: Stats keys that must match fused vs unfused for *every* actor.  The
#: source's invocation costs depend on how arrivals batch per pump,
#: which follows the engine-clock trajectory — legitimately different —
#: so cost/invocation keys are only compared for the chain members,
#: where fusion replays the per-event charges exactly.
COUNT_KEYS = (
    "inputs_total",
    "outputs_total",
    "failures",
    "retries",
    "dead_letters",
    "selectivity",
    "output_rate_per_s",
)
MEMBER_KEYS = COUNT_KEYS + ("invocations", "avg_cost_us", "ewma_cost_us")


def _mixed_fn(value):
    """Deterministic mixed selectivity: drop some, fan out others."""
    if value % 7 == 6:
        return None
    if value % 3 == 0:
        return [value, value * 2]
    return value


MEMBER_NAMES = ("m1", "m2", "m3")


def _build_relay(arrivals, fuse):
    """src -> m1 -> m2 -> m3 -> sink, the canonical fusable pipeline."""
    workflow = Workflow("fusion-relay")
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")
    m1 = MapActor("m1", lambda v: v + 1)
    m2 = MapActor("m2", _mixed_fn)
    m3 = MapActor("m3", lambda v: v - 1)
    sink = SinkActor("sink")
    workflow.add_all([source, m1, m2, m3, sink])
    workflow.connect(source, m1)
    workflow.connect(m1, m2)
    workflow.connect(m2, m3)
    workflow.connect(m3, sink)
    if fuse:
        report = fuse_workflow(workflow)
        assert report.chains == (MEMBER_NAMES,)
    return workflow, sink


def _run(arrivals, scheduler_index, train_size, fuse, cls=SCWFDirector):
    workflow, sink = _build_relay(arrivals, fuse)
    clock = VirtualClock()
    director = cls(
        SCHEDULERS[scheduler_index](),
        clock,
        CostModel(),
        train_size=train_size,
    )
    director.attach(workflow)
    SimulationRuntime(director, clock).run(10.0, drain=True)
    canon = [
        (
            event.timestamp,
            tuple(event.wave.path),
            repr(event.value),
            event.last_in_wave,
        )
        for _, event in sink.items
    ]
    snapshot = director.statistics.snapshot(20_000_000)
    stats = {
        name: {
            key: entry[key]
            for key in (
                MEMBER_KEYS if name in MEMBER_NAMES else COUNT_KEYS
            )
        }
        for name, entry in snapshot.items()
    }
    return canon, stats, clock.now_us


# ----------------------------------------------------------------------
# Chain detection and workflow rewriting
# ----------------------------------------------------------------------
def _chain_names(workflow):
    return [
        tuple(actor.name for actor in chain)
        for chain in detect_chains(workflow)
    ]


class TestChainDetection:
    def test_linear_map_run_detected(self):
        workflow, _ = _build_relay([(0, 1)], fuse=False)
        assert _chain_names(workflow) == [MEMBER_NAMES]

    def test_window_breaks_the_chain(self):
        workflow, _ = _build_relay([(0, 1)], fuse=False)
        windowed = MapActor(
            "agg", lambda vs: sum(vs), window=WindowSpec.tokens(3, 3)
        )
        # Splice the windowed actor between m2 and m3: only the pair
        # upstream of it stays fusable.
        workflow.actors["m2"].output_ports["out"].outgoing.clear()
        workflow.actors["m3"].input_ports["in"].incoming.clear()
        workflow.channels = [
            ch
            for ch in workflow.channels
            if not (
                ch.source.actor.name == "m2"
                and ch.sink.actor.name == "m3"
            )
        ]
        workflow.add(windowed)
        workflow.connect(workflow.actors["m2"], windowed)
        workflow.connect(windowed, workflow.actors["m3"])
        assert _chain_names(workflow) == [("m1", "m2")]

    def test_branch_breaks_the_chain(self):
        workflow, _ = _build_relay([(0, 1)], fuse=False)
        tap = SinkActor("tap")
        workflow.add(tap)
        workflow.connect(workflow.actors["m2"].output_ports["out"], tap)
        # m2 now fans out, so the m2 -> m3 link is no longer exclusive
        # and the chain ends at m2.  A fanning-out *tail* is fine — the
        # fused output port broadcasts exactly like m2's did.
        assert _chain_names(workflow) == [("m1", "m2")]

    def test_single_map_not_a_chain(self):
        workflow = Workflow("one-map")
        source = SourceActor("src", arrivals=[(0, 1)])
        source.add_output("out")
        relay = MapActor("relay", lambda v: v)
        sink = SinkActor("sink")
        workflow.add_all([source, relay, sink])
        workflow.connect(source, relay)
        workflow.connect(relay, sink)
        assert detect_chains(workflow) == []

    def test_fuse_rewrites_topology(self):
        workflow, _ = _build_relay([(0, 1)], fuse=False)
        report = fuse_workflow(workflow)
        assert bool(report)
        assert report.chains == (MEMBER_NAMES,)
        assert report.fused_actors == 3
        # Members are gone; the chain takes the head's name.
        assert set(workflow.actors) == {"src", "m1", "sink"}
        fused = workflow.actors["m1"]
        assert isinstance(fused, FusedChain)
        assert fused.member_names == MEMBER_NAMES
        # Exactly src->chain and chain->sink channels remain.
        assert len(workflow.channels) == 2

    def test_fuse_is_idempotent(self):
        workflow, _ = _build_relay([(0, 1)], fuse=False)
        assert bool(fuse_workflow(workflow))
        again = fuse_workflow(workflow)
        assert not bool(again)
        assert again.chains == ()

    def test_fused_fingerprint_differs_from_unfused(self):
        """Restoring a fused snapshot onto an unfused engine must fail
        loudly: the structure fingerprints differ."""

        def engine(fuse):
            workflow, _ = _build_relay([(0, 1)], fuse=fuse)
            clock = VirtualClock()
            director = SCWFDirector(
                RoundRobinScheduler(10_000), clock, CostModel()
            )
            director.attach(workflow)
            return director

        fused = structure_fingerprint(engine(True))
        unfused = structure_fingerprint(engine(False))
        assert fused != unfused
        assert set(fused["actors"]) == {"src", "m1", "sink"}


# ----------------------------------------------------------------------
# The bit-identity oracle
# ----------------------------------------------------------------------
class TestFusionOracle:
    """Fusion changes dispatch count, never observable results."""

    @given(
        st.lists(
            st.integers(min_value=0, max_value=200_000),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(range(len(SCHEDULERS))),
    )
    @settings(max_examples=25, deadline=None)
    def test_fused_matches_unfused(self, offsets, scheduler_index):
        arrivals = [(ts, i) for i, ts in enumerate(sorted(offsets))]
        canon, stats, _ = _run(
            arrivals, scheduler_index, 1, fuse=False, cls=PerEventSCWFDirector
        )
        for train_size in TRAIN_SIZES:
            fused_canon, fused_stats, _ = _run(
                arrivals, scheduler_index, train_size, fuse=True
            )
            assert fused_canon == canon, f"train_size={train_size}"
            assert fused_stats == stats, f"train_size={train_size}"

    @given(
        st.lists(
            st.integers(min_value=0, max_value=200_000),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(range(len(SCHEDULERS))),
    )
    @settings(max_examples=15, deadline=None)
    def test_fused_train_sizes_fully_bit_identical(
        self, offsets, scheduler_index
    ):
        """Within the fused engine, train size is invisible even to the
        clock: one composed firing per consumed event either way."""
        arrivals = [(ts, i) for i, ts in enumerate(sorted(offsets))]
        reference = _run(
            arrivals, scheduler_index, 1, fuse=True, cls=PerEventSCWFDirector
        )
        for train_size in TRAIN_SIZES:
            assert (
                _run(arrivals, scheduler_index, train_size, fuse=True)
                == reference
            ), f"train_size={train_size}"

    def test_failing_member_discards_charges(self):
        """A mid-chain failure under fail-stop leaves no partial stats."""

        def boom(value):
            if value == 3:
                raise ValueError("boom")
            return value

        workflow = Workflow("fail-chain")
        source = SourceActor("src", arrivals=[(i * 1_000, i) for i in range(5)])
        source.add_output("out")
        m1 = MapActor("m1", lambda v: v)
        m2 = MapActor("m2", boom)
        sink = SinkActor("sink")
        workflow.add_all([source, m1, m2, sink])
        workflow.connect(source, m1)
        workflow.connect(m1, m2)
        workflow.connect(m2, sink)
        assert bool(fuse_workflow(workflow))
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000), clock, CostModel()
        )
        director.attach(workflow)
        with pytest.raises(Exception):
            SimulationRuntime(director, clock).run(10.0, drain=True)
        fused = workflow.actors["m1"]
        # The aborted firing zeroed its pending charges.
        assert fused.take_pending_cost() == 0


# ----------------------------------------------------------------------
# Fused engines checkpoint like any other
# ----------------------------------------------------------------------
class TestFusedCheckpoint:
    def test_mid_run_snapshot_restores_onto_fresh_fused_engine(self):
        arrivals = [(i * 100_000, i) for i in range(20)]

        def engine():
            workflow, sink = _build_relay(arrivals, fuse=True)
            clock = VirtualClock()
            director = SCWFDirector(
                RoundRobinScheduler(10_000),
                clock,
                CostModel(seed=5),
                train_size=64,
            )
            director.attach(workflow)
            return director, clock, sink

        director, clock, sink = engine()
        runtime = SimulationRuntime(director, clock)
        runtime.run(1.0)
        payload = serialize_snapshot(capture_snapshot(director))
        runtime.run(3.0)
        reference = [
            (event.timestamp, repr(event.value)) for _, event in sink.items
        ]

        fresh_director, fresh_clock, fresh_sink = engine()
        fresh_director.initialize_all()
        restore_snapshot(fresh_director, deserialize_snapshot(payload))
        SimulationRuntime(fresh_director, fresh_clock).run(3.0)
        assert [
            (event.timestamp, repr(event.value))
            for _, event in fresh_sink.items
        ] == reference
        assert (
            fresh_director.total_internal_firings
            == director.total_internal_firings
        )


# ----------------------------------------------------------------------
# Harness integration
# ----------------------------------------------------------------------
class TestHarnessFusion:
    def test_pncwf_plus_fuse_rejected(self):
        from dataclasses import replace

        from repro.harness.configs import ExperimentConfig, SchedulerSpec
        from repro.harness.experiment import run_once

        config = ExperimentConfig(
            SchedulerSpec("PNCWF"), fuse=True
        ).scaled_duration(2)
        with pytest.raises(SimulationError):
            run_once(config, seed=1)

    def test_fuse_round_trips_through_manifest_meta(self):
        from repro.harness.configs import ExperimentConfig, SchedulerSpec
        from repro.harness.experiment import checkpoint_meta, config_from_meta

        config = ExperimentConfig(
            SchedulerSpec("RB"), fuse=True
        )
        meta = checkpoint_meta(config, seed=3)
        assert meta["fuse"] is True
        assert meta["scheduler"]["kind"] == "RB"
        rebuilt, seed = config_from_meta(meta)
        assert seed == 3
        assert rebuilt.fuse is True
        assert rebuilt.scheduler.kind == "RB"
        # Pre-fusion manifests restore unfused.
        del meta["fuse"]
        legacy, _ = config_from_meta(meta)
        assert legacy.fuse is False

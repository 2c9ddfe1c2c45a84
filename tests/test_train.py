"""The firing loop: the bit-identity oracle and its satellites.

The tentpole invariant: ``SCWFDirector`` has one internal firing path,
and its loop bound (``train_size``) is invisible to everything except
the wall clock.  For every bound, sink outputs, wave-tag assignment,
window routing, the scheduler's dispatch sequence, ``snapshot()``
counters and the final clock must equal the strictly per-event
reference loop kept in :mod:`tests.per_event_director`.  The Hypothesis
oracle sweeps the bound against random workflow shapes x schedulers; the
Linear Road test pins the same invariant on the full benchmark
byte-for-byte; the plan and fault-barrier classes cover what the loop
resolves once per actor and every path a failing firing can take.
"""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.actors import (
    Actor,
    FunctionActor,
    MapActor,
    SinkActor,
    SourceActor,
)
from repro.core.context import FiringContext
from repro.core.exceptions import DirectorError
from repro.core.waves import WaveGenerator, WaveTag
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.harness.configs import ExperimentConfig, SchedulerSpec
from repro.harness.experiment import run_once
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
from tests.capture_routes import CaptureRoutes
from tests.per_event_director import PerEventSCWFDirector

TRAIN_SIZES = (1, 4, None)

SCHEDULERS = (
    lambda: QuantumPriorityScheduler(500),
    lambda: RoundRobinScheduler(10_000),
    lambda: RateBasedScheduler(),
    lambda: FIFOScheduler(),
)

TOPOLOGIES = (
    "relay",
    "tumbling_window",
    "grouped_window",
    "fanout",
    "expand",
    "source_fanout",
    "self_loop",
    "two_ports",
    "pane_and_plain",
)

#: One lap of ``self_loop``: a value leaves for the sink after three.
_LAP = 1000


def _expand_fn(value):
    """Deterministic mixed selectivity: drop some, fan out others."""
    if value % 5 == 4:
        return None
    if value % 5 == 0:
        return [value, -value]
    return value


def _build_source_fanout(workflow, source):
    """``src.out`` broadcast to five consumers, Linear Road's shape.

    Channel order is deliberately not first-production order: the
    tumbling consumer (first item from the train's third event) is
    connected first, the passthrough one (first item from its first
    event) last.
    """
    consumers = [
        MapActor("tumble", lambda vs: sum(vs), window=WindowSpec.tokens(3, 3)),
        MapActor(
            "slide",
            lambda vs: sum(vs),
            window=WindowSpec.tokens(2, 1, group_by=lambda e: e.value % 3),
        ),
        MapActor(
            "timed",
            lambda vs: len(vs),
            window=WindowSpec.time(
                40_000, group_by=lambda e: e.value % 2, timeout=25_000
            ),
        ),
        MapActor("pane", lambda vs: max(vs), window=WindowSpec.time(25_000)),
        MapActor("pass", lambda v: v),
    ]
    sinks = [SinkActor(f"sink-{actor.name}") for actor in consumers]
    workflow.add_all([source] + consumers + sinks)
    for consumer, sink in zip(consumers, sinks):
        workflow.connect(source, consumer)
        workflow.connect(consumer, sink)
    return workflow, sinks


def _lap(ctx):
    """Feed the value back to the actor's own input until three laps
    are done, then let it leave."""
    value = ctx.read_value("in")
    if value < 3 * _LAP:
        ctx.send("loop", value + _LAP)
    else:
        ctx.send("out", value)


def _alternate(ctx):
    """Even values leave on port ``b``, odd ones on ``a``: consecutive
    items of a train use different routes, the first one ``b`` although
    ``a`` is declared first."""
    value = ctx.read_value("in")
    ctx.send("b" if value % 2 == 0 else "a", value)


def _twice(ctx):
    """Two emissions per firing: the value, then its negation."""
    value = ctx.read_value("in")
    ctx.send("out", value)
    ctx.send("out", -value)


def _build(topology, arrivals):
    """One workflow of the given shape; returns (workflow, sinks)."""
    workflow = Workflow(f"oracle-{topology}")
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")
    if topology == "source_fanout":
        return _build_source_fanout(workflow, source)
    if topology == "self_loop":
        lap = FunctionActor("lap", _lap, outputs=("loop", "out"))
        sink = SinkActor("sink")
        workflow.add_all([source, lap, sink])
        workflow.connect(source, lap)
        workflow.connect(lap, lap, source_port="loop")
        workflow.connect(lap, sink, source_port="out")
        return workflow, [sink]
    if topology == "pane_and_plain":
        # ``marker`` feeds a windowed port, so it does not hold;
        # ``tagger`` feeds a windowless one only, so it holds output
        # of two events per firing.
        marker = FunctionActor("marker", _twice)
        tagger = FunctionActor("tagger", _twice)
        consumers = [
            MapActor(
                "pane", lambda vs: len(vs), window=WindowSpec.time(25_000)
            ),
            MapActor("pass", lambda v: v),
            MapActor("tagged", lambda v: v),
        ]
        sinks = [SinkActor(f"sink-{actor.name}") for actor in consumers]
        workflow.add_all([source, marker, tagger] + consumers + sinks)
        workflow.connect(source, marker)
        workflow.connect(source, tagger)
        for producer, consumer, sink in zip(
            (marker, marker, tagger), consumers, sinks
        ):
            workflow.connect(producer, consumer)
            workflow.connect(consumer, sink)
        return workflow, sinks
    if topology == "two_ports":
        split = FunctionActor("split", _alternate, outputs=("a", "b"))
        sinks = [SinkActor("sink-a"), SinkActor("sink-b")]
        workflow.add_all([source, split] + sinks)
        workflow.connect(source, split)
        workflow.connect(split, sinks[0], source_port="a")
        workflow.connect(split, sinks[1], source_port="b")
        return workflow, sinks
    sinks = [SinkActor("sink")]
    if topology == "relay":
        relay = MapActor("relay", lambda v: v)
    elif topology == "tumbling_window":
        relay = MapActor(
            "relay", lambda vs: sum(vs), window=WindowSpec.tokens(3, 3)
        )
    elif topology == "grouped_window":
        relay = MapActor(
            "relay",
            lambda vs: sum(vs),
            window=WindowSpec.tokens(
                2, 1, group_by=lambda e: e.value % 3
            ),
        )
    elif topology == "fanout":
        relay = MapActor("relay", lambda v: v)
        sinks.append(SinkActor("sink2"))
    else:  # expand
        relay = MapActor("relay", _expand_fn)
    workflow.add_all([source, relay] + sinks)
    workflow.connect(source, relay)
    for sink in sinks:
        workflow.connect(relay.output_ports["out"], sink)
    return workflow, sinks


def _run(
    topology, arrivals, scheduler_index, train_size, cls=SCWFDirector
):
    """Run one configuration to completion; return the full canon."""
    workflow, sinks = _build(topology, arrivals)
    clock = VirtualClock()
    scheduler = SCHEDULERS[scheduler_index]()
    director = cls(scheduler, clock, CostModel(), train_size=train_size)
    director.attach(workflow)
    # The decision log: which actor started firing, and when.  The hook
    # runs once per dispatched item on both paths.
    decisions = []
    fire_start = scheduler.on_actor_fire_start

    def log_fire_start(actor, now):
        decisions.append((actor.name, now))
        fire_start(actor, now)

    scheduler.on_actor_fire_start = log_fire_start
    SimulationRuntime(director, clock).run(10.0, drain=True)
    canon = {
        sink.name: [
            (
                now,
                event.timestamp,
                tuple(event.wave.path),
                repr(event.value),
                event.last_in_wave,
            )
            for now, event in sink.items
        ]
        for sink in sinks
    }
    return (
        canon,
        decisions,
        director.statistics.snapshot(),
        dict(director.statistics.engine_counters),
        clock.now_us,
    )


def _reference(topology, arrivals, scheduler_index):
    return _run(
        topology, arrivals, scheduler_index, 1, cls=PerEventSCWFDirector
    )


class TestTrainOracle:
    """The loop bound is invisible to everything except the wall clock."""

    @given(
        st.lists(
            st.integers(min_value=0, max_value=200_000),
            min_size=1,
            max_size=30,
        ),
        st.sampled_from(range(len(SCHEDULERS))),
        st.sampled_from(TOPOLOGIES),
    )
    @settings(max_examples=25, deadline=None)
    def test_all_train_sizes_bit_identical(
        self, offsets, scheduler_index, topology
    ):
        arrivals = [(ts, i) for i, ts in enumerate(sorted(offsets))]
        reference = _reference(topology, arrivals, scheduler_index)
        for train_size in TRAIN_SIZES:
            assert (
                _run(topology, arrivals, scheduler_index, train_size)
                == reference
            ), f"train_size={train_size} diverged on {topology}"

    @pytest.mark.parametrize("scheduler_index", range(len(SCHEDULERS)))
    def test_drain_all_on_every_scheduler(self, scheduler_index):
        """Directed spot-check: a dense burst under drain-all trains."""
        arrivals = [(i * 97, i) for i in range(60)]
        reference = _reference("expand", arrivals, scheduler_index)
        assert len(reference[1]) > 60  # sources and internals both logged
        assert _run("expand", arrivals, scheduler_index, None) == reference

    @pytest.mark.parametrize(
        "topology", ["self_loop", "two_ports", "pane_and_plain"]
    )
    @pytest.mark.parametrize("scheduler_index", range(len(SCHEDULERS)))
    def test_held_routes_on_every_scheduler(self, scheduler_index, topology):
        """Directed spot-check of the route shapes a held train must get
        right: an actor feeding its own input (holding it would delay its
        own re-admission, so it is not held), two routes used alternately
        (admission across them decides RR tickets), and a producer of
        two events per firing beside one that feeds a window (not held)
        as well as windowless ports."""
        # A dense run, then same-stamp bursts.
        arrivals = [(i * 97, i) for i in range(60)] + [
            (burst * 30_000, 60 + burst * 8 + slot)
            for burst in range(1, 9)
            for slot in range(8)
        ]
        reference = _reference(topology, arrivals, scheduler_index)
        assert all(reference[0].values())
        for train_size in TRAIN_SIZES:
            assert (
                _run(topology, arrivals, scheduler_index, train_size)
                == reference
            ), f"train_size={train_size}"

    @pytest.mark.parametrize("scheduler_index", range(len(SCHEDULERS)))
    def test_source_fanout_on_every_scheduler(self, scheduler_index):
        """A source train crosses each consumer once, admitted in the
        order per-event delivery first reaches them.

        Eight arrivals share each timestamp, so whichever pump reaches a
        burst carries all of it as one train.  Admitting the consumers
        in channel order instead of first-production order must fail
        this under RR: ``tumble`` would draw its rotation ticket ahead
        of ``pass`` and the decision log diverges.
        """
        arrivals = [
            (burst * 30_000, burst * 8 + slot)
            for burst in range(12)
            for slot in range(8)
        ]
        reference = _reference("source_fanout", arrivals, scheduler_index)
        assert all(reference[0].values())  # every consumer produced
        for train_size in TRAIN_SIZES:
            assert (
                _run("source_fanout", arrivals, scheduler_index, train_size)
                == reference
            ), f"train_size={train_size}"


class TestPerEventOracle:
    """The oracle cannot quietly turn into the shipped loop: it asks the
    scheduler once per item fired, once per source pump and once per
    iteration end (the ``None`` that ends it), as Figure 3 does."""

    @staticmethod
    def _tally(cls, scheduler_index):
        workflow, _ = _build("expand", [(i * 97, i) for i in range(60)])
        clock = VirtualClock()
        scheduler = SCHEDULERS[scheduler_index]()
        director = cls(scheduler, clock, CostModel())
        director.attach(workflow)
        tally = {"picks": 0, "ends": 0, "items": 0, "pumps": 0}
        pick = scheduler.get_next_actor
        fire_start = scheduler.on_actor_fire_start

        def counting_pick():
            actor = pick()
            tally["picks"] += 1
            tally["ends"] += actor is None
            return actor

        def counting_start(actor, now):
            tally["pumps" if actor.is_source else "items"] += 1
            fire_start(actor, now)

        scheduler.get_next_actor = counting_pick
        scheduler.on_actor_fire_start = counting_start
        SimulationRuntime(director, clock).run(10.0, drain=True)
        assert tally["ends"] == director.iterations
        return tally

    @pytest.mark.parametrize("scheduler_index", range(len(SCHEDULERS)))
    def test_one_decision_per_item_per_pump_per_iteration_end(
        self, scheduler_index
    ):
        tally = self._tally(PerEventSCWFDirector, scheduler_index)
        assert tally["items"] > 60 and tally["pumps"] > 0
        assert tally["picks"] == (
            tally["items"] + tally["pumps"] + tally["ends"]
        )

    def test_the_count_tells_the_shipped_loop_apart(self):
        """Under RR the shipped loop continues trains without asking."""
        oracle = self._tally(PerEventSCWFDirector, 1)
        shipped = self._tally(SCWFDirector, 1)
        assert shipped["items"] == oracle["items"]
        assert shipped["picks"] < (
            shipped["items"] + shipped["pumps"] + shipped["ends"]
        )


# ----------------------------------------------------------------------
# Linear Road: the seeded run is byte-for-byte train-size independent
# ----------------------------------------------------------------------
def _lr_config(train_size):
    config = ExperimentConfig(
        scheduler=SchedulerSpec("RR", quantum_us=10_000),
        seeds=(7,),
        train_size=train_size,
    )
    return config.scaled_duration(60)


def _lr_artifact(result) -> bytes:
    """Canonical JSON bytes of everything a RunResult observes."""
    return json.dumps(
        {
            "times_s": result.series.times_s,
            "responses_s": result.series.responses_s,
            "tolls": result.tolls,
            "alerts": result.alerts,
            "accidents_recorded": result.accidents_recorded,
            "internal_firings": result.internal_firings,
            "backlog_at_end": result.backlog_at_end,
        },
        sort_keys=True,
    ).encode()


class TestLinearRoadTrainEquality:
    def test_shipped_loop_matches_per_event_artifact(self, monkeypatch):
        from repro.harness import experiment

        shipped = _lr_artifact(run_once(_lr_config(None), 7))
        bounded = _lr_artifact(run_once(_lr_config(4), 7))
        monkeypatch.setattr(experiment, "SCWFDirector", PerEventSCWFDirector)
        reference = _lr_artifact(run_once(_lr_config(1), 7))
        assert shipped == bounded == reference  # byte-for-byte


# ----------------------------------------------------------------------
# The per-actor firing plan: what it may cache, and when it is dropped
# ----------------------------------------------------------------------
class _CountingMap(MapActor):
    """A MapActor that counts which entry point the director used."""

    def __init__(self, name, fn):
        super().__init__(name, fn)
        self.calls = {"fire": 0, "fire_batch": 0, "prefire": 0}

    def fire(self, ctx):
        self.calls["fire"] += 1
        super().fire(ctx)

    def fire_batch(self, ctx):
        self.calls["fire_batch"] += 1
        super().fire_batch(ctx)


class _GatedMap(_CountingMap):
    """Overrides ``prefire``: the lifecycle triple must run in full."""

    def prefire(self, ctx):
        self.calls["prefire"] += 1
        return super().prefire(ctx)


def _relay_engine(workers, arrivals, **director_options):
    workflow = Workflow("plan")
    source = SourceActor("src", arrivals=arrivals)
    source.add_output("out")
    sink = SinkActor("sink")
    chain = [source, *workers, sink]
    workflow.add_all(chain)
    for upstream, downstream in zip(chain, chain[1:]):
        workflow.connect(upstream, downstream)
    clock = VirtualClock()
    director = SCWFDirector(
        RoundRobinScheduler(10_000), clock, CostModel(), **director_options
    )
    director.attach(workflow)
    return workflow, director, clock, sink


class TestFiringPlan:
    #: Two bursts of 20, so a run to 0.05 s settles exactly the first.
    ARRIVALS = [(i * 50 + (100_000 if i >= 20 else 0), i) for i in range(40)]

    def test_fire_batch_only_with_the_trivial_lifecycle(self):
        plain = _CountingMap("plain", lambda v: v + 1)
        gated = _GatedMap("gated", lambda v: v * 2)
        _, director, clock, sink = _relay_engine(
            [plain, gated], self.ARRIVALS
        )
        SimulationRuntime(director, clock).run(1.0, drain=True)
        assert sink.values == [(i + 1) * 2 for i in range(40)]
        assert plain.calls == {"fire": 0, "fire_batch": 40, "prefire": 0}
        assert gated.calls == {"fire": 40, "fire_batch": 0, "prefire": 40}

    @staticmethod
    def _holding(workflow, scheduler_index):
        """Which actors' plans hold after a drained run."""
        clock = VirtualClock()
        director = SCWFDirector(
            SCHEDULERS[scheduler_index](), clock, CostModel()
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(10.0, drain=True)
        return {actor.name: plan[5] for actor, plan in director._plans.items()}

    def test_holding_is_derived_from_topology_and_policy(self):
        """Under RR an actor holds when its routes end in windowless
        ports of distinct consumers other than itself; feeding a window
        or its own input, or being a fused chain, keeps it per item; a
        policy that never continues a train holds nothing."""
        from repro.fusion import fuse_workflow

        arrivals = [(i * 97, i) for i in range(20)] + [
            (burst * 30_000, 20 + burst) for burst in range(1, 4)
        ]
        def pane_and_plain():
            return _build("pane_and_plain", arrivals)[0]

        assert self._holding(pane_and_plain(), 1) == {
            "marker": False,  # feeds the windowed ``pane``
            "tagger": True,
            "pane": True,
            "pass": True,
            "tagged": True,
            "sink-pane": True,
            "sink-pass": True,
            "sink-tagged": True,
        }
        looped = _build("self_loop", arrivals)[0]
        assert self._holding(looped, 1) == {"lap": False, "sink": True}
        fused = Workflow("fused")
        source = SourceActor("src", arrivals=arrivals)
        source.add_output("out")
        maps = [MapActor(f"m{hop}", lambda v: v + 1) for hop in range(3)]
        sink = SinkActor("sink")
        fused.add_all([source, *maps, sink])
        for upstream, downstream in zip([source, *maps], [*maps, sink]):
            fused.connect(upstream, downstream)
        assert fuse_workflow(fused).fused_actors == 3
        holding = self._holding(fused, 1)
        assert holding.pop("sink") and list(holding.values()) == [False]
        for policy in (0, 2, 3):  # QBS, RB, FIFO
            assert not any(
                self._holding(pane_and_plain(), policy).values()
            )

    def test_instance_level_fire_is_never_bypassed(self):
        """A fault injector shadows ``fire`` on the instance — mid-run."""
        from repro.resilience import FaultPolicy, install_faults

        worker = _CountingMap("worker", lambda v: v)
        workflow, director, clock, sink = _relay_engine(
            [worker], self.ARRIVALS, error_policy=FaultPolicy()
        )
        SimulationRuntime(director, clock).run(0.05)
        assert worker.calls["fire_batch"] == len(sink.values) == 20
        (injector,) = install_faults(workflow, "worker:every=2")
        SimulationRuntime(director, clock).run(1.0, drain=True)
        assert injector.firings == 20 and injector.injected == 10
        assert len(sink.values) == 30 and len(director.dead_letters) == 10

    def test_refusing_and_reattaching_rebuilds_the_plan(self):
        from repro.fusion import FusedChain, fuse_workflow

        m1 = MapActor("m1", lambda v: v + 1)
        m2 = MapActor("m2", lambda v: v * 2)
        workflow, director, clock, sink = _relay_engine(
            [m1, m2], self.ARRIVALS
        )
        SimulationRuntime(director, clock).run(0.05)
        assert director.backlog() == 0 and len(sink.values) == 20
        assert m1 in director._plans and m2 in director._plans
        # Rewrite the graph under the initialized director: the chain
        # takes the head's *name*, so a name-keyed or surviving plan
        # would keep firing the spliced-out ``m1``.
        assert fuse_workflow(workflow).chains == (("m1", "m2"),)
        fused = workflow.actors["m1"]
        assert isinstance(fused, FusedChain)
        director.attach(workflow)
        director.initialize_all()
        assert director._plans == {}
        SimulationRuntime(director, clock).run(1.0, drain=True)
        assert set(director._plans) == {fused, sink}
        assert director._plans[fused][2] is not None  # settles as a chain
        assert sink.values == [(i + 1) * 2 for i in range(40)]
        stats = director.statistics.snapshot()
        assert stats["m1"]["invocations"] == stats["m2"]["invocations"] == 40


# ----------------------------------------------------------------------
# Delivery routes: they follow the topology
# ----------------------------------------------------------------------
def _sink_canon(sink):
    return [
        (now, e.timestamp, tuple(e.wave.path), e.value, e.last_in_wave)
        for now, e in sink.items
    ]


class TestDeliveryRoutes:
    #: Two bursts of 20, so a run to 0.05 s settles exactly the first.
    ARRIVALS = TestFiringPlan.ARRIVALS

    def _tapped(self, cls):
        """src -> relay -> sink; ``tap`` joins relay's port mid-run."""
        workflow = Workflow("tapped")
        source = SourceActor("src", arrivals=self.ARRIVALS)
        source.add_output("out")
        relay = MapActor("relay", _expand_fn)
        sink, tap = SinkActor("sink"), SinkActor("tap")
        idle = SourceActor("idle", arrivals=[])  # keeps ``tap`` attached
        idle.add_output("out")
        workflow.add_all([source, idle, relay, sink, tap])
        workflow.connect(source, relay)
        workflow.connect(relay, sink)
        workflow.connect(idle, tap)
        clock = VirtualClock()
        director = cls(RoundRobinScheduler(10_000), clock, CostModel())
        director.attach(workflow)
        runtime = SimulationRuntime(director, clock)
        runtime.run(0.05)
        assert director.backlog() == 0 and sink.items and not tap.items
        settled = len(sink.items)
        workflow.connect(relay, tap)  # the port has already fired
        runtime.run(1.0, drain=True)
        assert _sink_canon(tap) and [v for v in tap.values] == (
            sink.values[settled:]
        )
        return (
            _sink_canon(sink),
            _sink_canon(tap),
            director.statistics.snapshot(),
            clock.now_us,
        )

    def test_channel_connected_mid_run_is_followed(self):
        assert self._tapped(SCWFDirector) == self._tapped(
            PerEventSCWFDirector
        )

    def _looped_mid_run(self, cls):
        """``lap.loop`` leads nowhere until it is connected back into
        ``lap`` mid-run: a train that held before must not hold after."""
        workflow = Workflow("looped")
        source = SourceActor("src", arrivals=self.ARRIVALS)
        source.add_output("out")
        lap = FunctionActor("lap", _lap, outputs=("loop", "out"))
        sink = SinkActor("sink")
        workflow.add_all([source, lap, sink])
        workflow.connect(source, lap)
        workflow.connect(lap, sink, source_port="out")
        clock = VirtualClock()
        director = cls(RoundRobinScheduler(10_000), clock, CostModel())
        director.attach(workflow)
        runtime = SimulationRuntime(director, clock)
        runtime.run(0.05)
        assert director.backlog() == 0 and not sink.items
        workflow.connect(lap, lap, source_port="loop")
        runtime.run(1.0, drain=True)
        assert [v - 3 * _LAP for v in sink.values] == list(range(20, 40))
        return _sink_canon(sink), director.statistics.snapshot(), clock.now_us

    def test_a_loop_connected_mid_run_stops_holding(self):
        assert self._looped_mid_run(SCWFDirector) == self._looped_mid_run(
            PerEventSCWFDirector
        )

    def test_refusing_and_reattaching_rebuilds_the_routes(self):
        from repro.fusion import fuse_workflow

        m1 = MapActor("m1", lambda v: v + 1)
        m2 = MapActor("m2", lambda v: v * 2)
        workflow, director, clock, sink = _relay_engine(
            [m1, m2], self.ARRIVALS
        )
        source = workflow.actors["src"]
        SimulationRuntime(director, clock).run(0.05)
        assert len(sink.values) == 20
        assert director._routes[source] and director._routes[m1]
        assert fuse_workflow(workflow).chains == (("m1", "m2"),)
        fused = workflow.actors["m1"]
        director.attach(workflow)
        director.initialize_all()
        # Derived state: every table starts over, empty, on the new graph.
        assert set(director._routes) == {source, fused, sink}
        assert not any(director._routes.values())

        def unreachable(*_):
            raise AssertionError("delivery to a spliced-out actor")

        for stale in (m1.input("in").receiver, m2.input("in").receiver):
            stale.put = stale.put_batch = unreachable
        SimulationRuntime(director, clock).run(1.0, drain=True)
        route = director._routes[source]["out"]
        assert [c.sink.actor for c in route._outgoing] == [fused]
        assert sink.values == [(i + 1) * 2 for i in range(40)]

    def _doubled(self, cls):
        """``relay.out`` feeds *both* input ports of one consumer."""
        workflow = Workflow("doubled")
        source = SourceActor(
            "src", arrivals=[(i * 30, i) for i in range(25)]
        )
        source.add_output("out")
        relay = MapActor("relay", _expand_fn)  # lists travel as trains
        seen = []

        def join(ctx):
            for port in ("a", "b"):
                item = ctx.read(port)
                if item is not None:
                    seen.append((port, item.value, tuple(item.wave.path)))
                    ctx.send("out", item.value)

        joiner = FunctionActor("join", join, inputs=("a", "b"))
        sink = SinkActor("sink")
        workflow.add_all([source, relay, joiner, sink])
        workflow.connect(source, relay)
        workflow.connect(relay, joiner, sink_port="a")
        workflow.connect(relay, joiner, sink_port="b")
        workflow.connect(joiner, sink)
        clock = VirtualClock()
        scheduler = RoundRobinScheduler(10_000)
        director = cls(scheduler, clock, CostModel())
        director.attach(workflow)
        # Every admission into ``join``: its port, the ready queue's
        # newest tie-break serial and the actor's RR rotation ticket.
        admissions = []
        stock_admit = scheduler.admit

        def admit(actor, queue, port_name, item):
            stock_admit(actor, queue, port_name, item)
            if actor is joiner:
                serial = max(r.sort_key[1] for r in queue.snapshot_items())
                admissions.append(
                    (port_name, serial, scheduler._order["join"])
                )

        scheduler.admit = admit
        SimulationRuntime(director, clock).run(1.0, drain=True)
        base = admissions[0][1]  # the serial counter is process-global
        return (
            seen,
            [(port, serial - base, tick) for port, serial, tick in admissions],
            _sink_canon(sink),
            director.statistics.snapshot(),
            clock.now_us,
        )

    def test_two_channels_into_one_consumer_interleave_per_event(self):
        shipped = self._doubled(SCWFDirector)
        seen = shipped[0]
        # Event by event across the two channels, never channel by channel.
        assert [port for port, _, _ in seen[:4]] == ["a", "b", "a", "b"]
        assert shipped == self._doubled(PerEventSCWFDirector)

    def test_tracer_entered_mid_run_takes_the_same_route(self):
        from repro.observability import RecordingTracer, use_tracer

        bursts = self.ARRIVALS + [(200_000 + i * 50, i) for i in range(5)]
        worker = MapActor("worker", lambda v: v)
        _, director, clock, sink = _relay_engine([worker], bursts)
        runtime = SimulationRuntime(director, clock)
        runtime.run(0.05)
        with use_tracer(RecordingTracer()) as tracer:
            runtime.run(0.15)
            emits = [
                record for record in tracer.records()
                if record.name in ("actor.emit", "actor.emit_train")
            ]
        # The very next emission (the second burst's first pump) and every
        # one after it, per hop: 20 from the source, 20 from the worker.
        assert emits[0].actor == "src"
        assert emits[0].ts == self.ARRIVALS[20][0]
        counted = {"src": 0, "worker": 0}
        for record in emits:
            counted[record.actor] += (record.args or {}).get("count", 1)
        assert counted == {"src": 20, "worker": 20}
        recorded = tracer.emitted
        runtime.run(1.0, drain=True)  # third burst, tracer gone
        assert tracer.emitted == recorded and len(sink.values) == 45

    def _flaky(self, cls):
        """A firing that fails before reading, and one mid-emission."""
        from repro.resilience import FaultPolicy

        log = []

        class Flaky(Actor):
            def __init__(self):
                super().__init__("flaky")
                self.add_input("in")
                self.add_output("out")
                self.attempts = {}

            def fire(self, ctx):
                staged = ctx.staged_count("in")
                peek = ctx._staged["in"][0].value
                attempt = self.attempts[peek] = self.attempts.get(peek, 0) + 1
                if peek == 3 and attempt == 1:
                    raise ValueError("before reading: the item stays staged")
                item = ctx.read("in")
                log.append((item.value, attempt, staged, ctx.read("in")))
                ctx.send("out", item.value)
                if item.value == 5 and attempt == 1:
                    ctx.send("out", -1)
                    raise ValueError("mid-emission")

        workflow = Workflow("flaky")
        source = SourceActor("src", arrivals=[(i * 40, i) for i in range(8)])
        source.add_output("out")
        flaky, sink = Flaky(), SinkActor("sink")
        workflow.add_all([source, flaky, sink])
        workflow.connect(source, flaky)
        workflow.connect(flaky, sink)
        clock = VirtualClock()
        director = cls(
            RoundRobinScheduler(10_000),
            clock,
            CostModel(),
            error_policy=FaultPolicy(max_retries=1, backoff_base_us=100),
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(1.0, drain=True)
        return log, _sink_canon(sink), director.statistics.snapshot(), clock.now_us

    def test_failed_attempt_leaves_nothing_in_the_recycled_context(self):
        log, sink, _, _ = shipped = self._flaky(SCWFDirector)
        # Every completed read saw exactly its own item: one staged, and
        # nothing left of a failed attempt behind it.
        assert [(value, staged, extra) for value, _, staged, extra in log] == [
            (v, 1, None) for v in (0, 1, 2, 3, 4, 5, 5, 6, 7)
        ]
        assert [attempt for value, attempt, _, _ in log if value in (3, 5)] == [
            2, 1, 2
        ]
        # The attempt that raised mid-emission delivered nothing.
        assert [value for _, _, _, value, _ in sink] == list(range(8))
        assert shipped == self._flaky(PerEventSCWFDirector)

    def test_last_recording_call_an_output_matches_the_oracle(self):
        arrivals = [(i * 70, i) for i in range(30)]
        records = {}
        for cls in (SCWFDirector, PerEventSCWFDirector):
            workflow, _ = _build("relay", arrivals)
            clock = VirtualClock()
            director = cls(RoundRobinScheduler(10_000), clock, CostModel())
            director.attach(workflow)
            SimulationRuntime(director, clock).run(10.0, drain=True)
            statistics = director.statistics
            snapshot = statistics.snapshot()
            records[cls] = (
                statistics._last_now_us,
                {name: row["output_rate_per_s"] for name, row in snapshot.items()},
                {name: row["input_rate_per_s"] for name, row in snapshot.items()},
            )
            # The sink's last firing records only an invocation, so the
            # newest rate sample anywhere is the relay's last output —
            # stamped with the event's time, older than its admission.
            newest_output = statistics._stats["relay"]._output_at[-1]
            newest_input = statistics._stats["sink"]._input_at[-1]
            assert newest_output < newest_input == statistics._last_now_us
        assert records[SCWFDirector] == records[PerEventSCWFDirector]
        assert records[SCWFDirector][1]["relay"] > 0


# ----------------------------------------------------------------------
# Fan-out trains: when they stage, what that saves, when they must not
# ----------------------------------------------------------------------
#: Bursts of eight same-stamp arrivals: a pump carries a whole burst.
_BURSTS = [
    (burst * 30_000, burst * 8 + slot)
    for burst in range(12)
    for slot in range(8)
]


def _expired_handler(workflow, director):
    handler = SinkActor("handler")
    workflow.add(handler)
    workflow.connect_expired(workflow.actors["slide"], handler)


def _second_channel(workflow, director):
    """``src.out`` reaches ``join`` over two channels."""

    def join(ctx):
        for port in ("a", "b"):
            item = ctx.read(port)
            if item is not None:
                ctx.send("out", (port, item.value))

    joiner = FunctionActor("join", join, inputs=("a", "b"))
    sink = SinkActor("sink-join")
    workflow.add_all([joiner, sink])
    workflow.connect(workflow.actors["src"], joiner, sink_port="a")
    workflow.connect(workflow.actors["src"], joiner, sink_port="b")
    workflow.connect(joiner, sink)


def _frontier(mode):
    def enable(workflow, director):
        from repro.frontier import FrontierTracker

        director.enable_frontier(FrontierTracker(mode))

    return enable


def _shedder(workflow, director):
    from repro.overload import BacklogShedder

    director.scheduler.shedder = BacklogShedder(max_total_backlog=12)


#: name -> set-up before ``attach``
_INTERLEAVE_CONDITIONS = {
    "two-channels-one-consumer": _second_channel,
    "expired-to-handler": _expired_handler,
    "frontier-track": _frontier("track"),
    "frontier-close": _frontier("close"),
    "shedder-installed": _shedder,
}


def _run_fanout(cls, arrivals, setup=None, trace_late=False):
    """The source fan-out under one condition; canon + staged admissions.

    Two phases (to 0.1 s, then drained); the second under a
    ``RecordingTracer`` when *trace_late*.  Staged admissions are
    counted per phase.
    """
    from contextlib import nullcontext

    from repro.observability import RecordingTracer, use_tracer
    from repro.stafilos.tm_receiver import TMWindowedReceiver

    workflow, _ = _build("source_fanout", arrivals)
    clock = VirtualClock()
    director = cls(RoundRobinScheduler(10_000), clock, CostModel())
    if setup is not None:
        setup(workflow, director)
    director.attach(workflow)
    staged = [0, 0]
    phase = 0
    stock = TMWindowedReceiver.admit_staged

    def counting(receiver, items):
        staged[phase] += 1
        stock(receiver, items)

    TMWindowedReceiver.admit_staged = counting
    try:
        runtime = SimulationRuntime(director, clock)
        runtime.run(0.1)
        phase = 1
        with use_tracer(RecordingTracer()) if trace_late else nullcontext():
            runtime.run(10.0, drain=True)
    finally:
        TMWindowedReceiver.admit_staged = stock
    sinks = [
        actor for actor in workflow.actors.values()
        if isinstance(actor, SinkActor)
    ]
    assert all(sink.items for sink in sinks if sink.name != "handler")
    canon = (
        {sink.name: _sink_canon(sink) for sink in sinks},
        director.statistics.snapshot(),
        dict(director.statistics.engine_counters),
        getattr(director.scheduler.shedder, "dropped", 0),
        clock.now_us,
    )
    return canon, staged


class TestFanoutTrains:
    def test_a_plain_fan_out_stages_every_train(self):
        canon, staged = _run_fanout(SCWFDirector, _BURSTS)
        assert staged[0] > 0 and staged[1] > 0
        reference, unstaged = _run_fanout(PerEventSCWFDirector, _BURSTS)
        assert canon == reference and unstaged == [0, 0]

    @pytest.mark.parametrize("condition", sorted(_INTERLEAVE_CONDITIONS))
    def test_an_observable_interleave_keeps_per_event_delivery(
        self, condition
    ):
        """Each fallback condition: nothing is staged, oracle equality."""
        setup = _INTERLEAVE_CONDITIONS[condition]
        canon, staged = _run_fanout(SCWFDirector, _BURSTS, setup)
        assert staged == [0, 0]
        reference, _ = _run_fanout(PerEventSCWFDirector, _BURSTS, setup)
        assert canon == reference

    def test_a_tracer_changes_no_delivery(self):
        """A tracer is not a fallback condition: a fan-out traced from
        the start, or entered mid-run, stages its trains in both phases
        exactly as the untraced run does, and equals the per-event
        oracle."""
        from repro.observability import RecordingTracer, use_tracer

        untraced = _run_fanout(SCWFDirector, _BURSTS)
        canon, staged = untraced
        assert staged[0] > 0 and staged[1] > 0
        assert _run_fanout(SCWFDirector, _BURSTS, trace_late=True) == untraced
        with use_tracer(RecordingTracer()) as tracer:
            assert _run_fanout(SCWFDirector, _BURSTS) == untraced
        assert len(tracer) > 0
        reference, _ = _run_fanout(
            PerEventSCWFDirector, _BURSTS, trace_late=True
        )
        assert reference == canon

    def test_one_pump_admits_each_consumer_at_most_once(self):
        """N events into a 5-way fan-out: the director's intake is entered
        once per consumer, not once per produced window."""
        count = 600
        workflow, _ = _build(
            "source_fanout", [(i * 100, i) for i in range(count)]
        )
        clock = VirtualClock()
        clock.jump_to(count * 100)  # every arrival is due: one pump
        director = SCWFDirector(RoundRobinScheduler(10_000), clock, CostModel())
        director.attach(workflow)
        director.initialize_all()
        entries, admitted = {}, {}
        depth = [0]

        def counted(intake):
            def enter(actor, port_name, payload):
                if depth[0] == 0:  # a one-item batch re-enters as a single
                    entries[actor.name] = entries.get(actor.name, 0) + 1
                    admitted[actor.name] = admitted.get(actor.name, 0) + (
                        len(payload) if isinstance(payload, list) else 1
                    )
                depth[0] += 1
                try:
                    intake(actor, port_name, payload)
                finally:
                    depth[0] -= 1

            return enter

        director.schedule_ready = counted(director.schedule_ready)
        director.schedule_ready_batch = counted(director.schedule_ready_batch)
        assert director._fire_source(workflow.actors["src"]) == count
        consumers = ("tumble", "slide", "timed", "pane", "pass")
        assert entries == {name: 1 for name in consumers}
        assert all(admitted[name] > 1 for name in consumers)
        assert admitted["tumble"] == count // 3 and admitted["pass"] == count
        assert sum(admitted.values()) == director.total_events_admitted


# ----------------------------------------------------------------------
# Fault barrier: every path a failing firing can take, through the loop
# ----------------------------------------------------------------------
def _run_faulty(cls, train_size, fuse=False, frontier=False):
    """src -> a -> b -> sink where ``b`` fails three different ways.

    ``v % 5 == 1`` fails on its first attempt only (retry with backoff
    recovers it); 7 and 8 always fail (retries exhaust -> dead letter),
    and being consecutive they spend the error budget, so 9.. are
    quarantine-dropped without executing.
    """
    from repro.frontier import FrontierTracker
    from repro.fusion import fuse_workflow
    from repro.resilience import FaultPolicy

    attempts = {}

    def flaky(value):
        attempts[value] = attempts.get(value, 0) + 1
        if value in (7, 8) or (value % 5 == 1 and attempts[value] == 1):
            raise ValueError(f"boom {value}")
        return value

    workflow = Workflow("faulty")
    source = SourceActor("src", arrivals=[(i * 40, i) for i in range(14)])
    source.add_output("out")
    a = MapActor("a", lambda v: v)
    b = MapActor("b", flaky)
    sink = SinkActor("sink")
    workflow.add_all([source, a, b, sink])
    workflow.connect(source, a)
    workflow.connect(a, b)
    workflow.connect(b, sink)
    if fuse:
        fuse_workflow(workflow)
    clock = VirtualClock()
    director = cls(
        RoundRobinScheduler(10_000),
        clock,
        CostModel(),
        error_policy=FaultPolicy(
            max_retries=1, backoff_base_us=300, error_budget=2
        ),
        train_size=train_size,
    )
    tracker = None
    if frontier:
        tracker = FrontierTracker()
        director.enable_frontier(tracker)
    director.attach(workflow)
    SimulationRuntime(director, clock).run(1.0, drain=True)
    failing = "a" if fuse else "b"  # the chain carries its head's name
    health = director.supervisor.health(failing)
    assert sink.values == [0, 1, 2, 3, 4, 5, 6]
    assert health.retries == 4 and health.quarantined  # 1, 6, 7, 8
    assert director.actor_errors == {failing: 2 + 5}  # dead + dropped
    if tracker is not None:
        assert tracker.outstanding_tokens() == 0  # every item retired
    return (
        [
            (now, e.timestamp, tuple(e.wave.path), e.value, e.last_in_wave)
            for now, e in sink.items
        ],
        [letter.describe() for letter in director.dead_letters],
        director.statistics.snapshot(),
        dict(director.statistics.engine_counters),
        clock.now_us,
    )


class TestFaultBarrierThroughTheLoop:
    """Retry/backoff, dead-letter, quarantine drop, fused discard and
    frontier retirement all settle exactly as the per-event loop did."""

    @pytest.mark.parametrize(
        "fuse, frontier",
        [(False, False), (True, False), (False, True), (True, True)],
    )
    def test_matches_per_event_reference(self, fuse, frontier):
        reference = _run_faulty(PerEventSCWFDirector, 1, fuse, frontier)
        assert len(reference[1]) == 7  # 2 exhausted + 5 quarantined
        for train_size in (None, 4):
            assert (
                _run_faulty(SCWFDirector, train_size, fuse, frontier)
                == reference
            ), f"train_size={train_size}"

    def _fail_stop(self, cls):
        """A burst into ``worker``, whose third item raises (fail-stop)."""
        workflow = Workflow("stop-mid-train")
        source = SourceActor("src", arrivals=[(0, i) for i in range(6)])
        source.add_output("out")
        worker = MapActor("worker", lambda v: v if v != 2 else 1 // 0)
        relay = MapActor("relay", lambda v: v)
        sink = SinkActor("sink")
        workflow.add_all([source, worker, relay, sink])
        workflow.connect(source, worker)
        workflow.connect(worker, relay)
        workflow.connect(relay, sink)
        clock = VirtualClock()
        scheduler = RoundRobinScheduler(10_000)
        director = cls(scheduler, clock, CostModel())
        director.attach(workflow)
        with pytest.raises(ZeroDivisionError):
            SimulationRuntime(director, clock).run(1.0, drain=True)
        return (
            [
                (ready.port_name, ready.item.value, ready.item.timestamp,
                 tuple(ready.item.wave.path), ready.item.last_in_wave)
                for ready in scheduler.ready["relay"].snapshot_items()
            ],
            dict(scheduler.quantum),
            dict(scheduler._order),
            scheduler.internal_firings,
            director.total_events_admitted,
            director.statistics.snapshot(),
            clock.now_us,
        )

    def test_fail_stop_mid_train_delivers_the_items_before_it(self):
        """The worker's train held items 1-2 when item 3 raised: they
        reach the relay's ready queue before the exception leaves."""
        shipped = self._fail_stop(SCWFDirector)
        assert [value for _, value, *_ in shipped[0]] == [0, 1]
        assert shipped == self._fail_stop(PerEventSCWFDirector)

    def _missing_group_key(self, cls):
        """``worker``'s fourth output lacks the field its consumer's
        window groups by: the insert raises inside the producing item's
        firing, and the dead-letter policy consumes that item."""
        from repro.resilience import FaultPolicy

        workflow = Workflow("missing-key")
        source = SourceActor("src", arrivals=[(0, i) for i in range(8)])
        source.add_output("out")
        worker = MapActor(
            "worker",
            lambda v: {"x": v} if v == 3 else {"k": v % 2},
        )
        pane = MapActor(
            "pane",
            lambda vs: len(vs),
            window=WindowSpec.tokens(2, 2, group_by="k"),
        )
        sink = SinkActor("sink")
        workflow.add_all([source, worker, pane, sink])
        workflow.connect(source, worker)
        workflow.connect(worker, pane)
        workflow.connect(pane, sink)
        clock = VirtualClock()
        scheduler = RoundRobinScheduler(10_000)
        director = cls(
            scheduler, clock, CostModel(), error_policy=FaultPolicy()
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(1.0, drain=True)
        return (
            _sink_canon(sink),
            [letter.describe() for letter in director.dead_letters],
            dict(scheduler.quantum),
            scheduler.internal_firings,
            director.statistics.snapshot(),
            clock.now_us,
        )

    def test_a_consumer_insert_that_raises_fails_the_producing_item(self):
        """Delivery into a windowed port can raise; per event the raise
        is the producing item's failure, so such a route is not held
        and the error reaches the fault barrier, not the caller."""
        shipped = self._missing_group_key(SCWFDirector)
        assert len(shipped[1]) == 1 and "KeyError" in shipped[1][0]
        assert shipped == self._missing_group_key(PerEventSCWFDirector)

    def _fused_burst(self, cls):
        """One fused chain drains a burst in one train; items 2 and 4
        fail: 2 once (retried), 4 always (dead-lettered)."""
        from repro.fusion import fuse_workflow
        from repro.resilience import FaultPolicy

        attempts = {}

        def flaky(value):
            attempts[value] = attempts.get(value, 0) + 1
            if value == 4 or (value == 2 and attempts[value] == 1):
                raise ValueError(f"boom {value}")
            return [value, -value] if value % 3 == 0 else value

        workflow = Workflow("fused-burst")
        source = SourceActor("src", arrivals=[(0, i) for i in range(8)])
        source.add_output("out")
        head = MapActor("head", lambda v: v + 0)
        tail = MapActor("tail", flaky)
        sink = SinkActor("sink")
        workflow.add_all([source, head, tail, sink])
        workflow.connect(source, head)
        workflow.connect(head, tail)
        workflow.connect(tail, sink)
        assert fuse_workflow(workflow).chains == (("head", "tail"),)
        clock = VirtualClock()
        director = cls(
            RoundRobinScheduler(10_000),
            clock,
            CostModel(),
            error_policy=FaultPolicy(max_retries=1, backoff_base_us=300),
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(1.0, drain=True)
        return (
            _sink_canon(sink),
            [letter.describe() for letter in director.dead_letters],
            director.statistics.snapshot(),
            clock.now_us,
        )

    def test_fused_failure_discards_only_its_own_item(self):
        """A failing item inside a fused chain's train discards its own
        partial charges, never those of the items before it."""
        shipped = self._fused_burst(SCWFDirector)
        assert [value for *_, value, _ in shipped[0]] == [
            0, 0, 1, 2, 3, -3, 5, 6, -6, 7
        ]
        assert len(shipped[1]) == 1
        assert shipped[2]["tail"]["invocations"] == 7
        assert shipped == self._fused_burst(PerEventSCWFDirector)

    def test_fail_stop_propagates_out_of_the_loop(self):
        workflow = Workflow("stop")
        source = SourceActor("src", arrivals=[(0, 1)])
        source.add_output("out")
        worker = MapActor("worker", lambda v: 1 // 0)
        sink = SinkActor("sink")
        workflow.add_all([source, worker, sink])
        workflow.connect(source, worker)
        workflow.connect(worker, sink)
        clock = VirtualClock()
        director = SCWFDirector(FIFOScheduler(), clock, CostModel())
        director.attach(workflow)
        with pytest.raises(ZeroDivisionError):
            SimulationRuntime(director, clock).run(1.0, drain=True)

    def test_livelock_guard_cuts_a_drain_all_train(self):
        """One guard for the whole iteration, trains included."""
        workflow = Workflow("livelock")
        source = SourceActor("src", arrivals=[(0, i) for i in range(50)])
        source.add_output("out")
        sink = SinkActor("sink")
        workflow.add_all([source, sink])
        workflow.connect(source, sink)
        clock = VirtualClock()
        director = SCWFDirector(
            FIFOScheduler(), clock, CostModel(), max_firings_per_iteration=10
        )
        director.attach(workflow)
        with pytest.raises(DirectorError, match="exceeded 10 firings"):
            SimulationRuntime(director, clock).run(1.0, drain=True)
        assert len(sink.items) == 10  # source + 10 sink items = 11 > 10

    def test_non_policy_argument_rejected(self):
        for bad in ("raise", "drop", 3):
            with pytest.raises(DirectorError):
                SCWFDirector(
                    FIFOScheduler(),
                    VirtualClock(),
                    CostModel(),
                    error_policy=bad,
                )


# ----------------------------------------------------------------------
# Satellites: pump x batch_limit, arrival-cache amortization
# ----------------------------------------------------------------------
class TestPumpTrainInteraction:
    def _pump(self, batch_limit, chunk, due):
        source = SourceActor(
            "src",
            arrivals=[(0, i) for i in range(due)],
            batch_limit=batch_limit,
        )
        source.add_output("out")
        routes = CaptureRoutes(source)
        ctx = FiringContext(source, 0, routes, wave_generator=WaveGenerator())
        ctx.enable_batch_emission(chunk)
        emitted = source.pump(ctx)
        ctx.close()
        return emitted, routes.events(), [train for _, train in routes.trains]

    def test_pump_bounded_by_batch_limit(self):
        """batch_limit < train_size: the source limit wins."""
        emitted, singles, batches = self._pump(
            batch_limit=3, chunk=8, due=10
        )
        assert emitted == 3
        assert not singles  # a 3-run flushes as one train, not 3 calls
        assert [len(train) for train in batches] == [3]

    def test_flush_bounded_by_train_size(self):
        """train_size < emitted: flushes chunk at the train quantum."""
        emitted, singles, batches = self._pump(
            batch_limit=None, chunk=4, due=10
        )
        assert emitted == 10
        assert not singles
        assert [len(train) for train in batches] == [4, 4, 2]

    def test_per_event_chunk_never_batches(self):
        """chunk=1 keeps the historical one-call-per-event delivery."""
        emitted, singles, batches = self._pump(
            batch_limit=None, chunk=1, due=5
        )
        assert emitted == 5
        assert len(singles) == 5 and not batches


# ----------------------------------------------------------------------
# Satellite: WaveTag slots / root interning / __reduce__ round-trip
# ----------------------------------------------------------------------
class TestWaveTagSlotted:
    def test_no_instance_dict(self):
        assert not hasattr(WaveTag.root(1), "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            object.__setattr__(WaveTag.root(1), "extra", 1)

    def test_root_tags_interned(self):
        assert WaveTag.root(123) is WaveTag.root(123)
        child = WaveTag.root(9).child(2)
        assert child.root_tag is WaveTag.root(9)

    def test_reduce_round_trip(self):
        child = WaveTag.root(4).child(1).child(3)
        revived = pickle.loads(pickle.dumps(child))
        assert revived == child and revived.path == (4, 1, 3)
        # Root tags revive straight into the interned instance.
        assert pickle.loads(pickle.dumps(WaveTag.root(6))) is WaveTag.root(6)

    def test_ordering_survives_round_trip(self):
        tags = [WaveTag.root(2), WaveTag.root(1).child(1), WaveTag.root(1)]
        revived = pickle.loads(pickle.dumps(tags))
        assert sorted(revived) == sorted(tags) == [
            WaveTag.root(1),
            WaveTag.root(1).child(1),
            WaveTag.root(2),
        ]

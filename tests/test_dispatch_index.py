"""The dispatch index: unit behaviour + the bit-identical dispatch oracle.

The tentpole claim of the incremental dispatch index is that it changes
*nothing* observable: ``get_next_actor()`` must return the exact actor
the historical O(A) scan would have returned, tie-breaking included, for
every policy.  ``TestDispatchOracle`` enforces that against the naive
reference implementations kept in :mod:`tests.naive_schedulers` across
randomly generated workflows, arrival patterns, priorities and policies.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkpoint import (
    capture_snapshot,
    deserialize_snapshot,
    restore_snapshot,
    serialize_snapshot,
)
from repro.core.actors import (
    FunctionActor,
    MapActor,
    SinkActor,
    SourceActor,
)
from repro.core.windows import WindowSpec
from repro.core.workflow import Workflow
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.stafilos.dispatch_index import INF_TIME, LazyHeapIndex
from repro.stafilos.schedulers.qbs import QuantumPriorityScheduler
from repro.stafilos.scwf_director import SCWFDirector

from tests.naive_schedulers import POLICY_PAIRS


# ---------------------------------------------------------------------------
# Index structures in isolation
# ---------------------------------------------------------------------------
class TestLazyHeapIndex:
    def test_peek_returns_min_key_then_order(self):
        index = LazyHeapIndex()
        index.update("b", (5, 0), 1)
        index.update("a", (5, 0), 0)
        index.update("c", (1, 0), 2)
        assert index.peek() == "c"
        index.update("c", None, 0)
        assert index.peek() == "a"  # equal keys -> lower actor order

    def test_invalidate_then_reinsert_uses_new_key(self):
        index = LazyHeapIndex()
        index.update("a", (10,), 0)
        index.update("b", (20,), 1)
        index.update("a", None, 0)
        index.update("a", (30,), 0)
        assert index.peek() == "b"

    def test_stale_entries_compact_away(self):
        index = LazyHeapIndex()
        # Churn one name far past the compaction threshold while a second
        # name stays live; the heap must not grow without bound.
        index.update("keep", (0,), 0)
        for i in range(1, 400):
            index.update("churn", None, 0)
            index.update("churn", (i,), 1)
        assert index.peek() == "keep"
        assert index.heap_size() < 400

    def test_empty_peek(self):
        index = LazyHeapIndex()
        assert index.peek() is None
        index.update("a", (1,), 0)
        index.update("a", None, 0)
        assert index.peek() is None


# ---------------------------------------------------------------------------
# Satellite regression: the comparator's empty-queue sentinel
# ---------------------------------------------------------------------------
class TestComparatorSentinel:
    def _scheduler_with(self, *actors):
        workflow = Workflow("cmp")
        source = SourceActor("src", arrivals=[(0, 1)])
        source.add_output("out")
        workflow.add(source)
        for actor in actors:
            workflow.add(actor)
            workflow.connect(source, actor)
        scheduler = QuantumPriorityScheduler(500)
        director = SCWFDirector(scheduler, VirtualClock(), CostModel())
        director.attach(workflow)
        director.initialize_all()
        return scheduler

    def test_event_less_actor_sorts_after_loaded_peer(self):
        """Same priority class: "no event" must lose to *any* real event.

        The historical fallback keyed an empty queue as timestamp 0 —
        which would have made an event-less actor beat every peer in its
        class, inverting FIFO-within-class.  The sentinel is +inf.
        """
        loaded = MapActor("loaded", lambda v: v)
        empty = MapActor("empty", lambda v: v)
        loaded.priority = empty.priority = 20
        scheduler = self._scheduler_with(loaded, empty)
        scheduler.ready["loaded"].push("in", _event(123_456))
        key_loaded = scheduler.comparator_key(loaded)
        key_empty = scheduler.comparator_key(empty)
        assert key_empty == (20, INF_TIME)
        assert key_loaded < key_empty

    def test_priority_still_dominates_sentinel(self):
        urgent_empty = MapActor("urgent", lambda v: v)
        urgent_empty.priority = 10
        lazy_loaded = MapActor("lazy", lambda v: v)
        lazy_loaded.priority = 20
        scheduler = self._scheduler_with(urgent_empty, lazy_loaded)
        scheduler.ready["lazy"].push("in", _event(5))
        assert scheduler.comparator_key(
            urgent_empty
        ) < scheduler.comparator_key(lazy_loaded)


def _event(ts):
    from repro.core.events import CWEvent
    from repro.core.waves import WaveTag

    return CWEvent("x", ts, WaveTag.root(ts))


# ---------------------------------------------------------------------------
# O(1) accounting counters
# ---------------------------------------------------------------------------
class TestIncrementalCounters:
    def test_backlog_and_nonempty_match_recount(self):
        seq, scheduler = _run_recorded("QBS", _spec_example(), indexed=True)
        assert seq  # the run actually dispatched something
        assert scheduler.total_backlog() == sum(
            len(q) for q in scheduler.ready.values()
        )


# ---------------------------------------------------------------------------
# The oracle: indexed dispatch == naive scan dispatch, bit for bit
# ---------------------------------------------------------------------------
#: One lap of the self-loop actor: a value leaves after three.
_LAP = 1_000


def _lap(ctx):
    """Feed the value back to the actor's own input (an enqueue during
    its own firing) until three laps are done, then let it leave."""
    value = ctx.read_value("in")
    if value < 3 * _LAP:
        ctx.send("loop", value + _LAP)
    else:
        ctx.send("out", value)


def _build_workflow(spec):
    """Deterministically materialize a drawn workflow description.

    Two optional flags close the spec: ``self_loop`` puts an actor that
    feeds its own input between the last relay and the sink, and
    ``cross_edge`` also connects the first source straight to the last
    relay, so events that skipped the windowed relay0 queue ahead of
    its (older) windows: an out-of-order push that can become the new
    head of the queue.
    """
    (n_sources, relay_parents, priorities, arrival_sets, windowed) = spec[:5]
    self_loop, cross_edge = spec[5:] or (False, False)
    # Every source must feed someone: force relay i to hang off source i.
    n_sources = min(n_sources, len(relay_parents))
    relay_parents = list(relay_parents)
    for s in range(n_sources):
        relay_parents[s] = s
    workflow = Workflow("oracle")
    nodes = []
    for s in range(n_sources):
        arrivals = [
            (ts, i) for i, ts in enumerate(sorted(arrival_sets[s]))
        ]
        source = SourceActor(f"src{s}", arrivals=arrivals)
        source.add_output("out")
        workflow.add(source)
        nodes.append(source)
    sink_feed = None
    for i, parent_idx in enumerate(relay_parents):
        window = None
        if windowed and i == 0:
            window = WindowSpec.tokens(2, 2, delete_used_events=True)
        relay = MapActor(
            f"relay{i}",
            lambda v: sum(v) if isinstance(v, list) else v,
            window=window,
        )
        relay.priority = priorities[i]
        workflow.add(relay)
        workflow.connect(nodes[parent_idx % len(nodes)], relay)
        nodes.append(relay)
        sink_feed = relay
    if cross_edge:
        workflow.connect(nodes[0], sink_feed)
    if self_loop:
        lap = FunctionActor("lap", _lap, outputs=("loop", "out"))
        workflow.add(lap)
        workflow.connect(sink_feed, lap)
        workflow.connect(lap, lap, source_port="loop")
        sink_feed = lap.output_ports["out"]
    sink = SinkActor("sink")
    workflow.add(sink)
    workflow.connect(sink_feed, sink)
    return workflow


#: The policies that keep sources out of the index and serve them
#: through the interval-regulated rotation (``source_interval``).
REGULATED = ("EDF", "QBS", "RR")


def _run_recorded(policy, spec, indexed, **policy_args):
    """Run the workflow under the policy; record every dispatch decision."""
    indexed_cls, naive_cls = POLICY_PAIRS[policy]
    scheduler = (indexed_cls if indexed else naive_cls)(**policy_args)
    sequence = []
    original = scheduler.get_next_actor

    def recording():
        actor = original()
        sequence.append(actor.name if actor is not None else None)
        return actor

    scheduler.get_next_actor = recording
    clock = VirtualClock()
    director = SCWFDirector(scheduler, clock, CostModel())
    director.attach(_build_workflow(spec))
    SimulationRuntime(director, clock).run(10.0, drain=True)
    return sequence, scheduler


def _two_source_spec():
    """Two busy sources over a shared relay chain: both stay runnable
    while internal work is queued, so the rotation and the interval —
    not just "nothing else to do" — decide when a source runs."""
    return (
        2,
        [0, 1, 2, 3],
        [20, 10, 20, 30],
        [list(range(0, 4_000, 50)), list(range(25, 4_000, 70))],
        True,
    )


def _spec_example():
    return (
        2,
        [0, 1, 2, 2],
        [20, 10, 20, 30],
        [[0, 100, 5_000, 5_000, 90_000], [10, 10, 200_000]],
        True,
    )


_spec_strategy = st.tuples(
    st.integers(min_value=1, max_value=2),  # n_sources
    st.lists(  # relay parent links (index into nodes-so-far)
        st.integers(min_value=0, max_value=6), min_size=1, max_size=6
    ),
    st.lists(  # relay priorities (few classes -> many ties)
        st.sampled_from([10, 20, 20, 20, 30]), min_size=6, max_size=6
    ),
    st.lists(  # per-source arrival timestamps
        st.lists(
            st.integers(min_value=0, max_value=1_000_000),
            min_size=1,
            max_size=25,
        ),
        min_size=2,
        max_size=2,
    ),
    st.booleans(),  # put a token window on relay0
    st.booleans(),  # self_loop
    st.booleans(),  # cross_edge
)


class TestDispatchOracle:
    @given(
        spec=_spec_strategy,
        policy=st.sampled_from(sorted(POLICY_PAIRS)),
        source_interval=st.sampled_from([1, 5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_indexed_dispatch_is_bit_identical_to_naive_scan(
        self, spec, policy, source_interval
    ):
        args = (
            {"source_interval": source_interval}
            if policy in REGULATED
            else {}
        )
        indexed_seq, _ = _run_recorded(policy, spec, indexed=True, **args)
        naive_seq, _ = _run_recorded(policy, spec, indexed=False, **args)
        assert indexed_seq == naive_seq

    @pytest.mark.parametrize("policy", REGULATED)
    def test_source_regulation_matches_the_naive_copy(self, policy):
        """The one shipped rotation == each policy's historical copy,
        pick for pick, with two sources competing."""
        sequences = {}
        for interval in (1, 5):
            indexed_seq, _ = _run_recorded(
                policy, _two_source_spec(), True, source_interval=interval
            )
            naive_seq, _ = _run_recorded(
                policy, _two_source_spec(), False, source_interval=interval
            )
            assert indexed_seq == naive_seq, interval
            assert {"src0", "src1"} <= set(indexed_seq)
            sequences[interval] = indexed_seq
        # The interval is really in play: it changes the schedule.
        assert sequences[1] != sequences[5]

    def test_fifo_repair_paths_are_exercised(self, monkeypatch):
        """Directed FIFO case for the repair at fire end: the self-loop
        actor is dirty when its own firing ends (the lazy fallback), and
        pushes land ahead of a non-empty queue's head; the dispatch
        sequence still equals the scan's."""
        from repro.stafilos.ready import ReadyQueue
        from repro.stafilos.schedulers.fifo import FIFOScheduler

        seen = {"dirty_at_fire_end": 0, "new_head": 0}
        fire_end = FIFOScheduler.on_actor_fire_end
        push = ReadyQueue.push
        push_batch = ReadyQueue.push_batch

        def spying_fire_end(self, actor, cost_us, now, items=1):
            if not actor.is_source and actor.name in self._index_dirty:
                seen["dirty_at_fire_end"] += 1
            fire_end(self, actor, cost_us, now, items)

        def head_key(queue):
            head = queue.peek()
            return None if head is None else head.sort_key

        def spying_push(self, port_name, item):
            before = head_key(self)
            ready = push(self, port_name, item)
            seen["new_head"] += before is not None and ready.sort_key < before
            return ready

        def spying_push_batch(self, port_name, items):
            before = head_key(self)
            push_batch(self, port_name, items)
            seen["new_head"] += before is not None and head_key(self) < before

        monkeypatch.setattr(FIFOScheduler, "on_actor_fire_end", spying_fire_end)
        monkeypatch.setattr(ReadyQueue, "push", spying_push)
        monkeypatch.setattr(ReadyQueue, "push_batch", spying_push_batch)
        # src1's arrivals fall between src0's and both are due at once:
        # the clock lags the arrivals, src0 pumps a train into relay1
        # (the cross edge), and src1's older arrivals then land ahead of
        # relay1's queued head.
        spec = (
            2,
            [0, 1],
            [20] * 6,
            [list(range(0, 3_000, 100)), [0, *range(50, 3_000, 100)]],
            False,
            True,
            True,
        )
        indexed_seq, _ = _run_recorded("FIFO", spec, indexed=True)
        naive_seq, _ = _run_recorded("FIFO", spec, indexed=False)
        assert indexed_seq == naive_seq
        assert seen["dirty_at_fire_end"] and seen["new_head"]

    def test_known_workflow_all_policies(self):
        """Cheap smoke form of the oracle, run on every pytest pass."""
        for policy in sorted(POLICY_PAIRS):
            indexed_seq, _ = _run_recorded(
                policy, _spec_example(), indexed=True
            )
            naive_seq, _ = _run_recorded(
                policy, _spec_example(), indexed=False
            )
            assert indexed_seq == naive_seq, policy
            assert any(name is not None for name in indexed_seq)


# ---------------------------------------------------------------------------
# Scheduler snapshots from before the regulation state moved to the parent
# ---------------------------------------------------------------------------
_PR20_SNAPSHOTS = (
    Path(__file__).parent / "data" / "pr20_regulated_schedulers.pkl"
)


def _lopsided_spec():
    """src0 busy, src1 sparse: most iterations serve src0 alone, which
    leaves the rotation cursor on src1 across the iteration boundary."""
    return (
        2,
        [0, 1, 2, 3],
        [20, 10, 20, 30],
        [list(range(0, 600_000, 5_000)), list(range(25, 600_000, 85_000))],
        True,
    )


def _regulated_run(policy, payload=None, pause_s=0.3, spec=None):
    """Two-source run under *policy*, paused once at ``pause_s``.

    With *payload* ``None`` the engine runs to the pause, snapshots, and
    continues (``pause_s`` ``None``: it runs without a pause);
    otherwise it is built fresh and *payload* is restored in place of
    the first leg.  *spec* defaults to :func:`_lopsided_spec`.  Returns
    ``(payload, policy state at the pause, picks after the pause, sink
    values)``.
    """
    scheduler = POLICY_PAIRS[policy][0](
        **({"source_interval": 2} if policy in REGULATED else {})
    )
    sequence = []
    original = scheduler.get_next_actor

    def recording():
        actor = original()
        sequence.append(actor.name if actor is not None else None)
        return actor

    scheduler.get_next_actor = recording
    clock = VirtualClock()
    director = SCWFDirector(scheduler, clock, CostModel())
    workflow = _build_workflow(spec or _lopsided_spec())
    director.attach(workflow)
    runtime = SimulationRuntime(director, clock)
    if payload is None:
        if pause_s is not None:
            runtime.run(pause_s)
            payload = serialize_snapshot(capture_snapshot(director))
    else:
        director.initialize_all()
        restore_snapshot(director, deserialize_snapshot(payload))
    state = scheduler.policy_state_dump()
    del sequence[:]
    runtime.run(10.0, drain=True)
    return payload, state, sequence, workflow.actors["sink"].values


@pytest.mark.parametrize("policy", REGULATED)
def test_pr20_scheduler_snapshot_restores_and_continues(policy):
    """``tests/data/pr20_regulated_schedulers.pkl`` was written by
    ``_regulated_run(policy)`` at the commit before the source-regulation
    attributes moved from QBS/RR/EDF to ``AbstractScheduler``: their
    ``policy_state_dump`` keys must still restore, and the run must
    continue pick for pick as it did there."""
    recorded = pickle.loads(_PR20_SNAPSHOTS.read_bytes())[policy]
    assert {
        "_fired_sources", "_internal_since_source", "_source_rotation"
    } <= set(recorded["state"])
    assert recorded["state"]["_source_rotation"] == 1  # mid-rotation
    _, state, picks, values = _regulated_run(policy, recorded["payload"])
    assert state == recorded["state"]
    assert picks == recorded["picks"]
    assert values == recorded["values"]
    # ...and equally from a snapshot this commit takes itself.
    payload, state, picks, values = _regulated_run(policy)
    assert (state, picks, values) == (
        recorded["state"], recorded["picks"], recorded["values"]
    )


def test_fifo_checkpoint_mid_run_reproduces_the_decisions():
    """The fire-end repair leaves no index state a snapshot misses: a
    FIFO engine restored mid-run picks what the uninterrupted run picks
    from that point on, with the self-loop and the cross edge drawn."""
    spec = (*_lopsided_spec(), True, True)
    _, _, whole, whole_values = _regulated_run("FIFO", pause_s=None, spec=spec)
    payload, _, picks, values = _regulated_run("FIFO", spec=spec)
    _, _, resumed, resumed_values = _regulated_run("FIFO", payload, spec=spec)
    assert 0 < len(picks) < len(whole) and whole[-len(picks):] == picks
    assert resumed == picks and resumed_values == values == whole_values

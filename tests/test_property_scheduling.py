"""Property-based invariants of the scheduling machinery."""

import heapq

from hypothesis import given, settings, strategies as st

from repro.core.actors import MapActor, SinkActor, SourceActor
from repro.core.workflow import Workflow
from repro.simulation.clock import VirtualClock
from repro.simulation.cost_model import CostModel
from repro.simulation.runtime import SimulationRuntime
from repro.stafilos.ready import BacklogTally, ReadyItem, ReadyQueue
from repro.stafilos.schedulers import (
    FIFOScheduler,
    QuantumPriorityScheduler,
    RateBasedScheduler,
    RoundRobinScheduler,
)
from repro.stafilos.scwf_director import SCWFDirector

_serial = iter(range(1, 10_000_000))


def make_event(ts):
    from repro.core.events import CWEvent
    from repro.core.waves import WaveTag

    return CWEvent("x", ts, WaveTag.root(next(_serial)))


class TestReadyQueueProperties:
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
    @settings(max_examples=60)
    def test_pops_sorted_by_timestamp(self, timestamps):
        queue = ReadyQueue()
        for ts in timestamps:
            queue.push("in", make_event(ts))
        popped = []
        while queue:
            popped.append(queue.pop().timestamp)
        assert popped == sorted(timestamps)

    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=30))
    @settings(max_examples=60)
    def test_stable_for_equal_timestamps(self, pattern):
        queue = ReadyQueue()
        events = [make_event(0) for _ in pattern]
        for event in events:
            queue.push("in", event)
        popped = []
        while queue:
            popped.append(queue.pop().item)
        assert popped == events  # admission order preserved

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["push", "push_batch", "pop", "clear"]),
                st.sampled_from([0, 1]),
                st.lists(
                    st.integers(min_value=0, max_value=20),
                    min_size=1,
                    max_size=6,
                ),
            ),
            max_size=60,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_interleaved_operations_pop_in_key_order(self, operations):
        """Whatever mix of in-order and out-of-order pushes, batches,
        pops and clears: every pop is the minimum ``sort_key`` held, and
        the shared tally equals the summed queue lengths."""
        tally = BacklogTally()
        queues = [ReadyQueue(tally), ReadyQueue(tally)]
        held = [[], []]
        for operation, which, timestamps in operations:
            queue, model = queues[which], held[which]
            if operation == "push":
                model.append(queue.push("in", make_event(timestamps[0])))
            elif operation == "push_batch":
                before = set(map(id, queue.snapshot_items()))
                queue.push_batch("in", [make_event(ts) for ts in timestamps])
                model.extend(
                    ready
                    for ready in queue.snapshot_items()
                    if id(ready) not in before
                )
            elif operation == "pop":
                expected = min(model, default=None)
                assert queue.pop() is expected
                if expected is not None:
                    model.remove(expected)
            else:
                queue.clear()
                model.clear()
            assert queue.peek() is min(model, default=None)
            assert [len(q) for q in queues] == [len(m) for m in held]
            assert tally.items == sum(len(q) for q in queues)
        for queue, model in zip(queues, held):
            assert queue.snapshot_items() == sorted(model)

    @given(st.lists(st.integers(min_value=0, max_value=50), max_size=40))
    @settings(max_examples=60)
    def test_restore_accepts_a_heap_ordered_snapshot(self, timestamps):
        """Snapshots written while a queue was a binary heap list their
        items in heap order; a restored queue pops them ascending."""
        tally = BacklogTally()
        heap = []
        for ts in timestamps:
            heapq.heappush(heap, ReadyItem("in", make_event(ts)))
        queue = ReadyQueue(tally)
        queue.push("in", make_event(0))  # replaced by the restore
        queue.restore_items(heap)
        assert tally.items == len(queue) == len(heap)
        assert [queue.pop() for _ in heap] == sorted(heap)
        assert queue.pop() is None and tally.items == 0


SCHEDULERS = [
    lambda: QuantumPriorityScheduler(500),
    lambda: RoundRobinScheduler(10_000),
    lambda: RateBasedScheduler(),
    lambda: FIFOScheduler(),
]


class TestLosslessExecution:
    @given(
        st.lists(
            st.integers(min_value=0, max_value=1_000_000),
            min_size=1,
            max_size=40,
        ),
        st.sampled_from(list(range(len(SCHEDULERS)))),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_arrival_reaches_the_sink(self, offsets, scheduler_index):
        """No scheduler loses or duplicates events, whatever the arrivals."""
        arrivals = [(ts, i) for i, ts in enumerate(sorted(offsets))]
        workflow = Workflow("prop")
        source = SourceActor("src", arrivals=arrivals)
        source.add_output("out")
        relay = MapActor("relay", lambda v: v)
        sink = SinkActor("sink")
        workflow.add_all([source, relay, sink])
        workflow.connect(source, relay)
        workflow.connect(relay, sink)
        clock = VirtualClock()
        director = SCWFDirector(
            SCHEDULERS[scheduler_index](), clock, CostModel()
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(10.0, drain=True)
        assert sorted(sink.values) == sorted(v for _, v in arrivals)

    @given(st.lists(st.integers(min_value=0, max_value=100_000), max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_clock_monotone_and_bounded_by_work(self, offsets):
        arrivals = [(ts, i) for i, ts in enumerate(sorted(offsets))]
        workflow = Workflow("prop2")
        source = SourceActor("src", arrivals=arrivals)
        source.add_output("out")
        sink = SinkActor("sink")
        workflow.add_all([source, sink])
        workflow.connect(source, sink)
        clock = VirtualClock()
        director = SCWFDirector(
            RoundRobinScheduler(10_000), clock, CostModel()
        )
        director.attach(workflow)
        SimulationRuntime(director, clock).run(10.0, drain=True)
        assert clock.now_us >= (max(offsets) if offsets else 0)

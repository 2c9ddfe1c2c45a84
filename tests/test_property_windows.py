"""Property-based tests on window-formation invariants."""

import itertools
import pickle

from hypothesis import given, settings, strategies as st

from repro.core import windows as windows_module
from repro.core.events import CWEvent
from repro.core.waves import WaveTag
from repro.core.windows import ConsumptionMode, WindowOperator, WindowSpec

from .naive_window_scan import NaiveScanWindowOperator

_serial = iter(range(1, 10_000_000))


def event(value, ts):
    return CWEvent(value, ts, WaveTag.root(next(_serial)))


sizes = st.integers(min_value=1, max_value=8)
steps = st.integers(min_value=1, max_value=8)
streams = st.lists(st.integers(min_value=0, max_value=9), max_size=60)


class TestTokenWindowInvariants:
    @given(sizes, steps, streams)
    @settings(max_examples=80)
    def test_window_count_matches_closed_form(self, size, step, values):
        """Sliding windows: floor((n - size)/step) + 1 for n >= size."""
        op = WindowOperator(WindowSpec.tokens(size, step))
        produced = []
        for index, value in enumerate(values):
            produced.extend(op.put(event(value, index)))
        n = len(values)
        expected = 0 if n < size else (n - size) // step + 1
        assert len(produced) == expected

    @given(sizes, steps, streams)
    @settings(max_examples=80)
    def test_every_window_has_exact_size(self, size, step, values):
        op = WindowOperator(WindowSpec.tokens(size, step))
        for index, value in enumerate(values):
            for window in op.put(event(value, index)):
                assert len(window) == size

    @given(sizes, steps, streams)
    @settings(max_examples=80)
    def test_windows_preserve_stream_order(self, size, step, values):
        op = WindowOperator(WindowSpec.tokens(size, step))
        produced = []
        for index, value in enumerate(values):
            produced.extend(op.put(event((index, value), index)))
        for window in produced:
            indices = [v[0] for v in window.values]
            assert indices == sorted(indices)
            # Consecutive stream positions inside one window.
            assert indices == list(range(indices[0], indices[0] + size))

    @given(sizes, streams)
    @settings(max_examples=80)
    def test_conservation_with_delete_used(self, size, values):
        """delete_used: every event is consumed at most once, none expire."""
        op = WindowOperator(
            WindowSpec.tokens(size, delete_used_events=True)
        )
        consumed = 0
        for index, value in enumerate(values):
            for window in op.put(event(value, index)):
                consumed += len(window)
        assert consumed + op.pending_count() == len(values)
        assert not op.expired

    @given(sizes, steps, streams)
    @settings(max_examples=80)
    def test_conservation_sliding(self, size, step, values):
        """Sliding: expired + pending + (in final overlap) = admitted."""
        op = WindowOperator(WindowSpec.tokens(size, step))
        for index, value in enumerate(values):
            op.put(event(value, index))
        assert len(op.expired) + op.pending_count() == len(values)

    @given(sizes, steps, streams, st.integers(min_value=2, max_value=4))
    @settings(max_examples=60)
    def test_group_by_equivalent_to_split_streams(
        self, size, step, values, groups
    ):
        """Grouped operator == one ungrouped operator per group."""
        grouped = WindowOperator(
            WindowSpec.tokens(size, step, group_by=lambda e: e.value % groups)
        )
        split = {
            g: WindowOperator(WindowSpec.tokens(size, step))
            for g in range(groups)
        }
        grouped_windows = []
        split_windows = []
        for index, value in enumerate(values):
            grouped_windows.extend(grouped.put(event(value, index)))
            split_windows.extend(
                split[value % groups].put(event(value, index))
            )
        assert sorted(w.values for w in grouped_windows) == sorted(
            w.values for w in split_windows
        )


class TestTimeWindowInvariants:
    timestamps = st.lists(
        st.integers(min_value=0, max_value=10_000), min_size=1, max_size=50
    ).map(sorted)

    @given(timestamps, st.integers(min_value=1, max_value=500))
    @settings(max_examples=80)
    def test_events_within_window_bounds(self, times, size):
        op = WindowOperator(WindowSpec.time(size))
        produced = []
        for ts in times:
            produced.extend(op.put(event("x", ts)))
        produced.extend(op.force_timeout(None))
        for window in produced:
            for item in window:
                assert window.start <= item.timestamp < window.end

    @given(timestamps, st.integers(min_value=1, max_value=500))
    @settings(max_examples=80)
    def test_tumbling_partitions_every_event_once(self, times, size):
        """Tumbling (step == size) windows partition the stream."""
        op = WindowOperator(WindowSpec.time(size))
        total = 0
        for ts in times:
            for window in op.put(event("x", ts)):
                total += len(window)
        for window in op.force_timeout(None):
            total += len(window)
        leftover = op.pending_count()
        assert total + leftover == len(times)


# ----------------------------------------------------------------------
# Pane-boundary index vs. the full scan (tests/naive_window_scan.py)
# ----------------------------------------------------------------------
#: Group keys no total order covers: the index must never compare them.
_keys = st.sampled_from([None, 0, 1, 7, (1, "a"), (None, 2), "x", "y"])
_stamps = st.integers(min_value=0, max_value=160)
_arrivals = st.tuples(_keys, _stamps)
_steps = st.one_of(
    st.tuples(st.just("put"), _arrivals),
    st.tuples(st.just("put"), _arrivals),  # weight: mostly insertions
    st.tuples(st.just("put_batch"), st.lists(_arrivals, max_size=6)),
    st.tuples(st.just("timeout"), _stamps),
    st.tuples(st.just("flush"), st.none()),
    st.tuples(st.just("frontier"), _stamps),
    st.tuples(st.just("restore"), st.none()),
)


@st.composite
def _time_specs(draw):
    size = draw(st.integers(min_value=1, max_value=24))
    step = draw(st.sampled_from([size, 1, max(1, size // 2), size + 3]))
    mode = draw(st.sampled_from([None, None, ConsumptionMode.RECENT]))
    return WindowSpec(
        size,
        step,
        windows_module.Measure.TIME,
        group_by=draw(st.sampled_from([lambda e: e.value[0], None])),
        delete_used_events=(
            mode is None and draw(st.booleans())
        ),
        mode=mode,
    )


def _view(windows):
    return [
        (
            [(e.value, e.timestamp, e.seq) for e in w.events],
            w.group_key,
            w.start,
            w.end,
            w.forced,
            w.seq,
        )
        for w in windows
    ]


def _replay(operator_cls, spec, events, steps):
    """Drive one operator through *steps*; the observable trail per step."""
    windows_module._WINDOW_SEQ = itertools.count(1)
    op = operator_cls(spec)
    feed = iter(events)
    trail = []
    for name, arg in steps:
        result = None
        if name == "put":
            produced = op.put(next(feed))
        elif name == "put_batch":
            produced = op.put_batch([next(feed) for _ in arg])
        elif name == "timeout":
            produced = op.force_timeout(arg)
        elif name == "flush":
            produced = op.force_timeout(None)
        elif name == "frontier":
            result = op.next_frontier_boundary(arg)
            produced = op.close_on_frontier(arg)
        else:  # the dump must pickle to the same bytes, then restore
            result, produced = pickle.dumps(op.state_dump()), []
            op = operator_cls(spec)
            op.state_restore(pickle.loads(result))
        trail.append(
            (
                name,
                result,
                _view(produced),
                [(e.value, e.timestamp, e.seq) for e in op.expired],
                op.next_deadline(),
                op.group_keys,
                [
                    (state.window_start, len(state))
                    for state in op._groups.values()
                ],
                op.total_windows,
            )
        )
    return trail


def _both_trails(spec, steps):
    """The same steps and events through the index and the full scan."""
    arrivals = []
    for name, arg in steps:
        if name == "put":
            arrivals.append(arg)
        elif name == "put_batch":
            arrivals.extend(arg)
    events = [
        event((key, index), ts) for index, (key, ts) in enumerate(arrivals)
    ]
    saved_seq = windows_module._WINDOW_SEQ
    try:
        return (
            _replay(WindowOperator, spec, events, steps),
            _replay(NaiveScanWindowOperator, spec, events, steps),
        )
    finally:
        windows_module._WINDOW_SEQ = saved_seq


class TestPaneIndexMatchesFullScan:
    @given(_time_specs(), st.lists(_steps, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_random_interleavings(self, spec, steps):
        """Same windows, ``seq``, expired queue and deadline at every step."""
        indexed, scanned = _both_trails(spec, steps)
        assert indexed == scanned

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=20),
        st.booleans(),
        st.lists(
            st.tuples(st.sampled_from("ab"), st.integers(0, 4_000)),
            min_size=1,
            max_size=12,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_idle_gap_jump_equals_the_stepped_walk(
        self, size, step, delete_used, arrivals
    ):
        """Sparse keys: the barren-pane jump lands where the walk lands."""
        spec = WindowSpec.time(
            size,
            step,
            group_by=lambda e: e.value[0],
            delete_used_events=delete_used and step == size,
        )
        jumped, walked = _both_trails(
            spec, [("put", arrival) for arrival in arrivals]
        )
        assert jumped == walked

    def test_million_pane_gap_costs_one_jump(self, monkeypatch):
        """A key quiet for 10**6 panes must not pay one call per pane."""
        pane_us = 1_000_000
        op = WindowOperator(WindowSpec.time(pane_us, group_by="car"))
        op.put(event({"car": 1}, 0))
        closes = []
        original = WindowOperator._close_time_window

        def counting(self, state, key, forced):
            closes.append(key)
            return original(self, state, key, forced)

        monkeypatch.setattr(WindowOperator, "_close_time_window", counting)
        gap = 10**6 * pane_us
        (window,) = op.put(event({"car": 1}, gap + 17))
        assert (window.start, window.end) == (0, pane_us)
        assert closes == [1]  # the one pane that held an event
        assert op._groups[1].window_start == gap
        assert op.next_deadline() == gap + pane_us
        assert [e.timestamp for e in op.expired] == [0]  # slid out


# ----------------------------------------------------------------------
# The train insert vs. one ``put`` per event, every measure
# ----------------------------------------------------------------------
@st.composite
def _any_specs(draw):
    measure = draw(st.sampled_from(list(windows_module.Measure)))
    size = draw(st.integers(min_value=1, max_value=6))
    consumed = draw(st.booleans())
    timed = measure is windows_module.Measure.TIME
    step = (
        size
        if consumed and not timed
        else draw(st.sampled_from([1, size, size + 2]))  # size + 2: skip debt
    )
    return WindowSpec(
        size * (7 if timed else 1),
        step * (7 if timed else 1),
        measure,
        group_by=draw(st.sampled_from([None, lambda e: e.value % 3])),
        delete_used_events=consumed,
        mode=None if consumed else draw(
            st.sampled_from([None, ConsumptionMode.RECENT])
        ),
    )


class TestTrainInsertMatchesPerEventPut:
    @given(
        _any_specs(),
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 9), st.integers(0, 12), st.booleans()),
                max_size=9,
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_windows_state_and_production_indices(self, spec, trains):
        """``put_batch(train, indices)`` is ``put`` per event, and
        ``indices`` names the event of the train that formed each window."""
        batched, single = WindowOperator(spec), WindowOperator(spec)
        clock = 0
        for train in trains:
            events = []
            for value, advance, last in train:
                clock += advance - 2  # mostly forward, sometimes late
                events.append(event(value, max(clock, 0)))
                events[-1].last_in_wave = last
            indices = []
            produced = batched.put_batch(events, indices)
            expected, expected_indices = [], []
            for index, item in enumerate(events):
                made = single.put(item)
                expected.extend(made)
                expected_indices.extend([index] * len(made))
            assert indices == expected_indices
            assert [
                (w.events, w.group_key, w.start, w.end, w.forced)
                for w in produced
            ] == [
                (w.events, w.group_key, w.start, w.end, w.forced)
                for w in expected
            ]
            assert list(batched.expired) == list(single.expired)
            assert pickle.dumps(batched.state_dump()) == pickle.dumps(
                single.state_dump()
            )
            assert batched.next_deadline() == single.next_deadline()

"""Idle group-state eviction in the window operator."""

import pytest

from repro.core.events import CWEvent
from repro.core.waves import WaveTag
from repro.core.windows import WindowOperator, WindowSpec

from .naive_window_scan import NaiveScanWindowOperator


def event(value, ts, key):
    event.counter = getattr(event, "counter", 0) + 1
    return CWEvent({"k": key, "v": value}, ts, WaveTag.root(event.counter))


def make_op(delete_used=True):
    return WindowOperator(
        WindowSpec.tokens(
            2, 2, group_by="k", delete_used_events=delete_used
        )
    )


class TestEviction:
    def test_drained_idle_groups_evicted(self):
        op = make_op()
        for key in range(10):
            op.put(event(1, ts=key, key=key))
            op.put(event(2, ts=key, key=key))  # window fires, queue empty
        assert len(op.group_keys) == 10
        evicted = op.evict_idle_groups(before_ts=100)
        assert evicted == 10
        assert op.group_keys == []

    def test_groups_with_buffered_events_survive(self):
        op = make_op()
        op.put(event(1, ts=0, key="partial"))  # only one of two
        op.put(event(1, ts=0, key="done"))
        op.put(event(2, ts=0, key="done"))
        assert op.evict_idle_groups(before_ts=100) == 1
        assert op.group_keys == ["partial"]

    def test_recently_active_groups_survive(self):
        op = make_op()
        op.put(event(1, ts=10, key="old"))
        op.put(event(2, ts=10, key="old"))
        op.put(event(1, ts=500, key="fresh"))
        op.put(event(2, ts=500, key="fresh"))
        assert op.evict_idle_groups(before_ts=100) == 1
        assert op.group_keys == ["fresh"]

    def test_evicted_group_reforms_cleanly(self):
        op = make_op()
        op.put(event(1, ts=0, key="a"))
        op.put(event(2, ts=0, key="a"))
        op.evict_idle_groups(before_ts=100)
        produced = []
        produced += op.put(event(3, ts=200, key="a"))
        produced += op.put(event(4, ts=200, key="a"))
        assert len(produced) == 1
        assert [e.value["v"] for e in produced[0]] == [3, 4]

    def test_wave_groups_evictable(self):
        op = WindowOperator(WindowSpec.waves(1, group_by="k"))
        e = event("x", ts=0, key="a")
        e.last_in_wave = True
        op.put(e)  # wave closes immediately: state empty afterwards
        assert op.evict_idle_groups(before_ts=100) == 1


# ----------------------------------------------------------------------
# Eviction x the pane-boundary index of time-measured operators
# ----------------------------------------------------------------------
def timed_ops():
    """The indexed operator and the full-scan oracle on one spec."""
    spec = WindowSpec.time(10, group_by="k", delete_used_events=True)
    return WindowOperator(spec), NaiveScanWindowOperator(spec)


def closed(windows):
    return [
        (w.group_key, w.start, w.end, [e.value["v"] for e in w])
        for w in windows
    ]


class TestEvictionKeepsTimeoutOrder:
    def drain_a_then_evict(self, op):
        """Groups a, b, c exist; a is drained by a timeout and evicted."""
        op.put(event("a0", ts=1, key="a"))
        op.put(event("b0", ts=22, key="b"))
        op.put(event("c0", ts=23, key="c"))
        assert closed(op.force_timeout(15)) == [("a", 1, 11, ["a0"])]
        assert op.evict_idle_groups(before_ts=20) == 1
        assert op.group_keys == ["b", "c"]

    def test_recreated_key_closes_last(self):
        """A re-created key sorts after the survivors, as in ``_groups``."""
        for op in timed_ops():
            self.drain_a_then_evict(op)
            op.put(event("a1", ts=24, key="a"))
            assert op.group_keys == ["b", "c", "a"]
            assert closed(op.force_timeout(40)) == [
                ("b", 22, 32, ["b0"]),
                ("c", 23, 33, ["c0"]),
                ("a", 24, 34, ["a1"]),
            ]

    def test_stale_entry_of_evicted_key_is_not_a_deadline(self):
        """The evicted state's heap entry must never surface as live."""
        for op in timed_ops():
            op.put(event("a0", ts=1, key="a"))
            op.put(event("b0", ts=50, key="b"))
            # The flush drains a without consulting the index, so a's
            # entry is still in the heap when the group is evicted.
            assert closed(op.force_timeout(None)) == [
                ("a", 1, 11, ["a0"]),
                ("b", 50, 60, ["b0"]),
            ]
            assert op.evict_idle_groups(before_ts=100) == 2
            assert op.next_deadline() is None
            op.put(event("b1", ts=70, key="b"))
            op.put(event("a1", ts=71, key="a"))
            assert op.next_deadline() == 80
            assert closed(op.force_timeout(81)) == [
                ("b", 70, 80, ["b1"]),
                ("a", 71, 81, ["a1"]),
            ]
            assert op.next_deadline() is None

    def test_recreated_key_with_live_stale_entry_uses_fresh_ordinal(self):
        """Flushed, evicted, live again: the key closes once, and last."""
        for op in timed_ops():
            op.put(event("a0", ts=1, key="a"))
            op.put(event("b0", ts=5, key="b"))
            op.force_timeout(None)  # both drained, entries left behind
            assert op.evict_idle_groups(before_ts=3) == 1  # a only
            op.put(event("b1", ts=26, key="b"))
            op.put(event("a1", ts=27, key="a"))
            assert op.group_keys == ["b", "a"]
            assert closed(op.force_timeout(37)) == [
                ("b", 25, 35, ["b1"]),
                ("a", 27, 37, ["a1"]),
            ]
            assert op.pending_count() == 0

    def test_evict_then_frontier_close_order(self):
        for op in timed_ops():
            self.drain_a_then_evict(op)
            op.put(event("a1", ts=21, key="a"))
            assert op.next_frontier_boundary(30) is None
            assert op.next_frontier_boundary(31) == 31
            assert closed(op.close_on_frontier(33)) == [
                ("b", 22, 32, ["b0"]),
                ("c", 23, 33, ["c0"]),
                ("a", 21, 31, ["a1"]),
            ]

    def test_unconsulted_index_stays_empty_under_key_churn(self):
        """No deadline is ever asked for: eviction must clear the heap."""
        op, _ = timed_ops()
        for round_ in range(200):
            ts = round_ * 100
            op.put(event(round_, ts=ts, key=("k", round_)))
            op.force_timeout(None)
            op.evict_idle_groups(before_ts=ts + 1)
        assert op.group_keys == []
        assert op._pane_heap == []

"""Wave-tag semantics (paper §2.1)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.events import CWEvent
from repro.core.waves import WaveGenerator, WaveScope, WaveTag
from repro.frontier import FrontierTracker


class TestWaveTag:
    def test_root_tag_path(self):
        tag = WaveTag.root(7)
        assert tag.path == (7,)
        assert tag.is_root()
        assert tag.serial == 7
        assert tag.depth == 0

    def test_child_tags_follow_paper_numbering(self):
        # Processing t_i producing n events yields t_i.1 ... t_i.n.
        root = WaveTag.root(3)
        children = [root.child(i) for i in range(1, 4)]
        assert [str(c) for c in children] == ["3.1", "3.2", "3.3"]

    def test_subwave_numbering(self):
        # t_i.3 processed into m events yields t_i.3.1 ... t_i.3.m.
        tag = WaveTag.root(1).child(3)
        sub = tag.child(2)
        assert str(sub) == "1.3.2"
        assert sub.depth == 2

    def test_parent_chain(self):
        leaf = WaveTag.root(5).child(2).child(9)
        assert str(leaf.parent) == "5.2"
        assert leaf.parent.parent == WaveTag.root(5)
        assert WaveTag.root(5).parent is None

    def test_root_tag_property(self):
        leaf = WaveTag.root(5).child(2).child(9)
        assert leaf.root_tag == WaveTag.root(5)

    def test_ancestors_nearest_first(self):
        leaf = WaveTag.root(4).child(1).child(2)
        assert [str(a) for a in leaf.ancestors()] == ["4.1", "4"]

    def test_is_ancestor_of(self):
        root = WaveTag.root(2)
        child = root.child(1)
        grandchild = child.child(5)
        assert root.is_ancestor_of(child)
        assert root.is_ancestor_of(grandchild)
        assert child.is_ancestor_of(grandchild)
        assert not child.is_ancestor_of(root)
        assert not root.is_ancestor_of(root)

    def test_same_wave(self):
        a = WaveTag.root(1).child(1)
        b = WaveTag.root(1).child(2).child(1)
        c = WaveTag.root(2)
        assert a.same_wave(b)
        assert not a.same_wave(c)

    def test_ordering_is_lexicographic(self):
        tags = [
            WaveTag.root(2),
            WaveTag.root(1).child(2),
            WaveTag.root(1),
            WaveTag.root(1).child(1).child(1),
        ]
        ordered = sorted(str(t) for t in tags)
        assert [str(t) for t in sorted(tags)] == ordered

    def test_parent_precedes_child_in_ordering(self):
        # A tag is a strict prefix of its children: (t,) sorts before
        # (t, 1), which sorts before any deeper or later sibling.
        parent = WaveTag.root(7)
        first_child = parent.child(1)
        assert parent < first_child
        assert not first_child < parent
        assert first_child < parent.child(2)
        assert first_child.child(1) < parent.child(2)
        assert sorted([first_child, parent]) == [parent, first_child]

    def test_same_wave_across_depths(self):
        root = WaveTag.root(3)
        deep = root.child(2).child(1).child(4)
        assert deep.same_wave(root)
        assert root.same_wave(deep)
        assert deep.same_wave(root.child(9))
        assert not deep.same_wave(WaveTag.root(4).child(2).child(1))

    def test_child_index_must_be_positive(self):
        with pytest.raises(ValueError):
            WaveTag.root(1).child(0)

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            WaveTag(())

    def test_hashable_and_equal(self):
        assert WaveTag.root(1).child(2) == WaveTag((1, 2))
        assert len({WaveTag.root(1), WaveTag((1,))}) == 1


class TestWaveGenerator:
    def test_serials_are_monotone_and_unique(self):
        gen = WaveGenerator()
        paths = [gen.next_root() for _ in range(10)]
        assert all(len(path) == 1 for path in paths)
        serials = [path[0] for path in paths]
        assert serials == sorted(serials)
        assert len(set(serials)) == 10


class TestFrontierFollowsTagOrder:
    """The frontier advances in sorted root-tag (admission) order."""

    @settings(max_examples=50, deadline=None)
    @given(
        serials=st.lists(
            st.integers(min_value=0, max_value=999),
            min_size=1,
            max_size=12,
            unique=True,
        ),
        data=st.data(),
    )
    def test_advancement_order_equals_sorted_root_order(
        self, serials, data
    ):
        # Sources admit roots with monotone timestamps in serial order,
        # but the waves *complete* in an arbitrary permutation — the
        # frontier must still pass each admission timestamp in sorted
        # root-tag order, never skipping ahead of an outstanding root.
        tracker = FrontierTracker()
        admitted = {}
        for serial in sorted(serials):
            tag = WaveTag.root(serial)
            event = CWEvent("x", 1_000 * serial, tag)
            tracker.observe(event)
            admitted[serial] = event.timestamp
        completion = data.draw(st.permutations(sorted(serials)))

        outstanding = set(serials)
        frontiers = []
        for serial in completion:
            tracker.retire(WaveTag.root(serial))
            outstanding.discard(serial)
            frontier = tracker.frontier_ts()
            if outstanding:
                # The oldest *outstanding* root bounds the frontier,
                # whatever completed in between.
                assert frontier == admitted[min(outstanding)]
                frontiers.append(frontier)
            else:
                assert frontier is None
        # The frontier trajectory itself is monotone: sorted root order.
        assert frontiers == sorted(frontiers)


class TestWaveScope:
    def test_outputs_get_sequential_child_tags(self):
        scope = WaveScope((1,))
        assert scope.tag_for_output() == (1, 1)
        assert scope.tag_for_output() == (1, 2)
        assert scope.produced == 2

    def test_close_marks_last_event(self):
        scope = WaveScope((1,))
        events = []
        for _ in range(3):
            event = CWEvent("x", 0, scope.tag_for_output())
            scope.note_event(event)
            events.append(event)
        scope.close()
        assert [e.last_in_wave for e in events] == [False, False, True]

    def test_close_without_events_is_noop(self):
        scope = WaveScope((1,))
        scope.close()  # must not raise

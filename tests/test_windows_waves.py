"""Wave-based window semantics: synchronizing complete waves."""

from repro.core.events import CWEvent
from repro.core.waves import WaveTag
from repro.core.windows import WindowOperator, WindowSpec


def wave_events(serial, count):
    """A complete wave: *count* children of one root, last one marked."""
    root = WaveTag.root(serial)
    events = [
        CWEvent(f"{serial}.{i}", serial * 100, root.child(i))
        for i in range(1, count + 1)
    ]
    events[-1].last_in_wave = True
    return events


class TestWaveWindows:
    def test_window_produced_when_wave_closes(self):
        op = WindowOperator(WindowSpec.waves(1))
        first, second, third = wave_events(1, 3)
        assert op.put(first) == []
        assert op.put(second) == []
        produced = op.put(third)
        assert len(produced) == 1
        assert produced[0].values == ["1.1", "1.2", "1.3"]

    def test_interleaved_waves_stay_separate(self):
        op = WindowOperator(WindowSpec.waves(1))
        wave_a = wave_events(1, 2)
        wave_b = wave_events(2, 2)
        produced = []
        produced += op.put(wave_a[0])
        produced += op.put(wave_b[0])
        produced += op.put(wave_b[1])  # closes wave 2
        assert len(produced) == 1
        assert produced[0].values == ["2.1", "2.2"]
        produced = op.put(wave_a[1])  # closes wave 1
        assert produced[0].values == ["1.1", "1.2"]

    def test_multi_wave_window(self):
        op = WindowOperator(WindowSpec.waves(2))
        produced = []
        for event in wave_events(1, 2) + wave_events(2, 1):
            produced.extend(op.put(event))
        assert len(produced) == 1
        assert sorted(produced[0].values) == ["1.1", "1.2", "2.1"]

    def test_delete_used_consumes_waves(self):
        op = WindowOperator(WindowSpec.waves(1, delete_used_events=True))
        for event in wave_events(1, 2):
            op.put(event)
        # Wave 1 consumed; feeding wave 2 must not resurface wave 1.
        produced = []
        for event in wave_events(2, 2):
            produced.extend(op.put(event))
        assert len(produced) == 1
        assert produced[0].values == ["2.1", "2.2"]

    def test_unconsumed_waves_expire_on_step(self):
        op = WindowOperator(
            WindowSpec.waves(1, step=1, delete_used_events=False)
        )
        for event in wave_events(1, 2):
            op.put(event)
        assert [e.value for e in op.expired] == ["1.1", "1.2"]

    def test_force_timeout_flushes_open_waves(self):
        op = WindowOperator(WindowSpec.waves(1))
        first, _, _ = wave_events(1, 3)
        op.put(first)
        produced = op.force_timeout()
        assert len(produced) == 1
        assert produced[0].values == ["1.1"]
        assert produced[0].forced
        assert op.pending_count() == 0

    def test_single_event_wave(self):
        # A root external event is its own closed wave.
        op = WindowOperator(WindowSpec.waves(1))
        event = CWEvent("solo", 5, WaveTag.root(9), last_in_wave=True)
        produced = op.put(event)
        assert [w.values for w in produced] == [["solo"]]

    def test_sliding_multi_wave_windows_advance_by_step(self):
        """size 3 / step 2: roots leave two at a time, in closing order."""
        op = WindowOperator(
            WindowSpec.waves(3, step=2, delete_used_events=False)
        )
        produced = []
        for serial in (4, 2, 9, 7, 5, 1):  # closing order, not serial order
            for event in wave_events(serial, 2):
                produced.extend(op.put(event))
        roots = [
            sorted({int(value.split(".")[0]) for value in w.values})
            for w in produced
        ]
        assert roots == [[2, 4, 9], [5, 7, 9]]
        assert sorted(e.value for e in op.expired) == sorted(
            f"{serial}.{i}" for serial in (4, 2, 9, 7) for i in (1, 2)
        )
        state = op._groups[None]
        assert list(state.closed_roots) == [5, 1]
        assert list(state.events_by_root) == [5, 1]

    def test_repeated_last_mark_closes_a_root_once(self):
        op = WindowOperator(WindowSpec.waves(2))
        root = WaveTag.root(3)
        for index in (1, 2):
            marked = CWEvent(f"3.{index}", 300, root.child(index))
            marked.last_in_wave = True
            assert op.put(marked) == []
        assert list(op._groups[None].closed_roots) == [3]
        produced = []
        for event in wave_events(8, 1):
            produced.extend(op.put(event))
        assert [w.values for w in produced] == [["3.1", "3.2", "8.1"]]

    def test_closed_roots_travel_as_a_list(self):
        """The snapshot wire form predates the ordered-set representation."""
        import pickle

        op = WindowOperator(WindowSpec.waves(3))
        for serial in (6, 4):
            for event in wave_events(serial, 1):
                op.put(event)
        state = op._groups[None]
        assert state.__reduce__()[1][1] == [6, 4]
        revived = pickle.loads(pickle.dumps(state))
        assert list(revived.closed_roots) == [6, 4]
        restored = WindowOperator(WindowSpec.waves(3))
        restored.state_restore(pickle.loads(pickle.dumps(op.state_dump())))
        produced = []
        for event in wave_events(5, 1):
            produced.extend(restored.put(event))
        assert [w.values for w in produced] == [["4.1", "5.1", "6.1"]]

"""Window-operator snapshots: one pinned wire format, older ones restore.

Both fixtures under ``tests/data`` were written from :func:`phase_one`
below (run this module as a script to regenerate the current one):

* ``pr17_window_state.pkl`` — today's format (snapshot format 2), written
  by the commit that dropped the write-only ``last_seen`` stamps and the
  wave groups' ``open_order``: the same run must pickle to the **same
  bytes**;
* ``pr12_window_state.pkl`` — format-1 bytes from the commit *before* the
  pane-boundary index landed, still carrying both dead fields.

Either restores — rebuilding the (derived) index in one pass — and the
resumed operators produce exactly what an uninterrupted run does.
"""

import copy
import pickle
from pathlib import Path

from repro.core import windows as windows_module
from repro.core.events import CWEvent
from repro.core.windows import WindowOperator, WindowSpec

FIXTURE = Path(__file__).parent / "data" / "pr17_window_state.pkl"
FORMAT_1_FIXTURE = Path(__file__).parent / "data" / "pr12_window_state.pkl"
#: Non-orderable group keys, as real group-by clauses produce them.
KEYS = [None, 3, ("x", 1), "car", (None, 2)]


#: One root path per serial, shared by every operator's event of that
#: serial.  The fixtures were pickled while root tags were interned, so
#: the pickle memo wrote each serial's path once and referenced it after.
_ROOT_PATHS: dict = {}


def make_event(serial, key, ts, last=False):
    path = _ROOT_PATHS.setdefault(serial, (serial,))
    event = CWEvent({"k": key, "n": serial}, ts, path, last)
    event.seq = serial  # the global counter's position is not state
    return event


def operators():
    return {
        "time_tumbling": WindowOperator(
            WindowSpec.time(10, group_by="k", delete_used_events=True)
        ),
        "time_sliding": WindowOperator(WindowSpec.time(12, 4, group_by="k")),
        "tokens": WindowOperator(WindowSpec.tokens(3, 2, group_by="k")),
        "waves": WindowOperator(
            WindowSpec.waves(3, step=1, group_by="k", delete_used_events=False)
        ),
    }


def phase_one(ops):
    """Leave every operator mid-formation: partial, drained, idle groups."""
    for serial in range(1, 61):
        # "gone" is only seen early: the timeout at 30 drains it for good.
        key = "gone" if serial in (4, 9) else KEYS[serial % len(KEYS)]
        ts = serial * 3 - (7 if serial % 6 == 0 else 0)  # some out of order
        for op in ops.values():
            op.put(make_event(serial, key, ts, last=serial % 2 == 0))
        if serial == 30:
            for op in ops.values():
                op.force_timeout(70)
        if serial == 45:
            ops["time_tumbling"].force_timeout(None)
    return {name: op.state_dump() for name, op in ops.items()}


def phase_two(ops):
    """What a resumed run goes on to produce (every windowed entry point)."""
    trail = []

    def note(name, windows):
        trail.append(
            (
                name,
                [
                    (
                        w.group_key, w.start, w.end, w.forced,
                        [e.value["n"] for e in w],
                    )
                    for w in windows
                ],
            )
        )

    for name, op in ops.items():
        trail.append((name, op.next_deadline(), op.group_keys))
        note(name, op.force_timeout(175))
        for serial in range(61, 91):
            key = KEYS[(serial * 2) % len(KEYS)]
            event = make_event(serial, key, serial * 3, last=serial % 3 == 0)
            note(name, op.put(event))
        trail.append((name, op.next_deadline(), op.next_frontier_boundary(400)))
        note(name, op.close_on_frontier(260))
        note(name, op.force_timeout(None))
        trail.append(
            (name, [e.value["n"] for e in op.expired], op.total_windows)
        )
    return trail


def test_dump_bytes_equal_the_parent_commits():
    assert pickle.dumps(phase_one(operators()), protocol=4) == (
        FIXTURE.read_bytes()
    )


def test_dump_holds_only_what_restore_reads(monkeypatch):
    wave_fields = []
    revive = windows_module._revive_wave_group

    def counting_revive(*fields):
        wave_fields.append(len(fields))
        return revive(*fields)

    monkeypatch.setattr(windows_module, "_revive_wave_group", counting_revive)
    for dump in pickle.loads(FIXTURE.read_bytes()).values():
        assert set(dump) == {
            "groups", "expired", "total_events", "total_windows"
        }
    assert set(wave_fields) == {2}
    # ... and the format-1 fixture really is one.
    del wave_fields[:]
    old = pickle.loads(FORMAT_1_FIXTURE.read_bytes())
    assert all("last_seen" in dump for dump in old.values())
    assert set(wave_fields) == {3}


def test_parent_era_snapshot_resumes_bit_identical():
    uninterrupted = operators()
    phase_one(uninterrupted)
    reference = phase_two(uninterrupted)

    for fixture in (FORMAT_1_FIXTURE, FIXTURE):
        resumed = operators()
        dumps = pickle.loads(fixture.read_bytes())
        for name, op in resumed.items():
            op.state_restore(dumps[name])
        assert phase_two(resumed) == reference, fixture.name


def test_restore_rebuilds_the_index_in_one_pass():
    """Ordinals follow ``_groups`` order; only non-empty groups are heaped."""
    op = operators()["time_sliding"]
    op.state_restore(
        pickle.loads(FORMAT_1_FIXTURE.read_bytes())["time_sliding"]
    )
    assert not op._groups["gone"]
    states = list(op._groups.values())
    assert [state.ordinal for state in states] == list(range(len(states)))
    assert op._next_ordinal == len(states)
    live = [
        (state.window_start + 12, state.ordinal, key)
        for key, state in op._groups.items()
        if state
    ]
    assert 0 < len(live) < len(states)
    assert sorted(op._pane_heap, key=lambda entry: entry[:2]) == sorted(live)
    assert all(state.indexed == bool(state) for state in states)


def test_deepcopy_rederives_the_index():
    """A copy never went through ``state_restore``; it must still resume."""
    originals = operators()
    phase_one(originals)
    copies = copy.deepcopy(originals)
    timed = copies["time_sliding"]
    states = list(timed._groups.values())
    assert [state.ordinal for state in states] == list(range(len(states)))
    assert len(timed._pane_heap) == sum(bool(s) for s in states)
    assert phase_two(copies) == phase_two(originals)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(pickle.dumps(phase_one(operators()), protocol=4))
    print(f"wrote {FIXTURE} ({FIXTURE.stat().st_size} bytes)")

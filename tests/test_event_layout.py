"""The one-object event: what a ``CWEvent`` keeps alive and pickles to.

An event holds its payload and wave path in its own slots; nothing on
the firing path builds a ``Token`` or ``WaveTag`` around them.  These
tests pin that layout three ways: the bytes an emitted event keeps
alive, the pickle bytes of events (snapshots must not change), and the
events the recorded checkpoint fixtures restore to.
"""

import gc
import hashlib
import pickle
from pathlib import Path
from types import BuiltinFunctionType, FunctionType, ModuleType

import pytest

from repro.checkpoint.snapshot import deserialize_snapshot
from repro.core.actors import Actor
from repro.core.context import FiringContext
from repro.core.events import CWEvent
from repro.core.tokens import Token
from repro.core.waves import WaveTag
from tests.capture_routes import CaptureRoutes
from tests.retained_bytes import retained_bytes

DATA = Path(__file__).parent / "data"

#: Bytes one emitted child event keeps alive, its float payload and its
#: slot in the result list included.  Wrapping the payload in a
#: ``Token`` and the path in a ``WaveTag`` per event measured 276.5 B;
#: the event alone measures 196.5 B.
MAX_BYTES_PER_EVENT = 236


class Relay(Actor):
    def __init__(self):
        super().__init__("relay")
        self.add_input("in")
        self.add_output("out")

    def fire(self, ctx):
        pass


def test_emitted_child_events_hold_no_wrappers():
    count = 10_000
    actor = Relay()
    roots = [
        CWEvent(i, 1_000 + i, WaveTag.root(i)) for i in range(1, count + 1)
    ]

    def emit():
        routes = CaptureRoutes(actor)
        ctx = FiringContext(actor, 0, routes)
        for root in roots:
            ctx.reset(0)
            ctx.stage("in", root)
            ctx.read("in")
            ctx.send("out", float(root.value))
            ctx.close()
        return routes.events()

    events = emit()
    assert [event.wave for event in events[:2]] == [
        WaveTag((1, 1)), WaveTag((2, 1))
    ]
    assert all(event.last_in_wave for event in events)
    assert retained_bytes(emit) / count <= MAX_BYTES_PER_EVENT


def _pinned(value, timestamp, wave, last, enqueue_time, seq):
    event = CWEvent(value, timestamp, wave, last)
    event.enqueue_time = enqueue_time
    event.seq = seq  # the global counter's position is not state
    return event


#: ``sha256(pickle.dumps(event, protocol=5))``, recorded when events
#: still held a ``Token`` and a ``WaveTag``: checkpoint snapshots pickle
#: every retained event, so their bytes must not move with the layout.
GOLDEN_PICKLES = {
    "root": (
        lambda: _pinned(42, 1_000, WaveTag.root(3), True, None, 11),
        "332a372315ca774757310cf35cd5d12e7aad6c9786eb8bdac83293e7543b5da9",
    ),
    "child": (
        lambda: _pinned("x", 1_000, WaveTag((3, 1)), False, 1_500, 12),
        "07bbfb256776ef1447c450000fd829902d3c547f2ef9d16fd5bab6fada7f94e9",
    ),
    "last_in_wave": (
        lambda: _pinned(("a", 2), 1_000, WaveTag((3, 2)), True, 1_600, 13),
        "ef5027e41efdd76d30dc57a56444bfe340f05a720535306523db0d20d1173317",
    ),
    "dict_payload": (
        lambda: _pinned(
            {"seg": 4, "speed": 55.5}, 2_000, WaveTag((4, 1, 2)), False,
            2_100, 14,
        ),
        "49e97f23ec6187daf2a99940954859233a092bfce27f817f6d023082581af900",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PICKLES))
def test_event_pickle_bytes_are_unchanged(name):
    build, digest = GOLDEN_PICKLES[name]
    event = build()
    payload = pickle.dumps(event, protocol=5)
    assert hashlib.sha256(payload).hexdigest() == digest
    revived = pickle.loads(payload)
    assert (revived.value, revived.timestamp, revived.wave, revived.seq) == (
        event.value, event.timestamp, event.wave, event.seq
    )


def _events_in(root) -> list:
    """Every ``CWEvent`` reachable from *root* through containers and
    instance state (classes, modules and functions are not walked)."""
    skip = (type, ModuleType, FunctionType, BuiltinFunctionType, str, bytes)
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, CWEvent):
            found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def _fixture_states():
    yield "pr12", pickle.loads((DATA / "pr12_window_state.pkl").read_bytes())
    yield "pr17", pickle.loads((DATA / "pr17_window_state.pkl").read_bytes())
    recorded = pickle.loads(
        (DATA / "pr20_regulated_schedulers.pkl").read_bytes()
    )
    for policy, entry in sorted(recorded.items()):
        yield f"pr20/{policy}", deserialize_snapshot(entry["payload"])


def test_restored_fixture_events_hold_bare_paths_and_payloads():
    for name, state in _fixture_states():
        events = _events_in(state)
        assert events, name
        for event in events:
            assert type(event.path) is tuple, name
            assert event.wave == WaveTag(event.path), name
            assert not isinstance(event.value, Token), name

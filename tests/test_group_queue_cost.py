"""What a window group's queue costs: to hold while idle, to evict at once.

Group queues are plain lists.  An idle group must stay small (Linear Road
keeps one state per car per windowed port), and evicting n events must
take one slice, not n head pops — a ``list.pop(0)`` loop is quadratic.
Timings are compared as the ratio between two sizes, never against a wall
threshold: linear work grows 10x from 5 000 to 50 000 events, a per-event
head pop ~100x.
"""

import sys
import time

import pytest

from repro.core.events import CWEvent
from repro.core.waves import WaveTag
from repro.core.windows import WindowOperator, WindowSpec

SMALL, LARGE = 5_000, 50_000
#: Between linear (10x) and quadratic (100x), clear of timer noise.
MAX_RATIO = 30


def events(count, late_first=False):
    """*count* in-order events; optionally one out-of-order straggler."""
    made = [CWEvent(n, n + 1, WaveTag.root(n + 1)) for n in range(count)]
    if late_first:
        made[2].timestamp = 1  # arrives after timestamp 2: not monotone
    return made


def time_pane(spec_for, late_first=False):
    def close(count):
        """Seconds to close one *count*-event pane, and what it produced."""
        op = WindowOperator(spec_for(count))
        for event in events(count, late_first):
            assert op.put(event) == []
        closer = CWEvent("next", 2 * count + 2, WaveTag.root(count + 1))
        started = time.perf_counter()
        produced = op.put(closer)
        elapsed = time.perf_counter() - started
        assert [len(window) for window in produced] == [count]
        assert op.pending_count() == 1  # only the closing event remains
        return elapsed

    return close


def token_drain(spec_for):
    def close(count):
        op = WindowOperator(spec_for(count))
        *fill, last = events(count)
        for event in fill:
            assert op.put(event) == []
        started = time.perf_counter()
        produced = op.put(last)
        elapsed = time.perf_counter() - started
        assert [len(window) for window in produced] == [count]
        assert op.pending_count() == 0
        return elapsed

    return close


CLOSES = {
    "time-tumbling-consumed": time_pane(
        lambda n: WindowSpec.time(n + 1, delete_used_events=True)
    ),
    "time-tumbling-expired": time_pane(lambda n: WindowSpec.time(n + 1)),
    "time-out-of-order-consumed": time_pane(
        lambda n: WindowSpec.time(n + 1, delete_used_events=True),
        late_first=True,
    ),
    "tokens-consumed": token_drain(
        lambda n: WindowSpec.tokens(n, delete_used_events=True)
    ),
    "tokens-expired": token_drain(lambda n: WindowSpec.tokens(n, step=n)),
}


@pytest.mark.parametrize("name", CLOSES)
def test_closing_a_large_group_is_linear_in_its_size(name):
    close = CLOSES[name]
    small = min(close(SMALL) for _ in range(3))
    large = min(close(LARGE) for _ in range(3))
    assert large / small < MAX_RATIO, (small, large)


@pytest.mark.parametrize(
    "spec",
    [
        WindowSpec.tokens(4, group_by=lambda event: event.value),
        WindowSpec.time(60, group_by=lambda event: event.value),
    ],
    ids=["tokens", "time"],
)
def test_an_idle_group_costs_at_most_256_bytes(spec):
    op = WindowOperator(spec)
    op.put(CWEvent("car", 1, WaveTag.root(1)))
    op.force_timeout(None)  # drained: the state stays, holding nothing
    (state,) = op._groups.values()
    assert not state.queue
    assert sys.getsizeof(state) + sys.getsizeof(state.queue) <= 256

"""Window semantics on the active queues of continuous workflows.

The CWf model attaches *windows* to the event queues feeding each activity
input.  A window turns an unbounded stream into "a finite, yet ever-changing
set of events".  Following the paper, a window operator is configured by five
parameters:

``size``
    The window extent, in one of three measures: a number of **tokens**, a
    span of **time** (microseconds of event time) or a number of **waves**.
``step``
    How far the window advances after production (same measure as ``size``).
``window_formation_timeout``
    An optional engine-time bound after which a partial window is forced out
    (used to close time-based windows when the stream goes quiet).
``group_by``
    An optional clause partitioning the queue into per-key sub-queues; each
    sub-queue forms windows independently (e.g. "last 4 reports *per car*").
``delete_used_events``
    When true, events that participated in a produced window are *consumed*
    and can never appear in a later window (the "continuous" consumption mode
    of Adaikkalavan & Chakravarthy); when false the window slides by ``step``
    and events that fall behind the window are moved to the *expired items
    queue* where another activity may optionally process them.

Window operators are pure data-structure logic: they never look at a clock.
Timeout decisions are made by whichever director owns the receiver, which
calls :meth:`WindowOperator.force_timeout`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict, deque
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Iterable, Optional, Sequence

from ..observability import tracer as _obs
from .events import CWEvent
from .exceptions import WindowError

GroupKey = Any
_WINDOW_SEQ = itertools.count(1)


class Measure(Enum):
    """The unit a window ``size``/``step`` is expressed in."""

    TOKENS = "tokens"
    TIME = "time"
    WAVES = "waves"


class ConsumptionMode(Enum):
    """Hybrid window/consumption modes (Adaikkalavan & Chakravarthy).

    ``UNRESTRICTED``
        events may participate in any number of windows (slide, no delete);
    ``RECENT``
        like unrestricted but only the most recent window is retained when
        production falls behind (bursts collapse to the newest window);
    ``CONTINUOUS``
        every event participates in exactly one window (delete-used).
    """

    UNRESTRICTED = "unrestricted"
    RECENT = "recent"
    CONTINUOUS = "continuous"


def _normalize_group_by(
    group_by: None | str | Sequence[str] | Callable[[CWEvent], GroupKey],
) -> Optional[Callable[[CWEvent], GroupKey]]:
    """Turn the user-facing group-by clause into a key function."""
    if group_by is None:
        return None
    if callable(group_by):
        return group_by
    if isinstance(group_by, str):
        name = group_by
        return lambda event: event.field(name)
    names = tuple(group_by)
    return lambda event: tuple(event.field(name) for name in names)


@dataclass(frozen=True)
class WindowSpec:
    """Declarative description of the window semantics on one input queue."""

    size: int
    step: int
    measure: Measure = Measure.TOKENS
    timeout: Optional[int] = None
    group_by: None | str | Sequence[str] | Callable[[CWEvent], GroupKey] = None
    delete_used_events: bool = False
    mode: Optional[ConsumptionMode] = None

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise WindowError(f"window size must be positive, got {self.size}")
        if self.step <= 0:
            raise WindowError(f"window step must be positive, got {self.step}")
        if self.timeout is not None and self.timeout <= 0:
            raise WindowError("window_formation_timeout must be positive")
        if self.mode is ConsumptionMode.CONTINUOUS and not self.delete_used_events:
            object.__setattr__(self, "delete_used_events", True)
        if self.mode is None:
            mode = (
                ConsumptionMode.CONTINUOUS
                if self.delete_used_events
                else ConsumptionMode.UNRESTRICTED
            )
            object.__setattr__(self, "mode", mode)
        if (
            self.delete_used_events
            and self.measure is not Measure.TIME
            and self.step != self.size
        ):
            # Continuous consumption always removes the whole window, so a
            # different step would be silently ignored — reject the
            # inconsistent combination instead of surprising the user.
            raise WindowError(
                "delete_used_events consumes the full window: step must "
                f"equal size (got size={self.size}, step={self.step}); "
                "omit step or use sliding mode (delete_used_events=False)"
            )

    @classmethod
    def tokens(
        cls,
        size: int,
        step: Optional[int] = None,
        group_by=None,
        delete_used_events: bool = False,
        timeout: Optional[int] = None,
    ) -> "WindowSpec":
        """A tuple-based window of *size* tokens advancing by *step* tokens.

        *step* defaults to 1 for sliding windows and to *size* (tumbling)
        when ``delete_used_events`` is set, keeping the default spec valid
        under the step/size consistency check.
        """
        if step is None:
            step = size if delete_used_events else 1
        return cls(size, step, Measure.TOKENS, timeout, group_by, delete_used_events)

    @classmethod
    def time(
        cls,
        size_us: int,
        step_us: Optional[int] = None,
        group_by=None,
        delete_used_events: bool = False,
        timeout: Optional[int] = None,
    ) -> "WindowSpec":
        """A time-based window of *size_us* microseconds of event time."""
        return cls(
            size_us,
            step_us if step_us is not None else size_us,
            Measure.TIME,
            timeout,
            group_by,
            delete_used_events,
        )

    @classmethod
    def waves(
        cls,
        size: int = 1,
        step: Optional[int] = None,
        group_by=None,
        delete_used_events: bool = True,
        timeout: Optional[int] = None,
    ) -> "WindowSpec":
        """A wave-based window of *size* complete waves.

        *step* defaults to *size* (tumbling) under the default continuous
        consumption, and to 1 (sliding) otherwise — ``waves(2)`` stays a
        valid spec under the step/size consistency check.
        """
        if step is None:
            step = size if delete_used_events else 1
        return cls(size, step, Measure.WAVES, timeout, group_by, delete_used_events)

    def key_function(self) -> Optional[Callable[[CWEvent], GroupKey]]:
        return _normalize_group_by(self.group_by)


class Window:
    """A produced window: an immutable bundle of events for one group key."""

    __slots__ = ("events", "group_key", "start", "end", "forced", "seq")

    def __init__(
        self,
        events: Sequence[CWEvent],
        group_key: GroupKey = None,
        start: Optional[int] = None,
        end: Optional[int] = None,
        forced: bool = False,
    ):
        self.events = tuple(events)
        self.group_key = group_key
        self.start = start
        self.end = end
        self.forced = forced
        self.seq = next(_WINDOW_SEQ)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __getitem__(self, index):
        return self.events[index]

    @property
    def values(self) -> list:
        """The raw payloads of the window's events, in order."""
        return [event.value for event in self.events]

    @property
    def timestamp(self) -> int:
        """The timestamp the window inherits: its newest event's timestamp."""
        if not self.events:
            raise WindowError("an empty window has no timestamp")
        return max(event.timestamp for event in self.events)

    @property
    def oldest_timestamp(self) -> int:
        if not self.events:
            raise WindowError("an empty window has no timestamp")
        return min(event.timestamp for event in self.events)

    def __repr__(self) -> str:
        key = f", key={self.group_key!r}" if self.group_key is not None else ""
        return f"Window(n={len(self.events)}{key})"

    def __reduce__(self):
        """Fast pickle path for checkpoint snapshots.

        Expired-window queues can hold thousands of windows; the slot
        protocol pays a per-object ``copyreg._slotnames`` lookup and the
        default rebuild would draw a fresh ``_WINDOW_SEQ`` serial.  The
        revive helper bypasses ``__init__`` so the original ``seq``
        survives — window ordering stays bit-identical across resume.
        """
        return (
            _revive_window,
            (
                self.events,
                self.group_key,
                self.start,
                self.end,
                self.forced,
                self.seq,
            ),
        )


def _revive_window(events, group_key, start, end, forced, seq) -> "Window":
    """Rebuild a pickled window verbatim (no ``_WINDOW_SEQ`` draw)."""
    window = Window.__new__(Window)
    window.events = events
    window.group_key = group_key
    window.start = start
    window.end = end
    window.forced = forced
    window.seq = seq
    return window


class _TokenGroupState:
    """Per-group formation state for tuple-based windows."""

    __slots__ = ("queue", "skip_debt")

    def __init__(self) -> None:
        #: A plain list, evicted by one ``del queue[:cut]`` per advance:
        #: Linear Road holds one state per car with at most four reports,
        #: and a block-allocated double-ended queue is 760 bytes empty.
        self.queue: list[CWEvent] = []
        #: Events still owed to a past advance (only when step > size).
        self.skip_debt = 0

    def __reduce__(self):
        """Fast pickle path (snapshots carry one state per group key).

        The queue is flattened to a tuple, which serializes natively
        and keeps the dump independent of the in-memory container.  The
        queue is owned exclusively by this state, so rebuilding a fresh
        list cannot split any shared reference.
        """
        return (_revive_token_group, (tuple(self.queue), self.skip_debt))


class _TimeGroupState:
    """Per-group formation state for time-based windows."""

    __slots__ = (
        "queue", "window_start", "last_ts", "monotone", "ordinal", "indexed"
    )

    def __init__(self) -> None:
        self.queue: list[CWEvent] = []
        self.window_start: Optional[int] = None
        #: Timestamp of the most recently appended event and whether the
        #: queue is still in non-decreasing timestamp order — the common
        #: case, where a pane is one slice between two cuts.
        self.last_ts: Optional[int] = None
        self.monotone = True
        #: Creation rank among the operator's groups and whether the
        #: operator's pane-boundary heap holds an entry for this state.
        #: Both are derived (rebuilt on restore), never pickled.
        self.ordinal = 0
        self.indexed = False

    def __reduce__(self):
        """Fast pickle path (see :meth:`_TokenGroupState.__reduce__`)."""
        return (
            _revive_time_group,
            (
                tuple(self.queue),
                self.window_start,
                self.last_ts,
                self.monotone,
            ),
        )


class _WaveGroupState:
    """Per-group formation state for wave-based windows."""

    __slots__ = ("events_by_root", "closed_roots")

    def __init__(self) -> None:
        self.events_by_root: "OrderedDict[int, list[CWEvent]]" = OrderedDict()
        #: Closed wave roots in closing order (an insertion-ordered set).
        self.closed_roots: dict[int, None] = {}

    def __reduce__(self):
        """Fast pickle path (snapshots carry one state per group key)."""
        return (
            _revive_wave_group,
            (self.events_by_root, list(self.closed_roots)),
        )


def _revive_token_group(queue: tuple, skip_debt: int) -> "_TokenGroupState":
    state = _TokenGroupState.__new__(_TokenGroupState)
    state.queue = list(queue)
    state.skip_debt = skip_debt
    return state


def _revive_time_group(
    queue: tuple, window_start, last_ts, monotone
) -> "_TimeGroupState":
    state = _TimeGroupState.__new__(_TimeGroupState)
    state.queue = list(queue)
    state.window_start = window_start
    state.last_ts = last_ts
    state.monotone = monotone
    state.ordinal = 0
    state.indexed = False
    return state


def _revive_wave_group(
    events_by_root, closed_roots, open_order=None
) -> "_WaveGroupState":
    """Rebuild a pickled wave group.

    Snapshot format 1 pickled a third field, ``open_order``, that
    nothing ever read; it is accepted and dropped.
    """
    state = _WaveGroupState.__new__(_WaveGroupState)
    state.events_by_root = events_by_root
    state.closed_roots = dict.fromkeys(closed_roots)
    return state


def _cut_before(queue: list, bound: int) -> int:
    """Length of *queue*'s leading run of events stamped before *bound*."""
    cut = 0
    for event in queue:
        if event.timestamp >= bound:
            break
        cut += 1
    return cut


class WindowOperator:
    """Runs the window-formation logic for one windowed input queue.

    The operator owns one formation state per group-by key, an *expired
    items* queue, and exposes three entry points:

    * :meth:`put` — insert an event; returns any windows it completed;
    * :meth:`force_timeout` — close the pending window of a group on the
      director's timeout signal; returns the forced window, if any;
    * :meth:`next_deadline` — the earliest event-time boundary at which a
      time-based group could produce, so directors can register timeouts.

    Time-measured operators keep a **pane-boundary index**: a min-heap of
    ``(right boundary, group ordinal, key)`` with at most one entry per
    group that holds events.  A group's boundary only ever moves forward,
    so an entry may lag behind its group; it is repaired when it reaches
    the top (see :meth:`_peek_boundary`).  Deadline queries are a heap
    peek and timed closes pop only the due groups — the cost follows the
    groups with work in flight, not every key ever seen.
    """

    def __init__(self, spec: WindowSpec):
        self.spec = spec
        self._key_fn = spec.key_function()
        self._groups: "OrderedDict[GroupKey, Any]" = OrderedDict()
        self.expired: deque[CWEvent] = deque()
        self.total_events = 0
        self.total_windows = 0
        # The measure's state class and insertion routine, bound once.
        self._timed = spec.measure is Measure.TIME
        if spec.measure is Measure.TOKENS:
            self._state_cls, self._put_one = _TokenGroupState, self._put_tokens
        elif self._timed:
            self._state_cls, self._put_one = _TimeGroupState, self._put_time
        else:
            self._state_cls, self._put_one = _WaveGroupState, self._put_waves
        #: Pane-boundary index (derived state, never dumped).
        self._pane_heap: list[tuple[int, int, GroupKey]] = []
        self._next_ordinal = 0

    # ------------------------------------------------------------------
    # Group management
    # ------------------------------------------------------------------
    def _new_group(self, key: GroupKey):
        """Create and register the formation state of a first-seen key."""
        state = self._groups[key] = self._state_cls()
        if self._timed:
            state.ordinal = self._next_ordinal
            self._next_ordinal += 1
        return state

    @property
    def group_keys(self) -> list[GroupKey]:
        return list(self._groups.keys())

    def pending_count(self) -> int:
        """Number of events buffered and not yet part of a produced window."""
        total = 0
        for state in self._groups.values():
            if isinstance(state, _WaveGroupState):
                total += sum(len(evts) for evts in state.events_by_root.values())
            else:
                total += len(state.queue)
        return total

    # ------------------------------------------------------------------
    # Event admission
    # ------------------------------------------------------------------
    def put(self, event: CWEvent) -> list[Window]:
        """Insert *event* and return every window its arrival completed."""
        self.total_events += 1
        key_fn = self._key_fn
        key = None if key_fn is None else key_fn(event)
        state = self._groups.get(key)
        if state is None:
            state = self._new_group(key)
        produced = self._put_one(state, key, event)
        if produced:
            self._note_formed(produced)
        return produced

    def put_batch(
        self, events: list[CWEvent], indices: Optional[list[int]] = None
    ) -> list[Window]:
        """Insert a train of events; returns all windows in production order.

        Produces exactly what ``[w for e in events for w in self.put(e)]``
        would, in one loop for grouped and ungrouped specs: an event that
        cannot complete a window — its token group stays short of
        ``size``, or it lands in order inside its group's open pane — is
        appended inline, anything else goes through the measure's
        insertion routine.  *indices*, when given, receives for each
        returned window the position in *events* of its producing event.
        """
        if not events:
            return []
        produced: list[Window] = []
        key_fn = self._key_fn
        groups = self._groups
        put_one = self._put_one
        size = self.spec.size
        tokens = self.spec.measure is Measure.TOKENS
        timed = self._timed
        key = None
        for index, event in enumerate(events):
            if key_fn is not None:
                key = key_fn(event)
            state = groups.get(key)
            if state is None:
                state = self._new_group(key)
            if tokens:
                queue = state.queue
                if not state.skip_debt and len(queue) + 1 < size:
                    queue.append(event)
                    continue
            elif timed and state.indexed:
                # Indexed: the group holds events, so both marks are set.
                timestamp = event.timestamp
                if state.last_ts <= timestamp < state.window_start + size:
                    state.last_ts = timestamp
                    state.queue.append(event)
                    continue
            made = put_one(state, key, event)
            if made:
                produced.extend(made)
                if indices is not None:
                    indices.extend([index] * len(made))
        self.total_events += len(events)
        if produced:
            self._note_formed(produced)
        return produced

    def _note_formed(self, produced: list[Window]) -> None:
        """Count and trace the windows one ``put``/``put_batch`` formed."""
        self.total_windows += len(produced)
        if _obs.ENABLED:
            for window in produced:
                _obs._TRACER.instant(
                    "window.formed",
                    window.timestamp,
                    size=len(window),
                    group=repr(window.group_key),
                    measure=self.spec.measure.value,
                )

    # -- tuple-based ----------------------------------------------------
    def _put_tokens(
        self, state: _TokenGroupState, key: GroupKey, event: CWEvent
    ) -> list[Window]:
        if state.skip_debt > 0:
            # A previous advance (step > size) owes skipped positions.
            state.skip_debt -= 1
            self.expired.append(event)
            return []
        queue = state.queue
        queue.append(event)
        produced: list[Window] = []
        size, step = self.spec.size, self.spec.step
        # Find how far the queue advances, then evict that prefix in one
        # slice: popping the head per event would shift the whole list
        # each time.  Continuous consumption is always tumbling (the spec
        # enforces step == size for tokens), so it never runs up a debt.
        cut = 0
        while len(queue) - cut >= size:
            produced.append(Window(queue[cut:cut + size], key))
            dropped = min(step, len(queue) - cut)
            cut += dropped
            state.skip_debt += step - dropped
        if cut:
            if not self.spec.delete_used_events:
                self.expired.extend(queue[:cut])
            del queue[:cut]
        if self.spec.mode is ConsumptionMode.RECENT and len(produced) > 1:
            produced = [produced[-1]]
        return produced

    # -- time-based -----------------------------------------------------
    def _put_time(
        self, state: _TimeGroupState, key: GroupKey, event: CWEvent
    ) -> list[Window]:
        timestamp = event.timestamp
        if state.window_start is None:
            state.window_start = timestamp
        produced: list[Window] = []
        size = self.spec.size
        # Close every window whose right boundary the new event has crossed.
        while timestamp >= state.window_start + size:
            if not state.queue:
                # Only barren panes remain: land on the pane that holds
                # the event in one step, on the same grid the per-pane
                # loop would walk (a key back from a long idle gap).
                behind = timestamp - state.window_start - size
                step = self.spec.step
                state.window_start += (behind // step + 1) * step
                break
            produced.extend(self._close_time_window(state, key, forced=False))
        if state.last_ts is not None and timestamp < state.last_ts:
            state.monotone = False
        state.last_ts = timestamp
        state.queue.append(event)
        if not state.indexed:
            self._index_group(state, key)
        if self.spec.mode is ConsumptionMode.RECENT and len(produced) > 1:
            produced = [produced[-1]]
        return produced

    def _close_time_window(
        self, state: _TimeGroupState, key: GroupKey, forced: bool
    ) -> list[Window]:
        size, step = self.spec.size, self.spec.step
        start = state.window_start
        assert start is not None
        end = start + size
        queue = state.queue
        if state.monotone:
            # In-order stream (the common case): the pane is the slice
            # between two cuts; anything before it is a pre-start
            # straggler the trailing expiry below takes.
            first, cut = _cut_before(queue, start), _cut_before(queue, end)
            window_events = queue[first:cut]
            if self.spec.delete_used_events:
                del queue[first:cut]
        else:
            window_events = [e for e in queue if start <= e.timestamp < end]
            if self.spec.delete_used_events:
                # Out-of-order continuous consumption: the consumed set
                # is exactly the in-range events.
                queue[:] = [
                    e for e in queue if not start <= e.timestamp < end
                ]
        state.window_start = start + step
        # Expire events that can no longer belong to any future window.
        cut = _cut_before(queue, state.window_start)
        if cut:
            self.expired.extend(queue[:cut])
            del queue[:cut]
        if window_events:
            return [Window(window_events, key, start, end, forced)]
        return []

    # -- wave-based -----------------------------------------------------
    def _put_waves(
        self, state: _WaveGroupState, key: GroupKey, event: CWEvent
    ) -> list[Window]:
        root = event.wave.serial
        if root not in state.events_by_root:
            state.events_by_root[root] = []
        state.events_by_root[root].append(event)
        closed = state.closed_roots
        if event.last_in_wave:
            closed[root] = None
        produced: list[Window] = []
        size, step = self.spec.size, self.spec.step
        while len(closed) >= size:
            roots = list(itertools.islice(closed, size))
            window_events: list[CWEvent] = []
            for r in roots:
                window_events.extend(state.events_by_root[r])
            window_events.sort()
            produced.append(Window(window_events, key))
            consumed = roots if self.spec.delete_used_events else roots[:step]
            for r in consumed:
                events = state.events_by_root.pop(r, [])
                if not self.spec.delete_used_events:
                    self.expired.extend(events)
                del closed[r]
        return produced

    # ------------------------------------------------------------------
    # Pane-boundary index and timeouts
    # ------------------------------------------------------------------
    def _peek_boundary(self) -> Optional[int]:
        """Earliest right boundary of a time group that holds events.

        Repairs the heap top until it is exact: the entry of a drained
        group is dropped, an entry whose group has advanced since it was
        pushed is re-keyed to the group's current boundary.  Boundaries
        only grow, so a lagging entry can only sit *above* its true
        position and the exact top is the true minimum.  Every entry's
        group exists: whatever removes or replaces group states rebuilds
        the index.
        """
        heap = self._pane_heap
        groups = self._groups
        size = self.spec.size
        while heap:
            boundary, ordinal, key = heap[0]
            state = groups[key]
            if not state.queue:
                heapq.heappop(heap)
                state.indexed = False
            elif state.window_start + size != boundary:
                heapq.heapreplace(
                    heap, (state.window_start + size, ordinal, key)
                )
            else:
                return boundary
        return None

    def _index_group(self, state: _TimeGroupState, key: GroupKey) -> None:
        """Enter a non-empty time group into the pane-boundary heap."""
        state.indexed = True
        heapq.heappush(
            self._pane_heap,
            (state.window_start + self.spec.size, state.ordinal, key),
        )

    def _rebuild_index(self) -> None:
        """Re-derive ordinals and the heap from ``_groups`` in one pass."""
        heap = self._pane_heap = []
        if not self._timed:
            return
        size = self.spec.size
        for ordinal, (key, state) in enumerate(self._groups.items()):
            state.ordinal = ordinal
            state.indexed = bool(state.queue)
            if state.indexed:
                heap.append((state.window_start + size, ordinal, key))
        heapq.heapify(heap)
        self._next_ordinal = len(self._groups)

    def _close_due(self, up_to: int, forced: bool) -> list[Window]:
        """Close every pane with a right boundary at or before *up_to*.

        Pops only the due groups and closes them in group-creation
        order, which is the order a pass over ``_groups`` visits them.
        """
        heap = self._pane_heap
        due: list[tuple[int, GroupKey]] = []
        while True:
            boundary = self._peek_boundary()
            if boundary is None or boundary > up_to:
                break
            _, ordinal, key = heapq.heappop(heap)
            due.append((ordinal, key))
        due.sort()
        produced: list[Window] = []
        size = self.spec.size
        for _, key in due:
            state = self._groups[key]
            while state.queue and state.window_start + size <= up_to:
                produced.extend(self._close_time_window(state, key, forced))
            if state.queue:
                self._index_group(state, key)
            else:
                state.indexed = False
        return produced

    def next_deadline(self) -> Optional[int]:
        """Earliest event-time right boundary of any pending time window."""
        if not self._timed:
            return None
        return self._peek_boundary()

    def force_timeout(self, now: Optional[int] = None) -> list[Window]:
        """Force-close pending windows (director-driven timeout).

        For time-based windows, every group whose right boundary is at or
        before *now* (or every non-empty group when *now* is ``None``) closes
        and produces its partial window.  For token/wave windows the current
        partial content of every group is flushed — this is how a director
        drains windows at workflow shutdown.
        """
        produced: list[Window] = []
        if self._timed:
            if now is not None:
                produced = self._close_due(now, forced=True)
            else:
                # Shutdown flush: the one full pass over the groups.
                for key, state in self._groups.items():
                    while state.queue:
                        windows = self._close_time_window(
                            state, key, forced=True
                        )
                        produced.extend(windows)
                        if not windows:
                            # Nothing left inside a boundary; stop flushing.
                            break
        elif self.spec.measure is Measure.TOKENS:
            for key, state in self._groups.items():
                if state.queue:
                    flushed = list(state.queue)
                    produced.append(
                        Window(
                            flushed,
                            key,
                            start=min(e.timestamp for e in flushed),
                            end=max(e.timestamp for e in flushed),
                            forced=True,
                        )
                    )
                    if not self.spec.delete_used_events:
                        # Unrestricted/recent consumption: flushed events
                        # slide out through the expired-items queue, same
                        # as a normal advance — a forced flush must not
                        # silently consume them.
                        self.expired.extend(flushed)
                    state.queue.clear()
                # A forced flush ends the current formation cycle, so any
                # positions still owed to a past advance are forgiven.
                state.skip_debt = 0
        else:
            for key, state in self._groups.items():
                if not isinstance(state, _WaveGroupState):
                    continue
                leftovers: list[CWEvent] = []
                for events in state.events_by_root.values():
                    leftovers.extend(events)
                if leftovers:
                    leftovers.sort()
                    produced.append(
                        Window(
                            leftovers,
                            key,
                            start=min(e.timestamp for e in leftovers),
                            end=max(e.timestamp for e in leftovers),
                            forced=True,
                        )
                    )
                    if not self.spec.delete_used_events:
                        self.expired.extend(leftovers)
                state.events_by_root.clear()
                state.closed_roots.clear()
        self.total_windows += len(produced)
        if produced:
            if _obs.ENABLED:
                for window in produced:
                    _obs._TRACER.instant(
                        "window.forced",
                        window.timestamp if len(window) else (now or 0),
                        size=len(window),
                        group=repr(window.group_key),
                    )
        return produced

    def next_frontier_boundary(self, up_to_us: int) -> Optional[int]:
        """Earliest closable pane boundary at or before *up_to_us*.

        The minimum right boundary (``window_start + size``) over every
        non-empty time group, or ``None`` when no pane is complete yet.
        Directors use this to close frontier panes one event-time
        boundary at a time, so a closure that feeds a downstream timed
        window is fired and delivered before the downstream pane with a
        later boundary closes.
        """
        if not self._timed:
            return None
        boundary = self._peek_boundary()
        if boundary is None or boundary > up_to_us:
            return None
        return boundary

    def close_on_frontier(self, up_to_us: int) -> list[Window]:
        """Close every time-based pane the frontier has passed.

        A frontier at ``up_to_us`` asserts no event with an earlier
        timestamp is still in flight, so panes whose right boundary lies
        at or before it are *complete* — they close through the same
        :meth:`_close_time_window` path an in-order boundary-crossing
        event would take (not ``forced``: the content is exact, unlike a
        formation-timeout guess).  Token- and wave-measured windows
        close by count/mark, never by the frontier; for those this is a
        no-op.
        """
        if not self._timed:
            return []
        produced = self._close_due(up_to_us, forced=False)
        self.total_windows += len(produced)
        if produced and _obs.ENABLED:
            for window in produced:
                _obs._TRACER.instant(
                    "window.frontier_closed",
                    window.timestamp,
                    size=len(window),
                    group=repr(window.group_key),
                )
        return produced

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        """Snapshot formation state (Checkpointable protocol).

        The per-group state objects (``_TokenGroupState`` /
        ``_TimeGroupState`` / ``_WaveGroupState``) are plain slotted
        containers of events and boundaries, so they serialize directly;
        the ``group_by`` key *function* is structural (rebuilt from the
        spec) and is deliberately not part of the dump.  The returned
        dict references live containers — the checkpoint orchestrator
        pickles it synchronously, before the engine takes another step.
        """
        return {
            "groups": self._groups,
            "expired": self.expired,
            "total_events": self.total_events,
            "total_windows": self.total_windows,
        }

    def state_restore(self, state: dict) -> None:
        """Re-apply dumped formation state (Checkpointable protocol)."""
        self._groups = OrderedDict(state["groups"])
        self.expired = deque(state["expired"])
        self.total_events = int(state["total_events"])
        self.total_windows = int(state["total_windows"])
        self._rebuild_index()

    def __setstate__(self, state: dict) -> None:
        """Copies and unpickled operators re-derive the index.

        Group states travel without their ordinal (see
        :meth:`_TimeGroupState.__reduce__`), so a heap carried over
        verbatim would no longer match them.
        """
        self.__dict__.update(state)
        self._rebuild_index()

    def drain_expired(self) -> list[CWEvent]:
        """Remove and return everything in the expired-items queue."""
        items = list(self.expired)
        self.expired.clear()
        if items:
            if _obs.ENABLED:
                _obs._TRACER.instant(
                    "window.expired",
                    max(event.timestamp for event in items),
                    count=len(items),
                )
        return items


def strip_window_timeouts(workflow: Any) -> int:
    """Remove every window-formation timeout from *workflow*'s ports.

    The formation timeout is the one window parameter that fires on
    **engine time** rather than event time: a director force-closes a
    partial window when its own clock passes the pane boundary plus the
    timeout.  How far an engine clock has advanced depends on what else
    shares that engine, so a timeout-forced flush is inherently
    placement-dependent — the same workload can close a sparse pane at
    slightly different points when run whole versus partitioned.

    Deterministic sharded execution therefore runs workflows in
    *event-time-pure* mode: every ``WindowSpec`` loses its ``timeout``
    before the director attaches, and every pane closes only when a
    later event crosses its boundary.  Call this on both the partitioned
    engines and the single-process oracle they are compared against.
    Must run before the director builds receivers (timeouts are
    registered at attach time).  Returns the number of ports stripped.
    """
    stripped = 0
    for actor in workflow.actors.values():
        for port in actor.input_ports.values():
            spec = port.window
            if spec is not None and spec.timeout is not None:
                port.window = replace(spec, timeout=None)
                stripped += 1
    return stripped

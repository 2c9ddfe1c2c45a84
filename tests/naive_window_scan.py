"""Naive scan-based reference window operator (the pre-index code).

This subclass reproduces, verbatim, what ``WindowOperator`` did before the
pane-boundary index landed: ``next_deadline``, ``force_timeout``,
``next_frontier_boundary`` and ``close_on_frontier`` visit **every** group
state on every call, and ``_put_time`` walks the barren panes of an idle
gap one ``_close_time_window`` call at a time.  Nothing here reads or
maintains the index.

It exists solely as the oracle for ``test_property_windows.py``: the
indexed operator must produce the **identical** windows (events, key,
bounds, ``forced``, order, ``seq``), expired queue and deadlines over
random interleavings of every entry point.  Keep it byte-for-byte dumb, as ``naive_schedulers.py`` is; any
cleverness here defeats the point of the oracle.
"""

from __future__ import annotations

from typing import Optional

from repro.core.events import CWEvent
from repro.core.windows import (
    ConsumptionMode,
    GroupKey,
    Measure,
    Window,
    WindowOperator,
    _TimeGroupState,
    _WaveGroupState,
)
from repro.observability import tracer as _obs


class NaiveScanWindowOperator(WindowOperator):
    """Historical shape: O(groups ever seen) per deadline/timeout call."""

    def _put_time(
        self, state: _TimeGroupState, key: GroupKey, event: CWEvent
    ) -> list[Window]:
        if state.window_start is None:
            state.window_start = event.timestamp
        produced: list[Window] = []
        size, step = self.spec.size, self.spec.step
        # Close every window whose right boundary the new event has crossed.
        while event.timestamp >= state.window_start + size:
            produced.extend(self._close_time_window(state, key, forced=False))
        if state.last_ts is not None and event.timestamp < state.last_ts:
            state.monotone = False
        state.last_ts = event.timestamp
        state.queue.append(event)
        if self.spec.mode is ConsumptionMode.RECENT and len(produced) > 1:
            produced = [produced[-1]]
        return produced

    def next_deadline(self) -> Optional[int]:
        """Earliest event-time right boundary of any pending time window."""
        if self.spec.measure is not Measure.TIME:
            return None
        deadlines = [
            state.window_start + self.spec.size
            for state in self._groups.values()
            if isinstance(state, _TimeGroupState)
            and state.window_start is not None
            and state.queue
        ]
        if not deadlines:
            return None
        return min(deadlines)

    def force_timeout(self, now: Optional[int] = None) -> list[Window]:
        produced: list[Window] = []
        if self.spec.measure is Measure.TIME:
            for key, state in self._groups.items():
                if not isinstance(state, _TimeGroupState) or not state.queue:
                    continue
                while state.queue and (
                    now is None or state.window_start + self.spec.size <= now
                ):
                    windows = self._close_time_window(state, key, forced=True)
                    produced.extend(windows)
                    if not windows and now is None:
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
        if self.spec.measure is not Measure.TIME:
            return None
        size = self.spec.size
        boundary: Optional[int] = None
        for state in self._groups.values():
            if not isinstance(state, _TimeGroupState) or not state.queue:
                continue
            end = state.window_start + size
            if end <= up_to_us and (boundary is None or end < boundary):
                boundary = end
        return boundary

    def close_on_frontier(self, up_to_us: int) -> list[Window]:
        if self.spec.measure is not Measure.TIME:
            return []
        produced: list[Window] = []
        size = self.spec.size
        for key, state in self._groups.items():
            if not isinstance(state, _TimeGroupState) or not state.queue:
                continue
            while state.queue and state.window_start + size <= up_to_us:
                produced.extend(
                    self._close_time_window(state, key, forced=False)
                )
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

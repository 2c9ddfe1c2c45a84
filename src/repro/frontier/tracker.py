"""The frontier tracker: outstanding-token counts per root wave-tag.

Every event in flight holds one *token* against the root tag of its
wave.  Tokens are added where an item enters a ready queue, the SCWF
director's one intake, and retired when the corresponding ready item
finishes — successfully, dead-lettered, or dropped.  Events absorbed
into window state are *consumed* from the frontier's perspective: the
window itself, once delivered, holds a fresh token under its newest
member's root.

The frontier is the admission timestamp of the oldest root that still
has outstanding tokens.  Because counts only reach zero when a wave's
entire derivation tree has drained, the frontier advances exactly at
wave completion — independent of the order in which the marked
last-events arrive, which is what makes it safe for out-of-order
sources and for cross-worker merging (the sharded coordinator takes the
minimum of per-worker frontiers).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional

from ..observability import tracer as _obs


class FrontierTracker:
    """Counts outstanding wave tokens and derives the timestamp frontier.

    The SCWF director calls :meth:`observe_item` at its intake and
    :meth:`retire_item` once an item's firing (or held train) settled.
    ``mode`` is ``"track"`` (observe only: counters and traces) or
    ``"close"`` (the director additionally closes timed windows the
    frontier has passed).  ``external`` marks trackers whose closure
    decisions come from outside (the shard coordinator's merged
    minimum) — the director's idle-loop consult then never self-closes.
    """

    def __init__(self, mode: str = "track", external: bool = False):
        if mode not in ("track", "close"):
            raise ValueError(f"unknown frontier mode {mode!r}")
        self.mode = mode
        self.external = external
        #: Outstanding token count per root serial.
        self._outstanding: dict[int, int] = {}
        #: Admission timestamp (us) per outstanding root serial.
        self._admit_ts: dict[int, int] = {}
        #: Lazy min-heap of (admit_ts, serial) over outstanding roots.
        self._heap: list[tuple[int, int]] = []
        #: Newest admission timestamp any token carried.
        self.max_admitted_us = -1
        #: Event-time frontier already applied to window closure.
        self.applied_us = -1
        self.frontier_advances = 0
        self.late_events = 0
        #: Live reference to ``StatisticsRegistry.engine_counters``.
        self._counters: Optional[dict] = None

    # ------------------------------------------------------------------
    # Accounting (hot path)
    # ------------------------------------------------------------------
    def observe(self, event) -> None:
        """Add one token for *event* entering flight."""
        serial = event.path[0]
        outstanding = self._outstanding
        count = outstanding.get(serial)
        if count is not None:
            outstanding[serial] = count + 1
            return
        outstanding[serial] = 1
        ts = event.timestamp
        self._admit_ts[serial] = ts
        heappush(self._heap, (ts, serial))
        if ts > self.max_admitted_us:
            self.max_admitted_us = ts

    def observe_item(self, item) -> None:
        """Add one token for a ready item (event, or delivered window).

        A delivered window holds its token under the newest member's
        root — the wave-window adoption rule.  Duck-typed on ``events``
        so the tracker does not import the window machinery.
        """
        events = getattr(item, "events", None)
        if events is None:
            self.observe(item)
        elif events:
            self.observe(max(events))

    def retire(self, tagged) -> None:
        """Retire one token of the root of *tagged* (an event or a
        :class:`~repro.core.waves.WaveTag`: anything with a wave
        ``path``); trace frontier advances."""
        serial = tagged.path[0]
        outstanding = self._outstanding
        count = outstanding.get(serial)
        if count is None:
            return
        if count > 1:
            outstanding[serial] = count - 1
            return
        del outstanding[serial]
        del self._admit_ts[serial]
        self.frontier_advances += 1
        if _obs.ENABLED:
            frontier = self.frontier_ts()
            _obs._TRACER.instant(
                "frontier.advance",
                frontier if frontier is not None else self.max_admitted_us,
                wave=str(serial),
                outstanding=len(outstanding),
            )

    def retire_item(self, item) -> None:
        """Retire the token :meth:`observe_item` added for *item*."""
        events = getattr(item, "events", None)
        if events is None:
            self.retire(item)
        elif events:
            self.retire(max(events))

    # ------------------------------------------------------------------
    # Frontier queries
    # ------------------------------------------------------------------
    def frontier_ts(self) -> Optional[int]:
        """Admission timestamp of the oldest outstanding root, else None."""
        heap, outstanding = self._heap, self._outstanding
        while heap and heap[0][1] not in outstanding:
            heappop(heap)
        return heap[0][0] if heap else None

    def outstanding_tokens(self) -> int:
        return sum(self._outstanding.values())

    def lag_us(self, now_us: int) -> int:
        """How far engine time has run ahead of the frontier."""
        frontier = self.frontier_ts()
        if frontier is None:
            return 0
        return max(0, now_us - frontier)

    def note_late(self) -> None:
        self.late_events += 1

    def note_applied(self, up_to_us: int) -> None:
        if up_to_us > self.applied_us:
            self.applied_us = up_to_us

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def bind_counters(self, counters: dict) -> None:
        """Publish into a live ``engine_counters`` dict (snapshot())."""
        self._counters = counters
        self.publish(0)

    def publish(self, now_us: int) -> None:
        counters = self._counters
        if counters is None:
            return
        counters["frontier_advances"] = float(self.frontier_advances)
        counters["frontier_lag_us"] = float(self.lag_us(now_us))
        counters["frontier_outstanding"] = float(self.outstanding_tokens())
        counters["late_events"] = float(self.late_events)

    # ------------------------------------------------------------------
    # Checkpointable protocol
    # ------------------------------------------------------------------
    def state_dump(self) -> dict:
        return {
            "outstanding": dict(self._outstanding),
            "admit_ts": dict(self._admit_ts),
            "max_admitted_us": self.max_admitted_us,
            "applied_us": self.applied_us,
            "frontier_advances": self.frontier_advances,
            "late_events": self.late_events,
        }

    def state_restore(self, state: dict) -> None:
        self._outstanding = {
            int(serial): count
            for serial, count in state["outstanding"].items()
        }
        self._admit_ts = {
            int(serial): ts for serial, ts in state["admit_ts"].items()
        }
        self._heap = [
            (ts, serial) for serial, ts in self._admit_ts.items()
        ]
        heapify(self._heap)
        self.max_admitted_us = state["max_admitted_us"]
        self.applied_us = state["applied_us"]
        self.frontier_advances = state["frontier_advances"]
        self.late_events = state["late_events"]
        self.publish(0)

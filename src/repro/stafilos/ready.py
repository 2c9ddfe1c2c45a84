"""Per-actor ready queues: the event staging area inside the scheduler.

The abstract scheduler "maintains a list of the workflow's actors, and maps
them to queues of events (sorted by timestamp) that should be propagated to
each actor's corresponding input ports when they are to be scheduled for
execution."  A :class:`ReadyItem` remembers which input port the window or
event belongs to so the director can stage it correctly.

Ready queues sit on the per-event enqueue path, so they stay lean: the
sort key is read straight off the item (windows and events expose the same
``timestamp`` attribute — no type dispatch needed), and an optional shared
:class:`BacklogTally` lets the owning scheduler keep O(1) aggregate backlog
counters instead of re-summing every queue.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Optional

_TIEBREAK = itertools.count()


class BacklogTally:
    """Aggregate counters over the ready queues that share this tally."""

    __slots__ = ("items", "nonempty_internal")

    def __init__(self):
        #: Ready items across every sharing queue.
        self.items = 0
        #: Sharing queues flagged *internal* that hold at least one item.
        self.nonempty_internal = 0


class ReadyItem:
    """One schedulable unit of work for an actor: (port, window-or-event).

    A hand-rolled slotted class rather than ``@dataclass(order=True)``:
    the generated comparator rebuilt compare-tuples on every heap sift
    and dominated dispatch profiles.  Comparison is by ``sort_key`` only
    (timestamp, then a global tie-break serial), exactly as before.
    Pickle round-trips the slots directly — ``__init__`` is bypassed, so
    the tie-break counter is not consumed when a checkpoint snapshot is
    restored.
    """

    __slots__ = ("sort_key", "port_name", "item")

    def __init__(self, port_name: str, item: Any):
        # Windows and events both carry a ``timestamp`` attribute; read it
        # once (this runs on every enqueue).
        self.sort_key = (item.timestamp, next(_TIEBREAK))
        self.port_name = port_name
        self.item = item

    def __lt__(self, other: "ReadyItem") -> bool:
        return self.sort_key < other.sort_key

    def __le__(self, other: "ReadyItem") -> bool:
        return self.sort_key <= other.sort_key

    def __gt__(self, other: "ReadyItem") -> bool:
        return self.sort_key > other.sort_key

    def __ge__(self, other: "ReadyItem") -> bool:
        return self.sort_key >= other.sort_key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReadyItem) and self.sort_key == other.sort_key
        )

    __hash__ = None  # mirror dataclass(eq=True): un-hashable by design

    def __repr__(self) -> str:
        return (
            f"ReadyItem(sort_key={self.sort_key!r}, "
            f"port_name={self.port_name!r}, item={self.item!r})"
        )

    @property
    def timestamp(self) -> int:
        return self.sort_key[0]


class ReadyQueue:
    """A timestamp-ordered queue of :class:`ReadyItem` for one actor.

    Two internal representations with identical observable behaviour
    (keys are globally unique, so heap pop order *is* sorted order):

    * **sorted-run mode** (``_sorted`` True) — ``_heap[_head:]`` is an
      ascending run; pops advance the ``_head`` cursor in O(1) and
      pushes that arrive in key order append in O(1).  This is the
      steady state of event streams: trains land as sorted runs and
      per-event pushes draw monotone tie-break serials.
    * **heap mode** (``_sorted`` False) — classic ``heapq`` over the
      whole list (``_head`` is 0), entered the moment an out-of-order
      push arrives (e.g. a late window behind queued events).

    Mode switches never reorder pops and never touch the tally, so the
    representation is invisible to schedulers and checkpoints.
    """

    __slots__ = ("_heap", "_head", "_sorted", "_tally", "_internal")

    def __init__(
        self, tally: Optional[BacklogTally] = None, internal: bool = False
    ):
        self._heap: list[ReadyItem] = []
        self._head = 0
        self._sorted = True
        self._tally = tally
        self._internal = internal

    def _resized(self, old: int, new: int) -> None:
        """Keep the shared tally exact across a size change."""
        tally = self._tally
        if tally is None:
            return
        tally.items += new - old
        if self._internal:
            if old == 0 and new > 0:
                tally.nonempty_internal += 1
            elif old > 0 and new == 0:
                tally.nonempty_internal -= 1

    # ------------------------------------------------------------------
    def _enter_heap_mode(self) -> None:
        """Compact the consumed prefix away; the sorted suffix is
        already a valid heap, so no ``heapify`` is needed."""
        if self._head:
            del self._heap[: self._head]
            self._head = 0
        self._sorted = False

    def push(self, port_name: str, item: Any) -> ReadyItem:
        ready = ReadyItem(port_name, item)
        heap = self._heap
        old = len(heap) - self._head
        if self._sorted:
            if old == 0:
                if heap:
                    heap.clear()
                    self._head = 0
                heap.append(ready)
            elif heap[-1].sort_key <= ready.sort_key:
                heap.append(ready)
            else:
                self._enter_heap_mode()
                heapq.heappush(self._heap, ready)
        else:
            heapq.heappush(heap, ready)
        tally = self._tally  # ``_resized(old, old + 1)``, inline
        if tally is not None:
            tally.items += 1
            if old == 0 and self._internal:
                tally.nonempty_internal += 1
        return ready

    def push_batch(self, port_name: str, items: list[Any]) -> None:
        """Push a train of items, updating the tally once.

        Tie-break serials are drawn in list order — exactly the draws a
        per-item :meth:`push` loop would make — so pop order is
        identical.  A train whose keys continue the current sorted run
        (the common case: arrivals in timestamp order landing behind
        earlier arrivals) extends in O(k); anything else falls back to
        heap mode.
        """
        if not items:
            return
        heap = self._heap
        old = len(heap) - self._head
        ready_items = [ReadyItem(port_name, item) for item in items]
        in_order = True
        previous = ready_items[0]
        for ready in ready_items:
            if ready.sort_key < previous.sort_key:
                in_order = False
                break
            previous = ready
        if self._sorted and in_order:
            if old == 0 and heap:
                heap.clear()
                self._head = 0
            if not heap or heap[-1].sort_key <= ready_items[0].sort_key:
                heap.extend(ready_items)
            else:
                self._enter_heap_mode()
                for ready in ready_items:
                    heapq.heappush(self._heap, ready)
        else:
            self._enter_heap_mode()
            for ready in ready_items:
                heapq.heappush(self._heap, ready)
        self._resized(old, old + len(ready_items))

    def pop(self) -> Optional[ReadyItem]:
        heap = self._heap
        head = self._head
        n = len(heap)
        if head >= n:
            return None
        if self._sorted:
            item = heap[head]
            heap[head] = None  # type: ignore[call-overload] # drop ref
            head += 1
            if head == n:
                heap.clear()
                self._head = 0
            elif head >= 256 and head * 2 >= n:
                del heap[:head]
                self._head = 0
            else:
                self._head = head
        else:
            item = heapq.heappop(heap)
        tally = self._tally  # ``_resized(size, size - 1)``, inline
        if tally is not None:
            tally.items -= 1
            if self._internal and self._head == len(heap):
                tally.nonempty_internal -= 1
        return item

    def peek(self) -> Optional[ReadyItem]:
        heap = self._heap
        return heap[self._head] if self._head < len(heap) else None

    def __len__(self) -> int:
        return len(self._heap) - self._head

    def __bool__(self) -> bool:
        return self._head < len(self._heap)

    def clear(self) -> None:
        size = len(self._heap) - self._head
        self._heap.clear()
        self._head = 0
        self._sorted = True
        self._resized(size, 0)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot_items(self) -> list[ReadyItem]:
        """A copy of the live items, in heap order (pure observation).

        In sorted-run mode the live suffix is ascending, which is a
        valid heap; in heap mode the whole list is the heap.  Either
        way the copy restores to an identical pop sequence.
        :class:`ReadyItem` pickles with its ``sort_key`` intact
        (``__init__`` is bypassed), so the global tie-break counter is
        not consumed when a snapshot round-trips.
        """
        return list(self._heap[self._head :])

    def restore_items(self, items: list[ReadyItem]) -> None:
        """Replace the queue content, keeping the tally honest.

        The input must already be in heap order — :meth:`snapshot_items`
        output qualifies.  A fully ascending input re-enters sorted-run
        mode (pop order is the same in both modes; only the constant
        factor differs).  The tally sees the real transition, so the
        scheduler's O(1) backlog counters stay exact.
        """
        old = len(self._heap) - self._head
        self._heap = list(items)
        self._head = 0
        self._sorted = all(
            self._heap[i].sort_key <= self._heap[i + 1].sort_key
            for i in range(len(self._heap) - 1)
        )
        self._resized(old, len(self._heap))

"""Per-actor ready queues: the event staging area inside the scheduler.

The abstract scheduler "maintains a list of the workflow's actors, and maps
them to queues of events (sorted by timestamp) that should be propagated to
each actor's corresponding input ports when they are to be scheduled for
execution."  A :class:`ReadyItem` remembers which input port the window or
event belongs to so the director can stage it correctly.

Ready queues sit on the per-event enqueue path, so they stay lean: the
sort key is read straight off the item (windows and events expose the same
``timestamp`` attribute — no type dispatch needed), and an optional shared
:class:`BacklogTally` lets the owning scheduler keep an O(1) aggregate backlog
count instead of re-summing every queue.
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Any, Optional

_TIEBREAK = itertools.count()


class BacklogTally:
    """The aggregate counter over the ready queues that share this tally."""

    __slots__ = ("items",)

    def __init__(self):
        #: Ready items across every sharing queue.
        self.items = 0


class ReadyItem:
    """One schedulable unit of work for an actor: (port, window-or-event).

    A hand-rolled slotted class rather than ``@dataclass(order=True)``:
    the generated comparator rebuilt compare-tuples on every comparison
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

    ``_items[_head:]`` is ascending by ``sort_key``: pops advance the
    ``_head`` cursor in O(1) and pushes that arrive in key order append
    in O(1) — the steady state of event streams, where trains land as
    sorted runs and per-event pushes draw monotone tie-break serials.
    The rare out-of-order push (a late window behind queued events) is
    a binary insertion into the live suffix.
    """

    __slots__ = ("_items", "_head", "_tally")

    def __init__(self, tally: Optional[BacklogTally] = None):
        self._items: list[ReadyItem] = []
        self._head = 0
        self._tally = tally

    def _resized(self, delta: int) -> None:
        """Keep the shared tally exact across a size change."""
        if self._tally is not None:
            self._tally.items += delta

    # ------------------------------------------------------------------
    def push(self, port_name: str, item: Any) -> ReadyItem:
        ready = ReadyItem(port_name, item)
        items = self._items
        # An empty queue is an empty list: ``pop`` clears it on the way out.
        if not items or items[-1].sort_key <= ready.sort_key:
            items.append(ready)
        else:
            insort(items, ready, lo=self._head)
        tally = self._tally  # ``_resized(1)``, inline
        if tally is not None:
            tally.items += 1
        return ready

    def push_batch(self, port_name: str, items: list[Any]) -> None:
        """Push a train of items, updating the tally once.

        Tie-break serials are drawn in list order — exactly the draws a
        per-item :meth:`push` loop would make — so pop order is
        identical.  A train whose keys continue the queue's ascending
        run (the common case: arrivals in timestamp order landing behind
        earlier arrivals) extends in O(k); anything else is inserted
        item by item.
        """
        if not items:
            return
        queue = self._items
        ready_items = [ReadyItem(port_name, item) for item in items]
        in_order = True
        previous = queue[-1] if queue else ready_items[0]
        for ready in ready_items:
            if ready.sort_key < previous.sort_key:
                in_order = False
                break
            previous = ready
        if in_order:
            queue.extend(ready_items)
        else:
            head = self._head
            for ready in ready_items:
                insort(queue, ready, lo=head)
        self._resized(len(ready_items))

    def pop(self) -> Optional[ReadyItem]:
        items = self._items
        head = self._head
        n = len(items)
        if head >= n:
            return None
        item = items[head]
        items[head] = None  # type: ignore[call-overload] # drop ref
        head += 1
        if head == n:
            items.clear()
            self._head = 0
        elif head >= 256 and head * 2 >= n:
            del items[:head]
            self._head = 0
        else:
            self._head = head
        tally = self._tally  # ``_resized(-1)``, inline
        if tally is not None:
            tally.items -= 1
        return item

    def peek(self) -> Optional[ReadyItem]:
        items = self._items
        return items[self._head] if self._head < len(items) else None

    def __len__(self) -> int:
        return len(self._items) - self._head

    def __bool__(self) -> bool:
        return self._head < len(self._items)

    def clear(self) -> None:
        size = len(self._items) - self._head
        self._items.clear()
        self._head = 0
        self._resized(-size)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def snapshot_items(self) -> list[ReadyItem]:
        """A copy of the live items, ascending (pure observation).

        :class:`ReadyItem` pickles with its ``sort_key`` intact
        (``__init__`` is bypassed), so the global tie-break counter is
        not consumed when a snapshot round-trips.
        """
        return self._items[self._head :]

    def restore_items(self, items: list[ReadyItem]) -> None:
        """Replace the queue content, keeping the tally honest.

        Sorted on the way in: a snapshot written while a queue was a
        binary heap (PR <= 18) lists its items in heap order, and keys
        are globally unique, so sorting restores the identical pop
        sequence.  The tally sees the real transition, so the
        scheduler's O(1) backlog counter stays exact.
        """
        old = len(self._items) - self._head
        self._items = sorted(items)
        self._head = 0
        self._resized(len(self._items) - old)

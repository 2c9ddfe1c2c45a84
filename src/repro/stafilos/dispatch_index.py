"""The incrementally maintained dispatch index of STAFiLOS schedulers.

Instead of rescanning every actor with an ``O(A)`` ``min()`` on each
dispatch, the abstract scheduler keeps an *index* of ACTIVE actors that
is repaired incrementally at the existing state-transition points
(enqueue, dequeue, fire-end, re-quantification):

:class:`LazyHeapIndex`
    A lazy-deletion min-heap keyed by the policy comparator — the one
    index every policy uses.  Under RR the key is the rotation ticket,
    making the heap a rotating *ready-ring*; under QBS it is ``(priority,
    head-event time)``, the paper's "ascending priority order, FIFO
    within a class".  ``update`` is ``O(log A)`` with a key and ``O(1)``
    without one; ``peek`` is amortized ``O(log A)``.

*Lazy deletion*: dropping or re-keying an actor is a version bump, and
stale heap entries are discarded when they surface at the top.  A
compaction pass rebuilds the heap when stale entries outnumber live ones
by 4x, bounding memory to ``O(A)`` amortized.

Determinism: every entry carries the actor's position in the scheduler's
actor list as the final tie-break, so the index reproduces the historical
``min(actors, key=...)`` selection *bit-identically* — ``min`` returns the
first minimal element in list order, which is exactly the ``(key, order)``
minimum.  ``tests/test_dispatch_index.py`` holds the oracle property test
asserting this equivalence against the kept-in-tests naive scan.
"""

from __future__ import annotations

import heapq
from typing import Any, Optional

#: Sentinel used by comparator keys when an actor holds no ready events:
#: event-less actors must sort *after* every actor holding events within
#: the same priority class (FIFO-within-class), so the fallback is +inf,
#: not 0.
INF_TIME = float("inf")

#: Rebuild a lazy heap once it holds this many times more entries than
#: live actors (and is at least ``_COMPACT_MIN`` long).
_COMPACT_FACTOR = 4
_COMPACT_MIN = 64


class LazyHeapIndex:
    """Lazy-deletion min-heap of ACTIVE actors keyed by ``(key, order)``.

    Entries are ``(key, order, version, name)``; an entry is *live* iff its
    version matches the actor's current version.  ``update`` bumps the
    version and pushes the new entry, if any; ``peek`` pops stale tops
    until a live entry surfaces.
    """

    __slots__ = ("_heap", "_version", "_live")

    def __init__(self) -> None:
        self._heap: list[tuple[Any, int, int, str]] = []
        self._version: dict[str, int] = {}
        self._live: set[str] = set()

    # ------------------------------------------------------------------
    def update(self, name: str, key: Any, order: int) -> None:
        """Re-key *name* as ACTIVE under *key*, or drop it when *key* is
        ``None`` (the actor is not ACTIVE).  Its older entries go stale."""
        version = self._version
        version[name] = version.get(name, 0) + 1
        if key is None:
            self._live.discard(name)
            return
        live = self._live
        live.add(name)
        heap = self._heap
        heapq.heappush(heap, (key, order, version[name], name))
        if len(heap) >= _COMPACT_MIN and len(heap) > _COMPACT_FACTOR * max(
            1, len(live)
        ):
            self._compact()

    def peek(self) -> Optional[str]:
        """Name of the minimum-key live actor, or ``None``.

        An entry whose version is current is live: every version bump
        but an ``insert``'s (or an ``update``'s with a key) drops the
        name from the live set and pushes no entry.
        """
        heap = self._heap
        version = self._version
        while heap:
            _, _, entry_version, name = heap[0]
            if entry_version == version[name]:
                return name
            heapq.heappop(heap)
        return None

    # ------------------------------------------------------------------
    def _compact(self) -> None:
        version = self._version
        live = self._live
        self._heap = [
            entry
            for entry in self._heap
            if entry[2] == version.get(entry[3], 0) and entry[3] in live
        ]
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._live)

    def __contains__(self, name: str) -> bool:
        return name in self._live

    def heap_size(self) -> int:
        """Physical heap length including stale entries (introspection)."""
        return len(self._heap)

    def clear(self) -> None:
        self._heap.clear()
        self._version.clear()
        self._live.clear()
